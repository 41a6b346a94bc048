"""Certificate types emitted by the cutset constructions.

A certificate carries everything needed to re-check the claim against the
graph alone: the vertex data plus the exact bounds that were promised.
Average-degree bounds are strict and kept as integer fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import GraphError


@dataclass(frozen=True)
class GoodCutset:
    """A cutset with promised size / internal-degree / average bounds."""

    cutset: tuple[int, ...]
    size_bound: int | None = None
    degree_bound: int | None = None
    avg_bound_strict: tuple[int, int] | None = None
    require_minimal: bool = False


@dataclass(frozen=True)
class IndependentCutset:
    """A cutset inducing no edges at all."""

    cutset: tuple[int, ...]
    size_bound: int | None = None


@dataclass(frozen=True)
class KrrWitness:
    """A complete bipartite K_{r,r} subgraph: every side_a/side_b pair adjacent."""

    r: int
    side_a: tuple[int, ...]
    side_b: tuple[int, ...]


@dataclass(frozen=True)
class SquaredCycleIso:
    """An isomorphism onto a squared cycle, as the vertex order around it.

    order[i] is the vertex at cyclic position i; adjacency must match
    cyclic distance 1 or 2 exactly.
    """

    order: tuple[int, ...]


@dataclass(frozen=True)
class IsIcosahedron:
    """The graph is the icosahedron: order 12 and every neighborhood induces C5."""


Certificate = GoodCutset | IndependentCutset | KrrWitness | SquaredCycleIso | IsIcosahedron

_KINDS = {
    "good-cutset": GoodCutset,
    "independent-cutset": IndependentCutset,
    "krr-witness": KrrWitness,
    "squared-cycle-iso": SquaredCycleIso,
    "is-icosahedron": IsIcosahedron,
}


def certificate_kind(cert: Certificate) -> str:
    for kind, cls in _KINDS.items():
        if isinstance(cert, cls):
            return kind
    raise GraphError(f"unknown certificate type {type(cert).__name__}")


def certificate_to_dict(cert: Certificate) -> dict:
    """Stable JSON-ready form: a 'kind' tag, then each field in declaration
    order, with tuples as lists."""
    out: dict = {"kind": certificate_kind(cert)}
    for field in fields(cert):
        value = getattr(cert, field.name)
        out[field.name] = list(value) if isinstance(value, tuple) else value
    return out


def _ints(data: dict, key: str) -> tuple[int, ...]:
    raw = data[key]
    if not isinstance(raw, list) or any(type(v) is not int for v in raw):
        raise ValueError(f"{key} must be a list of ints")
    return tuple(raw)


def _bound(data: dict, key: str) -> int | None:
    value = data.get(key)
    if value is not None and type(value) is not int:
        raise ValueError(f"{key} must be an int or null")
    return value


def certificate_from_dict(data: dict) -> Certificate:
    """Rebuild a certificate from its JSON form, checking every field's type."""
    try:
        kind = data["kind"]
    except (TypeError, KeyError):
        raise GraphError("certificate payload must be an object with a 'kind' tag")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise GraphError(f"unknown certificate kind {kind!r}")
    try:
        if kind == "good-cutset":
            avg = None
            if data.get("avg_bound_strict") is not None:
                avg = _ints(data, "avg_bound_strict")
                if len(avg) != 2 or avg[1] <= 0:
                    raise ValueError("avg_bound_strict must be [numerator, positive denominator]")
            if type(data.get("require_minimal", False)) is not bool:
                raise ValueError("require_minimal must be true or false")
            return GoodCutset(
                cutset=_ints(data, "cutset"),
                size_bound=_bound(data, "size_bound"),
                degree_bound=_bound(data, "degree_bound"),
                avg_bound_strict=avg,
                require_minimal=data.get("require_minimal", False),
            )
        if kind == "independent-cutset":
            return IndependentCutset(
                cutset=_ints(data, "cutset"), size_bound=_bound(data, "size_bound")
            )
        if kind == "krr-witness":
            if type(data["r"]) is not int:
                raise ValueError("r must be an int")
            return KrrWitness(
                r=data["r"], side_a=_ints(data, "side_a"), side_b=_ints(data, "side_b")
            )
        if kind == "squared-cycle-iso":
            return SquaredCycleIso(order=_ints(data, "order"))
        return IsIcosahedron()
    except (KeyError, ValueError) as exc:
        raise GraphError(f"malformed {kind} certificate: {exc}") from None
