"""Certificate types emitted by the cutset constructions.

A certificate carries everything needed to re-check the claim against the
graph alone: the vertex data plus the exact bounds that were promised.
Average-degree bounds are strict and kept as integer fractions.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields

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


def _int_list(value) -> bool:
    # JSON gives lists, Python callers tuples; type(True) is bool
    return isinstance(value, (list, tuple)) and {*map(type, value)} <= {int}


# each type a certificate field declares: the checks its value must
# pass, in order, each with what the value must be when it fails
_FIELD_CHECKS = {
    "tuple[int, ...]": ((_int_list, "a list of ints"),),
    "int": ((lambda v: type(v) is int, "an int"),),
    "int | None": ((lambda v: v is None or type(v) is int, "an int or null"),),
    "bool": ((lambda v: type(v) is bool, "true or false"),),
    "tuple[int, int] | None": (
        (lambda v: v is None or _int_list(v), "a list of ints"),
        (lambda v: v is None or (len(v) == 2 and v[1] > 0), "[numerator, positive denominator]"),
    ),
}

# each kind's field checks, field by field in declaration order: (name, check)
_CHECKS = {
    cls: tuple((f.name, ok) for f in fields(cls) for ok, _ in _FIELD_CHECKS[f.type])
    for cls in _KINDS.values()
}


def _fields_fit(cert: Certificate) -> bool:
    """Whether each field of cert passes the checks of its declared type, as
    in certificate_from_dict; a subclass is judged by its kind's fields."""
    for name, ok in _CHECKS.get(type(cert)) or _CHECKS[_KINDS[certificate_kind(cert)]]:
        if not ok(getattr(cert, name)):
            return False
    return True


def certificate_from_dict(data: dict) -> Certificate:
    """Rebuild a certificate from its JSON form, checking each field's value
    against its declared type; a missing field takes its default if any."""
    try:
        kind = data["kind"]
    except (TypeError, KeyError):
        raise GraphError("certificate payload must be an object with a 'kind' tag")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise GraphError(f"unknown certificate kind {kind!r}")
    cls = _KINDS[kind]
    values = {}
    for field in fields(cls):
        if field.name not in data:
            if field.default is MISSING:
                raise GraphError(f"malformed {kind} certificate: {field.name!r}")
            continue
        value = data[field.name]
        for ok, shape in _FIELD_CHECKS[field.type]:
            if not ok(value):
                raise GraphError(f"malformed {kind} certificate: {field.name} must be {shape}")
        values[field.name] = tuple(value) if isinstance(value, list) else value
    return cls(**values)
