"""Immutable simple-graph core: components, induced statistics, cutset reports.

Vertices are dense 0-based ints. The constructor rejects self-loops and
parallel edges instead of normalizing them, so every Graph is a simple
graph by construction. All derived quantities that feed certificates are
exact: average degrees are rationals, never floats.

A vertex set is a sorted tuple of distinct ids, the same shape that
certificates hold. The functions here accept any iterable of ids, drop
repeats, and reject an id that is not an int (a bool is not) or not in
range with GraphError; every set they return is such a tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import GraphError, InternalInvariantError, PreconditionError


class Graph:
    """Immutable simple graph on vertices 0..n-1."""

    __slots__ = ("n", "m", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if type(n) is not int or n < 0:
            raise GraphError(f"vertex count must be a non-negative int, got {n!r}")
        # kept whole, so that a refused one-shot iterator can still be named
        pairs = list(edges)
        adj: list = [[] for _ in range(n)]
        try:
            for u, v in pairs:
                if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):
                    raise ValueError
                if u == v:
                    raise ValueError
                adj[u].append(v)
                adj[v].append(u)
            # a parallel edge repeats a neighbour, next to its twin once sorted.
            # Each list becomes its tuple in place, so the conversion makes
            # no net container for the garbage collector to count
            for i, a in enumerate(adj):
                a.sort()
                last = -1
                for v in a:
                    if v == last:
                        raise ValueError
                    last = v
                adj[i] = tuple(a)
        except (TypeError, ValueError):
            raise GraphError(_first_fault(n, pairs)) from None
        self.n = n
        self.m = len(pairs)
        self._adj: tuple[tuple[int, ...], ...] = tuple(adj)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as sorted (u, v) pairs with u < v."""
        return tuple([(u, v) for u, nb in enumerate(self._adj) for v in nb if v > u])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def neighbor_set(self, v: int) -> frozenset[int]:
        return frozenset(self._adj[v])

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def max_degree(self) -> int:
        return max((len(a) for a in self._adj), default=0)

    def min_degree(self) -> int:
        return min((len(a) for a in self._adj), default=0)

    def vertices(self) -> range:
        return range(self.n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _first_fault(n: int, pairs: list) -> str:
    """What is wrong with the first edge, in input order, that Graph refuses."""
    seen = set()
    for e in pairs:
        try:
            u, v = e
        except (TypeError, ValueError):
            return f"edge must be a pair, got {e!r}"
        if type(u) is not int or type(v) is not int:
            return f"edge endpoints must be ints, got {e!r}"
        if not (0 <= u < n and 0 <= v < n):
            return f"edge {e!r} out of range for n={n}"
        if u == v:
            return f"self-loop at vertex {u} rejected"
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return f"parallel edge {key!r} rejected"
        seen.add(key)
    raise InternalInvariantError(f"Graph refused {len(pairs)} edges without a fault among them")


@dataclass(frozen=True)
class CutsetReport:
    """Exact statistics for a vertex set considered as a cutset.

    avg_degree_in_s is kept as an exact rational via the induced edge
    count. minimal is decided exactly, for a set of any size, from the
    components of G - S: S is an inclusion-minimal cutset iff G - S has two
    or more components and each has a neighbour at every vertex of S.
    """

    cutset: tuple[int, ...]
    max_degree_in_s: int
    induced_edge_count: int
    component_count: int
    minimal: bool

    @property
    def is_cutset(self) -> bool:
        return self.component_count >= 2

    @property
    def avg_degree_in_s(self) -> Fraction:
        if len(self.cutset) == 0:
            return Fraction(0)
        return Fraction(2 * self.induced_edge_count, len(self.cutset))


def _ids(g: Graph, s: Iterable[int]) -> tuple[int, ...]:
    """The distinct ids of s, sorted, each checked to be a vertex of g."""
    given = list(s)
    # types first, in the given order: sorting a mix of ints and other
    # values would raise a bare TypeError
    for v in given:
        if type(v) is not int:
            raise GraphError(f"vertex id must be an int, got {v!r}")
    ids = tuple(sorted(set(given)))
    for v in ids:
        if not (0 <= v < g.n):
            raise GraphError(f"vertex id {v} out of range for n={g.n}")
    return ids


def components(g: Graph, removed: Iterable[int] = ()) -> list[tuple[int, ...]]:
    """Connected components of g minus the removed set, each sorted, ordered
    by smallest member."""
    seen = [False] * g.n
    for v in _ids(g, removed):
        seen[v] = True
    out: list[tuple[int, ...]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        # the breadth-first queue, kept whole, is the component
        comp = [start]
        seen[start] = True
        for v in comp:
            for w in g.neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        out.append(tuple(sorted(comp)))
    return out


def is_connected(g: Graph) -> bool:
    return g.n == 0 or len(components(g)) == 1


def is_cutset(g: Graph, s: Iterable[int]) -> bool:
    """Whether removing s leaves at least two components.

    The empty set is a cutset exactly when g is already disconnected.
    Passing all of V(G) is an error: there is nothing left to disconnect.
    """
    ids = _ids(g, s)
    if len(ids) == g.n:
        raise PreconditionError("is_cutset: S must be a proper subset of V(G)")
    return len(components(g, ids)) >= 2


def induced_stats(g: Graph, s: Iterable[int]) -> CutsetReport:
    """Full exact report for s: degrees, components, minimality."""
    ids = _ids(g, s)
    comps = components(g, ids)
    inside = set(ids)
    degrees = [sum(1 for w in g.neighbors(u) if w in inside) for u in ids]
    return CutsetReport(
        cutset=ids,
        max_degree_in_s=max(degrees, default=0),
        induced_edge_count=sum(degrees) // 2,
        component_count=len(comps),
        minimal=_minimality(g, ids, comps),
    )


def _minimality(g: Graph, ids: tuple[int, ...], comps: list[tuple[int, ...]]) -> bool:
    # the rule in CutsetReport: a vertex of S that misses a component C can
    # leave S with C still cut off, while vertices touching every component
    # join them all again once any proper subset of S is removed
    if len(comps) < 2:
        return False
    label = {v: i for i, comp in enumerate(comps) for v in comp}
    return all(
        len({label[w] for w in g.neighbors(u) if w in label}) == len(comps)
        for u in ids
    )


def min_degree_vertex(g: Graph) -> int:
    """Smallest-id vertex of minimum degree."""
    if g.n == 0:
        raise PreconditionError("min_degree_vertex: graph has no vertices")
    degrees = [len(a) for a in g._adj]
    return degrees.index(min(degrees))
