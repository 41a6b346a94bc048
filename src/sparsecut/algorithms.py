"""Constructive separator procedures with per-step self-auditing.

Each routine builds its answer through explicit growth loops, swaps, or
contractions and re-checks its bookkeeping against the graph at every
transition via ensure(). The answer itself is checked once, at the end:
every returned certificate passes the independent oracle check
(verify_certificate), which recomputes separation, size and internal
degree from the graph alone, before it is handed back.

thm3 and thm4 take the vertex connectivity from this module's own fans
and flows (_connectivity), code apart from the oracle's
vertex_connectivity, so thm4's check of that value against the oracle's
enumeration of minimum cutsets is a real second opinion. Likewise thm3
proposes its own squared-cycle order, from a walk along the cycle
(_squared_cycle_walk), for the oracle to judge, and finds the last
vertex of each candidate cutset by its own lowpoint pass
(_last_cut_vertices), apart from the oracle's _cut_vertices.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass
from itertools import combinations, permutations

from .certificates import (
    Certificate,
    GoodCutset,
    IndependentCutset,
    IsIcosahedron,
    KrrWitness,
    SquaredCycleIso,
)
from .errors import NoCutsetFound, PreconditionError, ensure, require_int
from .graph import (
    Graph,
    _ids,
    components,
    is_connected,
    min_degree_vertex,
)
from .oracles import (
    OracleBudget,
    enumerate_min_cutsets,
    find_independent_cutset,
    verify_certificate,
)


@dataclass(frozen=True)
class GrowthState:
    """One snapshot of the grow-and-swap separator construction.

    u_side is the grown component U, s_side the current separator S,
    n_i = |S| and m_i the number of edges between S and U. step counts
    states from 1, so u_side always has exactly step vertices.
    """

    u_side: tuple[int, ...]
    s_side: tuple[int, ...]
    n_i: int
    m_i: int
    step: int


@dataclass(frozen=True)
class Thm5State:
    """Snapshot of the degree-or-biclique growth at step i.

    c_side is the grown side C with |C| = step, s_side the separator S,
    and t_core the subset T of S completely joined to C. c is the derived
    sparsity constant 3 + floor(2(delta - 3r + 2) / (r(r-1))).
    """

    s_side: tuple[int, ...]
    c_side: tuple[int, ...]
    t_core: tuple[int, ...]
    step: int
    delta: int
    r: int
    c: int


class _Meter:
    """Hard step counter guarding every loop against runaway iteration."""

    __slots__ = ("count", "limit", "label")

    def __init__(self, limit: int, label: str):
        self.count = 0
        self.limit = limit
        self.label = label

    def tick(self) -> None:
        self.count += 1
        ensure(
            self.count <= self.limit,
            f"{self.label}: exceeded the step bound of {self.limit}",
        )


def _require_connected(g: Graph, who: str) -> None:
    if g.n == 0 or not is_connected(g):
        raise PreconditionError(f"{who} requires a connected nonempty graph")


def _require_regular(g: Graph, d: int, who: str) -> None:
    if g.n == 0:
        raise PreconditionError(f"{who} requires a nonempty graph")
    for v in g.vertices():
        if g.degree(v) != d:
            raise PreconditionError(
                f"{who} requires a {d}-regular graph; "
                f"vertex {v} has degree {g.degree(v)}"
            )


def _edges_between(g: Graph, a: set[int], b: set[int]) -> int:
    """Edge count between two disjoint vertex sets."""
    return sum(1 for x in a for y in g.neighbors(x) if y in b)


def _link_is(g: Graph, v: int, size: int, k: int) -> bool:
    """Whether N(v) has size vertices, each with exactly k neighbors inside
    N(v): (5, 2) means N(v) induces C5 and (4, 1) means it induces 2K2."""
    link = g.neighbor_set(v)
    return len(link) == size and all(
        len(link.intersection(g.neighbors(u))) == k for u in link
    )


def _verified(
    g: Graph, cert: Certificate, message: str = "cutset failed oracle re-verification"
) -> Certificate:
    """The certificate, once the independent oracle has re-checked it."""
    ensure(verify_certificate(g, cert), message)
    return cert


def _pick(g: Graph, s_side: set[int], t: int) -> int | None:
    """Smallest separator vertex with at least t neighbors inside S."""
    return next(
        (x for x in sorted(s_side) if len(g.neighbor_set(x) & s_side) >= t), None
    )


def _move(g: Graph, v: int, grown: set[int], s_side: set[int], cap: int) -> set[int]:
    """Move separator vertex v into the grown side.

    v must touch the grown side and have at most cap neighbors outside both
    sides; those fresh neighbors join the separator and are returned.
    """
    ensure(
        bool(g.neighbor_set(v) & grown),
        "moved vertex has no neighbor in the grown side",
    )
    fresh = g.neighbor_set(v) - s_side - grown
    ensure(
        len(fresh) <= cap,
        f"moved vertex has {len(fresh)} neighbors outside separator and grown side, "
        f"above the cap of {cap}",
    )
    s_side.discard(v)
    s_side |= fresh
    grown.add(v)
    return fresh


def _audit_growth(g: Graph, u_side: set[int], s_side: set[int]) -> None:
    """Recompute the two standing growth invariants from the graph, around
    the grown side only: U is a full component of G - S exactly when U is
    nonempty and misses S, G[U] is connected, and every neighbor of U
    outside U is in S, which a search within U checks in O(delta * |U|)."""
    reached = [next(iter(u_side))] if u_side else []
    seen = set(reached)
    closed = u_side.isdisjoint(s_side)
    for x in reached:
        for y in g.neighbors(x):
            if y in u_side:
                if y not in seen:
                    seen.add(y)
                    reached.append(y)
            elif y not in s_side:
                closed = False
    ensure(
        bool(u_side) and closed and len(seen) == len(u_side),
        "grown side is not a full component of the graph minus the separator",
    )
    ensure(
        all(g.neighbor_set(x) & u_side for x in s_side),
        "separator vertex without a neighbor in the grown side",
    )


def _run_growth(
    g: Graph,
    delta: int,
    u_side: set[int],
    s_side: set[int],
    trace: list[GrowthState] | None,
    meter: _Meter,
) -> int:
    """Swap high-degree separator vertices into the grown side.

    Runs until the separator's internal max degree drops below delta - 2.
    Mutates u_side and s_side in place, checks the two-case edge ledger
    after every transition, records every state (the starting one
    included) in trace, and returns the final edge count between S and U.
    """
    m_now = _edges_between(g, s_side, u_side)
    while True:
        if trace is not None:
            trace.append(
                GrowthState(
                    u_side=tuple(sorted(u_side)),
                    s_side=tuple(sorted(s_side)),
                    n_i=len(s_side),
                    m_i=m_now,
                    step=len(u_side),
                )
            )
        v = _pick(g, s_side, delta - 2)
        if v is None:
            return m_now
        meter.tick()
        n_before, m_before = len(s_side), m_now
        fresh = _move(g, v, u_side, s_side, 1)
        n_after = len(s_side)
        m_now = _edges_between(g, s_side, u_side)
        if fresh:
            ensure(
                n_after == n_before and m_now >= m_before + (delta - 2),
                "edge ledger violated in the swap-in case",
            )
        else:
            ensure(
                n_after == n_before - 1 and m_now >= m_before + (delta - 4),
                "edge ledger violated in the shrink case",
            )
        ensure(
            m_now - 2 * n_after >= m_before - 2 * n_before + (delta - 2),
            "boundary potential m - 2n rose by less than delta - 2",
        )
        _audit_growth(g, u_side, s_side)


def theorem1_cutset(
    g: Graph, delta: int, trace: list[GrowthState] | None = None
) -> GoodCutset:
    """Cutset of order at most delta with internal max degree <= delta - 3.

    Works on any connected graph of max degree <= delta and order at least
    2*delta + 4 with delta >= 3. The grow-and-swap loop starts from a
    min-degree vertex and its neighborhood and uses at most delta + 3
    states; a neighborhood of at most delta - 2 vertices has internal max
    degree at most delta - 3, so the loop stops at its first state. Pass a
    list as trace to collect the GrowthStates.
    """
    require_int(delta, "theorem1_cutset: delta")
    if delta < 3:
        raise PreconditionError(f"theorem1_cutset: delta must be at least 3, got {delta}")
    _require_connected(g, "theorem1_cutset")
    if g.max_degree() > delta:
        raise PreconditionError(
            f"theorem1_cutset: max degree {g.max_degree()} exceeds delta={delta}"
        )
    if g.n < 2 * delta + 4:
        raise PreconditionError(
            f"theorem1_cutset: order {g.n} is below 2*delta+4 = {2 * delta + 4}"
        )
    u = min_degree_vertex(g)
    u_side = {u}
    s_side = set(g.neighbors(u))
    meter = _Meter(delta + 2, "theorem1_cutset growth")
    _run_growth(g, delta, u_side, s_side, trace, meter)
    ensure(
        len(u_side) + len(s_side) < g.n,
        "separator and grown side swallowed the whole graph",
    )
    cert = GoodCutset(
        cutset=tuple(sorted(s_side)), size_bound=delta, degree_bound=delta - 3
    )
    return _verified(g, cert)


def theorem2_cutset(g: Graph, allow_small: bool = False) -> Certificate:
    """For connected 5-regular graphs of order >= 14: a GoodCutset with
    at most 5 vertices, internal max degree <= 2, and average internal
    degree strictly below 2.

    With allow_small the order gate is lifted for experimentation; then
    IsIcosahedron becomes a reachable answer and any construction dead end
    surfaces as NoCutsetFound instead of an invariant breach.
    """
    _require_connected(g, "theorem2_cutset")
    _require_regular(g, 5, "theorem2_cutset")
    if g.n < 14 and not allow_small:
        raise PreconditionError(
            f"theorem2_cutset: order {g.n} is below the supported threshold 14 "
            "(pass allow_small to experiment)"
        )
    u = next((v for v in g.vertices() if not _link_is(g, v, 5, 2)), None)
    if u is None:
        return _verified(
            g,
            IsIcosahedron(),
            "every neighborhood induces C5 yet the graph is not the icosahedron",
        )
    s_side = set(g.neighbors(u))
    u_side = {u}
    meter = _Meter(100, "theorem2_cutset")
    while True:
        boundary = _run_growth(g, 5, u_side, s_side, None, meter)
        ensure(boundary <= 25, "boundary edge count exceeds the 5-regular ceiling")
        if any(len(g.neighbor_set(x) & s_side) != 2 for x in s_side):
            # internal max degree is <= 2 but not 2-regular, so the average
            # is strictly below 2 already. N(u) is never 2-regular (its five
            # vertices would induce C5), so a sparse N(u) ends here at once
            return _finish_thm2(g, s_side, allow_small)
        lonely = next(
            (x for x in sorted(s_side) if g.neighbor_set(x) <= u_side | s_side), None
        )
        if lonely is not None:
            return _finish_thm2(g, s_side - {lonely}, allow_small)
        ensure(
            boundary > len(s_side),
            "an induced separator cycle needs more boundary edges than vertices",
        )
        v = next(
            (x for x in sorted(s_side) if len(g.neighbor_set(x) & u_side) == 2),
            None,
        )
        ensure(v is not None, "no separator vertex with exactly two grown-side neighbors")
        size_before = len(s_side)
        fresh = _move(g, v, u_side, s_side, 1)
        ensure(len(fresh) == 1, "swap vertex must have exactly one outside neighbor")
        meter.tick()
        ensure(
            len(s_side) == size_before
            and _edges_between(g, s_side, u_side) > boundary,
            "swap must keep the separator size and raise the boundary count",
        )
        _audit_growth(g, u_side, s_side)


def _finish_thm2(g: Graph, s_side: set[int], allow_small: bool) -> Certificate:
    splits = len(components(g, s_side)) >= 2
    if not splits and allow_small and g.n < 14:
        raise NoCutsetFound(
            "theorem2_cutset: candidate separator does not disconnect the graph "
            f"at order {g.n}; the guarantee starts at 14"
        )
    ensure(splits, "candidate separator does not disconnect the graph")
    cert = GoodCutset(
        cutset=tuple(sorted(s_side)),
        size_bound=5,
        degree_bound=2,
        avg_bound_strict=(2, 1),
    )
    return _verified(g, cert)


def _connectivity(g: Graph) -> int:
    """Vertex connectivity of a nonempty graph by unit-capacity flows, with
    the check of Even (SIAM J. Comput. 1975) and the pairs of Esfahanian
    and Hakimi (Networks 1984).

    v0 is the smallest-id vertex of minimum degree δ, and best starts at δ.
    W starts as v0 and its neighbors. Every other vertex u asks for best
    paths into W that share only u, then joins W; only a fan that falls
    short runs the flow from v0 to u, which may lower best. Suppose a
    minimum cutset S misses v0 and κ < best. Let u be the first vertex in
    neither S nor v0's component C of G - S: W lies in C ∪ S when u asks,
    so its fan falls short, and S caps the flow from v0 to u at κ. Any
    order of the u would do; the order only sets how far a fan travels.
    The u come in bit-reversal order of the ids 0 .. 2^b - 1, 2^b the
    least power of two ≥ n, less the ids ≥ n. The first m = 2^j ids of
    that order hold every multiple of 2^b/m below n, so no cyclic gap
    between them exceeds 2^b/m < 2n/m. In id order W would grow as one arc
    around a squared cycle and each fan would go the long way round, a
    quadratic run; bit reversal scatters W around it, so each fan finds W
    close by. Most calls then end in their first search (_branch_ends),
    which stops once best branches from u reach W: the run reads about 14
    residual sets per vertex on random 4-regular graphs, against about 110
    with augmenting searches alone, and half to two thirds as many as
    those alone on squared cycles.
    A minimum cutset that holds v0 keeps two non-adjacent neighbors of v0
    apart, so each such pair keeps its flow. A disconnected graph gets 0
    after its first short fan, and a complete graph, with no u and no
    pair, gets δ = n - 1.
    """
    v0 = min_degree_vertex(g)
    # the split network's residual arcs: node v is v's in side, node n + v
    # its out side. Every arc has capacity 1 and no arc has a reverse twin,
    # so the set of heads per node is the whole residual state.
    n = g.n
    residual = [{n + v} for v in range(n)] + [set(g.neighbors(v)) for v in range(n)]
    best = g.degree(v0)
    joined = {v0, *g.neighbors(v0)}
    spread = [0]
    while len(spread) < n:
        spread = [2 * x for x in spread] + [2 * x + 1 for x in spread]
    for u in spread:
        if u < n and u not in joined:
            if _disjoint_paths(residual, u, joined, best) < best:
                best = _disjoint_paths(residual, v0, g.neighbor_set(u), best)
            joined.add(u)
    for x, y in combinations(g.neighbors(v0), 2):
        if not g.has_edge(x, y):
            best = _disjoint_paths(residual, x, g.neighbor_set(y), best)
    return best


def _disjoint_paths(residual: list[set[int]], source: int, ends: Collection[int], cap: int) -> int:
    """The number of paths, up to cap, from vertex source to distinct ends
    that share only source (κ(source, t) for ends = N(t), t not adjacent to
    source). First one breadth-first search, _branch_ends, looks for cap
    such paths at once; it settles most calls. If it finds cap, a maximum
    set of paths has at least cap, so cap is the count the augmenting loop
    would return. If not, it has only read the network, and the loop runs
    as it would without it. Each pass of the loop is one breadth-first
    search from the source's out side, up to the in side of an end with
    its unit arc free, which it takes too. Its arcs are turned and logged;
    the log is turned back before return."""
    if len(_branch_ends(residual, source, ends, cap)[1]) >= cap:
        return cap
    n = len(residual) // 2
    turned: list[tuple[int, int]] = []
    paths = 0
    while paths < cap:
        came_from = {n + source: n + source}  # the root is its own parent
        queue = [n + source]
        for x in queue:
            for y in residual[x]:
                if y in came_from:
                    continue
                came_from[y] = x
                if y in ends and n + y in residual[y]:
                    break
                queue.append(y)
            else:
                continue
            break
        else:
            break  # no free end is in reach: the count is maximum
        came_from[n + y] = y
        y += n
        while (x := came_from[y]) != y:
            residual[x].remove(y)
            residual[y].add(x)
            turned.append((x, y))
            y = x
        paths += 1
    for x, y in reversed(turned):
        residual[y].remove(x)
        residual[x].add(y)
    return paths


def _branch_ends(
    residual: list[set[int]], source: int, ends: Collection[int], cap: int
) -> tuple[dict[int, int], list[int]]:
    """The first phase of _disjoint_paths: one breadth-first search from
    source over the out sides of the split network, which every call has
    turned back, so residual[n + x] is still N(x). The search never enters
    source or an end. Each vertex it reaches is claimed by the neighbor of
    source it was first reached through, its branch; a branch that steps
    onto an end not yet taken takes that end and stops growing, and a
    neighbor of source that is itself an end takes itself. Branches are
    disjoint and take distinct ends, so each taken end is the end of a path
    through its branch that shares only source with the others.

    Returns the claims (vertex or taken end to its branch, source to
    itself) and the taken ends in the order taken; the search stops once
    cap ends are taken."""
    n = len(residual) // 2
    branch = {source: source}
    taken: list[int] = []
    queue: list[int] = []
    for w in residual[n + source]:
        branch[w] = w
        if w in ends:
            taken.append(w)
        else:
            queue.append(w)
    if len(taken) >= cap:
        return branch, taken
    done = set(taken)
    for x in queue:
        b = branch[x]
        if b in done:
            continue
        for y in residual[n + x]:
            if y in branch:
                continue
            branch[y] = b
            if y in ends:
                taken.append(y)
                if len(taken) == cap:
                    return branch, taken
                done.add(b)
                break
            queue.append(y)
    return branch, taken


def _splits_minimally(masks: list[int], alive: int, s: int) -> bool:
    """Whether the vertices in alive, all of a connected graph but the
    nonempty set s, fall into two or more components that each have a
    neighbor at every vertex of s. That holds exactly when s is an
    inclusion-minimal cutset: a vertex x of s that misses a component
    leaves s - x a cutset, and otherwise any vertex of s outside a proper
    subset joins every component back together."""
    parts = 0
    while alive:
        comp = frontier = alive & -alive
        seen = 0
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= masks[low.bit_length() - 1]
                frontier ^= low
            seen |= reach
            frontier = reach & alive & ~comp
            comp |= frontier
        if seen & s != s:
            return False
        alive &= ~comp
        parts += 1
    return parts >= 2


def _last_cut_vertices(adj: tuple[tuple[int, ...], ...], prefix: tuple[int, ...]) -> list[int]:
    """The vertices d > max(prefix), in increasing order, with two or more
    components in G - prefix - d, from the lowpoints of one iterative
    depth-first pass over G - prefix (Hopcroft and Tarjan, "Efficient
    algorithms for graph manipulation", CACM 1973).

    The prefix, a tuple of distinct vertices, is marked in the pass's
    arrays with an order above any the pass hands out, so it counts as
    visited and never lowers a lowpoint. Each vertex keeps its parent and
    its place in its own adjacency, so the pass needs no stack. G - prefix
    - d has the components of G - prefix other than d's, plus the pieces
    d's own component falls into: the part above d unless d is a root, and
    each subtree of a child w from which no edge climbs above d, low[w] >=
    order[d]."""
    n = len(adj)
    order, low, pieces, parent = [0] * n, [0] * n, [1] * n, [0] * n
    edges: list = [None] * n
    for p in prefix:
        order[p] = n + 1
    left = n - len(prefix)
    t = trees = root = 0
    while t < left:
        root = order.index(0, root)
        trees += 1
        t += 1
        order[root] = low[root] = t
        pieces[root] = 0
        v = root
        it = edges[root] = iter(adj[root])
        while True:
            for w in it:
                if not order[w]:
                    t += 1
                    order[w] = low[w] = t
                    parent[w] = v
                    v = w
                    it = edges[w] = iter(adj[w])
                    break
                if order[w] < low[v]:
                    low[v] = order[w]
            else:
                if v == root:
                    break
                p = parent[v]
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] >= order[p]:
                    pieces[p] += 1
                v = p
                it = edges[p]
    return [d for d in range(max(prefix, default=-1) + 1, n) if trees - 1 + pieces[d] >= 2]


def theorem3_dichotomy(g: Graph, min_order: int = 10) -> Certificate:
    """Squared-cycle recognition or a minimal sparse cutset, for connected
    4-regular graphs with at least one neighborhood not inducing 2K2.

    The cutset branch scans vertex subsets smallest first, then
    lexicographically, and returns the first minimal cutset whose average
    internal degree is strictly below 1. No set smaller than the
    connectivity κ separates, so the scan runs over sizes κ..4, with κ
    from a flow computed once the graph is known not to be a squared
    cycle. A set of size k is its (k - 1)-prefix P and a last vertex
    d > max(P), so the scan walks the prefixes in lexicographic order. A
    prefix with twice its induced edge count at least k is skipped, since
    a last vertex only adds edges. Otherwise one lowpoint pass over
    G - P (_last_cut_vertices) names every d that leaves G - P - d in two
    or more components; only those d can make a cutset, and each is
    tested in increasing order, over adjacency bitmasks: the induced edge
    count, then one flood fill that tests minimality by the rule that
    every component of G - S sees every vertex of S. The sets skipped
    cannot pass, and the rest come in the scan's order, so the answer is
    the first set of a scan over every set, while a size costs
    C(n, k - 1) passes of O(n + m) in place of C(n, k) flood fills.
    Exhausting the scan raises NoCutsetFound, a reported outcome covering
    orders below the (unknown) threshold where the dichotomy kicks in.
    """
    require_int(min_order, "theorem3_dichotomy: min_order")
    _require_connected(g, "theorem3_dichotomy")
    _require_regular(g, 4, "theorem3_dichotomy")
    if all(_link_is(g, v, 4, 1) for v in g.vertices()):
        raise PreconditionError(
            "theorem3_dichotomy: every neighborhood induces 2K2 "
            "(vertex 0 already does), so the dichotomy does not apply"
        )
    if g.n < min_order:
        raise PreconditionError(
            f"theorem3_dichotomy: order {g.n} is below the configured threshold {min_order}"
        )
    # at orders 5 and 6 every connected 4-regular graph is a squared cycle
    # (K5, the octahedron): the first order that verifies, as in the oracle
    proposals = permutations(range(g.n)) if g.n <= 6 else (_squared_cycle_walk(g),)
    for order in proposals:
        cert = SquaredCycleIso(order=order)
        if verify_certificate(g, cert):
            return cert
    adj = tuple(map(g.neighbors, range(g.n)))
    masks = [sum(1 << w for w in adj[v]) for v in range(g.n)]
    everyone = (1 << g.n) - 1
    for size in range(_connectivity(g), 5):
        # a last vertex d > max(P) needs max(P) <= n - 2
        for prefix in combinations(range(g.n - 1), size - 1):
            p = sum(1 << v for v in prefix)
            # twice the induced edge count, which must stay below |S|
            inner = sum((masks[v] & p).bit_count() for v in prefix)
            if inner >= size:
                continue
            for d in _last_cut_vertices(adj, prefix):
                if inner + 2 * (masks[d] & p).bit_count() >= size:
                    continue
                s = p | 1 << d
                if not _splits_minimally(masks, everyone & ~s, s):
                    continue
                cert = GoodCutset(
                    cutset=(*prefix, d),
                    size_bound=4,
                    avg_bound_strict=(1, 1),
                    require_minimal=True,
                )
                return _verified(g, cert)
    raise NoCutsetFound(
        "theorem3_dichotomy: no minimal cutset of order at most 4 with average "
        f"internal degree below 1 at order {g.n}; the order may be below the "
        "dichotomy threshold"
    )


def _squared_cycle_walk(g: Graph) -> tuple[int, ...]:
    """The order around g if it is a squared cycle of order 7 or more: a
    vertex's cycle neighbors are the two on two triangles with it. From 0
    the walk goes to the smaller one, then on to the one it did not come
    from; a vertex without exactly two gives (), which verify refuses."""
    order = [0]
    while len(order) < g.n:
        v = order[-1]
        near = g.neighbor_set(v)
        two = [u for u in g.neighbors(v) if len(near.intersection(g.neighbors(u))) == 2]
        if len(two) != 2:
            return ()
        order.append(two[1] if len(order) > 1 and two[0] == order[-2] else two[0])
    return tuple(order)


def theorem4_independent_cutset(g: Graph) -> Certificate:
    """Independent cutset of order at most 3 in a 4-regular graph whose
    connectivity is at most 3.

    The connectivity comes from this module's fans and flows. For
    connectivity 2 or 3 the minimum cutsets are enumerated and the one
    minimizing its smallest component is taken; if it induces an edge, one
    endpoint is swapped for its one neighbor on the larger side.
    """
    _require_regular(g, 4, "theorem4_independent_cutset")
    kappa = _connectivity(g)
    if kappa > 3:
        raise PreconditionError(
            f"theorem4_independent_cutset: connectivity {kappa} exceeds 3"
        )
    if kappa == 0:
        return _finish_thm4(g, set())
    budget = OracleBudget(max_n=g.n, max_subset_size=3)
    cuts = enumerate_min_cutsets(g, budget)
    ensure(
        bool(cuts) and all(len(c) == kappa for c in cuts),
        "minimum cutset enumeration disagrees with the flow connectivity value",
    )
    if kappa == 1:
        return _finish_thm4(g, set(cuts[0]))
    best, comps = min(
        ((c, components(g, c)) for c in cuts),
        key=lambda pair: min(len(comp) for comp in pair[1]),
    )
    s = set(best)
    inside = [(a, b) for a, b in combinations(best, 2) if g.has_edge(a, b)]
    if not inside:
        return _finish_thm4(g, s)
    ensure(
        len(comps) == 2,
        "a non-independent minimum cutset here must leave exactly two components",
    )
    near = min(comps, key=lambda comp: (len(comp), comp[0]))
    far = next(comp for comp in comps if comp is not near)
    ensure(len(near) >= 2, "small side of the separator has fewer than two vertices")
    ensure(
        all(len(g.neighbor_set(x).intersection(near)) == 2 for x in s),
        "some separator vertex does not have exactly two neighbors on the small side",
    )
    ensure(len(inside) == 1, "separator must induce exactly one edge at this point")
    u, v = inside[0]
    # 4-regular: an endpoint has two neighbors on the small side, its mate in
    # S, and so exactly one neighbor on the large side
    across = [g.neighbor_set(x).intersection(far) for x in (u, v)]
    ensure(
        all(len(side) == 1 for side in across),
        "an endpoint of the inside edge does not have exactly one neighbor on the large side",
    )
    (u2,), (v2,) = across
    if g.neighbor_set(u2) & s == {u}:
        swapped = (s - {u}) | {u2}
    else:
        ensure(
            g.neighbor_set(v2) & s == {v},
            "neither far neighbor sees only its own endpoint in the separator",
        )
        swapped = (s - {v}) | {v2}
    return _finish_thm4(g, set(swapped))


def _finish_thm4(g: Graph, s: set[int]) -> Certificate:
    cert = IndependentCutset(cutset=tuple(sorted(s)), size_bound=3)
    return _verified(g, cert)


def theorem5_certify(
    g: Graph, delta: int, r: int, trace: list[Thm5State] | None = None
) -> Certificate:
    """Either a cutset with internal max degree <= delta - c, or a complete
    bipartite K_{r,r} witness, where c = 3 + floor(2(delta-3r+2) / (r(r-1))).

    The graph must have max degree exactly delta (the seed is a max-degree
    vertex), c must exceed 3, and the order must exceed
    delta + (c-3)(r-1) + r. Exactly one certificate kind comes back.
    """
    require_int(delta, "theorem5_certify: delta")
    require_int(r, "theorem5_certify: r")
    if r < 2:
        raise PreconditionError(f"theorem5_certify: r must be at least 2, got {r}")
    if g.max_degree() != delta:
        raise PreconditionError(
            f"theorem5_certify: max degree {g.max_degree()} differs from delta={delta}"
        )
    c = 3 + (2 * (delta - 3 * r + 2)) // (r * (r - 1))
    if c <= 3:
        raise PreconditionError(
            f"theorem5_certify: sparsity constant c={c} must exceed 3; "
            "raise delta or lower r"
        )
    need = delta + (c - 3) * (r - 1) + r
    if g.n <= need:
        raise PreconditionError(
            f"theorem5_certify: order {g.n} must exceed delta+(c-3)(r-1)+r = {need}"
        )
    # the smallest-id vertex of degree delta, the max degree
    u1 = next(v for v in g.vertices() if g.degree(v) == delta)
    s_side = set(g.neighbors(u1))
    c_side = {u1}
    t_core = set(s_side)
    for i in range(1, r + 1):
        _audit_thm5(g, i, delta, r, c, s_side, c_side, t_core)
        if trace is not None:
            trace.append(
                Thm5State(
                    s_side=tuple(sorted(s_side)),
                    c_side=tuple(sorted(c_side)),
                    t_core=tuple(sorted(t_core)),
                    step=i,
                    delta=delta,
                    r=r,
                    c=c,
                )
            )
        if i == r:
            break
        ui = _pick(g, s_side, delta - c + 1)
        if ui is None:
            cert = GoodCutset(
                cutset=tuple(sorted(s_side)),
                size_bound=delta + (c - 3) * (r - 2),
                degree_bound=delta - c,
            )
            return _verified(g, cert)
        _move(g, ui, c_side, s_side, c - 2)
        t_core = {x for x in t_core if g.has_edge(ui, x)}
    ensure(len(t_core) >= r, "common core smaller than r after the last step")
    cert = KrrWitness(
        r=r,
        side_a=tuple(sorted(c_side)),
        side_b=tuple(sorted(t_core)[:r]),
    )
    return _verified(g, cert, "biclique witness failed re-verification")


def _audit_thm5(
    g: Graph,
    i: int,
    delta: int,
    r: int,
    c: int,
    s_side: set[int],
    c_side: set[int],
    t_core: set[int],
) -> None:
    ensure(len(c_side) == i, "grown side size is not the step number")
    ensure(
        len(s_side) <= delta + (c - 3) * (i - 1),
        "separator exceeds its delta + (c-3)(i-1) size bound",
    )
    ensure(t_core <= s_side, "core is not contained in the separator")
    ensure(
        len(t_core) >= delta - (c - 3) * (i * (i - 1) // 2) - 2 * (i - 1),
        "core dropped below its guaranteed size",
    )
    ensure(
        all(g.has_edge(x, y) for x in c_side for y in t_core),
        "grown side and core are not completely joined",
    )
    _audit_growth(g, c_side, s_side)
    ensure(
        len(s_side) + len(c_side) < g.n,
        "separator and grown side swallowed the whole graph",
    )


def prop1_is_icosahedron(g: Graph) -> bool:
    """Whether every neighborhood induces C5, which pins the graph down to
    the icosahedron. Disconnected graphs simply return False."""
    if g.n == 0 or not is_connected(g):
        return False
    if not all(_link_is(g, v, 5, 2) for v in g.vertices()):
        return False
    ensure(
        verify_certificate(g, IsIcosahedron()),
        "icosahedron predicate failed oracle re-verification",
    )
    return True


def prop2_cutset(g: Graph) -> GoodCutset:
    """Cutset with internal max degree <= 1 for connected graphs satisfying
    the exact edge-count gate m <= (2 + 1/(D^2+1)) n - 4 with D = max degree.

    One pass over a greedy square-independent set pairs each member with
    its first neighbor that has two neighbors inside the member's
    neighborhood. The first member without such a mate has a neighborhood
    of internal max degree at most 1, and that neighborhood separates (or,
    when it is the rest of the graph, the member alone separates). If every
    member has a mate, each is contracted with it and the bounded
    independent-cutset search runs on the contracted graph, whose sparsity
    guarantees a hit. The default OracleBudget caps that search.
    """
    _require_connected(g, "prop2_cutset")
    dmax = g.max_degree()
    q = dmax * dmax + 1
    if g.m * q > (2 * q + 1) * g.n - 4 * q:
        raise PreconditionError(
            f"prop2_cutset: size {g.m} exceeds (2 + 1/(D^2+1))n - 4 "
            f"= {(2 * q + 1) * g.n - 4 * q}/{q} for max degree {dmax}"
        )
    reps: list[int] = []
    covered = [False] * g.n
    for v in range(g.n):
        if covered[v]:
            continue
        reps.append(v)
        covered[v] = True
        for x in g.neighbors(v):
            covered[x] = True
            for y in g.neighbors(x):
                covered[y] = True
    alpha = len(reps)
    ensure(
        alpha * q >= g.n,
        "greedy square-independent set fell below the n/(D^2+1) guarantee",
    )
    # mate -> its member; members are at least 3 apart, so mates are distinct
    mate_of: dict[int, int] = {}
    for u in reps:
        around = g.neighbor_set(u)
        mate = next(
            (
                x
                for x in g.neighbors(u)
                if len(around.intersection(g.neighbors(x))) >= 2
            ),
            None,
        )
        if mate is not None:
            mate_of[mate] = u
            continue
        # no mate: every vertex of N(u) has at most one neighbor in N(u)
        if g.degree(u) + 1 < g.n:
            return _finish_prop2(g, set(g.neighbors(u)))
        # the seed dominates the graph, so G - seed has max degree <= 1 and
        # the seed alone separates unless G is K2
        if len(components(g, {u})) < 2:
            raise NoCutsetFound(
                "prop2_cutset: no cutset with internal max degree at most 1 "
                f"exists at order {g.n}"
            )
        return _finish_prop2(g, {u})
    # contracted nodes in vertex order; a mate shares its member's node
    rank = {x: i for i, x in enumerate(x for x in range(g.n) if x not in mate_of)}
    node = [rank[mate_of.get(x, x)] for x in range(g.n)]
    contracted_edges = {
        (min(a, b), max(a, b))
        for u, v in g.edges()
        for a, b in [(node[u], node[v])]
        if a != b
    }
    gp = Graph(len(rank), sorted(contracted_edges))
    ensure(
        gp.m <= g.m - 3 * alpha,
        "contraction removed fewer than three edges per merged pair",
    )
    ensure(gp.m <= 2 * gp.n - 4, "contracted graph misses the sparse edge bound")
    sprime = find_independent_cutset(gp)
    ensure(
        sprime is not None,
        "sparse contracted graph has no independent cutset at all",
    )
    return _finish_prop2(g, {x for x in range(g.n) if node[x] in sprime})


def _finish_prop2(g: Graph, s: set[int]) -> GoodCutset:
    cert = GoodCutset(cutset=tuple(sorted(s)), degree_bound=1)
    return _verified(g, cert)


def degenerate_sparse_cutset(g: Graph, u: int) -> GoodCutset:
    """The folklore dilution cutset: the neighborhood of u plus a greedy
    independent set chosen entirely outside the closed 2-ball of u.

    Needs order above D^2 + 1 so the far set is nonempty. Only the
    neighborhood of u can contribute induced edges, so the far set dilutes
    the average internal degree that induced_stats reports for the cutset.
    """
    _require_connected(g, "degenerate_sparse_cutset")
    _ids(g, (u,))
    dmax = g.max_degree()
    q = dmax * dmax + 1
    if g.n <= q:
        raise PreconditionError(
            f"degenerate_sparse_cutset: order {g.n} must exceed D^2+1 = {q}"
        )
    near = {u} | set(g.neighbors(u))
    for x in g.neighbors(u):
        near.update(g.neighbors(x))
    taken: set[int] = set()
    for v in range(g.n):
        if v in near or not taken.isdisjoint(g.neighbors(v)):
            continue
        taken.add(v)
    ensure(
        len(taken) * (dmax + 1) >= g.n - q,
        "far independent set fell below the (n - D^2 - 1)/(D + 1) guarantee",
    )
    cert = GoodCutset(cutset=tuple(sorted(set(g.neighbors(u)) | taken)))
    return _verified(g, cert)
