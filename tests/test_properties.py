"""Property tests: every constructive method against the oracles.

The grow-and-swap methods (thm1, thm2, thm5) get inputs that meet their
stated preconditions, so each run must end in a certificate that the
independent oracle accepts; any exception, InternalInvariantError
included, fails the property. thm3, thm4, prop2 and degenerate get inputs
near their preconditions, and must either return such a certificate or
raise one of their documented outcomes: PreconditionError (NoCutsetFound
included) or BudgetExhausted.
"""

from __future__ import annotations

from itertools import combinations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sparsecut.algorithms import (
    _connectivity,
    _link_is,
    _require_connected,
    _require_regular,
    degenerate_sparse_cutset,
    prop2_cutset,
    theorem1_cutset,
    theorem2_cutset,
    theorem3_dichotomy,
    theorem4_independent_cutset,
    theorem5_certify,
)
from sparsecut.certificates import GoodCutset, SquaredCycleIso
from sparsecut.errors import BudgetExhausted, NoCutsetFound, PreconditionError
from sparsecut.generators import random_regular
from sparsecut.graph import Graph, induced_edge_count, is_connected
from sparsecut.oracles import recognize_squared_cycle, verify_certificate, vertex_connectivity


@st.composite
def connected_capped(draw, delta: int, min_n: int, max_n: int, hub: bool = False) -> Graph:
    """A random spanning tree plus random extra edges, every degree <= delta.

    Two draws in three then saturate the graph: a lowest-degree vertex is
    joined to a random vertex with room until no pair fits under the cap.
    In the "nearby" mode that vertex is, where possible, at most
    (delta + 1) // 2 steps away around the vertex cycle, which makes the
    neighborhoods dense. Nearly every degree then reaches delta, so the
    growth loops run and move vertices. With hub, vertex 0 is then joined
    to the first vertices with room left until its degree is exactly delta.
    """
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    deg = [0] * n
    edges: set[tuple[int, int]] = set()

    def add(a: int, b: int) -> None:
        key = (min(a, b), max(a, b))
        if a != b and key not in edges and deg[a] < delta and deg[b] < delta:
            edges.add(key)
            deg[a] += 1
            deg[b] += 1

    for v in range(1, n):
        add(draw(st.sampled_from([w for w in range(v) if deg[w] < delta])), v)
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for a, b in draw(st.lists(pair, max_size=delta * n)):
        add(a, b)
    saturate = draw(st.sampled_from(["no", "anywhere", "nearby"]))
    if saturate != "no":
        stuck: set[int] = set()
        while True:
            room = [v for v in range(n) if deg[v] < delta and v not in stuck]
            if not room:
                break
            a = min(room, key=lambda v: (deg[v], v))
            mates = [b for b in room if b != a and (min(a, b), max(a, b)) not in edges]
            near = [b for b in mates if min((a - b) % n, (b - a) % n) <= (delta + 1) // 2]
            if saturate == "nearby" and near:
                mates = near
            if mates:
                add(a, draw(st.sampled_from(mates)))
            else:
                stuck.add(a)
    if hub:
        for w in range(1, n):
            if deg[0] == delta:
                break
            add(0, w)
        assume(deg[0] == delta)
    return Graph(n, sorted(edges))


@st.composite
def thm1_inputs(draw) -> tuple[Graph, int]:
    delta = draw(st.integers(min_value=3, max_value=6))
    return draw(connected_capped(delta, 2 * delta + 4, 2 * delta + 16)), delta


@given(case=thm1_inputs())
@settings(max_examples=150, deadline=None)
def test_theorem1_certifies_and_keeps_its_ledger(case):
    g, delta = case
    trace = []
    cert = theorem1_cutset(g, delta, trace=trace)
    assert verify_certificate(g, cert)
    assert len(trace) <= delta + 3
    for state in trace:
        assert state.step == len(state.u_side)
    potentials = [s.m_i - 2 * s.n_i for s in trace]
    for before, after in zip(potentials, potentials[1:]):
        assert after - before >= delta - 2


@given(
    case=st.one_of(
        connected_capped(5, 9, 30, hub=True).map(lambda g: (g, 5, 2)),
        connected_capped(14, 22, 34, hub=True).map(lambda g: (g, 14, 3)),
    )
)
@settings(max_examples=120, deadline=None)
def test_theorem5_certifies(case):
    g, delta, r = case
    cert = theorem5_certify(g, delta, r)
    assert verify_certificate(g, cert)


@given(
    n=st.integers(min_value=7, max_value=24).map(lambda k: 2 * k),
    seed=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=60, deadline=None)
def test_theorem2_certifies_on_random_regular(n, seed):
    try:
        g = random_regular(n, 5, seed)
    except BudgetExhausted:
        assume(False)
    assume(is_connected(g))
    cert = theorem2_cutset(g)
    assert verify_certificate(g, cert)


def certifies_or_declines(g: Graph, run) -> None:
    """run(g) returns a certificate the oracle accepts, or raises a
    documented outcome."""
    try:
        cert = run(g)
    except (PreconditionError, BudgetExhausted):
        return
    assert verify_certificate(g, cert)


@st.composite
def four_regular(draw, max_piece: int) -> Graph:
    """A 4-regular graph, often of low connectivity: one random 4-regular
    piece, two side by side, two joined through a cut vertex, or two
    joined by rewiring one or two edges of each across."""
    pieces = []
    for _ in range(2):
        n = draw(st.integers(min_value=5, max_value=max_piece))
        try:
            pieces.append(random_regular(n, 4, draw(st.integers(0, 10**6))))
        except BudgetExhausted:
            assume(False)
    how = draw(st.sampled_from(["one", "apart", "cut-vertex", "rewire-1", "rewire-2"]))
    a, b = pieces
    if how == "one":
        return a
    edges = set(a.edges()) | {(u + a.n, v + a.n) for u, v in b.edges()}
    n = a.n + b.n
    if how == "apart":
        return Graph(n, sorted(edges))
    k = 2 if how == "rewire-2" else 1
    # k vertex-disjoint edges out of each piece; their ends are joined
    # pairwise across, or all four to one new vertex
    ends = []
    for piece, base in ((a, 0), (b, a.n)):
        cut = draw(st.lists(st.sampled_from(piece.edges()), min_size=k, max_size=k, unique=True))
        assume(len({v for e in cut for v in e}) == 2 * k)
        edges -= {(u + base, v + base) for u, v in cut}
        ends.append([v + base for e in cut for v in e])
    if how == "cut-vertex":
        edges |= {(v, n) for v in ends[0] + ends[1]}
        return Graph(n + 1, sorted(edges))
    edges |= set(zip(ends[0], ends[1]))
    return Graph(n, sorted(edges))


@given(g=four_regular(max_piece=10))
@settings(max_examples=60, deadline=None)
def test_theorem3_certifies_or_declines(g):
    certifies_or_declines(g, theorem3_dichotomy)


def _theorem3_reference(g: Graph, min_order: int):
    """theorem3_dichotomy as it was before its scan started at the
    connectivity: every size from 1 up, and the oracle's exhaustive
    minimality check on every set that is sparse enough."""
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
    order = recognize_squared_cycle(g)
    if order is not None:
        return SquaredCycleIso(order=tuple(order))
    for size in range(1, 5):
        for combo in combinations(range(g.n), size):
            if 2 * induced_edge_count(g, combo) >= size:
                continue
            if verify_certificate(g, GoodCutset(cutset=combo, require_minimal=True)):
                return GoodCutset(
                    cutset=combo, size_bound=4, avg_bound_strict=(1, 1), require_minimal=True
                )
    raise NoCutsetFound(
        "theorem3_dichotomy: no minimal cutset of order at most 4 with average "
        f"internal degree below 1 at order {g.n}; the order may be below the "
        "dichotomy threshold"
    )


def _outcome(run, g: Graph):
    try:
        return run(g)
    except Exception as exc:  # the type and the message are compared
        return type(exc), str(exc)


@given(g=four_regular(max_piece=10), min_order=st.sampled_from([5, 10]))
@settings(max_examples=80, deadline=None)
def test_theorem3_matches_the_subset_scan_reference(g, min_order):
    # min_order 5 sends the small pieces through the cutset branch too
    got = _outcome(lambda h: theorem3_dichotomy(h, min_order=min_order), g)
    assert got == _outcome(lambda h: _theorem3_reference(h, min_order), g)


@st.composite
def small_graphs(draw) -> Graph:
    """Any simple graph on 1..12 vertices, from sparse to complete."""
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


@given(g=st.one_of(small_graphs(), four_regular(max_piece=6)))
@settings(max_examples=200, deadline=None)
def test_connectivity_flow_matches_the_oracle(g):
    assume(g.n <= 12)
    assert _connectivity(g) == vertex_connectivity(g)


@given(g=four_regular(max_piece=14))
@settings(max_examples=60, deadline=None)
def test_theorem4_certifies_or_declines(g):
    certifies_or_declines(g, theorem4_independent_cutset)


@st.composite
def sparse_connected(draw) -> Graph:
    """A random tree plus at most n - 3 extra edges, so m <= 2n - 4 and
    the prop2 edge-count gate holds whenever n >= 3."""
    n = draw(st.integers(min_value=2, max_value=30))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for u, v in draw(st.lists(pair, max_size=max(n - 3, 0))):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


@given(g=sparse_connected())
@settings(max_examples=100, deadline=None)
def test_prop2_certifies_or_declines(g):
    certifies_or_declines(g, prop2_cutset)


@given(
    case=st.integers(min_value=2, max_value=4).flatmap(
        lambda d: st.tuples(
            connected_capped(d, d * d + 1, d * d + 14), st.integers(min_value=0, max_value=10**6)
        )
    )
)
@settings(max_examples=80, deadline=None)
def test_degenerate_certifies_or_declines(case):
    g, pick = case
    certifies_or_declines(g, lambda h: degenerate_sparse_cutset(h, pick % h.n))
