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
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_connectivity,
    connected_random_regular,
    four_regular_cut1,
    four_regular_cut2,
    four_regular_cut3,
    four_regular_cut3_far_swap,
    reference_flow,
    relabelled,
    theorem3_subset_scan,
)
import sparsecut.algorithms as algorithms
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
from sparsecut.generators import figure2_pattern, random_regular, squared_cycle
from sparsecut.graph import Graph, components, induced_stats, is_connected
from sparsecut.oracles import (
    enumerate_min_cutsets,
    find_constrained_cutset,
    find_independent_cutset,
    find_krr,
    recognize_squared_cycle,
    verify_certificate,
    vertex_connectivity,
)


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
            if 2 * induced_stats(g, combo).induced_edge_count >= size:
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


def _theorem3_or_none(g: Graph):
    try:
        return theorem3_dichotomy(g, min_order=5)
    except NoCutsetFound:
        return None


@given(
    g=st.one_of(
        st.builds(
            lambda n, s: connected_random_regular(n, 4, s)[0],
            st.integers(7, 32),
            st.integers(0, 10**6),
        ),
        st.sampled_from(
            [four_regular_cut1(), four_regular_cut2(), four_regular_cut3(), four_regular_cut3_far_swap()]
        ),
    ),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=60, deadline=None)
def test_theorem3_answers_as_the_scan_over_every_set(g, seed):
    # the prefix scan tests only the last vertices that cut; the scan over
    # every set, one test per set, must give the same first answer, or
    # none, on g and on a relabelled copy
    assume(not all(_link_is(g, v, 4, 1) for v in g.vertices()))
    for h in (g, relabelled(g, seed)):
        got = _theorem3_or_none(h)
        if isinstance(got, SquaredCycleIso):
            continue
        want = theorem3_subset_scan(h, _connectivity(h))
        assert got == (
            None
            if want is None
            else GoodCutset(cutset=want, size_bound=4, avg_bound_strict=(1, 1), require_minimal=True)
        )


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
    kappa = _connectivity(g)
    assert kappa == vertex_connectivity(g)
    # both sides run Even's fans, so small orders also face the subset scan
    if g.n <= 10:
        assert kappa == brute_connectivity(g)


@st.composite
def regular_or_planted_cut(draw) -> Graph:
    """A random d-regular graph on up to 200 vertices, 3 <= d <= 6, or two
    of them side by side joined by 1 to d random cross edges, which plants
    a cut of at most that many vertices."""
    d = draw(st.integers(3, 6))
    pieces = []
    count = draw(st.integers(1, 2))
    for _ in range(count):
        n = draw(st.integers(d + 1, 200 // count))
        assume(n * d % 2 == 0)
        try:
            pieces.append(random_regular(n, d, draw(st.integers(0, 10**6))))
        except BudgetExhausted:
            assume(False)
    if len(pieces) == 1:
        return pieces[0]
    a, b = pieces
    edges = {*a.edges(), *((u + a.n, v + a.n) for u, v in b.edges())}
    for _ in range(draw(st.integers(1, d))):
        edges.add((draw(st.integers(0, a.n - 1)), a.n + draw(st.integers(0, b.n - 1))))
    return Graph(a.n + b.n, sorted(edges))


@given(g=regular_or_planted_cut())
@settings(max_examples=100, deadline=None)
def test_connectivity_flow_matches_the_oracle_up_to_200(g):
    assert g.n <= 200
    assert _connectivity(g) == vertex_connectivity(g)


@st.composite
def paths_inputs(draw) -> tuple[Graph, int, frozenset[int]]:
    """A graph on 2..14 vertices, a source s and a set of ends without s.

    The graph is any simple graph, or two such graphs side by side, so
    disconnected inputs come often. The ends are one of: a random set,
    which may hold neighbors of s; a set that covers all of N(s); or
    N(t) for a t other than s and not adjacent to it."""
    pieces = draw(st.integers(1, 2))
    sizes = [draw(st.integers(1, 14 // pieces)) for _ in range(pieces)]
    edges = []
    base = 0
    for size in sizes:
        pairs = [(base + a, base + b) for a, b in combinations(range(size), 2)]
        edges += [e for e in pairs if draw(st.booleans())]
        base += size
    g = Graph(base, edges)
    assume(g.n >= 2)
    s = draw(st.integers(0, g.n - 1))
    others = [v for v in g.vertices() if v != s]
    mode = draw(st.sampled_from(["random", "cover", "neighbors"]))
    if mode == "neighbors":
        apart = [t for t in others if not g.has_edge(s, t)]
        assume(apart)
        ends = g.neighbor_set(draw(st.sampled_from(apart)))
    else:
        ends = frozenset(draw(st.lists(st.sampled_from(others), max_size=len(others))))
        if mode == "cover":
            ends |= g.neighbor_set(s)
    return g, s, ends


@given(case=paths_inputs())
@settings(max_examples=300, deadline=None)
def test_disjoint_paths_count_is_the_flow_into_the_ends(case):
    g, s, ends = case
    n = g.n
    # the split network as _connectivity builds it
    residual = [{n + v} for v in range(n)] + [set(g.neighbors(v)) for v in range(n)]
    before = [set(arcs) for arcs in residual]
    # paths to distinct ends that share only s are the paths to one new
    # vertex joined to every end
    joined = Graph(n + 1, [*g.edges(), *((v, n) for v in ends)])
    full = reference_flow(joined, s, n, n)
    for cap in range(n + 1):
        assert algorithms._disjoint_paths(residual, s, ends, cap) == min(cap, full)
        assert residual == before
        branch, taken = algorithms._branch_ends(residual, s, ends, cap)
        assert residual == before
        # the first phase's branches are paths: each taken end is distinct,
        # one of the ends, and joined to a neighbor of s inside its own
        # branch, which holds no other end and not s
        assert len(set(taken)) == len(taken) <= full
        assert branch[s] == s
        for e in taken:
            root = branch[e]
            members = {v for v, b in branch.items() if b == root and v != s}
            assert e in ends and g.has_edge(s, root) and root in members
            assert members & set(ends) == {e}
            reached = {root}
            stack = [root]
            while stack:
                for w in g.neighbors(stack.pop()):
                    if w in members and w not in reached:
                        reached.add(w)
                        stack.append(w)
            assert e in reached


@st.composite
def connected_up_to_200(draw) -> Graph:
    """A random tree on 2..200 vertices plus up to 2n random extra edges."""
    n = draw(st.integers(min_value=2, max_value=200))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for u, v in draw(st.lists(pair, max_size=2 * n)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def _kind(run, g: Graph):
    """The outcome kind of run(g): the certificate's type or the exception's."""
    try:
        return type(run(g))
    except Exception as exc:
        return type(exc)


@given(
    g=st.one_of(
        connected_up_to_200(),
        regular_or_planted_cut(),
        four_regular(max_piece=14),
        st.integers(5, 200).map(squared_cycle),
        st.integers(3, 50).map(figure2_pattern),
    ),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=100, deadline=None)
def test_relabelling_keeps_connectivity_and_theorem4s_outcome(g, seed):
    # renaming the vertices changes the order both connectivity routines
    # decide them in, and so the fans they run, but not their answer
    h = relabelled(g, seed)
    kappa = vertex_connectivity(g)
    assert vertex_connectivity(h) == _connectivity(g) == _connectivity(h) == kappa
    assert _kind(theorem4_independent_cutset, h) == _kind(theorem4_independent_cutset, g)


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


@st.composite
def pocketed_sparse(draw) -> Graph:
    """Diamonds (K4 minus an edge) and single vertices joined by a random
    tree, with shuffled ids. A diamond's two middle vertices have a link
    of internal max degree 2 and its two tips one of 1, so greedy seeds
    land in dense pockets and on sparse links, in any order."""
    diamonds = draw(st.integers(0, 4))
    n = 4 * diamonds + draw(st.integers(0, 8))
    assume(n >= 2)
    edges: set[tuple[int, int]] = set()
    blocks = []
    for a in range(0, 4 * diamonds, 4):
        # tips a and a + 3, middle a + 1 and a + 2
        edges |= {(a, a + 1), (a, a + 2), (a + 1, a + 2), (a + 1, a + 3), (a + 2, a + 3)}
        blocks.append(range(a, a + 4))
    blocks += [range(v, v + 1) for v in range(4 * diamonds, n)]
    for i in range(1, len(blocks)):
        earlier = blocks[draw(st.integers(0, i - 1))]
        edges.add((draw(st.sampled_from(earlier)), draw(st.sampled_from(blocks[i]))))
    ids = draw(st.permutations(range(n)))
    return Graph(n, sorted((min(ids[a], ids[b]), max(ids[a], ids[b])) for a, b in edges))


def _prop2_two_pass_reference(g: Graph):
    """prop2_cutset's seed choice as it was with two passes over the greedy
    square-independent set: the first seed whose link has internal max
    degree at most 1 gives the answer, and only a graph without one goes on
    to the contraction route, returned here as None."""
    reps: list[int] = []
    covered: set[int] = set()
    for v in range(g.n):
        if v in covered:
            continue
        reps.append(v)
        covered |= {v, *g.neighbors(v), *(y for x in g.neighbors(v) for y in g.neighbors(x))}
    sparse = next(
        (u for u in reps if induced_stats(g, g.neighbors(u)).max_degree_in_s <= 1), None
    )
    if sparse is None:
        return None
    if g.degree(sparse) + 1 < g.n:
        return GoodCutset(cutset=g.neighbors(sparse), degree_bound=1)
    if len(components(g, [sparse])) < 2:
        raise NoCutsetFound(
            "prop2_cutset: no cutset with internal max degree at most 1 "
            f"exists at order {g.n}"
        )
    return GoodCutset(cutset=(sparse,), degree_bound=1)


@given(g=st.one_of(sparse_connected(), pocketed_sparse()))
@settings(max_examples=150, deadline=None)
def test_prop2_matches_the_two_pass_seed_reference(g):
    q = g.max_degree() ** 2 + 1
    assume(g.m * q <= (2 * q + 1) * g.n - 4 * q)
    with mock.patch(
        "sparsecut.algorithms.find_independent_cutset", wraps=find_independent_cutset
    ) as search:
        got = _outcome(prop2_cutset, g)
    want = _outcome(_prop2_two_pass_reference, g)
    if want is None:
        # every seed is in a dense pocket: the contraction route answers
        assert search.call_count == 1
        assert isinstance(got, GoodCutset) or got[0] is BudgetExhausted
    else:
        assert search.call_count == 0
        assert got == want


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


# Relabelling invariance of the other outcomes. Every question below is
# asked of the graph up to isomorphism, so g and a relabelled copy must get
# the same outcome kind, the same None or not None, and the same count.
# thm5 is left out, because which of its two certificate kinds answers may
# turn on which vertex it grows from, a vertex id; so is degenerate, whose
# argument u is a vertex id.


def _kinds(run, g: Graph, seed: int):
    """The outcome kinds of run on g and on a relabelled copy of g."""
    return _kind(run, g), _kind(run, relabelled(g, seed))


@given(case=thm1_inputs(), seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_relabelling_keeps_theorem1s_outcome(case, seed):
    g, delta = case
    first, second = _kinds(lambda h: theorem1_cutset(h, delta), g, seed)
    assert first == second


@given(
    n=st.integers(min_value=7, max_value=15).map(lambda k: 2 * k),
    graph_seed=st.integers(0, 10**6),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=25, deadline=None)
def test_relabelling_keeps_theorem2s_outcome(n, graph_seed, seed):
    try:
        g = random_regular(n, 5, graph_seed)
    except BudgetExhausted:
        assume(False)
    first, second = _kinds(theorem2_cutset, g, seed)
    assert first == second


@given(n=st.integers(7, 16), graph_seed=st.integers(0, 10**6), seed=st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_relabelling_keeps_theorem3s_outcome(n, graph_seed, seed):
    try:
        g = random_regular(n, 4, graph_seed)
    except BudgetExhausted:
        assume(False)
    assume(is_connected(g))
    first, second = _kinds(lambda h: theorem3_dichotomy(h, min_order=5), g, seed)
    assert first == second


@given(n=st.sampled_from([100, 160]), graph_seed=st.integers(0, 10**6), seed=st.integers(0, 10**6))
@settings(max_examples=8, deadline=None)
def test_relabelling_keeps_theorem3s_cutset_size_past_the_oracle_cap(n, graph_seed, seed):
    g, _ = connected_random_regular(n, 4, graph_seed)

    def kind_and_size(h: Graph):
        try:
            out = theorem3_dichotomy(h)
        except PreconditionError as exc:
            return type(exc), 0
        return type(out), len(getattr(out, "cutset", ()))

    assert kind_and_size(relabelled(g, seed)) == kind_and_size(g)


@given(g=st.one_of(sparse_connected(), pocketed_sparse()), seed=st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_relabelling_keeps_prop2s_outcome(g, seed):
    first, second = _kinds(prop2_cutset, g, seed)
    # the contraction route may pass the oracle's order cap on either side
    assume(BudgetExhausted not in (first, second))
    assert first == second


def _oracle_answers(g: Graph):
    """Whether each oracle search finds nothing, and the number of minimum
    cutsets (or the outcome that refuses to count them)."""
    return (
        find_independent_cutset(g) is None,
        find_constrained_cutset(g, max_delta=1) is None,
        find_krr(g, 2) is None,
        recognize_squared_cycle(g) is None,
        _outcome(lambda h: len(enumerate_min_cutsets(h)), g),
    )


@given(
    g=st.one_of(small_graphs(), four_regular(max_piece=8), st.integers(5, 16).map(squared_cycle)),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=80, deadline=None)
def test_relabelling_keeps_each_oracle_answer(g, seed):
    assume(g.n <= 16)
    assert _oracle_answers(relabelled(g, seed)) == _oracle_answers(g)
