"""Tests for the constructive separator procedures.

Expected cutsets and witnesses are frozen against byhand traces of the
small fixtures, and the growth traces are audited step by step with the
same invariants the routines promise to maintain.
"""

import ast
import inspect
import random
from fractions import Fraction
from itertools import combinations

import pytest

from helpers import (
    assert_fans_follow_bit_reversal,
    bit_reversed,
    bounded_degree_connected,
    brute_connectivity,
    circulant,
    complement_cube,
    connected_random_regular,
    diamond_chain,
    four_regular_cut1,
    four_regular_cut2,
    four_regular_cut3,
    four_regular_cut3_far_swap,
    induced_subgraph,
    joined_at_cut_vertex,
    pg24_incidence,
    petersen,
    planted_cut,
    reference_flow,
    union_find_components,
)
import sparsecut.algorithms as algorithms
import sparsecut.oracles as oracles
from sparsecut.algorithms import (
    GrowthState,
    _connectivity,
    _link_is,
    _splits_minimally,
    degenerate_sparse_cutset,
    prop1_is_icosahedron,
    prop2_cutset,
    theorem1_cutset,
    theorem2_cutset,
    theorem3_dichotomy,
    theorem4_independent_cutset,
    theorem5_certify,
)
from sparsecut.certificates import (
    Certificate,
    GoodCutset,
    IndependentCutset,
    IsIcosahedron,
    KrrWitness,
    SquaredCycleIso,
)
from sparsecut.errors import (
    GraphError,
    InternalInvariantError,
    NoCutsetFound,
    PreconditionError,
)
from sparsecut.generators import (
    CliqueChainParams,
    clique_chain,
    figure2_pattern,
    icosahedron,
    named_small,
    random_regular,
    squared_cycle,
)
from sparsecut.graph import Graph, components, induced_stats, is_connected
from sparsecut.io import parse_graph6
from sparsecut.oracles import (
    OracleBudget,
    enumerate_min_cutsets,
    recognize_squared_cycle,
    verify_certificate,
    vertex_connectivity,
)


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def disconnects(g, members):
    return len(union_find_components(g.n, g.edges(), set(members))) >= 2


# ------------------------------------------------------------ result type


@pytest.mark.parametrize(
    "run,g",
    [
        (lambda g: theorem1_cutset(g, 4), squared_cycle(14)),
        (theorem2_cutset, figure2_pattern(4)),
        (theorem3_dichotomy, squared_cycle(12)),
        (theorem4_independent_cutset, four_regular_cut2()),
        (lambda g: theorem5_certify(g, 5, 2), pg24_incidence()),
        (prop2_cutset, diamond_chain(3)),
        (lambda g: degenerate_sparse_cutset(g, 0), squared_cycle(30)),
    ],
    ids=["thm1", "thm2", "thm3", "thm4", "thm5", "prop2", "degenerate"],
)
def test_every_method_returns_a_verified_certificate(run, g, monkeypatch):
    checked = []

    def counted(h, cert):
        checked.append(cert)
        return verify_certificate(h, cert)

    monkeypatch.setattr("sparsecut.algorithms.verify_certificate", counted)
    cert = run(g)
    assert isinstance(cert, Certificate)
    # the oracle checks the answer once, and nothing else is checked by it
    assert checked == [cert]
    assert verify_certificate(g, cert)


# ---------------------------------------------------------------- theorem 1


def test_theorem1_squared_cycle_exact():
    g = squared_cycle(14)
    report = induced_stats(g, theorem1_cutset(g, 4).cutset)
    assert report.cutset == (2, 3, 12, 13)
    assert report.max_degree_in_s == 1
    assert disconnects(g, report.cutset)


def test_theorem1_path_early_exit():
    # an endpoint has degree 1 <= delta - 2, so no separator vertex can be
    # swapped in: the growth loop stops at its first state, whose
    # neighborhood is the answer
    g = path(20)
    trace = []
    report = induced_stats(g, theorem1_cutset(g, 3, trace=trace).cutset)
    assert report.cutset == (1,)
    assert report.max_degree_in_s == 0
    assert trace == [GrowthState(u_side=(0,), s_side=(1,), n_i=1, m_i=1, step=1)]


def test_theorem1_trace_ledger():
    g = squared_cycle(14)
    trace = []
    theorem1_cutset(g, 4, trace=trace)
    assert trace, "growth loop should record at least the initial state"
    for state in trace:
        assert len(state.u_side) == state.step
        assert not set(state.u_side) & set(state.s_side)
        assert state.n_i == len(state.s_side)
        # every separator vertex keeps a neighbor on the grown side
        u = set(state.u_side)
        for v in state.s_side:
            assert g.neighbor_set(v) & u
    potentials = [s.m_i - 2 * s.n_i for s in trace]
    for before, after in zip(potentials, potentials[1:]):
        assert after - before >= 4 - 2


def _far_vertex_joins(move, g, v, grown, s_side, cap):
    # G[U] falls apart, and the far vertex's neighbors are outside S
    fresh = move(g, v, grown, s_side, cap)
    grown.add(g.n // 2)
    return fresh


def _fresh_join_both_sides(move, g, v, grown, s_side, cap):
    # U meets S, though the edge ledger still holds
    fresh = move(g, v, grown, s_side, cap)
    grown |= fresh
    return fresh


@pytest.mark.parametrize("corrupt", [_far_vertex_joins, _fresh_join_both_sides])
def test_growth_audit_catches_a_corrupted_move(monkeypatch, corrupt):
    # the local audit keeps the message of the whole-graph components check
    # it replaced, and both corruptions slip past every ledger check before it
    move = algorithms._move
    monkeypatch.setattr(
        algorithms, "_move", lambda *args: corrupt(move, *args)
    )
    with pytest.raises(
        InternalInvariantError,
        match="^grown side is not a full component of the graph minus the separator$",
    ):
        theorem1_cutset(squared_cycle(40), 4)


@pytest.mark.parametrize(
    "u_side, s_side, full",
    [
        ({4, 5, 6}, {2, 3, 7, 8}, True),
        ({4, 5, 6}, {2, 3, 7}, False),  # 8 neighbors U outside S
        ({4, 5, 6}, {2, 3, 6, 7, 8}, False),  # U meets S
        ({4, 6}, {2, 3, 5, 7, 8}, True),  # 4 and 6 are adjacent in C_14^2
        ({4, 5, 11}, {2, 3, 6, 7, 9, 10, 12, 13}, False),  # G[U] falls apart
        (set(), {0, 1}, False),
    ],
)
def test_growth_audit_checks_each_part_of_a_full_component(u_side, s_side, full):
    g = squared_cycle(14)
    assert (tuple(sorted(u_side)) in components(g, s_side)) is full
    if full:
        algorithms._audit_growth(g, u_side, s_side)
        return
    with pytest.raises(InternalInvariantError, match="^grown side is not a full component"):
        algorithms._audit_growth(g, u_side, s_side)


def test_theorem1_random_sweep():
    rng = random.Random(7)
    for delta in (3, 4, 5):
        for n in (2 * delta + 4, 2 * delta + 11, 37):
            g = bounded_degree_connected(n, delta, rng)
            trace = []
            report = induced_stats(g, theorem1_cutset(g, delta, trace=trace).cutset)
            s = report.cutset
            assert 1 <= len(s) <= delta
            assert report.max_degree_in_s <= delta - 3
            assert disconnects(g, s)
            assert len(trace) <= delta + 3


def test_theorem1_rejects_bad_inputs():
    with pytest.raises(PreconditionError, match="at least 3"):
        theorem1_cutset(path(20), 2)
    with pytest.raises(PreconditionError, match="exceeds delta"):
        theorem1_cutset(squared_cycle(14), 3)
    with pytest.raises(PreconditionError, match="below 2"):
        theorem1_cutset(squared_cycle(11), 4)
    half = path(5).edges()
    two = Graph(10, list(half) + [(a + 5, b + 5) for a, b in half])
    with pytest.raises(PreconditionError, match="connected"):
        theorem1_cutset(two, 3)
    # a float delta would give a certificate with float bounds
    for delta in (4.5, 4.0, True):
        with pytest.raises(PreconditionError, match="delta must be an int"):
            theorem1_cutset(squared_cycle(14), delta)


# ---------------------------------------------------------------- theorem 2


def _link_reference(g: Graph, v: int, size: int, k: int) -> bool:
    """The induced-subgraph pattern test the methods replaced, as reference:
    C5 for (5, 2) and 2K2 for (4, 1)."""
    sub, _ = induced_subgraph(g, g.neighbors(v))
    degs = sorted(sub.degree(u) for u in range(sub.n))
    if (size, k) == (5, 2):
        return sub.n == 5 and sub.m == 5 and degs == [2] * 5 and is_connected(sub)
    return sub.n == 4 and sub.m == 2 and degs == [1] * 4


@pytest.mark.parametrize("size,k", [(5, 2), (4, 1)], ids=["C5", "2K2"])
def test_link_test_matches_induced_pattern(size, k):
    # vertex 0 is a hub joined to every graph on 4 or 5 further vertices,
    # so its neighborhood runs through all of them
    hits = 0
    for order in (4, 5):
        pairs = list(combinations(range(1, order + 1), 2))
        for chosen in range(1 << len(pairs)):
            edges = [(0, x) for x in range(1, order + 1)]
            edges += [e for bit, e in enumerate(pairs) if chosen >> bit & 1]
            g = Graph(order + 1, edges)
            want = _link_reference(g, 0, size, k)
            assert _link_is(g, 0, size, k) == want
            hits += want
    assert hits == {(5, 2): 12, (4, 1): 3}[size, k]


def test_theorem2_block_pattern():
    g = figure2_pattern(4)
    cert = theorem2_cutset(g)
    assert isinstance(cert, GoodCutset)
    assert cert.cutset == (1, 2, 4, 12, 14)
    assert verify_certificate(g, cert)
    stats = induced_stats(g, set(cert.cutset))
    assert Fraction(2 * stats.induced_edge_count, 5) < 2


def test_theorem2_swaps_a_separator_vertex_outward():
    # a 5-regular graph found among random degree-preserving edge switches
    # of figure2_pattern(5): after the growth the separator induces a cycle
    # whose every vertex sees the rest, so the construction must swap a
    # vertex with two grown-side neighbors for its one outside neighbor
    g = parse_graph6("Sziw?kI?w@_J?I?B_?W?J?_g??}O?Yc?g")
    cert = theorem2_cutset(g)
    assert cert.cutset == (3, 4, 5, 18, 19)
    assert verify_certificate(g, cert)


def test_theorem2_icosahedron_is_recognized():
    cert = theorem2_cutset(icosahedron(), allow_small=True)
    assert isinstance(cert, IsIcosahedron)
    assert verify_certificate(icosahedron(), cert)


def test_theorem2_small_orders_need_opt_in():
    with pytest.raises(PreconditionError, match="allow_small"):
        theorem2_cutset(icosahedron())


def test_theorem2_small_circulant():
    g = circulant(12, (1, 2, 6))
    cert = theorem2_cutset(g, allow_small=True)
    assert isinstance(cert, GoodCutset)
    assert cert.cutset == (1, 2, 6, 10, 11)
    assert verify_certificate(g, cert)


def test_theorem2_small_order_dead_end_is_reported():
    # K6 at allow_small: a lonely separator vertex is dropped, and what is
    # left does not separate
    with pytest.raises(NoCutsetFound) as caught:
        theorem2_cutset(Graph(6, list(combinations(range(6), 2))), allow_small=True)
    assert str(caught.value) == (
        "theorem2_cutset: candidate separator does not disconnect the graph "
        "at order 6; the guarantee starts at 14"
    )


def test_theorem2_requires_five_regular():
    with pytest.raises(PreconditionError, match="5-regular"):
        theorem2_cutset(squared_cycle(14))


@pytest.mark.parametrize("n,seed", [(14, 1), (16, 2), (20, 3), (26, 5)])
def test_theorem2_random_regular(n, seed):
    g, _ = connected_random_regular(n, 5, seed)
    cert = theorem2_cutset(g)
    assert isinstance(cert, GoodCutset)
    assert len(cert.cutset) <= 5
    stats = induced_stats(g, set(cert.cutset))
    assert stats.max_degree_in_s <= 2
    assert Fraction(2 * stats.induced_edge_count, len(cert.cutset)) < 2
    assert verify_certificate(g, cert)


# ---------------------------------------------------------------- theorem 3


@pytest.mark.parametrize("n", [7, 10, 14, 19])
def test_theorem3_recognizes_squared_cycles(n):
    g = squared_cycle(n)
    out = theorem3_dichotomy(g, min_order=7)
    assert isinstance(out, SquaredCycleIso)
    assert verify_certificate(g, out)


@pytest.mark.parametrize("n,seed", [(12, 11), (16, 12), (22, 13)])
def test_theorem3_random_regular(n, seed):
    g, _ = connected_random_regular(n, 4, seed)
    out = theorem3_dichotomy(g)
    assert isinstance(out, (SquaredCycleIso, GoodCutset))
    assert verify_certificate(g, out)
    if isinstance(out, GoodCutset):
        stats = induced_stats(g, set(out.cutset))
        assert len(out.cutset) <= 4
        assert 2 * stats.induced_edge_count < len(out.cutset)
        assert stats.minimal


def test_theorem3_all_pair_neighborhoods_rejected():
    for g in (named_small("K3BoxK3"), named_small("LineGraphPetersen")):
        with pytest.raises(PreconditionError, match="2K2"):
            theorem3_dichotomy(g, min_order=7)


def test_theorem3_threshold_gate():
    with pytest.raises(PreconditionError, match="threshold"):
        theorem3_dichotomy(complement_cube())


@pytest.mark.parametrize("min_order", ["10", 10.0, 8.5, True])
def test_theorem3_refuses_a_min_order_that_is_not_an_int(min_order):
    with pytest.raises(PreconditionError, match="min_order must be an int"):
        theorem3_dichotomy(squared_cycle(14), min_order=min_order)


def test_theorem3_no_cutset_below_threshold():
    # complement of the cube: sparse cutsets of order <= 4 provably absent
    with pytest.raises(NoCutsetFound):
        theorem3_dichotomy(complement_cube(), min_order=8)


def test_theorem3_bipartite_side_cutset():
    k44 = Graph(8, [(a, 4 + b) for a in range(4) for b in range(4)])
    out = theorem3_dichotomy(k44, min_order=8)
    assert isinstance(out, GoodCutset)
    assert out.cutset == (0, 1, 2, 3)
    assert verify_certificate(k44, out)


def test_theorem3_pins_the_random_regular_80_cutset():
    # connectivity 4: the scan starts at size 4
    assert theorem3_dichotomy(random_regular(80, 4, 1)).cutset == (0, 3, 14, 68)


def test_theorem3_squared_cycles_run_no_flow(monkeypatch):
    def no_flow(g):
        raise AssertionError("connectivity computed for a squared cycle")

    monkeypatch.setattr("sparsecut.algorithms._connectivity", no_flow)
    assert isinstance(theorem3_dichotomy(squared_cycle(12)), SquaredCycleIso)


def test_theorem3_checks_its_squared_cycle_order_once(monkeypatch):
    calls = []
    order_matches = oracles._order_matches

    def counted(g, order):
        calls.append(order)
        return order_matches(g, order)

    monkeypatch.setattr(oracles, "_order_matches", counted)
    out = theorem3_dichotomy(squared_cycle(20))
    assert out == SquaredCycleIso(order=tuple(range(20)))
    assert len(calls) == 1


@pytest.mark.parametrize("n", [5, 6, 7, 8, 13, 30])
def test_theorem3_order_is_the_oracle_order(n):
    # at orders 5 and 6 the first verified permutation, from 7 on the walk;
    # both must agree with the oracle's recognizer under any labelling
    g = squared_cycle(n)
    for seed in range(3):
        perm = list(range(n))
        random.Random(seed).shuffle(perm)
        h = Graph(n, [(perm[a], perm[b]) for a, b in g.edges()])
        out = theorem3_dichotomy(h, min_order=5)
        assert out == SquaredCycleIso(order=recognize_squared_cycle(h))


def test_theorem3_walk_refused_on_a_switched_squared_cycle():
    # one 2-switch keeps every degree 4 but breaks the cycle
    kept = [e for e in squared_cycle(12).edges() if e not in {(0, 1), (5, 7)}]
    g = Graph(12, kept + [(0, 5), (1, 7)])
    assert recognize_squared_cycle(g) is None
    out = theorem3_dichotomy(g)
    assert isinstance(out, GoodCutset)
    assert verify_certificate(g, out)


def test_minimal_cutset_rule_matches_the_exhaustive_check():
    # every nonempty set of at most 4 vertices of random connected graphs:
    # the one-pass full-component rule against the oracle's own rule, that
    # no S - x separates
    rng = random.Random(3)
    checked = minimal = 0
    for _ in range(30):
        g = bounded_degree_connected(rng.randint(2, 10), rng.randint(2, 5), rng)
        masks = [sum(1 << w for w in g.neighbors(v)) for v in range(g.n)]
        for size in range(1, min(4, g.n) + 1):
            for s in combinations(range(g.n), size):
                smask = sum(1 << v for v in s)
                rule = _splits_minimally(masks, (1 << g.n) - 1 & ~smask, smask)
                verified = verify_certificate(g, GoodCutset(cutset=s, require_minimal=True))
                assert rule == verified, (g.edges(), s)
                checked += 1
                minimal += rule
    assert checked > 3000 and minimal > 50


def test_last_cut_vertices_match_one_flood_fill_per_vertex():
    # random prefixes P of random bounded-degree graphs; half of them hold
    # a vertex's whole neighborhood, which leaves it isolated in G - P
    rng = random.Random(5)
    disconnected = isolated = 0
    for _ in range(400):
        g = bounded_degree_connected(rng.randint(1, 14), rng.randint(2, 5), rng)
        prefix = set(rng.sample(range(g.n), rng.randint(0, min(3, g.n))))
        if rng.random() < 0.5:
            prefix |= set(g.neighbors(rng.randrange(g.n)))
        prefix = tuple(sorted(prefix))
        left = components(g, prefix)
        disconnected += len(left) >= 2
        isolated += any(len(comp) == 1 for comp in left)
        want = [
            d
            for d in range(max(prefix, default=-1) + 1, g.n)
            if len(components(g, prefix + (d,))) >= 2
        ]
        adj = tuple(map(g.neighbors, range(g.n)))
        assert algorithms._last_cut_vertices(adj, prefix) == want, (g.edges(), prefix)
    assert disconnected > 50 and isolated > 50


def test_connectivity_flow_matches_the_oracle_on_four_regular_graphs():
    graphs = [four_regular_cut1(), four_regular_cut2(), four_regular_cut3()]
    graphs += [random_regular(n, 4, seed) for n in range(5, 61, 5) for seed in (0, 1)]
    kappas = [_connectivity(g) for g in graphs]
    assert kappas == [vertex_connectivity(g) for g in graphs]
    assert kappas[:3] == [1, 2, 3]


@pytest.mark.parametrize(
    "g",
    [squared_cycle(14), connected_random_regular(20, 3, 4)[0], planted_cut(0, 2)],
    ids=["squared14", "cubic20", "cross2-0"],
)
def test_disjoint_paths_turns_back_every_arc_and_stops_at_its_cap(g):
    # the split network as _connectivity builds it: in(v) = v has its unit
    # arc to out(v) = n + v, and out(u) one to in(v) per edge uv
    n = g.n
    residual = [{n + v} for v in range(n)] + [set(g.neighbors(v)) for v in range(n)]
    before = [set(arcs) for arcs in residual]
    rng = random.Random(n)
    for _ in range(40):
        source = rng.randrange(n)
        ends = set(rng.sample([v for v in range(n) if v != source], rng.randint(1, 8)))
        full = algorithms._disjoint_paths(residual, source, ends, n)
        assert residual == before
        # paths to distinct ends that share only the source are the paths
        # to one new vertex joined to every end
        joined = Graph(n + 1, [*g.edges(), *((v, n) for v in ends)])
        assert full == reference_flow(joined, source, n, n)
        for cap in range(1, 6):
            assert algorithms._disjoint_paths(residual, source, ends, cap) == min(cap, full)
            assert residual == before
    # on the neighbors of a non-adjacent t the count is the pair flow
    apart = [(s, t) for s, t in combinations(range(n), 2) if not g.has_edge(s, t)]
    for s, t in rng.sample(apart, 10):
        count = algorithms._disjoint_paths(residual, s, g.neighbor_set(t), n)
        assert count == reference_flow(g, s, t, n)
        assert residual == before


def _counted_paths(monkeypatch, g: Graph) -> list[tuple[str, int, int, int, frozenset]]:
    """Each _disjoint_paths call of _connectivity(g) as (kind, source,
    found, cap, ends), ends copied at the call. kind is "fan" for a
    non-neighbor u of v0 checked against the vertices already joined,
    "flow" for the flow from v0 to u after a fan falls short, and "pair"
    for a pair of neighbors of v0."""
    calls = []
    disjoint_paths = algorithms._disjoint_paths
    v0 = min(range(g.n), key=g.degree)

    def counted(residual, source, ends, cap):
        kind = "flow" if source == v0 else "pair" if g.has_edge(v0, source) else "fan"
        snapshot = frozenset(ends)
        found = disjoint_paths(residual, source, ends, cap)
        calls.append((kind, source, found, cap, snapshot))
        return found

    monkeypatch.setattr(algorithms, "_disjoint_paths", counted)
    return calls


def test_fan_order_scatters_every_prefix(monkeypatch):
    # on an edgeless graph v0 = 0 and best = 0, so every other u gets one
    # fan of cap 0 and no flow: the fans give _connectivity's whole order.
    # The first m = 2, 4, 8, … ids hold every multiple of 2^b/m below n,
    # so no cyclic gap between them exceeds 2^b/m < 2n/m
    order = []

    def fan(residual, source, ends, cap):
        order.append(source)
        return 0

    monkeypatch.setattr(algorithms, "_disjoint_paths", fan)
    for n in [*range(1, 300), 1000, 19284, 65537]:
        order[:] = [0]
        assert _connectivity(Graph(n, [])) == 0
        assert order == bit_reversed(n)
        assert sorted(order) == list(range(n))
        m = 2
        while m <= n:
            ids = sorted(order[:m])
            gaps = [b - a for a, b in zip(ids, [*ids[1:], ids[0] + n])]
            assert max(gaps) <= 2 * n / m
            m *= 2


@pytest.mark.parametrize(
    "g",
    [joined_at_cut_vertex(seed) for seed in range(3)]
    + [planted_cut(seed, cross) for seed in range(2) for cross in (2, 3)],
    ids=[
        "cut-vertex-0", "cut-vertex-1", "cut-vertex-2",
        "cross2-0", "cross3-0", "cross2-1", "cross3-1",
    ],
)
def test_connectivity_falls_back_to_a_flow(monkeypatch, g):
    calls = _counted_paths(monkeypatch, g)
    assert _connectivity(g) == brute_connectivity(g)
    kinds = [kind for kind, *_ in calls]
    short = [found < cap for kind, _, found, cap, _ in calls if kind == "fan"]
    assert any(short)
    # a flow from v0 runs right after each fan that falls short, and only then
    assert kinds.count("flow") == sum(short)
    for i, kind in enumerate(kinds):
        if kind == "flow":
            assert kinds[i - 1] == "fan" and calls[i - 1][2] < calls[i - 1][3]
    assert_fans_follow_bit_reversal(g, calls)
    assert kinds[-1] == "pair"


def test_connectivity_settles_a_squared_cycle_by_fans(monkeypatch):
    g = squared_cycle(160)
    calls = _counted_paths(monkeypatch, g)
    assert _connectivity(g) == 4
    # the 155 non-neighbors of 0, each by a full fan, then the pairs of its
    # neighbors 1, 2, 158, 159 at distance 3 or 4; no flow from v0 runs
    assert [kind for kind, *_ in calls] == ["fan"] * 155 + ["pair"] * 3
    assert all(found == cap == 4 for _, _, found, cap, _ in calls)
    assert_fans_follow_bit_reversal(g, calls)
    assert [source for _, source, *_ in calls[155:]] == [1, 2, 2]


def _residual_reads(monkeypatch, who: str, g: Graph) -> int:
    """How often the augmenting searches of one connectivity run on g read
    a node's residual arcs: once per node popped and once per end checked,
    and in the algorithms' _disjoint_paths once per arc turned too. The
    search helper gets the run's residual list as a counting copy that
    shares its sets, so the arcs it turns are the run's own."""
    module, search, run = {
        "algorithms": (algorithms, "_disjoint_paths", algorithms._connectivity),
        "oracle": (oracles, "_free_end", oracles.vertex_connectivity),
    }[who]
    reads = 0

    class Counted(list):
        def __getitem__(self, x):
            nonlocal reads
            reads += 1
            return list.__getitem__(self, x)

    real = getattr(module, search)
    held = [None, None]  # the run's residual list and its counting copy

    def counted(residual, *rest):
        if held[0] is not residual:
            held[:] = residual, Counted(residual)
        return real(held[1], *rest)

    with monkeypatch.context() as patch:
        patch.setattr(module, search, counted)
        assert run(g) == 4
    return reads


@pytest.mark.parametrize("who", ["algorithms", "oracle"])
def test_connectivity_reads_grow_near_linearly_on_squared_cycles(monkeypatch, who):
    # a cost check without a clock: each doubling of C_n² multiplies the
    # residual reads by 2.2-2.3 in bit-reversal order, and by 4.0 in id or
    # breadth-first order, where every fan goes the long way round. Right
    # above a power of two the padded list of ids is nearly 2n long, and
    # 1025 -> 2049 still reads 2.2 times as much
    for orders in [(500, 1000, 2000), (1025, 2049)]:
        reads = [_residual_reads(monkeypatch, who, squared_cycle(n)) for n in orders]
        assert all(later < 2.6 * earlier for earlier, later in zip(reads, reads[1:]))


def test_connectivity_settles_a_random_regular_graph_in_few_reads(monkeypatch):
    # a cost check without a clock: on an expander nearly every call ends
    # in the first phase's one search, which read 13 977 residual sets
    # here; the augmenting searches alone read 108 603. The bound is a
    # fifth of the latter
    g = connected_random_regular(1000, 4, 1)[0]
    assert _residual_reads(monkeypatch, "algorithms", g) <= 108_603 // 5


def test_algorithms_borrow_only_these_oracle_names():
    # thm3 and thm4 take the connectivity from the algorithms' own flow, and
    # thm3 walks its squared cycle itself
    tree = ast.parse(inspect.getsource(algorithms))
    borrowed = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "oracles"
        for alias in node.names
    }
    assert borrowed == {
        "OracleBudget",
        "enumerate_min_cutsets",
        "find_independent_cutset",
        "verify_certificate",
    }


# ---------------------------------------------------------------- theorem 4


def test_theorem4_cut_vertex():
    g = four_regular_cut1()
    cert = theorem4_independent_cutset(g)
    assert isinstance(cert, IndependentCutset)
    assert cert.cutset == (10,)
    assert verify_certificate(g, cert)


def test_theorem4_pair_exchange():
    g = four_regular_cut2()
    cuts = enumerate_min_cutsets(g, OracleBudget(max_n=g.n))
    # the adjacent pair is present and wins the smallest-component race,
    # so the returned certificate must be its exchanged variant
    assert (13, 14) in cuts
    assert g.has_edge(13, 14)
    cert = theorem4_independent_cutset(g)
    assert cert.cutset == (5, 14)
    assert not g.has_edge(5, 14)
    assert verify_certificate(g, cert)


def test_theorem4_triple_exchange():
    g = four_regular_cut3()
    cuts = enumerate_min_cutsets(g, OracleBudget(max_n=g.n))
    assert (16, 17, 18) in cuts
    assert g.has_edge(16, 17)
    cert = theorem4_independent_cutset(g)
    assert cert.cutset == (6, 17, 18)
    for a in cert.cutset:
        for b in cert.cutset:
            assert a == b or not g.has_edge(a, b)
    assert verify_certificate(g, cert)


def test_theorem4_swaps_the_second_endpoint():
    # 16's far neighbor 11 also sees 18, so 17 gives way to its far neighbor 7
    g = four_regular_cut3_far_swap()
    assert {g.degree(v) for v in g.vertices()} == {4}
    assert vertex_connectivity(g) == 3
    cert = theorem4_independent_cutset(g)
    assert cert == IndependentCutset(cutset=(7, 16, 18), size_bound=3)
    assert verify_certificate(g, cert)


@pytest.mark.parametrize(
    "make, edge_cut",
    [(four_regular_cut2, (13, 14)), (four_regular_cut3, (16, 17, 18))],
)
def test_theorem4_exchange_survives_relabelling(make, edge_cut):
    # under any labelling the edge-carrying cut wins, and the answer keeps
    # all of it but the one endpoint swapped for its neighbor on the far side
    g = make()
    for seed in range(40):
        perm = list(range(g.n))
        random.Random(seed).shuffle(perm)
        h = Graph(g.n, [(perm[a], perm[b]) for a, b in g.edges()])
        cert = theorem4_independent_cutset(h)
        assert isinstance(cert, IndependentCutset)
        assert len(cert.cutset) == len(edge_cut)
        assert len(set(cert.cutset) & {perm[v] for v in edge_cut}) == len(edge_cut) - 1
        assert verify_certificate(h, cert)


def test_theorem4_disconnected_gives_empty_cutset():
    block = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    g = Graph(10, block + [(a + 5, b + 5) for a, b in block])
    cert = theorem4_independent_cutset(g)
    assert cert.cutset == ()
    assert verify_certificate(g, cert)


def test_theorem4_rejects():
    with pytest.raises(PreconditionError, match="connectivity"):
        theorem4_independent_cutset(squared_cycle(14))
    with pytest.raises(PreconditionError, match="4-regular"):
        theorem4_independent_cutset(petersen())


def test_theorem4_random_low_connectivity():
    found = 0
    seed = 0
    while found < 2 and seed < 200:
        g, seed = connected_random_regular(14, 4, seed)
        try:
            cert = theorem4_independent_cutset(g)
        except PreconditionError:
            seed += 1
            continue
        assert 1 <= len(cert.cutset) <= 3
        assert verify_certificate(g, cert)
        found += 1
        seed += 1
    assert found == 2


# ---------------------------------------------------------------- theorem 5


def test_theorem5_sparse_cutset_on_projective_plane():
    g = pg24_incidence()
    cert = theorem5_certify(g, 5, 2)
    assert isinstance(cert, GoodCutset)
    assert cert.cutset == (22, 26, 30, 34, 38)
    assert cert.degree_bound == 1
    assert verify_certificate(g, cert)


def test_theorem5_biclique_witness():
    g = circulant(20, (1, 2, 10))
    cert = theorem5_certify(g, 5, 2)
    assert isinstance(cert, KrrWitness)
    assert cert.side_a == (0, 1)
    assert cert.side_b == (2, 19)
    for a in cert.side_a:
        for b in cert.side_b:
            assert g.has_edge(a, b)
    assert verify_certificate(g, cert)


def test_theorem5_three_by_three_witness():
    g = clique_chain(CliqueChainParams(delta=12, base_length=4))
    assert g.max_degree() == 12
    cert = theorem5_certify(g, 12, 3)
    assert isinstance(cert, KrrWitness)
    assert cert.side_a == (5, 6, 7)
    assert cert.side_b == (1, 3, 8)
    assert verify_certificate(g, cert)


def test_theorem5_trace_invariants():
    g = circulant(20, (1, 2, 10))
    trace = []
    theorem5_certify(g, 5, 2, trace=trace)
    assert trace
    for state in trace:
        assert state.c == 4
        assert len(state.c_side) == state.step
        t = set(state.t_core)
        assert t <= set(state.s_side)
        assert len(state.s_side) <= 5 + (state.c - 3) * (state.step - 1)
        for a in state.c_side:
            for b in t:
                assert g.has_edge(a, b)


def test_theorem5_rejects():
    k6 = Graph(6, [(a, b) for a in range(6) for b in range(a + 1, 6)])
    with pytest.raises(PreconditionError, match="order"):
        theorem5_certify(k6, 5, 2)
    with pytest.raises(PreconditionError, match="exceed 3"):
        theorem5_certify(squared_cycle(14), 4, 2)
    with pytest.raises(PreconditionError, match="differs from delta"):
        theorem5_certify(circulant(20, (1, 2, 10)), 6, 2)
    with pytest.raises(PreconditionError, match="at least 2"):
        theorem5_certify(circulant(20, (1, 2, 10)), 5, 1)
    for delta, r in ((5.0, 2), (True, 2), (5, 2.0), (5, True), (5, "2")):
        with pytest.raises(PreconditionError, match="must be an int"):
            theorem5_certify(circulant(20, (1, 2, 10)), delta, r)


# ------------------------------------------------------------ propositions


def test_prop1_accepts_the_icosahedron():
    assert prop1_is_icosahedron(icosahedron())
    # three stacked blocks assemble the same solid with other labels
    assert prop1_is_icosahedron(figure2_pattern(3))


def test_prop1_rejects_everything_else():
    assert not prop1_is_icosahedron(petersen())
    assert not prop1_is_icosahedron(figure2_pattern(4))
    assert not prop1_is_icosahedron(squared_cycle(12))
    ico = icosahedron().edges()
    double = Graph(24, list(ico) + [(a + 12, b + 12) for a, b in ico])
    assert not prop1_is_icosahedron(double)


def test_prop2_cycle_and_path():
    assert prop2_cutset(cycle(6)).cutset == (1, 5)
    assert prop2_cutset(path(10)).cutset == (1,)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_prop2_contracts_diamond_chains(k):
    g = diamond_chain(k)
    # recompute the greedy ball cover: every representative sits inside a
    # diamond, so the sparse-neighborhood shortcut is unavailable and the
    # answer can only come out of the contraction route
    covered: set[int] = set()
    reps = []
    for v in range(g.n):
        if v in covered:
            continue
        reps.append(v)
        ball = {v} | g.neighbor_set(v)
        for x in g.neighbor_set(v):
            ball |= g.neighbor_set(x)
        covered |= ball
    for r in reps:
        assert induced_stats(g, g.neighbors(r)).max_degree_in_s >= 2
    report = induced_stats(g, prop2_cutset(g).cutset)
    assert report.cutset == (0, 1)
    assert report.max_degree_in_s <= 1
    assert disconnects(g, report.cutset)


@pytest.mark.parametrize("n", [6, 25, 40])
def test_prop2_dominating_center_falls_back(n):
    star = Graph(n, [(0, i) for i in range(1, n)])
    assert prop2_cutset(star).cutset == (0,)


def test_prop2_no_cutset_on_an_edge():
    with pytest.raises(NoCutsetFound):
        prop2_cutset(Graph(2, [(0, 1)]))


def test_prop2_density_gate():
    k5 = Graph(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
    with pytest.raises(PreconditionError, match="exceeds"):
        prop2_cutset(k5)


def test_prop2_random_sparse():
    rng = random.Random(21)
    for _ in range(12):
        n = rng.randint(12, 40)
        deg = [0] * n
        edges = []
        for v in range(1, n):
            u = rng.randrange(v)
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
        g = Graph(n, edges)
        report = induced_stats(g, prop2_cutset(g).cutset)
        assert report.max_degree_in_s <= 1
        assert disconnects(g, report.cutset)


# ------------------------------------------------- degenerate construction


def test_degenerate_path_middle():
    g = path(50)
    report = induced_stats(g, degenerate_sparse_cutset(g, 25).cutset)
    s = set(report.cutset)
    assert {24, 26} <= s and 25 not in s
    assert len(s) == 25
    assert report.max_degree_in_s == 0
    assert disconnects(g, s)


def test_degenerate_dilutes_average_degree():
    g = squared_cycle(100)
    hood = induced_stats(g, set(g.neighbors(0)))
    report = induced_stats(g, degenerate_sparse_cutset(g, 0).cutset)
    lhs = Fraction(2 * report.induced_edge_count, len(report.cutset))
    rhs = Fraction(2 * hood.induced_edge_count, 4)
    assert lhs < rhs
    assert disconnects(g, report.cutset)


def test_degenerate_rejects():
    with pytest.raises(PreconditionError, match="exceed"):
        degenerate_sparse_cutset(squared_cycle(10), 0)
    with pytest.raises(GraphError, match="out of range"):
        degenerate_sparse_cutset(path(50), 60)
