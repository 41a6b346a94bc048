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
    bounded_degree_connected,
    circulant,
    complement_cube,
    connected_random_regular,
    diamond_chain,
    four_regular_cut1,
    four_regular_cut2,
    four_regular_cut3,
    induced_subgraph,
    pg24_incidence,
    petersen,
    union_find_components,
)
import sparsecut.algorithms as algorithms
from sparsecut.algorithms import (
    _connectivity,
    _link_is,
    _splits_minimally,
    bipartite_matching,
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
from sparsecut.graph import Graph, induced_stats, is_connected, max_degree_in
from sparsecut.io import parse_graph6
from sparsecut.oracles import (
    OracleBudget,
    enumerate_min_cutsets,
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
    # an endpoint has degree 1 <= delta - 2, so its neighborhood is the answer
    g = path(20)
    report = induced_stats(g, theorem1_cutset(g, 3).cutset)
    assert report.cutset == (1,)
    assert report.max_degree_in_s == 0


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


def test_minimal_cutset_rule_matches_the_exhaustive_check():
    # every nonempty set of at most 4 vertices of random connected graphs:
    # the one-pass full-component rule against the oracle's subset scan
    rng = random.Random(3)
    checked = minimal = 0
    for _ in range(30):
        g = bounded_degree_connected(rng.randint(2, 10), rng.randint(2, 5), rng)
        masks = [sum(1 << w for w in g.neighbors(v)) for v in range(g.n)]
        for size in range(1, min(4, g.n) + 1):
            for s in combinations(range(g.n), size):
                smask = sum(1 << v for v in s)
                rule = _splits_minimally(masks, (1 << g.n) - 1 & ~smask, smask)
                exhaustive = verify_certificate(g, GoodCutset(cutset=s, require_minimal=True))
                assert rule == exhaustive, (g.edges(), s)
                checked += 1
                minimal += rule
    assert checked > 3000 and minimal > 50


def test_connectivity_flow_matches_the_oracle_on_four_regular_graphs():
    graphs = [four_regular_cut1(), four_regular_cut2(), four_regular_cut3()]
    graphs += [random_regular(n, 4, seed) for n in range(5, 61, 5) for seed in (0, 1)]
    kappas = [_connectivity(g) for g in graphs]
    assert kappas == [vertex_connectivity(g) for g in graphs]
    assert kappas[:3] == [1, 2, 3]


def test_algorithms_borrow_only_these_oracle_names():
    # thm3 and thm4 take the connectivity from the algorithms' own flow
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
        "recognize_squared_cycle",
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


# ------------------------------------------------------- theorem 4 matching


def _matching_recursive(g: Graph, left, right) -> list[tuple[int, int]]:
    """The recursive augmenting-path search the library replaced, as reference."""
    rs = frozenset(right)
    match_of: dict[int, int] = {}

    def augment(u: int, seen: set[int]) -> bool:
        for w in g.neighbors(u):
            if w not in rs or w in seen:
                continue
            seen.add(w)
            if w not in match_of or augment(match_of[w], seen):
                match_of[w] = u
                return True
        return False

    for u in sorted(set(left)):
        augment(u, set())
    return sorted((u, w) for w, u in match_of.items())


def test_bipartite_matching_long_augmenting_paths_need_no_recursion():
    got = bipartite_matching(path(3000), tuple(range(0, 3000, 2)), tuple(range(1, 3000, 2)))
    assert got == [(u, u + 1) for u in range(0, 3000, 2)]


def test_bipartite_matching_matches_recursive_order():
    rng = random.Random(20261019)
    for _ in range(500):
        n = rng.randint(2, 12)
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.4])
        verts = list(range(n))
        rng.shuffle(verts)
        cut = rng.randint(0, n)
        left, right = verts[:cut], verts[cut:]
        assert bipartite_matching(g, left, right) == _matching_recursive(g, left, right)


def test_bipartite_matching_even_cycle_perfect():
    got = bipartite_matching(cycle(6), (0, 2, 4), (1, 3, 5))
    assert len(got) == 3
    assert got == sorted(got)
    used_left = {u for u, _ in got}
    used_right = {w for _, w in got}
    assert used_left == {0, 2, 4} and used_right == {1, 3, 5}


def test_bipartite_matching_deterministic_and_partial():
    g = Graph(5, [(0, 3), (1, 3), (2, 4)])
    got = bipartite_matching(g, (0, 1, 2), (3, 4))
    assert got == [(0, 3), (2, 4)]


def test_bipartite_matching_rejects_overlap():
    with pytest.raises(PreconditionError):
        bipartite_matching(cycle(4), (0, 1), (1, 2))


@pytest.mark.parametrize(
    "left, right, message",
    [
        ((-1,), (0, 1), "vertex id -1 out of range for n=8"),
        ((0, 1), (99,), "vertex id 99 out of range for n=8"),
        (("a",), (0,), "vertex id must be an int, got 'a'"),
    ],
)
def test_bipartite_matching_checks_vertex_ids(left, right, message):
    # a negative id would otherwise read another vertex's neighbors, and a
    # large one would end in a bare IndexError
    with pytest.raises(GraphError, match=message):
        bipartite_matching(squared_cycle(8), left, right)


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
        assert max_degree_in(g, g.neighbor_set(r)) >= 2
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
