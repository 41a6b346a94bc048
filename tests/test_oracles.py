"""Oracles: exhaustive searches, connectivity, the squared-cycle recognizer,
verification."""

from __future__ import annotations

import inspect
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    assert_fans_follow_bit_reversal,
    bit_reversed,
    brute_connectivity,
    connected_random_regular,
    four_regular_cut1,
    four_regular_cut2,
    four_regular_cut3,
    joined_at_cut_vertex,
    petersen,
    planted_cut,
    reference_flow,
    renamed,
)
from sparsecut import oracles
from sparsecut.certificates import (
    GoodCutset,
    IndependentCutset,
    IsIcosahedron,
    KrrWitness,
    SquaredCycleIso,
)
from sparsecut.errors import BudgetExhausted, PreconditionError
from sparsecut.generators import (
    CliqueChainParams,
    clique_chain,
    icosahedron,
    figure2_pattern,
    named_small,
    random_regular,
    squared_cycle,
)
from sparsecut.graph import Graph, components, induced_stats, is_connected, is_cutset
from sparsecut.oracles import (
    OracleBudget,
    enumerate_min_cutsets,
    find_constrained_cutset,
    find_independent_cutset,
    find_krr,
    recognize_squared_cycle,
    vertex_connectivity,
    verify_certificate,
)


def _path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


_TWO_TRIANGLES = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


# ------------------------------------------------------- min cutset enumeration


def test_enumerate_min_cutsets_complete_graph_has_none():
    k4 = named_small("K4")
    assert enumerate_min_cutsets(k4) == []


def test_enumerate_min_cutsets_path():
    cuts = enumerate_min_cutsets(_path(4))
    assert cuts == [(1,), (2,)]


def test_enumerate_min_cutsets_cycle_lexicographic():
    cuts = enumerate_min_cutsets(_cycle(5))
    assert cuts == [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]


def test_enumerate_min_cutsets_results_are_minimal_cutsets():
    g = squared_cycle(10)
    cuts = enumerate_min_cutsets(g)
    assert cuts
    sizes = {len(c) for c in cuts}
    assert len(sizes) == 1
    for c in cuts:
        rep = induced_stats(g, c)
        assert rep.is_cutset and rep.minimal is True


def test_enumerate_min_cutsets_requires_connected():
    with pytest.raises(PreconditionError, match="connected"):
        enumerate_min_cutsets(Graph(4, [(0, 1), (2, 3)]))


def test_enumerate_min_cutsets_budget_gates():
    with pytest.raises(BudgetExhausted, match="max_n"):
        enumerate_min_cutsets(squared_cycle(30))
    # K10 minus a perfect matching: 8-regular, kappa = 8 > default cap 6
    edges = [
        (u, v)
        for u in range(10)
        for v in range(u + 1, 10)
        if not (u + 5 == v)
    ]
    with pytest.raises(BudgetExhausted, match="max_subset_size"):
        enumerate_min_cutsets(Graph(10, edges))


# ------------------------------------------------------------------ connectivity


def test_vertex_connectivity_known_values():
    assert vertex_connectivity(icosahedron()) == 5
    assert vertex_connectivity(squared_cycle(14)) == 4
    assert vertex_connectivity(named_small("TriangularPrism")) == 3
    assert vertex_connectivity(_path(6)) == 1
    assert vertex_connectivity(named_small("K4")) == 3
    assert vertex_connectivity(Graph(5, [(0, 1), (2, 3)])) == 0
    assert vertex_connectivity(Graph(1, [])) == 0
    assert vertex_connectivity(petersen()) == 3


def test_vertex_connectivity_makes_no_separate_connectedness_pass(monkeypatch):
    # connectedness is decided by the oracle's one flood fill, a single
    # _separates(g, ()) call, with no traversal of vertex_connectivity's
    # own; a disconnected graph then runs no fan or flow
    separates, fan = oracles._separates, oracles._fan
    calls = []

    def counted(g, removed):
        calls.append(removed)
        return separates(g, removed)

    def fan_if_connected(residual, src, ends, stop_at):
        assert calls == [()] and not separates(g, ())
        return fan(residual, src, ends, stop_at)

    monkeypatch.setattr(oracles, "_separates", counted)
    monkeypatch.setattr(oracles, "_fan", fan_if_connected)
    cases = [
        (Graph(5, [(0, 1), (2, 3)]), 0),
        (Graph(2, []), 0),
        (_TWO_TRIANGLES, 0),
        (squared_cycle(14), 4),
        (named_small("K4"), 3),
        (_path(6), 1),
    ]
    for g, kappa in cases:
        del calls[:]
        assert vertex_connectivity(g) == kappa
        assert calls == [()]
    # the empty graph is answered before any flood fill
    del calls[:]
    assert vertex_connectivity(Graph(0, [])) == 0
    assert calls == []


def test_vertex_connectivity_against_subset_scan():
    # independent second method: smallest separating subset by brute force
    rng = random.Random(99)
    for _ in range(120):
        n = rng.randint(2, 12)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < rng.choice((0.2, 0.4, 0.7))
        ]
        g = Graph(n, edges)
        assert vertex_connectivity(g) == brute_connectivity(g)


def _special_graphs() -> list[Graph]:
    return [
        Graph(0, []),
        Graph(1, []),
        Graph(2, []),
        Graph(6, [(0, 1), (1, 2), (3, 4)]),
        *(Graph(n, list(combinations(range(n), 2))) for n in (2, 3, 5, 8, 12)),
        *(Graph(n, [(0, v) for v in range(1, n)]) for n in (2, 3, 7, 12)),
        *(_path(n) for n in (2, 3, 9, 12)),
        *(_cycle(n) for n in (3, 4, 11)),
    ]


@st.composite
def _small_graphs(draw, max_n: int = 12) -> Graph:
    n = draw(st.integers(0, max_n))
    p = draw(st.sampled_from((0.15, 0.3, 0.5, 0.7, 0.9)))
    pairs = list(combinations(range(n), 2))
    picks = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, x in zip(pairs, picks) if x < p])


@given(g=st.one_of(_small_graphs(), st.sampled_from(_special_graphs())))
@settings(max_examples=200, deadline=None)
def test_vertex_connectivity_matches_subset_scan_property(g):
    kappa = vertex_connectivity(g)
    assert kappa == brute_connectivity(g)
    if is_connected(g) and g.m < g.n * (g.n - 1) // 2:
        cutsets = enumerate_min_cutsets(g, OracleBudget(max_subset_size=g.n))
        assert {len(s) for s in cutsets} == {kappa}


def _reference_connectivity(g: Graph) -> int:
    """The earlier pair selection: flows from a minimum-degree vertex and
    from each of its neighbors to every non-neighbor."""
    if g.n <= 1:
        return max(g.n - 1, 0)
    if not is_connected(g):
        return 0
    if g.m == g.n * (g.n - 1) // 2:
        return g.n - 1
    v0 = 0
    for v in range(1, g.n):
        if g.degree(v) < g.degree(v0):
            v0 = v
    best = g.degree(v0)
    for r in (v0,) + g.neighbors(v0):
        for u in range(g.n):
            if u == r or g.has_edge(r, u):
                continue
            best = min(best, reference_flow(g, r, u, best))
            if best == 0:
                return 0
    return best


def _comparison_graphs() -> list[Graph]:
    out = []
    for d, orders in ((3, (8, 20, 40, 60)), (4, (9, 24, 60)), (5, (10, 30, 60))):
        for n in orders:
            for seed in range(2):
                try:
                    out.append(random_regular(n, d, seed))
                except BudgetExhausted:
                    pass
    out += [squared_cycle(n) for n in (5, 6, 7, 9, 13, 30, 61)]
    out += [joined_at_cut_vertex(seed) for seed in range(3)]
    # two squared cycles side by side, disconnected
    side = [(x + 7, y + 7) for x, y in squared_cycle(9).edges()]
    out.append(Graph(16, [*squared_cycle(7).edges(), *side]))
    out += [
        clique_chain(CliqueChainParams(delta, length, cyclic, seed))
        for delta, length, cyclic, seed in ((9, 3, False, 0), (9, 5, True, 1), (16, 3, False, 2), (12, 4, True, 3))
    ]
    out += [four_regular_cut1(), four_regular_cut2(), four_regular_cut3(), petersen(), icosahedron()]
    return out


def test_vertex_connectivity_matches_earlier_flow_code():
    graphs = _comparison_graphs()
    kappas = [vertex_connectivity(g) for g in graphs]
    assert kappas == [_reference_connectivity(g) for g in graphs]
    # the comparison covers every connectivity from 0 to 5
    assert set(kappas) >= {0, 1, 2, 3, 4, 5}


def _far_half_last(g: Graph, far: set[int]) -> Graph:
    """g renamed so that the vertices of far take the ids that
    bit_reversed decides last, and the rest keep their id order."""
    old = [v for v in range(g.n) if v not in far] + sorted(far)
    ids = [0] * g.n
    for v, u in zip(old, bit_reversed(g.n)):
        ids[v] = u
    return renamed(g, ids)


@pytest.mark.parametrize(
    "g, done",
    [
        # 395 non-neighbors of v0 and 3 non-adjacent pairs of its
        # neighbors, {398, 1}, {398, 2} and {399, 2}: 398 pairs. The clock
        # is read after every pair, and the first pair takes longer than
        # 1e-9 s, so the search stops after it
        (squared_cycle(400), "1 of 398"),
        # the cut vertex and the 20-vertex half behind it are decided last,
        # so the first pairs are fans that find their 4 paths; the read
        # after the first of them stops the search all the same
        (_far_half_last(joined_at_cut_vertex(2), set(range(16, 37))), "1 of 38"),
    ],
    ids=["squared400", "cut-vertex"],
)
def test_vertex_connectivity_stops_at_the_time_hint(g, done):
    message = f"oracle time budget of 1e-09s exceeded after {done} flow pairs"
    with pytest.raises(BudgetExhausted, match=f"^{re.escape(message)}$"):
        vertex_connectivity(g, OracleBudget(time_hint_s=1e-9))


def test_vertex_connectivity_reads_only_the_time_hint(monkeypatch):
    clock = []

    def monotonic() -> float:
        clock.append(None)
        return 0.0

    monkeypatch.setattr(oracles.time, "monotonic", monotonic)
    g = squared_cycle(160)
    # the start, then one read after each of the 158 pairs: the 160 - 5
    # non-neighbors of v0 and the 3 non-adjacent pairs of its neighbors
    assert vertex_connectivity(g, OracleBudget(time_hint_s=1.0)) == 4
    assert len(clock) == 1 + 158
    # without a time hint the clock is never read, and max_n is no cap
    del clock[:]
    assert vertex_connectivity(g) == 4
    assert vertex_connectivity(g, OracleBudget(max_n=0, max_subset_size=0)) == 4
    assert clock == []


def test_vertex_connectivity_stops_at_the_first_read_past_the_hint(monkeypatch):
    # a clock that reads 0 at the start and p after pair p: a hint of 2.5
    # lets pairs 1 and 2 pass and stops at the read after pair 3
    clock = []

    def monotonic() -> float:
        clock.append(None)
        return float(len(clock) - 1)

    monkeypatch.setattr(oracles.time, "monotonic", monotonic)
    message = "oracle time budget of 2.5s exceeded after 3 of 158 flow pairs"
    with pytest.raises(BudgetExhausted, match=f"^{re.escape(message)}$"):
        vertex_connectivity(squared_cycle(160), OracleBudget(time_hint_s=2.5))
    assert len(clock) == 1 + 3


def _counted_fans(
    monkeypatch, g: Graph, keep_ends: bool = True
) -> list[tuple[str, int, int, int, frozenset | None]]:
    """Each _fan call of vertex_connectivity(g) as (kind, src, found,
    stop_at, ends), ends copied at the call if keep_ends, else None. kind
    is "fan" for a non-neighbor u of v0 checked against the vertices
    already decided, "flow" for the flow from v0 to u after a fan falls
    short, and "pair" for a pair of neighbors of v0."""
    calls = []
    fan = oracles._fan
    v0 = min(range(g.n), key=g.degree)

    def counted(net, src, ends, stop_at):
        kind = "flow" if src == v0 else "pair" if g.has_edge(v0, src) else "fan"
        snapshot = frozenset(ends) if keep_ends else None
        found = fan(net, src, ends, stop_at)
        calls.append((kind, src, found, stop_at, snapshot))
        return found

    monkeypatch.setattr(oracles, "_fan", counted)
    return calls


def test_vertex_connectivity_flow_count(monkeypatch):
    g = squared_cycle(160)
    calls = _counted_fans(monkeypatch, g)
    assert vertex_connectivity(g) == 4
    kinds = [kind for kind, *_ in calls]
    assert kinds == ["fan"] * 155 + ["pair"] * 3
    # every fan finds its 4 paths, so no flow from v0 runs at all
    assert all(found == stop_at == 4 for _, _, found, stop_at, _ in calls)
    # the non-neighbors of 0 in bit-reversal order, then the non-adjacent
    # pairs of neighbors 1, 2, 158, 159 by their first member
    assert_fans_follow_bit_reversal(g, calls)
    fans = [src for _, src, *_ in calls[:155]]
    assert fans[:8] == [128, 64, 32, 96, 16, 144, 80, 48]
    # the decided set is spread around the cycle: once 16 ids are decided,
    # every later fan has a decided vertex within 8 steps on each side
    for i, u in enumerate(fans[11:], 11):
        decided = {0, 1, 2, 158, 159, *fans[:i]}
        assert any((u + d) % 160 in decided for d in range(1, 9))
        assert any((u - d) % 160 in decided for d in range(1, 9))
    assert [src for _, src, *_ in calls[155:]] == [1, 2, 2]


def test_vertex_connectivity_settles_an_expander_by_fans(monkeypatch):
    g = random_regular(4000, 4, 1)
    calls = _counted_fans(monkeypatch, g, keep_ends=False)
    assert vertex_connectivity(g) == 4
    # the 3995 non-neighbors of v0, each by a full fan, then the 6 pairs of
    # its neighbors, none adjacent
    kinds = [kind for kind, *_ in calls]
    assert kinds == ["fan"] * 3995 + ["pair"] * 6
    assert all(found == stop_at == 4 for _, _, found, stop_at, _ in calls)


@pytest.mark.parametrize(
    "g",
    [squared_cycle(14), connected_random_regular(20, 3, 4)[0], planted_cut(0, 2)],
    ids=["squared14", "cubic20", "cross2-0"],
)
def test_fan_turns_back_every_arc_and_stops_at_its_cap(g):
    # the split network as vertex_connectivity builds it: in(v) = 2v has
    # its unit arc to out(v) = 2v+1, and out(u) one to in(v) per edge uv
    residual = [
        {x + 1} if not x & 1 else {2 * v for v in g.neighbors(x >> 1)} for x in range(2 * g.n)
    ]
    before = [set(arcs) for arcs in residual]
    rng = random.Random(g.n)
    for _ in range(40):
        src = rng.randrange(g.n)
        ends = set(rng.sample([v for v in range(g.n) if v != src], rng.randint(1, 8)))
        full = oracles._fan(residual, src, ends, g.n)
        assert residual == before
        assert full <= min(len(ends), g.degree(src))
        for stop_at in range(1, 6):
            assert oracles._fan(residual, src, ends, stop_at) == min(stop_at, full)
            assert residual == before
    # on the neighbors of a non-adjacent t the fan is the pair flow
    apart = [(s, t) for s, t in combinations(range(g.n), 2) if not g.has_edge(s, t)]
    for s, t in rng.sample(apart, 10):
        assert oracles._fan(residual, s, g.neighbor_set(t), g.n) == reference_flow(g, s, t, g.n)
        assert residual == before


@pytest.mark.parametrize(
    "g",
    [joined_at_cut_vertex(seed) for seed in range(3)]
    + [planted_cut(seed, cross) for seed in range(2) for cross in (2, 3)],
    ids=["cut-vertex-0", "cut-vertex-1", "cut-vertex-2", "cross2-0", "cross3-0", "cross2-1", "cross3-1"],
)
def test_vertex_connectivity_falls_back_to_a_flow(monkeypatch, g):
    calls = _counted_fans(monkeypatch, g)
    assert vertex_connectivity(g) == _reference_connectivity(g)
    kinds = [kind for kind, *_ in calls]
    short = [found < stop_at for kind, _, found, stop_at, _ in calls if kind == "fan"]
    assert any(short)
    # a flow from v0 runs right after each fan that falls short, and only then
    assert kinds.count("flow") == sum(short)
    for i, kind in enumerate(kinds):
        if kind == "flow":
            assert kinds[i - 1] == "fan" and calls[i - 1][2] < calls[i - 1][3]
    assert_fans_follow_bit_reversal(g, calls)


# ---------------------------------------------------------- independent cutsets


def test_find_independent_cutset_first_hit_is_lex_least():
    got = find_independent_cutset(_cycle(6))
    assert got is not None and got == (0, 2)


def test_find_independent_cutset_none_cases():
    assert find_independent_cutset(named_small("K4")) is None
    assert find_independent_cutset(named_small("TriangularPrism")) is None
    assert find_independent_cutset(squared_cycle(14)) is None


def test_find_independent_cutset_disconnected_returns_empty():
    got = find_independent_cutset(Graph(4, [(0, 1), (2, 3)]))
    assert got is not None and got == ()


def test_find_independent_cutset_cubic_graphs_of_order_8_plus():
    # sparse enough that an independent cutset always exists
    for n, seed in ((8, 0), (10, 3), (12, 5), (14, 9)):
        g, _ = connected_random_regular(n, 3, seed)
        got = find_independent_cutset(g)
        assert got is not None
        assert is_cutset(g, got)
        assert induced_stats(g, got).induced_edge_count == 0


def test_find_independent_cutset_budget():
    with pytest.raises(BudgetExhausted):
        find_independent_cutset(squared_cycle(25))
    with pytest.raises(BudgetExhausted):
        find_independent_cutset(
            squared_cycle(14), OracleBudget(time_hint_s=1e-9)
        )


@pytest.mark.parametrize(
    "fields",
    [
        {"max_n": -1},
        {"max_subset_size": -1},
        {"time_hint_s": 0.0},
        {"time_hint_s": -1.0},
        # the caps are ints that are not bools, and the hint is a number
        # that is not a bool
        {"max_n": "30"},
        {"max_n": 24.0},
        {"max_n": True},
        {"max_subset_size": 2.5},
        {"max_subset_size": False},
        {"time_hint_s": "1"},
        {"time_hint_s": True},
    ],
)
def test_oracle_budget_rejects_invalid_caps(fields):
    with pytest.raises(PreconditionError, match="OracleBudget"):
        OracleBudget(**fields)


# ---------------------------------------------------------- constrained cutsets


def test_find_constrained_cutset_delta_zero_matches_independent():
    got = find_constrained_cutset(_cycle(6), max_delta=0)
    assert got is not None and got == (0, 2)


@pytest.mark.parametrize(
    "g",
    [Graph(2, []), Graph(3, []), _TWO_TRIANGLES],
    ids=["2-isolated", "3-isolated", "two-triangles"],
)
@pytest.mark.parametrize("max_delta", [0, 1, 2])
def test_find_constrained_cutset_disconnected_returns_empty(g, max_delta):
    # the convention of find_independent_cutset, for every degree cap
    assert find_constrained_cutset(g, max_delta=max_delta) == ()
    assert verify_certificate(g, GoodCutset(cutset=(), degree_bound=max_delta))


def test_find_constrained_cutset_keeps_the_walk_under_an_average_bound():
    # the empty set has no average, so the walk names a nonempty set
    assert find_constrained_cutset(Graph(3, []), max_delta=1, max_avg=Fraction(1)) == (0,)
    assert find_constrained_cutset(Graph(2, []), max_delta=1, max_avg=Fraction(1)) is None
    assert find_constrained_cutset(Graph(0, []), max_delta=1) is None


def test_find_constrained_cutset_exhaustive_none_on_dense_families():
    assert find_constrained_cutset(icosahedron(), max_delta=1) is None
    assert find_constrained_cutset(figure2_pattern(3), max_delta=1) is None
    assert find_constrained_cutset(figure2_pattern(4), max_delta=1) is None


def test_find_constrained_cutset_avg_only_within_size_cap():
    got = find_constrained_cutset(_path(5), max_avg=(1, 1))
    assert got is not None and got == (1,)
    assert find_constrained_cutset(_path(5), max_avg=[1, 1]) == got
    # strictness: a single edge in S of size 2 has average exactly 1
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
    hit = find_constrained_cutset(g, max_avg=Fraction(1))
    assert hit is not None
    assert 2 * induced_stats(g, hit).induced_edge_count < len(hit)


# The arguments are checked before the order cap, so above max_n (the
# 30-vertex graphs below) a malformed one is still a refusal, not an
# exhausted budget that a bigger budget would seem to cure.


def test_find_constrained_cutset_needs_a_constraint():
    message = "find_constrained_cutset needs at least one constraint"
    for g in (_cycle(6), Graph(30, [])):
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            find_constrained_cutset(g)


@pytest.mark.parametrize("max_avg", [(1, 0), (1, -2), (0, -1)])
def test_find_constrained_cutset_refuses_a_denominator_below_one(max_avg):
    message = f"find_constrained_cutset: max_avg needs a positive denominator, got {max_avg}"
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        find_constrained_cutset(_cycle(6), max_avg=max_avg)


@pytest.mark.parametrize(
    "max_avg", [(1, 2, 3), "1/2", (1.5, 2), 0.5, (1, 2.0), (True, 2), (1, True)]
)
def test_find_constrained_cutset_refuses_a_malformed_average(max_avg):
    message = (
        "find_constrained_cutset: max_avg must be a Fraction or a pair of ints, "
        f"got {max_avg!r}"
    )
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        find_constrained_cutset(_cycle(6), max_avg=max_avg)


@pytest.mark.parametrize("max_delta", [1.5, 2.0, True, "1"])
def test_find_constrained_cutset_refuses_a_max_delta_that_is_not_an_int(max_delta):
    # a float bound never marks a vertex saturated, so 1.5 would let a
    # vertex of C_10^2 keep 2 neighbours in the answer
    message = f"find_constrained_cutset: max_delta must be an int, got {max_delta!r}"
    for g in (squared_cycle(10), Graph(30, [])):
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            find_constrained_cutset(g, max_delta=max_delta)


@pytest.mark.parametrize(
    "g", [Graph(2, []), _cycle(6), Graph(30, [])], ids=["2-isolated", "cycle6", "30-isolated"]
)
@pytest.mark.parametrize("max_delta", [-1, -3])
def test_find_constrained_cutset_refuses_a_negative_max_delta(g, max_delta):
    # no set meets the cap, so the empty set must not answer a disconnected
    # input, nor None a connected one
    message = f"find_constrained_cutset: max_delta must be non-negative, got {max_delta}"
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        find_constrained_cutset(g, max_delta=max_delta)
    assert not verify_certificate(g, GoodCutset(cutset=(), degree_bound=max_delta))


def test_find_constrained_cutset_respects_degree_bound():
    g = squared_cycle(12)
    got = find_constrained_cutset(g, max_delta=2)
    assert got is not None
    rep = induced_stats(g, got)
    assert rep.is_cutset and rep.max_degree_in_s <= 2


# ------------------------------------------------------------------------- krr


def test_find_krr_squared_cycle_has_k22():
    got = find_krr(squared_cycle(14), 2)
    assert got is not None
    a, b = got
    assert a == (0, 1) and b == (2, 13)


def test_find_krr_none_on_petersen():
    # girth 5 leaves no 4-cycle, hence no K_{2,2}
    assert find_krr(petersen(), 2) is None


def test_find_krr_r1_is_any_edge():
    got = find_krr(_path(3), 1)
    assert got is not None
    a, b = got
    assert a == (0,) and b == (1,)


@pytest.mark.parametrize("r", [0, -1, 1.5, 2.0, "2", True])
def test_find_krr_validates_r(r):
    with pytest.raises(PreconditionError, match="^find_krr.* r "):
        find_krr(_path(3), r)


def _kept_searches(monkeypatch) -> list:
    """Every _Search built from here on, in order."""
    searches = []
    init = oracles._Search.__init__

    def kept(self, *args):
        init(self, *args)
        searches.append(self)

    monkeypatch.setattr(oracles._Search, "__init__", kept)
    return searches


def test_find_krr_prunes_on_common_neighbors(monkeypatch):
    searches = _kept_searches(monkeypatch)
    # a walk over every 3-subset of C_24^2 takes 22 + 253 + 2024 = 2299
    # steps; dropping each prefix with fewer than 3 common neighbors leaves
    # 275
    assert find_krr(squared_cycle(24), 3) is None
    assert searches[-1].steps == 275
    assert find_krr(petersen(), 3) is None
    assert searches[-1].steps == 44


# ------------------------------------------------ searches against references
#
# Plain versions of the exhaustive searches, written from the Graph API: the
# unpruned scans over itertools.combinations, the independent search and
# the degree-capped search alone as the recursive walks the library replaced.


def _separated(g: Graph, s) -> bool:
    return len(s) < g.n and is_cutset(g, s)


def _avg_below(g: Graph, s, avg: Fraction | None) -> bool:
    if avg is None:
        return True
    edges2 = sum(g.has_edge(u, v) for u in s for v in s)
    return edges2 * avg.denominator < avg.numerator * len(s)


def _min_cutsets_reference(g: Graph, budget: OracleBudget):
    if not is_connected(g):
        raise PreconditionError("not connected")
    if g.m == g.n * (g.n - 1) // 2:
        return []
    for k in range(1, g.min_degree() + 1):
        if k > budget.max_subset_size:
            raise BudgetExhausted("max_subset_size")
        found = [c for c in combinations(range(g.n), k) if _separated(g, c)]
        if found:
            return found
    raise PreconditionError("no cutset up to the minimum degree")


def _independent_reference(g: Graph):
    if g.n == 0:
        return None
    if not is_connected(g):
        return ()

    def sized(start: int, chosen: tuple[int, ...], left: int):
        if left == 0:
            yield chosen
            return
        for v in range(start, g.n - left + 1):
            if any(g.has_edge(v, u) for u in chosen):
                continue
            yield from sized(v + 1, chosen + (v,), left - 1)

    for k in range(1, g.n - 1):
        for s in sized(0, (), k):
            if _separated(g, s):
                return s
    return None


def _depth_first_reference(g: Graph, max_delta: int, avg: Fraction | None):
    if avg is None and g.n and not is_connected(g):
        # the empty set cuts a disconnected graph and meets every degree cap
        return ()

    # on Python sets: S grows by each vertex above its last one that keeps
    # every degree in S at most max_delta, is tested on joining, and is
    # extended before the next vertex is tried
    def extend(start: int, chosen: frozenset[int]):
        for v in range(start, g.n):
            s = chosen | {v}
            if any(len(g.neighbor_set(u) & s) > max_delta for u in s):
                continue
            if _avg_below(g, s, avg) and _separated(g, s):
                return tuple(sorted(s))
            hit = extend(v + 1, s)
            if hit is not None:
                return hit
        return None

    return extend(0, frozenset())


def _constrained_reference(g: Graph, max_delta, avg, budget: OracleBudget):
    if avg is None:
        return _depth_first_reference(g, max_delta, None)
    # smallest first, lexicographic within a size: every size with a degree
    # cap, up to max_subset_size without one
    top = g.n - 2 if max_delta is not None else min(budget.max_subset_size, g.n - 1)
    for k in range(1, top + 1):
        for s in combinations(range(g.n), k):
            capped = max_delta is None or all(
                len(g.neighbor_set(u) & set(s)) <= max_delta for u in s
            )
            if capped and _avg_below(g, s, avg) and _separated(g, s):
                return s
    return None


def _krr_reference(g: Graph, r: int):
    for side_a in combinations(range(g.n), r):
        common = [w for w in range(g.n) if all(g.has_edge(v, w) for v in side_a)]
        if len(common) >= r:
            return side_a, tuple(common[:r])
    return None


def _plain(answer):
    if isinstance(answer, (list, tuple)):
        return tuple(_plain(x) for x in answer)
    return answer


def _outcome(run):
    """The answer with every list as a tuple, or the type of what was raised."""
    try:
        return _plain(run())
    except (PreconditionError, BudgetExhausted) as exc:
        return type(exc)


def test_searches_match_plain_references():
    rng = random.Random(20261020)
    for _ in range(400):
        n = rng.randint(0, 9)
        p = rng.choice((0.2, 0.4, 0.6, 0.8))
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        budget = OracleBudget(max_subset_size=rng.choice((1, 2, 3, 6)))
        max_delta = rng.choice((None, 0, 1, 2))
        avg = rng.choice((None, Fraction(0), Fraction(1), Fraction(3, 2), Fraction(2)))
        if max_delta is None and avg is None:
            avg = Fraction(1)
        r = rng.randint(1, 3)
        pairs = [
            (
                lambda: enumerate_min_cutsets(g, budget),
                lambda: _min_cutsets_reference(g, budget),
            ),
            (lambda: find_independent_cutset(g, budget), lambda: _independent_reference(g)),
            (
                lambda: find_constrained_cutset(g, max_delta, avg, budget),
                lambda: _constrained_reference(g, max_delta, avg, budget),
            ),
            (lambda: find_krr(g, r, budget), lambda: _krr_reference(g, r)),
        ]
        for run, reference in pairs:
            assert _outcome(run) == _outcome(reference)


def test_find_krr_matches_the_plain_reference_up_to_16_vertices():
    rng = random.Random(20261019)
    found = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(0, 16)
        r = rng.randint(1, 4)
        p = rng.choice((0.1, 0.3, 0.5, 0.7))
        edges = {e for e in combinations(range(n), 2) if rng.random() < p}
        planted = 2 * r <= n and rng.random() < 0.5
        if planted:
            picked = rng.sample(range(n), 2 * r)
            edges |= {tuple(sorted((u, w))) for u in picked[:r] for w in picked[r:]}
        g = Graph(n, sorted(edges))
        got = find_krr(g, r)
        assert got == _krr_reference(g, r), (n, r, sorted(edges))
        assert got is not None or not planted
        found[got is not None] += 1
    # both answers are common
    assert min(found.values()) > 50


@given(
    g=_small_graphs(max_n=9),
    max_delta=st.integers(0, 2),
    avg=st.sampled_from((None, Fraction(1, 2))),
)
@settings(max_examples=300, deadline=None)
def test_constrained_search_is_depth_first_alone_and_smallest_first_with_an_average(
    g, max_delta, avg
):
    budget = OracleBudget()
    assert find_constrained_cutset(g, max_delta, avg, budget) == _constrained_reference(
        g, max_delta, avg, budget
    )


@given(
    g=_small_graphs(max_n=9),
    max_delta=st.integers(0, 2),
    avg=st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2))),
)
@settings(max_examples=300, deadline=None)
def test_smallest_first_answers_exactly_where_the_depth_first_walk_does(g, max_delta, avg):
    # both walks cover every degree-capped set, so they agree on None, and
    # the smallest qualifying cutset is never larger than the first one in
    # inclusion order
    got = find_constrained_cutset(g, max_delta, avg)
    first = _depth_first_reference(g, max_delta, avg)
    assert (got is None) == (first is None)
    assert got is None or len(got) <= len(first)


@given(g=_small_graphs(max_n=10), avg=st.sampled_from((Fraction(1, 3), Fraction(1), Fraction(4))))
@settings(max_examples=200, deadline=None)
def test_degree_zero_under_a_positive_average_is_the_independent_search(g, avg):
    # an independent set has average 0, so a positive bound drops none of
    # them; a disconnected graph is left out, as the empty set has no average
    assume(is_connected(g))
    assert find_constrained_cutset(g, 0, avg) == find_independent_cutset(g)


# Six searches that each run well over 64 steps before their answer, with
# the number of clock reads each makes under a time hint that never runs
# out, by OracleBudget's clock rule: one at the start, one every 64 steps
# of a walk and one after each sweep of a block's fill. The K_{3,3} walk
# on C_24^2 fills no block: 1 + 275 // 64 = 5 for its 275 steps. The three
# walks, independent, constrained-delta and constrained-delta-avg, fill
# blocks too: 210 steps and 4 sweeps, so 1 + 3 + 4 = 8; 712 steps and 9
# sweeps, so 1 + 11 + 9 = 21; and 323 steps and 1 + 2 + 2 + 2 sweeps, so
# 1 + 5 + 7 = 13. The two size walks take one step per set of their
# family, since every size's sets fit as the next roots: the independent
# sets of C_14^2, which has no independent cutset, and the 12 + 66 + 140 +
# 105 sets of internal degree at most 1 in the icosahedron, which has no
# such cutset. The 218 of them with average below 1, less the 12
# singletons, since the icosahedron has no cut vertex, are the 206 lanes:
# blocks of 16, 32, 64 and 94, the second of which takes two sweeps. The two
# layer searches on C_14^2, min-cutsets and constrained-avg, read the clock
# only at the start and in their fills, each layer being one block of at
# most C(14, 6) = 3003 lanes: the fills of k = 1..6 take 1, 2, 2, 3, 3
# and 3 sweeps. min-cutsets stops at kappa = 4, so 1 + 1 + 2 + 2 + 3 = 9;
# no set has an average below 0, so constrained-avg scans up to
# max_subset_size = 6, so 1 + 14 = 15.
_LONG_SEARCHES = {
    "min-cutsets": (lambda b: enumerate_min_cutsets(squared_cycle(14), b), 1 + 1 + 2 + 2 + 3),
    "independent": (lambda b: find_independent_cutset(squared_cycle(14), b), 1 + 210 // 64 + 4),
    "constrained-delta": (
        lambda b: find_constrained_cutset(icosahedron(), max_delta=1, budget=b),
        1 + 712 // 64 + 9,
    ),
    "constrained-delta-avg": (
        lambda b: find_constrained_cutset(icosahedron(), max_delta=1, max_avg=(1, 1), budget=b),
        1 + 323 // 64 + 1 + 2 + 2 + 2,
    ),
    "constrained-avg": (
        lambda b: find_constrained_cutset(squared_cycle(14), max_avg=(0, 1), budget=b),
        1 + 1 + 2 + 2 + 3 + 3 + 3,
    ),
    "krr": (lambda b: find_krr(squared_cycle(24), 3, b), 1 + 275 // 64),
}


@pytest.mark.parametrize(
    "search",
    [search for search, _ in _LONG_SEARCHES.values()],
    ids=list(_LONG_SEARCHES),
)
def test_time_hint_stops_every_search(search):
    search(OracleBudget())
    with pytest.raises(BudgetExhausted, match="time budget"):
        search(OracleBudget(time_hint_s=1e-9))


@pytest.mark.parametrize(
    "search, reads",
    [
        *_LONG_SEARCHES.values(),
        # K_{2,2} in C_14^2 is found within 64 steps
        (lambda b: find_krr(squared_cycle(14), 2, b), 1),
    ],
    ids=[*_LONG_SEARCHES, "short-krr"],
)
def test_time_hint_reads_the_clock_every_64_steps(monkeypatch, search, reads):
    clock = []

    def monotonic() -> float:
        clock.append(None)
        return 0.0

    monkeypatch.setattr(oracles.time, "monotonic", monotonic)
    search(OracleBudget(time_hint_s=1.0))
    assert len(clock) == reads
    # without a time hint the clock is never read
    del clock[:]
    search(OracleBudget())
    assert clock == []


# ------------------------------------------------------ whole-layer searches


@given(
    g=_small_graphs(max_n=14),
    avg=st.sampled_from((Fraction(0), Fraction(1), Fraction(3, 2), Fraction(2))),
    cap=st.integers(1, 6),
)
@settings(max_examples=60, deadline=None)
def test_layer_searches_match_plain_references(g, avg, cap):
    budget = OracleBudget(max_subset_size=cap)
    assert _outcome(lambda: enumerate_min_cutsets(g, budget)) == _outcome(
        lambda: _min_cutsets_reference(g, budget)
    )
    assert _outcome(lambda: find_constrained_cutset(g, max_avg=avg, budget=budget)) == _outcome(
        lambda: _constrained_reference(g, None, avg, budget)
    )


def _two_halves(half: int, seed: int) -> Graph:
    """Two random 4-regular halves, each minus one edge, joined by two
    cross edges: 4-regular with connectivity 2, thm4's slow input."""
    (a, _), (b, _) = connected_random_regular(half, 4, seed), connected_random_regular(half, 4, seed + 1)
    (u1, v1), (u2, v2) = a.edges()[0], b.edges()[0]
    edges = [e for e in a.edges() if e != (u1, v1)]
    edges += [(x + half, y + half) for x, y in b.edges() if (x, y) != (u2, v2)]
    return Graph(2 * half, edges + [(u1, u2 + half), (v1, v2 + half)])


@pytest.mark.parametrize(
    "g, cap",
    [
        (squared_cycle(32), 6),
        (random_regular(32, 4, 1), 6),
        (_two_halves(20, 1), 3),
        (_two_halves(24, 5), 3),
    ],
    ids=["squared32", "random4reg32", "halves40", "halves48"],
)
def test_layer_searches_past_24_vertices(g, cap):
    budget = OracleBudget(max_n=g.n, max_subset_size=cap)
    cuts = enumerate_min_cutsets(g, budget)
    assert cuts and cuts == _min_cutsets_reference(g, budget)
    avg = Fraction(3, 2)
    assert find_constrained_cutset(g, max_avg=avg, budget=budget) == _constrained_reference(
        g, None, avg, budget
    )


def _layer_graphs() -> list[Graph]:
    return [
        squared_cycle(14),
        petersen(),
        four_regular_cut2(),
        _cycle(11),
        _path(7),
        Graph(6, [(0, 1), (1, 2), (3, 4)]),
        connected_random_regular(16, 4, 3)[0],
    ]


@pytest.mark.parametrize("bits", [1, 40, 333])
def test_layer_answers_do_not_depend_on_the_block_size(monkeypatch, bits):
    graphs = _layer_graphs()

    def answers():
        return [
            (
                _outcome(lambda: enumerate_min_cutsets(g)),
                find_constrained_cutset(g, max_avg=(3, 2)),
                find_constrained_cutset(g, max_avg=(2, 1)),
            )
            for g in graphs
        ]

    whole = answers()
    widths = []
    cut_lanes = oracles._Search._cut_lanes

    def counted(self, members, width):
        widths.append((self.n, width))
        return cut_lanes(self, members, width)

    monkeypatch.setattr(oracles, "_BLOCK_BITS", bits)
    monkeypatch.setattr(oracles._Search, "_cut_lanes", counted)
    assert answers() == whole
    # every layer took several blocks, each within the bound
    assert all(width <= max(1, bits // n) for n, width in widths)
    assert len(widths) > 10 * len(graphs)


@pytest.mark.parametrize("bits", [1, 40, 1 << 18])
def test_layer_cuts_is_every_cutting_subset_in_order(monkeypatch, bits):
    # every k from 0 to n, so removing nothing, all but one vertex and all
    monkeypatch.setattr(oracles, "_BLOCK_BITS", bits)
    for g in (g for g in _layer_graphs() if g.n <= 12):
        search = oracles._Search(g, None, "test")
        for k in range(g.n + 1):
            want = [s for s in combinations(range(g.n), k) if oracles._separates(g, s)]
            assert list(search.layer_cuts(k)) == want, (g, k)


def _squared_cycle_min_cutsets(n: int) -> list[tuple[int, ...]]:
    """The minimum cutsets of C_n^2 for n >= 7, sorted: two pairs of
    consecutive vertices {i, i+1} and {j, j+1} with (j - i) mod n not in
    {0, ±1, ±2}, so n(n-5)/2 sets of 4."""
    far = [d for d in range(n) if d not in (0, 1, 2, n - 2, n - 1)]
    pairs = {
        tuple(sorted({i, (i + 1) % n, (i + d) % n, (i + d + 1) % n})) for i in range(n) for d in far
    }
    return sorted(pairs)


@pytest.mark.parametrize("n", [14, 24, 64])
def test_min_cutsets_of_squared_cycles_past_24_vertices(n):
    # up to n = 24 the layer of 4-sets is one block, at n = 24 with 228
    # hits; at n = 64 its 1888 hits are spread over 190 blocks
    want = _squared_cycle_min_cutsets(n)
    assert len(want) == n * (n - 5) // 2
    assert enumerate_min_cutsets(squared_cycle(n), OracleBudget(max_n=n)) == want


def test_layer_blocks_stay_within_the_bit_bound(monkeypatch):
    # the C(320, 2) = 51040 pairs in lexicographic blocks of at most
    # 2**18 // 320 = 819 lanes
    widths = []
    cut_lanes = oracles._Search._cut_lanes

    def counted(self, members, width):
        assert len(members) == self.n
        widths.append(width)
        return cut_lanes(self, members, width)

    monkeypatch.setattr(oracles._Search, "_cut_lanes", counted)
    g = squared_cycle(320)
    search = oracles._Search(g, OracleBudget(max_n=g.n), "test")
    assert list(search.layer_cuts(2)) == []
    assert oracles._BLOCK_BITS // g.n == 819
    assert sum(widths) == search.steps == 51040
    assert max(widths) <= 819 and len(widths) >= 51040 // 819


# ------------------------------------------------------------- the cut test


@st.composite
def _graphs_with_vertex_sets(draw):
    """A random graph of order 0..72 with average degree about 1 to 5, and
    vertex sets to remove: none, all, all but one, a drawn set and a few
    small random ones."""
    n = draw(st.integers(0, 72))
    rng = random.Random(draw(st.integers(0, 2**32)))
    degree = draw(st.sampled_from((1, 2, 3, 5)))
    g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() * n < degree])
    sets = [(), tuple(range(n))]
    if n:
        missing = draw(st.integers(0, n - 1))
        sets.append(tuple(v for v in range(n) if v != missing))
        sets.append(tuple(sorted(draw(st.sets(st.integers(0, n - 1))))))
        sets += [tuple(sorted(rng.sample(range(n), min(n, k)))) for k in (1, 2, 3, 4)]
    return g, sets


def _packed(n: int, sets) -> list[int]:
    """The member slices of one block whose lane i is sets[i]."""
    members = [0] * n
    for i, s in enumerate(sets):
        for v in s:
            members[v] |= 1 << i
    return members


def _lane_cuts(search, sets) -> list[bool]:
    """Whether each set cuts, all tested as the lanes of one block."""
    cut = search._cut_lanes(_packed(search.n, sets), len(sets))
    return [bool(cut >> i & 1) for i in range(len(sets))]


@given(case=_graphs_with_vertex_sets())
@settings(max_examples=150, deadline=None)
def test_cut_test_matches_the_flood_fill(case):
    g, sets = case
    search = oracles._Search(g, OracleBudget(max_n=72), "test")
    assert _lane_cuts(search, sets) == [oracles._separates(g, s) for s in sets]


def test_cut_test_keeps_a_path_whole():
    # removing nothing from a path, from the empty order up to 1200
    for n in (0, 1, 8, 9, 16, 17, 24, 25, 63, 64, 65, 72, 1200):
        search = oracles._Search(_path(n), OracleBudget(max_n=max(n, 64)), "test")
        assert _lane_cuts(search, [()]) == [oracles._separates(_path(n), ())] == [False]


@pytest.mark.parametrize(
    "g",
    [_path(9), _cycle(10), petersen(), named_small("K4")],
    ids=["path9", "cycle10", "petersen", "K4"],
)
def test_cut_test_matches_the_flood_fill_on_every_subset(g):
    # every subset, so removing nothing, everything and all but one vertex
    search = oracles._Search(g, None, "test")
    sets = [tuple(v for v in range(g.n) if smask >> v & 1) for smask in range(1 << g.n)]
    assert _lane_cuts(search, sets) == [oracles._separates(g, s) for s in sets]


def _small_sets_and_complements(n: int) -> list[tuple[int, ...]]:
    """Every set of up to 3 of n vertices, and the complement of each."""
    sets = []
    for k in range(4):
        for removed in combinations(range(n), k):
            sets += [removed, tuple(v for v in range(n) if v not in removed)]
    return sets


@pytest.mark.parametrize("g", [_cycle(24), squared_cycle(24)], ids=["cycle24", "squared24"])
def test_cut_test_matches_the_flood_fill_on_sets_of_up_to_three(g):
    # the fills cross the whole vertex range
    search = oracles._Search(g, None, "test")
    sets = _small_sets_and_complements(g.n)
    assert _lane_cuts(search, sets) == [oracles._separates(g, s) for s in sets]


@pytest.mark.parametrize(
    "g",
    [_cycle(25), squared_cycle(25), _cycle(40), squared_cycle(40)],
    ids=["cycle25", "squared25", "cycle40", "squared40"],
)
def test_cut_test_matches_the_flood_fill_past_24_vertices(g):
    # the same sets as above, past the default max_n, among them removing
    # nothing and everything
    search = oracles._Search(g, OracleBudget(max_n=g.n), "test")
    sets = _small_sets_and_complements(g.n)
    assert () in sets and tuple(range(g.n)) in sets
    want = [oracles._separates(g, s) for s in sets]
    assert _lane_cuts(search, sets) == want
    # and block_cuts names the sets that cut, in lane order, from one block
    got = list(search.block_cuts(_packed(g.n, sets), len(sets)))
    assert got == [s for s, cuts in zip(sets, want) if cuts]


# ------------------------------------------------------------ the two walks


def _walk_answers(graphs) -> list:
    return [
        (
            find_independent_cutset(g),
            *(
                find_constrained_cutset(g, max_delta, avg)
                for max_delta in (0, 1, 2)
                for avg in (None, Fraction(1, 2))
            ),
        )
        for g in graphs
    ]


@pytest.mark.parametrize("bits", [1, 40, 333])
def test_walk_answers_do_not_depend_on_the_block_size(monkeypatch, bits):
    graphs = [*_layer_graphs(), icosahedron(), figure2_pattern(3), _path(1), Graph(2, [])]
    whole = _walk_answers(graphs)
    widths = []
    cut_lanes = oracles._Search._cut_lanes

    def counted(self, members, width):
        widths.append((self.n, width))
        return cut_lanes(self, members, width)

    monkeypatch.setattr(oracles, "_BLOCK_BITS", bits)
    monkeypatch.setattr(oracles._Search, "_cut_lanes", counted)
    assert _walk_answers(graphs) == whole
    # the walks took several blocks, each within the bound
    assert all(width <= max(1, bits // n) for n, width in widths)
    assert len(widths) > 10 * len(graphs)


def test_walk_blocks_double_from_the_first_block(monkeypatch):
    # the degree walk on the icosahedron finds nothing, so its blocks are
    # 16, 32, 64, ... lanes, the last one partly filled
    widths = []
    cut_lanes = oracles._Search._cut_lanes

    def counted(self, members, width):
        widths.append(width)
        return cut_lanes(self, members, width)

    monkeypatch.setattr(oracles._Search, "_cut_lanes", counted)
    assert find_constrained_cutset(icosahedron(), max_delta=1) is None
    assert widths[:-1] == [oracles._FIRST_LANES << i for i in range(len(widths) - 1)]
    assert 0 < widths[-1] <= oracles._FIRST_LANES << (len(widths) - 1)


def test_independent_walk_stops_at_the_independence_number(monkeypatch):
    # alpha(C_24^2) = 8: the walk tests every independent set of up to 8
    # vertices, finds no cut, and stops at size 9, which has no set at all
    sizes = []
    cut_lanes = oracles._Search._cut_lanes

    def counted(self, members, width):
        sizes.extend(sum(m >> i & 1 for m in members) for i in range(width))
        return cut_lanes(self, members, width)

    monkeypatch.setattr(oracles._Search, "_cut_lanes", counted)
    searches = _kept_searches(monkeypatch)
    assert find_independent_cutset(squared_cycle(24)) is None
    assert max(sizes) == 8
    # the 228 + 1088 + 2730 + 3432 + 1848 + 288 + 3 independent sets of
    # C_24^2 past the singletons, each tested once: C_24^2 has no cut
    # vertex, so the depth-first pass settles its 24 singletons untested
    assert min(sizes) == 2
    assert len(sizes) == 9617
    # and all 9641, singletons too, each reached in one step from a root
    # one vertex smaller, since every size fits in a block as the next roots
    assert searches[-1].steps == 9641


@st.composite
def _pieced_graphs(draw) -> Graph:
    """Side by side, under a random labelling: up to three small random
    graphs, paths or cycles, and up to two isolated vertices."""
    pieces = draw(st.lists(
        st.one_of(_small_graphs(max_n=7), st.integers(1, 6).map(_path),
                  st.integers(3, 6).map(_cycle)),
        min_size=1, max_size=3,
    ))
    n = sum(p.n for p in pieces) + draw(st.integers(0, 2))
    label = draw(st.permutations(range(n)))
    edges, base = [], 0
    for p in pieces:
        edges += [(label[base + u], label[base + v]) for u, v in p.edges()]
        base += p.n
    return Graph(n, edges)


@given(_pieced_graphs())
@settings(max_examples=200, deadline=None)
def test_cut_vertices_match_one_flood_fill_per_vertex(g):
    want = sum(1 << v for v in range(g.n) if len(components(g, [v])) >= 2)
    assert oracles._cut_vertices(tuple(map(g.neighbors, range(g.n)))) == want


@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 25, 40])
def test_lanes_transpose_their_masks_at_every_byte_boundary(monkeypatch, n):
    # a hand-filled block on a path: bit i of slice v is bit v of lane i's
    # mask, and test names the first lane whose set cuts
    rng = random.Random(n)
    g = _path(n)
    masks = [0, (1 << n) - 1, 1 << (n - 1), *(rng.getrandbits(n) for _ in range(12))]
    sets = [tuple(v for v in range(n) if m >> v & 1) for m in masks]
    cutting = [s for s in sets if oracles._separates(g, s)]
    assert bool(cutting) == (n > 1)
    blocks = []
    cut_lanes = oracles._Search._cut_lanes

    def kept(self, members, width):
        blocks.append((list(members), width))
        return cut_lanes(self, members, width)

    monkeypatch.setattr(oracles._Search, "_cut_lanes", kept)
    lanes = oracles._Lanes(oracles._Search(g, OracleBudget(max_n=n), "test"))
    assert len(masks) < oracles._FIRST_LANES
    assert all(lanes.add(m) is None for m in masks)
    assert lanes.test() == (cutting[0] if cutting else None)
    [(members, width)] = blocks
    assert width == len(masks) and len(members) == n
    assert all(members[v] >> i & 1 == m >> v & 1 for i, m in enumerate(masks) for v in range(n))
    # the next block starts empty
    assert lanes.test() is None and len(blocks) == 1


@given(g=_small_graphs(max_n=12), bits=st.sampled_from((1, 24, 60, 150)))
@settings(max_examples=200, deadline=None)
def test_independent_walk_from_capped_roots_matches_the_reference(g, bits):
    # with a few lanes per block most sizes have more independent sets than
    # fit as roots, so a size is walked from roots two or more vertices
    # smaller, or from the empty root
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracles, "_BLOCK_BITS", bits)
        assert find_independent_cutset(g) == _independent_reference(g)


def test_independent_walk_memory_stays_within_the_roots_cap(monkeypatch):
    # 24 * 300 bits per block: at most 360 sets of C_20^2 and 300 of C_24^2
    # fit as roots, fewer than the 3432 independent 5-sets of C_24^2, so
    # both walks keep roots below some sizes and their peaks stay alike
    monkeypatch.setattr(oracles, "_BLOCK_BITS", 24 * 300)
    searches = _kept_searches(monkeypatch)

    def peak(n: int) -> int:
        g = squared_cycle(n)
        tracemalloc.start()
        try:
            assert find_independent_cutset(g) is None
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    high = peak(24)
    # sizes 3 to 6 do not fit, so they are walked from the 2-sets with
    # picks below each size: more steps than the 9641 sets tested
    assert searches[-1].steps > 9641
    assert high <= 1.5 * peak(20)


# ------------------------------------------------------------------- recognizer


@pytest.mark.parametrize("n", list(range(5, 17)))
def test_recognize_squared_cycle_accepts_every_squared_cycle(n):
    order = recognize_squared_cycle(squared_cycle(n))
    assert order is not None
    assert sorted(order) == list(range(n))
    assert verify_certificate(squared_cycle(n), SquaredCycleIso(tuple(order)))


def test_recognize_squared_cycle_relabeled_instance():
    # same graph with vertex ids scrambled
    n = 11
    rng = random.Random(4)
    perm = list(range(n))
    rng.shuffle(perm)
    g = squared_cycle(n)
    h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
    order = recognize_squared_cycle(h)
    assert order is not None
    assert verify_certificate(h, SquaredCycleIso(tuple(order)))


def test_recognize_squared_cycle_rejects_non_instances():
    assert recognize_squared_cycle(named_small("K3BoxK3")) is None
    assert recognize_squared_cycle(named_small("LineGraphPetersen")) is None
    assert recognize_squared_cycle(petersen()) is None
    assert recognize_squared_cycle(_cycle(9)) is None
    g, _ = connected_random_regular(12, 4, 2)
    if recognize_squared_cycle(g) is not None:  # pragma: no cover
        pytest.skip("random graph happened to be a squared cycle")


def _squared_cycle_order_pairwise(g: Graph, order: tuple[int, ...]) -> bool:
    """The all-pairs check the library replaced, as reference: vertices at
    cyclic distance 1 or 2 along order are adjacent, all others are not."""
    n = len(order)
    for i, j in combinations(range(n), 2):
        d = (j - i) % n
        if g.has_edge(order[i], order[j]) != (min(d, n - d) in (1, 2)):
            return False
    return True


def test_squared_cycle_check_matches_pairwise_reference():
    rng = random.Random(20261020)
    for _ in range(1500):
        n = rng.randint(5, 9)
        order = list(range(n))
        rng.shuffle(order)
        if rng.random() < 0.5:
            # a squared cycle along order, with a few pairs toggled
            edges = {
                tuple(sorted((order[i], order[(i + d) % n]))) for i in range(n) for d in (1, 2)
            }
            for _ in range(rng.choice((0, 0, 1, 2))):
                edges ^= {tuple(sorted(rng.sample(range(n), 2)))}
        else:
            edges = {e for e in combinations(range(n), 2) if rng.random() < 0.6}
        g = Graph(n, sorted(edges))
        cert = SquaredCycleIso(tuple(order))
        assert verify_certificate(g, cert) == _squared_cycle_order_pairwise(g, tuple(order))


# ----------------------------------------------------------------- verification


def test_verify_good_cutset_bounds():
    # two blocks of consecutive vertices separate a squared cycle
    g = squared_cycle(14)
    cert = GoodCutset(cutset=(0, 1, 7, 8), size_bound=4, degree_bound=1)
    assert verify_certificate(g, cert)
    assert not verify_certificate(g, GoodCutset(cutset=(0, 1, 7, 8), degree_bound=0))
    assert not verify_certificate(g, GoodCutset(cutset=(0, 1, 7, 8), size_bound=3))
    assert not verify_certificate(g, GoodCutset(cutset=(0, 5), size_bound=2))


def test_verify_good_cutset_avg_strictness():
    g = _path(5)
    ok = GoodCutset(cutset=(1, 3), avg_bound_strict=(1, 1))
    assert verify_certificate(g, ok)
    tight = GoodCutset(cutset=(1, 2), avg_bound_strict=(1, 1))
    assert not verify_certificate(g, tight)  # average is exactly 1


@pytest.mark.parametrize("bound", [(0, -1), (1, 0)])
def test_verify_good_cutset_refuses_a_denominator_below_one(bound):
    # the set induces 2 edges, so no bound below 0 holds; without a
    # positive denominator the claim is refused, as certificate_from_dict does
    g = squared_cycle(10)
    assert verify_certificate(g, GoodCutset(cutset=(0, 1, 5, 6)))
    assert not verify_certificate(g, GoodCutset(cutset=(0, 1, 5, 6), avg_bound_strict=bound))


def test_verify_good_cutset_minimality_claim():
    g = _path(10)
    assert verify_certificate(g, GoodCutset(cutset=(4,), require_minimal=True))
    assert not verify_certificate(g, GoodCutset(cutset=(3, 4), require_minimal=True))
    # the scan starts at the empty set: in two disjoint paths it already cuts
    two_paths = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    assert not verify_certificate(two_paths, GoodCutset(cutset=(1,), require_minimal=True))
    # K_{2,k}: the k middle vertices are a minimal cutset at every size
    for k in range(2, 13):
        k2k = Graph(k + 2, [(side, v) for side in (0, 1) for v in range(2, k + 2)])
        cut = GoodCutset(cutset=tuple(range(2, k + 2)), require_minimal=True)
        assert verify_certificate(k2k, cut) is True
    # {0, 1} cuts K_{2,7} and lies inside {0, 1, ..., 6}, so that set is
    # a cutset but not a minimal one
    k27 = Graph(9, [(side, v) for side in (0, 1) for v in range(2, 9)])
    assert verify_certificate(k27, GoodCutset(cutset=tuple(range(7))))
    assert not verify_certificate(k27, GoodCutset(cutset=tuple(range(7)), require_minimal=True))


def test_verify_independent_cutset():
    g = _cycle(6)
    assert verify_certificate(g, IndependentCutset(cutset=(0, 3)))
    assert not verify_certificate(g, IndependentCutset(cutset=(0, 1)))
    assert not verify_certificate(g, IndependentCutset(cutset=(0, 2, 9)))


def test_verify_krr_witness():
    g = squared_cycle(14)
    assert verify_certificate(g, KrrWitness(r=2, side_a=(0, 1), side_b=(2, 13)))
    assert not verify_certificate(g, KrrWitness(r=2, side_a=(0, 1), side_b=(2, 3)))
    assert not verify_certificate(g, KrrWitness(r=2, side_a=(0, 1), side_b=(0, 2)))
    assert not verify_certificate(g, KrrWitness(r=2, side_a=(0,), side_b=(2, 13)))


def test_verify_squared_cycle_iso():
    g = squared_cycle(9)
    assert verify_certificate(g, SquaredCycleIso(order=tuple(range(9))))
    bad = (1, 0) + tuple(range(2, 9))
    assert not verify_certificate(g, SquaredCycleIso(order=bad))


_P3 = Graph(3, [(0, 1), (1, 2)])


@pytest.mark.parametrize(
    "g, cert, honest",
    [
        (_P3, GoodCutset(cutset=(True,)), GoodCutset(cutset=(1,))),
        (_P3, GoodCutset(cutset=(1.0,)), GoodCutset(cutset=(1,))),
        (_P3, IndependentCutset(cutset=(True,)), IndependentCutset(cutset=(1,))),
        (_P3, IndependentCutset(cutset=(1.0,)), IndependentCutset(cutset=(1,))),
        (_P3, KrrWitness(1, (True,), (0,)), KrrWitness(1, (1,), (0,))),
        (_P3, KrrWitness(1, (1.0,), (0,)), KrrWitness(1, (1,), (0,))),
        (_P3, KrrWitness(True, (1,), (0,)), KrrWitness(1, (1,), (0,))),
        (squared_cycle(5), SquaredCycleIso((0, True, 2, 3, 4)), SquaredCycleIso((0, 1, 2, 3, 4))),
        (squared_cycle(5), SquaredCycleIso((0, 1.0, 2, 3, 4)), SquaredCycleIso((0, 1, 2, 3, 4))),
        # vertex data that is not a list or tuple of ints is refused, not
        # left to raise; C_10^2 is cut by {0, 1, 5, 6}
        (squared_cycle(10), GoodCutset(cutset=None), GoodCutset(cutset=(0, 1, 5, 6))),
        (squared_cycle(10), GoodCutset(cutset=5), GoodCutset(cutset=(0, 1, 5, 6))),
        (squared_cycle(10), GoodCutset(cutset={0, 1, 5, 6}), GoodCutset(cutset=(0, 1, 5, 6))),
        (squared_cycle(10), KrrWitness(1, None, (1,)), KrrWitness(1, (0,), (1,))),
        (squared_cycle(10), SquaredCycleIso(None), SquaredCycleIso(tuple(range(10)))),
    ],
    ids=[
        "cutset-bool", "cutset-float", "independent-bool", "independent-float",
        "krr-side-bool", "krr-side-float", "krr-r-bool", "order-bool", "order-float",
        "cutset-none", "cutset-int", "cutset-set", "krr-side-none", "order-none",
    ],
)
def test_verify_refuses_vertex_ids_that_are_not_ints(g, cert, honest):
    # each claim holds with the int 1 in place of True or 1.0; a bool is not
    # a vertex id, and a float must not reach an index
    assert verify_certificate(g, honest) is True
    assert verify_certificate(g, cert) is False


@pytest.mark.parametrize(
    "kind, field, bad, good",
    [
        (IndependentCutset, "size_bound", "2", 2),
        (IndependentCutset, "size_bound", 2.0, 2),
        (IndependentCutset, "size_bound", True, 2),
        (GoodCutset, "size_bound", "4", 4),
        (GoodCutset, "degree_bound", 1.5, 1),
        (GoodCutset, "degree_bound", True, 1),
        (GoodCutset, "avg_bound_strict", (2,), (2, 1)),
        (GoodCutset, "avg_bound_strict", (2, 1, 1), (2, 1)),
        (GoodCutset, "avg_bound_strict", (2, 1.0), (2, 1)),
        (GoodCutset, "avg_bound_strict", (2, True), (2, 1)),
        (GoodCutset, "avg_bound_strict", "2/1", (2, 1)),
        (GoodCutset, "require_minimal", 1, True),
    ],
    ids=[
        "independent-size-str", "independent-size-float", "independent-size-bool",
        "size-str", "degree-float", "degree-bool", "avg-one-entry", "avg-three-entries",
        "avg-float-denominator", "avg-bool-denominator", "avg-str", "minimal-int",
    ],
)
def test_verify_refuses_bounds_that_are_not_ints(kind, field, bad, good):
    # C_6 is cut by the independent set {0, 3}, C_10^2 by {0, 1, 5, 6},
    # which induces two edges. Each claim holds with the int bound; a
    # malformed one is refused, not read as a number and not left to raise
    g, cut = (_cycle(6), (0, 3)) if kind is IndependentCutset else (squared_cycle(10), (0, 1, 5, 6))
    assert verify_certificate(g, kind(cut, **{field: good})) is True
    assert verify_certificate(g, kind(cut, **{field: bad})) is False


def test_verify_is_icosahedron():
    assert verify_certificate(icosahedron(), IsIcosahedron())
    assert verify_certificate(figure2_pattern(3), IsIcosahedron())
    assert not verify_certificate(figure2_pattern(4), IsIcosahedron())
    assert not verify_certificate(squared_cycle(12), IsIcosahedron())


def _icosahedron_with_a_degree_4_vertex() -> Graph:
    # 12 vertices and 30 edges, but the edge 0x moved to xy
    g = icosahedron()
    x = g.neighbors(0)[0]
    y = min(set(range(12)) - g.neighbor_set(x) - {0, x})
    return Graph(12, [e for e in g.edges() if e != (0, x)] + [(min(x, y), max(x, y))])


def _k66_minus_a_perfect_matching() -> Graph:
    # 5-regular of order 12 and size 30, and bipartite, so no link is a C5
    return Graph(12, [(a, 6 + b) for a in range(6) for b in range(6) if a != b])


def _two_squared_cycles_of_order_7() -> Graph:
    g = squared_cycle(7)
    return Graph(14, list(g.edges()) + [(a + 7, b + 7) for a, b in g.edges()])


@pytest.mark.parametrize(
    "call, expected",
    [
        pytest.param(
            lambda: verify_certificate(_path(5), GoodCutset(cutset=(2, 2))),
            False,
            id="duplicate-ids",
        ),
        pytest.param(
            lambda: verify_certificate(
                Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
                GoodCutset(cutset=(), avg_bound_strict=(1, 1)),
            ),
            False,
            id="average-bound-on-the-empty-set",
        ),
        pytest.param(
            lambda: verify_certificate(
                _path(10), GoodCutset(cutset=tuple(range(1, 8)), require_minimal=True)
            ),
            False,
            id="seven-vertices-not-minimal-as-vertex-1-alone-cuts",
        ),
        pytest.param(
            lambda: verify_certificate(
                squared_cycle(14), KrrWitness(r=1, side_a=(0,), side_b=(14,))
            ),
            False,
            id="krr-id-out-of-range",
        ),
        pytest.param(
            lambda: verify_certificate(_icosahedron_with_a_degree_4_vertex(), IsIcosahedron()),
            False,
            id="icosahedron-claim-with-a-degree-4-vertex",
        ),
        pytest.param(
            lambda: verify_certificate(_k66_minus_a_perfect_matching(), IsIcosahedron()),
            False,
            id="icosahedron-claim-on-k66-minus-a-matching",
        ),
        pytest.param(
            lambda: verify_certificate(_path(5), GoodCutset(cutset=tuple(range(5)))),
            False,
            id="cutset-is-every-vertex",
        ),
        pytest.param(
            lambda: verify_certificate(_path(5), "not a certificate"),
            PreconditionError,
            id="unknown-certificate-type",
        ),
        pytest.param(
            lambda: recognize_squared_cycle(_cycle(6)), None, id="recognizer-on-c6"
        ),
        pytest.param(
            lambda: recognize_squared_cycle(_two_squared_cycles_of_order_7()),
            None,
            id="recognizer-on-two-squared-c7",
        ),
    ],
)
def test_oracle_refusals(call, expected):
    if expected is PreconditionError:
        with pytest.raises(PreconditionError, match="unknown certificate type str"):
            call()
    else:
        assert call() is expected


def test_oracles_module_holds_only_the_probes_and_the_verifier():
    public = {
        name
        for name, obj in vars(oracles).items()
        if inspect.isfunction(obj)
        and obj.__module__ == oracles.__name__
        and not name.startswith("_")
    }
    assert public == {
        "enumerate_min_cutsets",
        "find_constrained_cutset",
        "find_independent_cutset",
        "find_krr",
        "recognize_squared_cycle",
        "vertex_connectivity",
        "verify_certificate",
    }
