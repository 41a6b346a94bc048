"""Generator families: exact orders, degrees, and structural fingerprints."""

from __future__ import annotations

import random

import pytest

from sparsecut.errors import BudgetExhausted, PreconditionError
from sparsecut.generators import (
    CliqueChainParams,
    clique_chain,
    figure2_pattern,
    icosahedron,
    icosahedron_labels,
    named_small,
    random_regular,
    squared_cycle,
    squared_path,
)
from sparsecut.graph import (
    Graph,
    components,
    induced_subgraph,
    is_connected,
    is_cutset,
)


def _degrees(g: Graph) -> list[int]:
    return [g.degree(v) for v in range(g.n)]


def _neighborhood_is_c5(g: Graph, v: int) -> bool:
    sub, _ = induced_subgraph(g, g.neighbors(v))
    return sub.n == 5 and all(sub.degree(u) == 2 for u in range(5)) and is_connected(sub)


# ---------------------------------------------------------------- icosahedron


def test_icosahedron_counts_and_regularity():
    g = icosahedron()
    assert g.n == 12 and g.m == 30
    assert _degrees(g) == [5] * 12


def test_icosahedron_every_neighborhood_is_c5():
    g = icosahedron()
    assert all(_neighborhood_is_c5(g, v) for v in range(12))


def test_icosahedron_neighborhood_of_a_is_cutset():
    g = icosahedron()
    labels = icosahedron_labels()
    assert labels[0] == "a"
    n_a = g.neighbors(0)
    assert set(labels[v] for v in n_a) == set("bcdef")
    assert is_cutset(g, n_a)
    comps = components(g, n_a)
    assert sorted(len(c) for c in comps) == [1, 6]


# -------------------------------------------------------------- squared paths


def test_squared_cycle_smallest_is_k5():
    g = squared_cycle(5)
    assert g.n == 5 and g.m == 10


def test_squared_cycle_regularity_and_p4_neighborhoods():
    g = squared_cycle(14)
    assert _degrees(g) == [4] * 14
    for v in range(14):
        sub, mapping = induced_subgraph(g, g.neighbors(v))
        assert sorted(mapping) == sorted(((v + d) % 14) for d in (-2, -1, 1, 2))
        assert sub.m == 3
        assert sorted(sub.degree(u) for u in range(4)) == [1, 1, 2, 2]
        assert is_connected(sub)


def test_squared_cycle_rejects_small_n():
    with pytest.raises(PreconditionError):
        squared_cycle(4)


def test_squared_path_degree_sequence():
    assert _degrees(squared_path(6)) == [2, 3, 4, 4, 3, 2]
    assert squared_path(3).m == 3  # triangle
    with pytest.raises(PreconditionError):
        squared_path(2)


# ----------------------------------------------------------- figure-2 pattern


def test_figure2_pattern_is_5_regular_connected():
    for blocks in (3, 4, 5, 7):
        g = figure2_pattern(blocks)
        assert g.n == 4 * blocks and g.m == 10 * blocks
        assert _degrees(g) == [5] * g.n
        assert is_connected(g)


def test_figure2_pattern_middle_neighborhoods_are_c5():
    g = figure2_pattern(5)
    for k in range(5):
        assert _neighborhood_is_c5(g, 4 * k + 1)
        assert _neighborhood_is_c5(g, 4 * k + 2)


def test_figure2_pattern_every_neighborhood_contains_p3():
    # max induced degree >= 2 in each neighborhood, i.e. a path on 3 vertices
    for blocks in (4, 6):
        g = figure2_pattern(blocks)
        for v in range(g.n):
            sub, _ = induced_subgraph(g, g.neighbors(v))
            assert max(sub.degree(u) for u in range(sub.n)) >= 2


def test_figure2_pattern_blocks3_degenerates_to_icosahedron_structure():
    # wraparound chords at blocks=3 close every neighborhood into C5
    g = figure2_pattern(3)
    assert all(_neighborhood_is_c5(g, v) for v in range(12))
    g4 = figure2_pattern(4)
    assert not all(_neighborhood_is_c5(g4, v) for v in range(16))


def test_figure2_pattern_rejects_small_blocks():
    with pytest.raises(PreconditionError):
        figure2_pattern(2)


# ---------------------------------------------------------------- clique chain


def test_clique_chain_delta9_path_shape():
    params = CliqueChainParams(delta=9, base_length=3, cyclic=False, seed=1)
    assert params.clique_order == 4 and params.connector_degree == 3
    g = clique_chain(params)
    assert g.n == 12
    assert is_connected(g)
    assert g.max_degree() == 9  # middle clique vertices: 3 + 2*3
    assert g.min_degree() == 6  # end clique vertices: 3 + 3


def test_clique_chain_cyclic_is_regular():
    g = clique_chain(CliqueChainParams(delta=9, base_length=4, cyclic=True, seed=3))
    assert _degrees(g) == [9] * 16


def test_clique_chain_deterministic_per_seed():
    p = CliqueChainParams(delta=12, base_length=3, seed=42)
    assert clique_chain(p) == clique_chain(p)
    other = clique_chain(CliqueChainParams(delta=12, base_length=3, seed=43))
    assert clique_chain(p) != other


def test_clique_chain_rejects_bad_params():
    with pytest.raises(PreconditionError):
        clique_chain(CliqueChainParams(delta=8, base_length=3))
    with pytest.raises(PreconditionError):
        clique_chain(CliqueChainParams(delta=9, base_length=2))


# ---------------------------------------------------------------- named small


def test_named_small_k4():
    g = named_small("K4")
    assert g.n == 4 and g.m == 6


def test_named_small_prism():
    g = named_small("TriangularPrism")
    assert g.n == 6 and g.m == 9 and _degrees(g) == [3] * 6


@pytest.mark.parametrize("name,n,m", [("K3BoxK3", 9, 18), ("LineGraphPetersen", 15, 30)])
def test_named_small_2k2_neighborhood_families(name, n, m):
    g = named_small(name)
    assert g.n == n and g.m == m
    assert _degrees(g) == [4] * n
    for v in range(g.n):
        sub, _ = induced_subgraph(g, g.neighbors(v))
        assert sub.n == 4 and sub.m == 2
        assert sorted(sub.degree(u) for u in range(4)) == [1, 1, 1, 1]


def test_named_small_unknown_name():
    with pytest.raises(PreconditionError, match="known:"):
        named_small("PetersenSquared")


# -------------------------------------------------------------- random regular


def test_random_regular_degrees_and_determinism():
    g1 = random_regular(20, 5, seed=7)
    g2 = random_regular(20, 5, seed=7)
    assert g1 == g2
    assert _degrees(g1) == [5] * 20
    assert random_regular(20, 5, seed=8) != g1


def test_random_regular_small_forced_outcome():
    # only one simple 2-regular graph on 3 vertices
    g = random_regular(3, 2, seed=0)
    assert g.edges() == ((0, 1), (0, 2), (1, 2))


def test_random_regular_rejects_bad_parameters():
    with pytest.raises(PreconditionError, match="even"):
        random_regular(5, 3, seed=0)
    with pytest.raises(PreconditionError, match="d < n"):
        random_regular(4, 4, seed=0)


def _shuffle_reference(n: int, d: int, seed: int) -> Graph:
    """The pairing model as first written, on random.Random.shuffle."""
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(2000):
        rng.shuffle(stubs)
        seen = set()
        for i in range(0, len(stubs), 2):
            u, v = sorted((stubs[i], stubs[i + 1]))
            if u == v or (u, v) in seen:
                break
            seen.add((u, v))
        else:
            return Graph(n, sorted(seen))
    raise BudgetExhausted(
        f"random_regular(n={n}, d={d}, seed={seed}) found no simple pairing "
        f"in 2000 attempts"
    )


def _outcome(make, n: int, d: int, seed: int):
    try:
        return make(n, d, seed).edges()
    except BudgetExhausted as exc:
        return str(exc)


def test_random_regular_keeps_the_shuffle_stream():
    grid = [
        (n, d, seed)
        for n, d in ((2, 1), (5, 0), (3, 2), (6, 3), (10, 3), (12, 5), (20, 4),
                     (60, 5), (101, 4), (7, 6), (16, 10))
        for seed in range(3)
    ]
    got = [_outcome(random_regular, *case) for case in grid]
    assert got == [_outcome(_shuffle_reference, *case) for case in grid]
    # the grid reaches both outcomes: graphs and exhausted attempts
    kinds = {type(x) for x in got}
    assert kinds == {tuple, str}
