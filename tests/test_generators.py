"""Generator families: exact orders, degrees, and structural fingerprints."""

from __future__ import annotations

import random
import re
import time

import pytest

from helpers import icosahedron_labels, induced_subgraph
from sparsecut import generators
from sparsecut.errors import BudgetExhausted, PreconditionError
from sparsecut.generators import (
    CliqueChainParams,
    clique_chain,
    figure2_pattern,
    icosahedron,
    named_small,
    random_regular,
    squared_cycle,
    squared_path,
)
from sparsecut.graph import (
    Graph,
    components,
    is_connected,
    is_cutset,
)
from sparsecut.io import graph_digest


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
    # delta 10 leaves cliques of order 3 for connectors of degree 4, the
    # only delta >= 9 whose chain has no simple regular connector
    message = (
        "clique order 3 below connector degree 4; delta=10 "
        "leaves no room for a simple regular connector"
    )
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        clique_chain(CliqueChainParams(delta=10, base_length=5))


# (delta, base_length, cyclic, seed) -> graph_digest, as built with no draw
# budget: every chain the other tests build, the two of the benchmark's
# cli_batch slot 0, the seed among 0..99 at base length 5 whose connector
# needs the most draws at delta 9 (160 draws), 12 (5941) and 16 (4147), and
# five more rings and paths as built on random.Random.shuffle
_CHAIN_DIGESTS = {
    (9, 3, False, 1): "018d40ba7435d7a879ae73cde64a808b348c81d4c1f85579a80d4a185b494414",
    (9, 4, True, 3): "1b111d3ad6f0e73b5a238b76c8ab41eb70737659cfc88ece0ee417f5fd976158",
    (12, 3, False, 42): "c2d6a50a55ee70742e6c524478db05edc860fafef52b0c651857b3ec74f03353",
    (12, 3, False, 43): "9764eb713a2901192dc74fda6408a336d0453e95fe94403fe794fe9cd2a4b36a",
    (12, 4, False, 0): "1e68306ddc355afd839488791307e7253a397d047a7999febb795d1a43a901d1",
    (9, 3, False, 0): "4db1f964a59be7b8066f417d6492c9c801b036d1a5ac78a44c56f43f5092b6ee",
    (9, 5, True, 1): "c352f37cfd3a552656b4486e1cb2a5362a23ebb4b73b242485749df71508f5c4",
    (16, 3, False, 2): "daa545388d2d061e4631b50fae951dc51b802439e60abb0e6617047eb30dd432",
    (12, 4, True, 3): "541e1bb97533fc84383fa7d796d558f5c4308202a105f3878eb9f23c4ab4069b",
    (9, 6, False, 0): "88fbf258a3f1d10ba8051ce9b4e3f336c6c26ed761a6f8450db2febb6ec557c2",
    (9, 4, False, 0): "de6b4867542f2ee8c56fc852bf7f41759c675db84320136efe4e7ee7484714da",
    (9, 40, False, 546618441): "0d927f5292de10b84b3bfcbcd9b5bfbeaf2cd119a49ddee5fdfd9bd97a4332e7",
    (9, 80, True, 770790907): "f2e644c65165e13eaf4fe2d2c6b8ca937aa31215eaab8dc27e33dc33962c8d65",
    (9, 5, False, 25): "7ce178113a40b2d0b16b96c224e9f711bc69714b7c8aab5b0c6e98bd8e4fb8f3",
    (12, 5, False, 57): "582ce41469a502a57d62e736e59bce199335fdd5880e83fb2b07fcfac1c23b35",
    (16, 5, False, 9): "1591e6f7af19b5f2e2679f767d99e9c77840ec7a7847a670875b1c1fa1ff9a53",
    (9, 80, True, 11): "48a9fbd21beefb7f808a230d3cbadd9cf5a29cce204370fd6d4388d1f080da9b",
    (13, 6, True, 7): "a2620cc11913149e907c1bbda22613a321e75f94902f07b0ab17d211646fb940",
    (16, 4, True, 5): "e2b1d37b4645b5a68151914876c0417541bbfcdcdfab7710488aac10cc8c3884",
    (11, 7, False, 3): "910cee3b0c99ccfc5c40af37b74bf8d30ee97a754245fca7f48f365bd62d43c4",
    (15, 3, True, 99): "564ac948d06b3f4ca3e422d2c46cb4b061fda3dc48b8fbf03f843260d1fc9ca0",
}


@pytest.mark.parametrize("params", sorted(_CHAIN_DIGESTS))
def test_clique_chain_keeps_its_graph_within_the_draw_budget(params):
    assert graph_digest(clique_chain(CliqueChainParams(*params))) == _CHAIN_DIGESTS[params]


def _connector_reference(n: int, d: int, rng: random.Random) -> list[tuple[int, int]] | None:
    """The permutation-union connector as first written, on rng.shuffle, for
    at most 2000 draws."""
    for _ in range(2000):
        perms = []
        for _ in range(d):
            p = list(range(n))
            rng.shuffle(p)
            perms.append(p)
        used = {(i, j) for p in perms for i, j in enumerate(p)}
        if len(used) == n * d:
            return sorted(used)
    return None


@pytest.mark.parametrize("n, d", [(1, 1), (2, 2), (4, 3), (5, 3), (8, 4), (33, 2)])
def test_connector_keeps_the_shuffle_stream(n, d):
    # the same connector from the same draws, and the generator left in the
    # same state for the next connector
    for seed in range(5):
        ours, theirs = random.Random(seed), random.Random(seed)
        want = _connector_reference(n, d, theirs)
        assert want is not None
        assert generators._regular_bipartite(n, d, ours) == want
        assert ours.getstate() == theirs.getstate()


def test_clique_chain_gives_up_at_high_degree():
    # connector degree 20 on 361 + 361 vertices: about 4 ms per draw, and a
    # draw almost never has 20 disjoint permutations
    t0 = time.monotonic()
    with pytest.raises(BudgetExhausted, match="20-regular connector on 361"):
        clique_chain(CliqueChainParams(delta=400, base_length=5))
    assert time.monotonic() - t0 < 10


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
    for n, d in ((0, 0), (5, -1)):
        message = f"random_regular needs n > 0, d >= 0, got n={n} d={d}"
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            random_regular(n, d, seed=0)


@pytest.mark.parametrize(
    "build, what",
    [
        (lambda: squared_cycle(14.0), "squared_cycle: n"),
        (lambda: squared_cycle(True), "squared_cycle: n"),
        (lambda: squared_path(6.0), "squared_path: n"),
        (lambda: figure2_pattern(4.5), "figure2_pattern: blocks"),
        (lambda: random_regular(16.0, 5, 0), "random_regular: n"),
        (lambda: random_regular(16, 5.0, 0), "random_regular: d"),
        (lambda: clique_chain(CliqueChainParams(9.0, 4)), "clique_chain: delta"),
        (lambda: clique_chain(CliqueChainParams(9, "4")), "clique_chain: base_length"),
    ],
    ids=[
        "squared-cycle-float", "squared-cycle-bool", "squared-path-float", "figure2-float",
        "random-regular-n-float", "random-regular-d-float", "clique-chain-delta-float",
        "clique-chain-length-str",
    ],
)
def test_generators_refuse_parameters_that_are_not_ints(build, what):
    with pytest.raises(PreconditionError, match=f"{what} must be an int"):
        build()


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
