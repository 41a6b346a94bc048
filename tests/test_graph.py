"""Graph core: construction rules, components, cutset reports.

Components are cross-checked against an independent union-find
implementation so the BFS in the library is never its own witness.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsecut
from helpers import induced_subgraph
from sparsecut.certificates import GoodCutset
from sparsecut.errors import GraphError, PreconditionError
from sparsecut.generators import squared_cycle
from sparsecut.graph import (
    MINIMALITY_REPORT_LIMIT,
    Graph,
    components,
    induced_edge_count,
    induced_stats,
    is_connected,
    is_cutset,
    max_degree_in,
    min_degree_vertex,
)
from sparsecut.oracles import verify_certificate


def _path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _union_find_components(n: int, edges, removed: set[int]) -> list[list[int]]:
    # independent of the library BFS on purpose
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        if u in removed or v in removed:
            continue
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[int, list[int]] = {}
    for v in range(n):
        if v in removed:
            continue
        groups.setdefault(find(v), []).append(v)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


# ---------------------------------------------------------------- construction


def test_constructor_rejects_self_loop():
    with pytest.raises(GraphError, match="self-loop"):
        Graph(3, [(0, 1), (2, 2)])


def test_constructor_rejects_parallel_edges():
    with pytest.raises(GraphError, match="parallel"):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError, match="parallel"):
        Graph(3, [(0, 1), (0, 1)])


def test_constructor_rejects_out_of_range():
    with pytest.raises(GraphError, match="out of range"):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError, match="out of range"):
        Graph(2, [(-1, 0)])


def test_edges_normalized_and_sorted():
    g = Graph(4, [(3, 1), (2, 0), (1, 0)])
    assert g.edges() == ((0, 1), (0, 2), (1, 3))
    assert g.m == 3


def test_adjacency_is_symmetric():
    g = Graph(5, [(0, 1), (1, 2), (2, 4), (0, 4)])
    for u in range(g.n):
        for v in g.neighbors(u):
            assert u in g.neighbors(v)


def test_vertex_set_normalizes_and_validates():
    g = _path(5)
    assert induced_stats(g, [3, 1, 1, 2]).cutset == (1, 2, 3)
    assert components(g, iter([3, 1, 1])) == [(0,), (2,), (4,)]
    with pytest.raises(GraphError):
        induced_stats(g, [0, 5])
    with pytest.raises(GraphError):
        components(g, [0, 5])


@pytest.mark.parametrize(
    "fn",
    [components, is_cutset, induced_edge_count, max_degree_in, induced_stats],
)
@pytest.mark.parametrize(
    "ids, message",
    [
        ([2, 1.5], "vertex id must be an int, got 1.5"),
        ([0, 5], "vertex id 5 out of range for n=5"),
        ({-1, 3}, "vertex id -1 out of range for n=5"),
        # mixed ids: the type is checked before anything is sorted
        (["a", 0], "vertex id must be an int, got 'a'"),
        ([0, "a"], "vertex id must be an int, got 'a'"),
        ([7, None], "vertex id must be an int, got None"),
    ],
)
def test_every_vertex_set_entry_checks_ids(fn, ids, message):
    with pytest.raises(GraphError) as err:
        fn(_path(5), ids)
    assert str(err.value) == message


@given(
    n=st.integers(min_value=0, max_value=9),
    raw=st.lists(st.tuples(st.integers(-1, 9), st.integers(-1, 9)), max_size=20),
)
@settings(max_examples=200, deadline=None)
def test_constructor_fuzz(n, raw):
    clean = set()
    bad = False
    for u, v in raw:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            bad = True
            break
        key = (min(u, v), max(u, v))
        if key in clean:
            bad = True
            break
        clean.add(key)
    if bad:
        with pytest.raises(GraphError):
            Graph(n, raw)
    else:
        g = Graph(n, raw)
        assert g.m == len(clean)
        assert sum(g.degree(v) for v in range(n)) == 2 * g.m
        assert g.edges() == tuple(sorted(clean))
        for u in range(n):
            assert g.neighbor_set(u) == {b if a == u else a for a, b in clean if u in (a, b)}
            for v in range(n):
                assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in clean)
        twin = Graph(n, sorted(clean, reverse=True))
        assert twin == g and hash(twin) == hash(g)
        if clean:
            fewer = Graph(n, sorted(clean)[1:])
            assert fewer != g


# ----------------------------------------------------------------- components


def test_components_partition_and_order():
    g = Graph(6, [(0, 1), (2, 3), (4, 5), (1, 2)])
    comps = components(g, [1])
    assert comps == [(0,), (2, 3), (4, 5)]
    covered = sorted(v for c in comps for v in c)
    assert covered == [0, 2, 3, 4, 5]


def test_components_against_union_find_1000_instances():
    rng = random.Random(20260825)
    for _ in range(1000):
        n = rng.randint(1, 12)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.25
        ]
        g = Graph(n, edges)
        removed = {v for v in range(n) if rng.random() < 0.2}
        got = [list(c) for c in components(g, removed)]
        assert got == _union_find_components(n, edges, removed)


def test_is_cutset_path_and_cycle():
    assert is_cutset(_path(5), [2])
    assert not is_cutset(_cycle(5), [0])
    assert is_cutset(_cycle(5), [0, 2])


def test_is_cutset_empty_set_means_already_disconnected():
    connected = _path(4)
    split = Graph(4, [(0, 1), (2, 3)])
    assert not is_cutset(connected, [])
    assert is_cutset(split, [])


def test_is_cutset_rejects_full_vertex_set():
    g = _path(3)
    with pytest.raises(PreconditionError, match="proper subset"):
        is_cutset(g, [0, 1, 2])


# -------------------------------------------------------------------- reports


def test_induced_stats_exact_rational_average():
    # S = {0,1,2,3} induces exactly the edge (0,1)
    g = Graph(6, [(0, 1), (0, 4), (2, 4), (3, 5), (1, 5), (4, 5)])
    rep = induced_stats(g, [0, 1, 2, 3])
    assert rep.max_degree_in_s == 1
    assert rep.induced_edge_count == 1
    assert rep.avg_degree_in_s == Fraction(1, 2)


def test_induced_stats_empty_set_conventions():
    g = Graph(4, [(0, 1), (2, 3)])
    rep = induced_stats(g, [])
    assert rep.max_degree_in_s == 0
    assert rep.avg_degree_in_s == Fraction(0)
    assert rep.component_count == 2
    assert rep.is_cutset
    assert rep.minimal is True


def test_induced_stats_minimality_exhaustive_and_unknown():
    g = _path(10)
    rep = induced_stats(g, [4])
    assert rep.minimal is True
    rep = induced_stats(g, [3, 4])
    assert rep.is_cutset and rep.minimal is False
    big = induced_stats(g, [1, 2, 3, 4, 5, 6, 7])
    assert big.minimal is None  # beyond the exhaustive limit


def test_minimality_checks_all_proper_subsets_not_just_deletions():
    # S = {1, 3} cuts P5 and every single deletion leaves a cutset,
    # still non-minimal because {1} and {3} are cutsets themselves
    rep = induced_stats(_path(5), [1, 3])
    assert rep.is_cutset and rep.minimal is False


def test_minimality_in_a_disconnected_graph():
    # only the empty set is minimal: S = {1, 4} leaves four components,
    # and each vertex of S sees two of them
    g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    assert induced_stats(g, []).minimal is True
    rep = induced_stats(g, [1, 4])
    assert rep.component_count == 4 and rep.minimal is False


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_induced_stats_minimality_matches_the_oracle(data):
    # graphs connected or not, every vertex set: up to the report limit the
    # verdict is the oracle's subset scan; above it a cutset reports None
    n = data.draw(st.integers(min_value=0, max_value=9))
    pairs = list(combinations(range(n), 2))
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n, [e for e, kept in zip(pairs, keep) if kept])
    for size in range(n + 1):
        for s in combinations(range(n), size):
            rep = induced_stats(g, s)
            if size <= MINIMALITY_REPORT_LIMIT:
                exhaustive = verify_certificate(g, GoodCutset(cutset=s, require_minimal=True))
                assert rep.minimal is exhaustive, (g.edges(), s)
            else:
                assert rep.minimal is (None if rep.is_cutset else False), (g.edges(), s)


def test_induced_stats_makes_one_components_pass(monkeypatch):
    calls = []

    def counted(g, removed=()):
        calls.append(removed)
        return components(g, removed)

    monkeypatch.setattr("sparsecut.graph.components", counted)
    rep = induced_stats(squared_cycle(1000), [0, 1, 500, 501])
    assert rep.component_count == 2 and rep.minimal is True
    assert len(calls) == 1


def test_test_only_helpers_are_not_public():
    # induced_subgraph and icosahedron_labels live in tests/helpers.py
    assert not {"induced_subgraph", "icosahedron_labels"} & set(sparsecut.__all__)
    assert not hasattr(sparsecut.graph, "induced_subgraph")
    assert not hasattr(sparsecut.generators, "icosahedron_labels")


def test_report_component_count_matches_is_cutset():
    g = _cycle(6)
    rep = induced_stats(g, [0, 3])
    assert rep.component_count == 2 and rep.is_cutset
    rep2 = induced_stats(g, [0])
    assert rep2.component_count == 1 and not rep2.is_cutset


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_degree_bounds_hold_on_random_subsets(data):
    n = data.draw(st.integers(min_value=1, max_value=9))
    edges = data.draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] < e[1]
            ),
            max_size=n * (n - 1) // 2,
        )
    )
    g = Graph(n, sorted(edges))
    s = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    if len(s) == n:
        return
    rep = induced_stats(g, s)
    assert rep.avg_degree_in_s <= rep.max_degree_in_s
    assert rep.max_degree_in_s <= max(0, len(s) - 1)


# ------------------------------------------------------------------- helpers


def test_min_degree_vertex_prefers_smallest_id():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])  # all degree 2
    assert min_degree_vertex(g) == 0
    h = Graph(4, [(0, 1), (1, 2), (1, 3)])
    assert min_degree_vertex(h) == 0  # degree 1, ties with 2 and 3


def test_induced_subgraph_mapping():
    g = Graph(5, [(0, 2), (2, 4), (4, 0), (1, 2)])
    sub, mapping = induced_subgraph(g, [0, 2, 4])
    assert mapping == (0, 2, 4)
    assert sub.n == 3 and sub.edges() == ((0, 1), (0, 2), (1, 2))


def test_max_degree_in_subset():
    g = _cycle(6)
    assert max_degree_in(g, [0, 1, 2]) == 2
    assert max_degree_in(g, [0, 2, 4]) == 0


def test_is_connected_small_cases():
    assert is_connected(Graph(0, []))
    assert is_connected(Graph(1, []))
    assert not is_connected(Graph(2, []))
    assert is_connected(_path(6))


def test_all_size_leq2_sets_cutset_vs_bruteforce():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(3, 9)
        edges = [
            (u, v)
            for u, v in combinations(range(n), 2)
            if rng.random() < 0.4
        ]
        g = Graph(n, edges)
        for size in (0, 1, 2):
            for s in combinations(range(n), size):
                expect = len(_union_find_components(n, edges, set(s))) >= 2
                assert is_cutset(g, s) == expect


_HELD = """
import sys, tracemalloc
from sparsecut.graph import Graph
n = int(sys.argv[1])
edges = [(i, (i + d) % n) for i in range(n) for d in (1, 2)]
tracemalloc.start()
g = Graph(n, edges)
size, _ = tracemalloc.get_traced_memory()
tracemalloc.stop()
assert g.m == 2 * n
print(size)
"""


def test_graph_memory_grows_linearly_with_order():
    # each order in a fresh interpreter: tracemalloc does not see tuples
    # that CPython reuses from its free lists, which a process warmed by
    # the rest of the suite holds plenty of
    env = {**os.environ, "PYTHONPATH": str(Path(sparsecut.__file__).parents[1])}

    def held(n: int) -> int:
        run = subprocess.run(
            [sys.executable, "-c", _HELD, str(n)],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        return int(run.stdout)

    # four times the order may hold at most five times the memory; any
    # per-vertex n-bit structure would make this ratio approach 16
    assert held(16000) < 5 * held(4000)
