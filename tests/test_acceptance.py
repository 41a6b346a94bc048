"""Acceptance suite: the ten delivery criteria, one test each.

Every test prints a single pass/fail line with its elapsed time and
asserts the stated runtime budget on it. A PASS line also splits the time
into fixtures (building and selecting the input graphs) and the methods
and checks run on them. Checks are exact: integer and rational comparisons
carry no tolerance anywhere.
"""

from __future__ import annotations

import json
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

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
    pg24_incidence,
    petersen,
    union_find_components,
)
from sparsecut.algorithms import (
    prop1_is_icosahedron,
    prop2_cutset,
    theorem1_cutset,
    theorem2_cutset,
    theorem3_dichotomy,
    theorem4_independent_cutset,
    theorem5_certify,
)
from sparsecut.certificates import GoodCutset, KrrWitness, SquaredCycleIso
from sparsecut.cli import main as cli_main
from sparsecut.errors import PreconditionError
from sparsecut.generators import (
    CliqueChainParams,
    clique_chain,
    figure2_pattern,
    icosahedron,
    named_small,
    squared_cycle,
    squared_path,
)
from sparsecut.graph import Graph, induced_stats
from sparsecut.io import emit_edge_list
from sparsecut.oracles import (
    OracleBudget,
    enumerate_min_cutsets,
    find_constrained_cutset,
    find_independent_cutset,
    find_krr,
    recognize_squared_cycle,
    verify_certificate,
    vertex_connectivity,
)


@contextmanager
def criterion(num: int, budget_s: float):
    """Time criterion num against its budget. The block gets building, a
    context manager to enter around each piece of fixture work; the time
    spent in it is printed apart from the rest, and the budget holds the
    total of both."""
    fixture_s = 0.0

    @contextmanager
    def building():
        nonlocal fixture_s
        t = time.monotonic()
        try:
            yield
        finally:
            fixture_s += time.monotonic() - t

    t0 = time.monotonic()
    try:
        yield building
    except BaseException:
        print(f"criterion {num:2d}: FAIL ({time.monotonic() - t0:.2f}s)")
        raise
    elapsed = time.monotonic() - t0
    print(
        f"criterion {num:2d}: PASS ({elapsed:.2f}s: fixtures {fixture_s:.2f}s, "
        f"methods and checks {elapsed - fixture_s:.2f}s; budget {budget_s:g}s)"
    )
    assert elapsed < budget_s, f"criterion {num} overran {budget_s}s: {elapsed:.2f}s"


def separates(g: Graph, members) -> bool:
    return len(union_find_components(g.n, g.edges(), set(members))) >= 2


# 1. first construction: 500 random graphs plus every qualifying fixture


def test_criterion_1_theorem1_guarantees():
    with criterion(1, 5.0) as building:
        with building():
            rng = random.Random(1201)
            cases = []
            for delta in (3, 4, 5, 6):
                for _ in range(125):
                    n = rng.randint(2 * delta + 4, 60)
                    cases.append((bounded_degree_connected(n, delta, rng), delta))
            fixtures = [
                (squared_cycle(12), 4),
                (squared_cycle(14), 4),
                (squared_cycle(20), 4),
                (squared_cycle(24), 4),
                (squared_path(12), 4),
                (squared_path(16), 4),
                (figure2_pattern(4), 5),
                (figure2_pattern(5), 5),
                (clique_chain(CliqueChainParams(delta=9, base_length=6)), 9),
                (pg24_incidence(), 5),
                (named_small("LineGraphPetersen"), 4),
                (petersen(), 3),
                (circulant(20, (1, 2, 10)), 5),
                (four_regular_cut2(), 4),
                (four_regular_cut3(), 4),
                (diamond_chain(4), 4),
            ]
        for g, delta in fixtures:
            assert g.max_degree() <= delta and g.n >= 2 * delta + 4
        cases.extend(fixtures)
        assert len(cases) == 500 + len(fixtures)
        for g, delta in cases:
            trace = []
            report = induced_stats(g, theorem1_cutset(g, delta, trace=trace).cutset)
            s = report.cutset
            assert 1 <= len(s) <= delta
            assert report.max_degree_in_s <= delta - 3
            assert len(trace) <= delta + 3
            ledger = [st.m_i - 2 * st.n_i for st in trace]
            for before, after in zip(ledger, ledger[1:]):
                assert after - before >= delta - 2
            assert separates(g, s)


# 2. second construction: 200 random connected 5-regular graphs


def test_criterion_2_theorem2_guarantees():
    with criterion(2, 10.0) as building:
        orders = list(range(14, 41, 2))
        cursor = 1
        for i in range(200):
            n = orders[i % len(orders)]
            with building():
                g, used = connected_random_regular(n, 5, cursor)
            cursor = used + 1
            cert = theorem2_cutset(g)
            assert isinstance(cert, GoodCutset)
            s = cert.cutset
            assert 1 <= len(s) <= 5
            stats = induced_stats(g, set(s))
            assert stats.max_degree_in_s <= 2
            assert Fraction(2 * stats.induced_edge_count, len(s)) < 2
            assert verify_certificate(g, cert)
            assert separates(g, s)


# 3. dichotomy: squared cycles recognized, everything else carries a cutset


def test_criterion_3_theorem3_dichotomy():
    with criterion(3, 30.0) as building:
        for n in range(7, 21):
            with building():
                g = squared_cycle(n)
            out = theorem3_dichotomy(g, min_order=7)
            assert isinstance(out, SquaredCycleIso)
            assert verify_certificate(g, out)
        orders = list(range(12, 25))
        cursor = 1
        done = 0
        while done < 100:
            n = orders[done % len(orders)]
            # a fixture is a random 4-regular graph that is no squared cycle
            with building():
                g, used = connected_random_regular(n, 4, cursor)
                cursor = used + 1
                if recognize_squared_cycle(g) is not None:
                    continue
            try:
                out = theorem3_dichotomy(g)
            except PreconditionError:
                continue
            assert isinstance(out, GoodCutset)
            s = out.cutset
            stats = induced_stats(g, set(s))
            assert len(s) <= 4
            assert stats.minimal is True
            assert Fraction(2 * stats.induced_edge_count, len(s)) < 1
            assert verify_certificate(g, out)
            done += 1
        for name in ("K3BoxK3", "LineGraphPetersen"):
            with building():
                g = named_small(name)
            with pytest.raises(PreconditionError, match="2K2"):
                theorem3_dichotomy(g)


# 4. low-connectivity independent cutsets


def test_criterion_4_theorem4_independent():
    with criterion(4, 10.0) as building:
        # the corpus keeps the random 4-regular graphs of connectivity <= 3
        with building():
            corpus = [four_regular_cut1(), four_regular_cut2(), four_regular_cut3()]
            block = [(a, b) for a in range(5) for b in range(a + 1, 5)]
            corpus.append(Graph(10, block + [(a + 5, b + 5) for a, b in block]))
            orders = (12, 14, 16, 18, 20, 22, 24)
            cursor = 1
            tries = 0
            while len(corpus) < 14 and tries < 500:
                tries += 1
                g, used = connected_random_regular(orders[tries % len(orders)], 4, cursor)
                cursor = used + 1
                if vertex_connectivity(g) <= 3:
                    corpus.append(g)
        assert len(corpus) >= 9, "random sampling starved the corpus"
        for g in corpus:
            cert = theorem4_independent_cutset(g)
            s = cert.cutset
            assert len(s) <= 3
            for a in s:
                for b in s:
                    assert a == b or not g.has_edge(a, b)
            assert verify_certificate(g, cert)
            if s:
                assert separates(g, s)


# 5. dual certificate: sparse cutset on the C4-free side, K22 witness otherwise


def test_criterion_5_theorem5_dual():
    with criterion(5, 5.0) as building:
        with building():
            g = pg24_incidence()
        assert g.n >= 30
        assert find_krr(g, 2, OracleBudget(max_n=42)) is None
        cert = theorem5_certify(g, 5, 2)
        assert isinstance(cert, GoodCutset)
        assert len(cert.cutset) <= 5
        assert induced_stats(g, cert.cutset).max_degree_in_s <= 1
        assert verify_certificate(g, cert)

        with building():
            runs = [(circulant(20, (1, 2, 10)), 5)]
            cursor = 1
            for i in range(10):
                h, used = connected_random_regular(14 + 2 * (i % 5), 5, cursor)
                cursor = used + 1
                runs.append((h, 5))
        for h, delta in runs:
            out = theorem5_certify(h, delta, 2)
            assert isinstance(out, (GoodCutset, KrrWitness))
            if isinstance(out, KrrWitness):
                assert out.r == 2
                for a in out.side_a:
                    for b in out.side_b:
                        assert h.has_edge(a, b)
            else:
                assert len(out.cutset) <= 5
                assert induced_stats(h, out.cutset).max_degree_in_s <= 1
            assert verify_certificate(h, out)


# 6. exhaustive small facts


def test_criterion_6_exhaustive_facts():
    with criterion(6, 60.0) as building:
        with building():
            k4, prism, sq14 = named_small("K4"), named_small("TriangularPrism"), squared_cycle(14)
            ico, fig3 = icosahedron(), figure2_pattern(3)
        assert find_independent_cutset(k4) is None
        assert find_independent_cutset(prism) is None
        assert find_independent_cutset(sq14) is None
        assert find_constrained_cutset(ico, max_delta=1) is None
        assert vertex_connectivity(ico) == 5
        assert find_constrained_cutset(fig3, max_delta=1) is None


# 7. recognizer is exact on the fixture shelf


def test_criterion_7_prop1_exactness():
    with criterion(7, 1.0) as building:
        with building():
            ico = icosahedron()
            others = [
                squared_cycle(12),
                squared_cycle(14),
                squared_path(16),
                figure2_pattern(4),
                figure2_pattern(5),
                clique_chain(CliqueChainParams(delta=9, base_length=4)),
                named_small("K4"),
                named_small("TriangularPrism"),
                named_small("K3BoxK3"),
                named_small("LineGraphPetersen"),
                petersen(),
                pg24_incidence(),
                circulant(20, (1, 2, 10)),
                four_regular_cut1(),
                four_regular_cut2(),
                four_regular_cut3(),
                complement_cube(),
                diamond_chain(3),
                connected_random_regular(16, 5, 1)[0],
            ]
        assert prop1_is_icosahedron(ico)
        for g in others:
            assert not prop1_is_icosahedron(g)


# 8. sparse-graph construction over a gated random corpus


def _gated_sparse_corpus(count: int, rng: random.Random) -> list[Graph]:
    out: list[Graph] = []
    trial = 0
    while len(out) < count:
        trial += 1
        n = rng.randint(12, 40)
        deg = [0] * n
        edges = []
        for v in range(1, n):
            u = rng.randrange(v)
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
        extra = (0, 1, rng.randint(1, 4))[trial % 3]
        present = set(edges)
        attempts = 0
        while extra and attempts < 60:
            attempts += 1
            a, b = rng.randrange(n), rng.randrange(n)
            e = (min(a, b), max(a, b))
            if a == b or e in present:
                continue
            cand = Graph(n, list(present) + [e])
            q = cand.max_degree() ** 2 + 1
            if cand.m * q <= (2 * q + 1) * n - 4 * q:
                present.add(e)
                extra -= 1
        g = Graph(n, sorted(present))
        q = g.max_degree() ** 2 + 1
        if g.m * q <= (2 * q + 1) * n - 4 * q:
            out.append(g)
    return out


def test_criterion_8_prop2_sparse_corpus(monkeypatch):
    contracted: list[int] = []

    def counted(gp, *rest):
        contracted.append(gp.n)
        return find_independent_cutset(gp, *rest)

    monkeypatch.setattr("sparsecut.algorithms.find_independent_cutset", counted)
    with criterion(8, 30.0) as building:
        with building():
            corpus = _gated_sparse_corpus(100, random.Random(808))
        for g in corpus:
            report = induced_stats(g, prop2_cutset(g).cutset)
            s = report.cutset
            assert report.max_degree_in_s <= 1
            assert separates(g, s)
        # the random corpus never reaches the contraction route; every
        # diamond chain does, contracting its 4k vertices to 3k
        assert contracted == []
        for k in range(2, 9):
            contracted.clear()
            with building():
                g = diamond_chain(k)
            report = induced_stats(g, prop2_cutset(g).cutset)
            assert contracted == [3 * k]
            assert report.cutset == (0, 1)
            assert report.max_degree_in_s <= 1
            assert separates(g, report.cutset)


# 9. minimum cutsets never exceed the trivial degree bound


def test_criterion_9_trivial_bound_audit():
    with criterion(9, 10.0) as building:
        with building():
            shelf = [
                named_small("K4"),
                named_small("TriangularPrism"),
                named_small("K3BoxK3"),
                named_small("LineGraphPetersen"),
                petersen(),
                icosahedron(),
                figure2_pattern(3),
                squared_cycle(8),
                squared_cycle(14),
                squared_path(10),
                complement_cube(),
                four_regular_cut1(),
                four_regular_cut2(),
                four_regular_cut3(),
                diamond_chain(3),
                circulant(20, (1, 2, 10)),
                Graph(8, [(i, i + 1) for i in range(7)]),
                Graph(6, [(i, (i + 1) % 6) for i in range(6)]),
            ]
        audited = 0
        for g in shelf:
            for cut in enumerate_min_cutsets(g):
                assert induced_stats(g, cut).max_degree_in_s <= g.max_degree() - 2
                audited += 1
        assert audited > 100


# 10. byte-identical reports under zeroed timing


def test_criterion_10_deterministic_reports(tmp_path, monkeypatch, capsys):
    with criterion(10, 10.0) as building:
        monkeypatch.setenv("SPARSECUT_ZERO_TIMING", "1")
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        with building():
            for n in (14, 16, 18):
                (corpus / f"sq{n}.edges").write_text(
                    emit_edge_list(squared_cycle(n)), encoding="ascii"
                )
        outputs = []
        for _ in range(2):
            code = cli_main(
                [
                    "find-cutset",
                    "--method",
                    "thm1",
                    "--delta",
                    "4",
                    "--verify",
                    "--corpus",
                    str(corpus),
                ]
            )
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        parsed = json.loads(outputs[0])
        for row in parsed["results"]:
            assert row["report"]["timing_ms"] == 0

        oracle_outputs = []
        target = corpus / "sq14.edges"
        for _ in range(2):
            code = cli_main(
                ["oracle", "krr", "--r", "2", "-i", str(target), "--verify"]
            )
            assert code == 0
            oracle_outputs.append(capsys.readouterr().out)
        assert oracle_outputs[0] == oracle_outputs[1]
