"""End-to-end command line behavior, run in process through main().

Covers the documented pipelines, the exit code taxonomy, corpus
aggregation and the zeroed-timing determinism contract.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsecut
from sparsecut import cli
from sparsecut.cli import main
from sparsecut.generators import squared_cycle
from sparsecut.graph import Graph
from sparsecut.io import MAX_ORDER, emit_edge_list, emit_graph6


def run_cli(argv, stdin_text="", monkeypatch=None, capsys=None):
    """Invoke the CLI in process and capture stdout text."""
    assert capsys is not None
    if stdin_text or monkeypatch is not None:
        assert monkeypatch is not None
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


# ----------------------------------------------------------------- generate


def test_generate_icosahedron(capsys, monkeypatch):
    code, out = run_cli(["generate", "icosahedron"], capsys=capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n 12"
    assert len(lines) == 31


def test_generate_graph6_format(capsys):
    code, out = run_cli(
        ["generate", "squared-cycle", "14", "--format", "graph6"], capsys=capsys
    )
    assert code == 0
    assert out.strip() and "\n" not in out.strip()


def test_generate_seeded_regular_is_reproducible(capsys):
    code1, out1 = run_cli(
        ["generate", "random-regular", "12", "3", "--seed", "5"], capsys=capsys
    )
    code2, out2 = run_cli(
        ["generate", "random-regular", "12", "3", "--seed", "5"], capsys=capsys
    )
    assert code1 == code2 == 0
    assert out1 == out2


def test_generate_rejects_unknown_family(capsys):
    code, _ = run_cli(["generate", "dodecahedron"], capsys=capsys)
    assert code == 2


def test_generate_rejects_bad_params(capsys):
    code, _ = run_cli(["generate", "squared-cycle"], capsys=capsys)
    assert code == 2
    code, _ = run_cli(["generate", "k4", "7"], capsys=capsys)
    assert code == 2
    code, out = run_cli(["generate", "icosahedron", "3"], capsys=capsys)
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "family, builder, params, order",
    [
        ("squared-cycle", "squared_cycle", [MAX_ORDER], MAX_ORDER),
        ("squared-cycle", "squared_cycle", [MAX_ORDER + 1], MAX_ORDER + 1),
        ("squared-path", "squared_path", [MAX_ORDER], MAX_ORDER),
        ("squared-path", "squared_path", [MAX_ORDER + 1], MAX_ORDER + 1),
        ("random-regular", "random_regular", [MAX_ORDER, 4], MAX_ORDER),
        ("random-regular", "random_regular", [10**9, 4], 10**9),
        ("figure2", "figure2_pattern", [MAX_ORDER // 4], MAX_ORDER // 4 * 4),
        ("figure2", "figure2_pattern", [MAX_ORDER // 4 + 1], MAX_ORDER // 4 * 4 + 4),
        # delta 9 gives cliques of order 4
        ("clique-chain", "clique_chain", [9, MAX_ORDER // 4], MAX_ORDER // 4 * 4),
        ("clique-chain", "clique_chain", [9, MAX_ORDER // 4 + 1], MAX_ORDER // 4 * 4 + 4),
    ],
)
def test_generate_refuses_orders_above_the_limit_before_building(
    family, builder, params, order, tmp_path, monkeypatch, capsys
):
    # the builder is stubbed, so no large graph is ever allocated here
    built = []
    monkeypatch.setattr(cli, builder, lambda *a, **k: built.append(a) or squared_cycle(5))
    target = tmp_path / "out.txt"
    code = main(["generate", family, *map(str, params), "-o", str(target)])
    err = capsys.readouterr().err
    if order <= MAX_ORDER:
        assert (code, len(built), target.exists()) == (0, 1, True)
    else:
        assert (code, built, target.exists()) == (2, [], False)
        assert f"order {order} above the limit {MAX_ORDER}" in err


def test_generate_clique_chain_seed_option_is_the_positional_seed(tmp_path, capsys):
    def gen(*argv):
        return run_cli(["generate", "clique-chain", *argv], capsys=capsys)

    seeded = gen("9", "4", "0", "3")
    assert gen("9", "4", "--seed", "3") == seeded == gen("9", "4", "0", "3", "--seed", "3")
    assert gen("9", "4", "1", "--seed", "3") == gen("9", "4", "1", "3")
    assert gen("9", "4", "--seed", "3") != gen("9", "4") == gen("9", "4", "--seed", "0")
    target = tmp_path / "out.txt"
    argv = ["generate", "clique-chain", "9", "4", "0", "3", "--seed", "4", "-o", str(target)]
    code = main(argv)
    assert (code, target.exists()) == (2, False)
    assert "positional seed 3 and --seed 4 differ" in capsys.readouterr().err


@pytest.mark.parametrize(
    "family, params",
    [
        ("squared-cycle", [14]),
        ("squared-path", [7]),
        ("figure2", [4]),
        ("icosahedron", []),
        ("k4", []),
        ("triangular-prism", []),
        ("k3boxk3", []),
        ("linegraphpetersen", []),
    ],
)
def test_generate_refuses_a_seed_where_the_family_takes_none(family, params, tmp_path, capsys):
    target = tmp_path / "out.txt"
    code = main(["generate", family, *map(str, params), "--seed", "5", "-o", str(target)])
    captured = capsys.readouterr()
    assert (code, target.exists(), captured.out) == (2, False, "")
    assert captured.err.count("\n") == 1
    assert f"generate {family}: takes no --seed" in captured.err
    # without --seed the same family builds
    assert main(["generate", family, *map(str, params), "-o", str(target)]) == 0


@pytest.mark.parametrize(
    "family, params",
    [
        ("icosahedron", []),
        ("squared-cycle", [7]),
        ("squared-path", [7]),
        ("figure2", [4]),
        ("clique-chain", [9, 4]),
        ("clique-chain", [13, 3, 1, 2]),
        ("random-regular", [10, 3]),
        ("k4", []),
        ("triangular-prism", []),
        ("k3boxk3", []),
        ("linegraphpetersen", []),
    ],
)
def test_family_rows_give_the_order_and_edge_count_they_build(family, params):
    size, _ = cli._FAMILIES[family]
    g = cli._build_family(family, params, None)
    assert size(*params) == (g.n, g.m)


@pytest.mark.parametrize(
    "family, builder, params, edges",
    [
        ("random-regular", "random_regular", [MAX_ORDER, 15], MAX_ORDER * 15 // 2),
        ("random-regular", "random_regular", [MAX_ORDER, 16], MAX_ORDER * 8),
        ("random-regular", "random_regular", [258047, 258046], 258047 * 129023),
        # 3 cliques of order 79435 and 2 connectors of degree 283
        ("clique-chain", "clique_chain", [80000, 3], 3 * 79435 * 79434 // 2 + 2 * 79435 * 283),
    ],
)
def test_generate_refuses_edge_counts_above_the_limit_before_building(
    family, builder, params, edges, tmp_path, monkeypatch, capsys
):
    # the builder is stubbed, so no large graph is ever allocated here
    built = []
    monkeypatch.setattr(cli, builder, lambda *a, **k: built.append(a) or squared_cycle(5))
    target = tmp_path / "out.txt"
    code = main(["generate", family, *map(str, params), "-o", str(target)])
    err = capsys.readouterr().err
    if edges <= cli.MAX_GENERATED_EDGES:
        assert (code, len(built), target.exists()) == (0, 1, True)
    else:
        assert (code, built, target.exists()) == (2, [], False)
        assert f"{edges} edges above the limit {cli.MAX_GENERATED_EDGES}" in err


# -------------------------------------------------------------- find-cutset


def pipe(monkeypatch, capsys, gen_argv, run_argv):
    code, graph_text = run_cli(gen_argv, capsys=capsys)
    assert code == 0
    return run_cli(run_argv, graph_text, monkeypatch, capsys)


def test_documented_pipeline_thm2_small_order(monkeypatch, capsys):
    code, out = pipe(
        monkeypatch,
        capsys,
        ["generate", "icosahedron"],
        ["find-cutset", "--method", "thm2"],
    )
    assert code == 2
    report = json.loads(out)
    assert report["error"]["code"] == 2
    assert "14" in report["error"]["message"]


def test_documented_pipeline_thm1_verified(monkeypatch, capsys):
    code, out = pipe(
        monkeypatch,
        capsys,
        ["generate", "squared-cycle", "14"],
        ["find-cutset", "--method", "thm1", "--delta", "4", "--verify"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["stats"]["max_degree_in_s"] == 1
    assert report["verified"] is True
    assert report["certificate"]["kind"] == "good-cutset"
    assert report["certificate"]["cutset"] == [2, 3, 12, 13]


def test_documented_pipeline_thm3_pair_precondition(monkeypatch, capsys):
    code, out = pipe(
        monkeypatch,
        capsys,
        ["generate", "k3boxk3"],
        ["find-cutset", "--method", "thm3"],
    )
    assert code == 2
    assert "2K2" in json.loads(out)["error"]["message"]


def test_find_cutset_thm1_needs_delta(monkeypatch, capsys):
    code, out = pipe(
        monkeypatch,
        capsys,
        ["generate", "squared-cycle", "14"],
        ["find-cutset", "--method", "thm1"],
    )
    assert code == 2
    assert "--delta" in json.loads(out)["error"]["message"]


def test_find_cutset_default_verification_tracks_order(monkeypatch, capsys):
    # n = 14 stays under the auto-verify ceiling, n = 30 is over it
    code, out = pipe(
        monkeypatch,
        capsys,
        ["generate", "squared-cycle", "14"],
        ["find-cutset", "--method", "thm1", "--delta", "4"],
    )
    assert code == 0 and json.loads(out)["verified"] is True
    code, out = pipe(
        monkeypatch,
        capsys,
        ["generate", "squared-cycle", "30"],
        ["find-cutset", "--method", "thm1", "--delta", "4"],
    )
    assert code == 0 and json.loads(out)["verified"] is None


def test_find_cutset_reports_minimality_at_large_order(monkeypatch, capsys):
    code, out = pipe(
        monkeypatch,
        capsys,
        ["generate", "squared-cycle", "2000"],
        ["find-cutset", "--method", "thm1", "--delta", "4"],
    )
    assert code == 0
    stats = json.loads(out)["stats"]
    assert len(stats["cutset"]) == 4 and stats["minimal"] is True


def test_find_cutset_reports_null_minimality_above_six_vertices(monkeypatch, capsys):
    # report schema 1 and the recorded benchmark answers pin null here
    code, out = pipe(
        monkeypatch,
        capsys,
        ["generate", "random-regular", "40", "3", "--seed", "1"],
        ["find-cutset", "--method", "degenerate", "--u", "0"],
    )
    assert code == 0
    stats = json.loads(out)["stats"]
    assert len(stats["cutset"]) == 15 and stats["component_count"] >= 2
    assert stats["minimal"] is None and '"minimal": null' in out


@pytest.mark.parametrize("size, printed", [(6, False), (7, None)])
def test_verify_prints_minimality_up_to_six_vertices(size, printed, tmp_path, monkeypatch, capsys):
    # vertices 1..size of P10 cut it, and none is minimal since {1} alone
    # does; the library says False at both sizes, schema 1 prints null at 7
    from sparsecut.certificates import GoodCutset, certificate_to_dict

    cert = tmp_path / "cut.json"
    cert.write_text(json.dumps(certificate_to_dict(GoodCutset(cutset=tuple(range(1, size + 1))))))
    path10 = emit_edge_list(Graph(10, [(i, i + 1) for i in range(9)]))
    code, out = run_cli(
        ["verify", "--certificate", str(cert)], path10, monkeypatch=monkeypatch, capsys=capsys
    )
    stats = json.loads(out)["stats"]
    assert (code, len(stats["cutset"]), stats["component_count"]) == (0, size, 2)
    assert stats["minimal"] is printed


def test_verify_judges_a_minimality_claim_above_six_vertices(tmp_path, monkeypatch, capsys):
    # the seven middle vertices of K_{2,7} are a minimal cutset; schema 1
    # still prints null for them, though verify has judged the claim
    from sparsecut.certificates import GoodCutset, certificate_to_dict

    cert = tmp_path / "cut.json"
    claim = GoodCutset(cutset=tuple(range(2, 9)), require_minimal=True)
    cert.write_text(json.dumps(certificate_to_dict(claim)))
    k27 = emit_edge_list(Graph(9, [(side, v) for side in (0, 1) for v in range(2, 9)]))
    code, out = run_cli(
        ["verify", "--certificate", str(cert)], k27, monkeypatch=monkeypatch, capsys=capsys
    )
    report = json.loads(out)
    assert code == 0 and report["verified"] is True and "error" not in report
    assert report["stats"]["minimal"] is None and '"minimal": null' in out
    # vertices 1..7 of P10 cut it, but {1} alone does: the claim fails
    claim = GoodCutset(cutset=tuple(range(1, 8)), require_minimal=True)
    cert.write_text(json.dumps(certificate_to_dict(claim)))
    path10 = emit_edge_list(Graph(10, [(i, i + 1) for i in range(9)]))
    code, out = run_cli(
        ["verify", "--certificate", str(cert)], path10, monkeypatch=monkeypatch, capsys=capsys
    )
    report = json.loads(out)
    assert code == 1 and report["verified"] is False
    assert report["error"]["type"] == "VerificationFailed"


def test_find_cutset_thm4_from_file(tmp_path, monkeypatch, capsys):
    from helpers import four_regular_cut2
    from sparsecut.io import emit_edge_list

    target = tmp_path / "swap.edges"
    target.write_text(emit_edge_list(four_regular_cut2()), encoding="ascii")
    code, out = run_cli(
        ["find-cutset", "--method", "thm4", "-i", str(target)],
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["certificate"]["kind"] == "independent-cutset"
    assert report["certificate"]["cutset"] == [5, 14]
    assert report["verified"] is True


def test_find_cutset_degenerate_u(monkeypatch, capsys):
    code, out = pipe(
        monkeypatch,
        capsys,
        ["generate", "squared-cycle", "30"],
        ["find-cutset", "--method", "degenerate", "--u", "3", "--verify"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["command"]["u"] == 3
    assert report["verified"] is True


def test_find_cutset_refuses_an_order_above_the_graph6_limit(monkeypatch, capsys):
    # without the limit a header alone costs about 250 bytes per declared vertex
    code, out = run_cli(
        ["find-cutset", "--method", "thm1", "--delta", "4"],
        stdin_text="n 258048\n0 1\n",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 2
    report = json.loads(out)
    assert report["error"] == {
        "code": 2,
        "type": "GraphError",
        "message": "line 1: order 258048 above the limit 258047",
    }
    assert report["input_digest"] is None and report["certificate"] is None


def test_find_cutset_dot_export(tmp_path, monkeypatch, capsys):
    out_dot = tmp_path / "cut.dot"
    code, _ = pipe(
        monkeypatch,
        capsys,
        ["generate", "squared-cycle", "14"],
        [
            "find-cutset",
            "--method",
            "thm1",
            "--delta",
            "4",
            "--dot",
            str(out_dot),
        ],
    )
    assert code == 0
    text = out_dot.read_text(encoding="ascii")
    assert "style=filled" in text
    assert "2 [" in text and "13 [" in text


def test_find_cutset_unwritable_dot_keeps_the_report(tmp_path, monkeypatch, capsys):
    code, out = pipe(
        monkeypatch,
        capsys,
        ["generate", "squared-cycle", "14"],
        ["find-cutset", "--method", "thm1", "--delta", "4", "--verify",
         "--dot", str(tmp_path / "no-dir" / "cut.dot")],
    )
    assert code == 2
    report = json.loads(out)
    assert report["error"]["code"] == 2 and report["error"]["type"] == "GraphError"
    assert report["certificate"]["cutset"] == [2, 3, 12, 13]
    assert report["verified"] is True
    assert report["stats"]["max_degree_in_s"] == 1
    assert list(report)[-2:] == ["error", "timing_ms"]


# -------------------------------------------------------------------- oracle


def test_oracle_krr_witness(monkeypatch, capsys):
    code, out = pipe(
        monkeypatch,
        capsys,
        ["generate", "squared-cycle", "14"],
        ["oracle", "krr", "--r", "2"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["certificate"]["kind"] == "krr-witness"
    assert report["verified"] is True


def test_oracle_min_cutsets_path(monkeypatch, capsys):
    code, out = run_cli(
        ["oracle", "min-cutsets"],
        "0 1\n1 2\n2 3\n",
        monkeypatch,
        capsys,
    )
    assert code == 0
    assert json.loads(out)["stats"] == {"count": 2, "cutsets": [[1], [2]]}


def test_oracle_constrained_needs_a_bound(monkeypatch, capsys):
    code, out = run_cli(
        ["oracle", "constrained-cutset"],
        "0 1\n1 2\n2 3\n",
        monkeypatch,
        capsys,
    )
    assert code == 2
    assert "--max-delta" in json.loads(out)["error"]["message"]


@pytest.mark.parametrize(
    "avg, bound", [("1/2", [1, 2]), ("3/2", [3, 2]), ("0/1", [0, 1]), ("3", [3, 1]), ("-6/-4", [3, 2])]
)
def test_oracle_constrained_reads_a_plain_avg(avg, bound, monkeypatch, capsys):
    # C_12^2 has a cutset of average internal degree 1, {0, 1, 6, 7}, and
    # none below it, so only the bounds above 1 find one
    code, out = pipe(
        monkeypatch,
        capsys,
        ["generate", "squared-cycle", "12"],
        ["oracle", "constrained-cutset", f"--avg={avg}"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["command"]["avg"] == avg
    if bound[0] > bound[1]:
        assert report["certificate"]["avg_bound_strict"] == bound
    else:
        assert report["stats"] == {"found": False}


def test_oracle_constrained_avg_bound(monkeypatch, capsys):
    code, out = pipe(
        monkeypatch,
        capsys,
        ["generate", "squared-cycle", "12"],
        ["oracle", "constrained-cutset", "--avg", "3/2", "--verify"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["certificate"]["avg_bound_strict"] == [3, 2]
    assert report["verified"] is True


@pytest.mark.parametrize(
    "avg",
    [
        "x",
        "1/0",
        "1/-0",
        # int() takes each of these, but --avg is plain ASCII decimals only,
        # as edge lists are: '_', '+', spaces and other scripts' digits
        "1_0/2",
        "+1/2",
        "1/+2",
        "1/ 2",
        " 1/2",
        "1/2\n",
        "\u0661/2",
        "1/\u0662",
        # an empty or a second denominator, and a doubled sign
        "3/",
        "/2",
        "1/2/3",
        "--1/2",
        # past int()'s digit limit
        "9" * 5000 + "/2",
    ],
)
def test_oracle_constrained_refuses_a_malformed_avg(avg, monkeypatch, capsys):
    # one argv item, so that argparse reads a leading '-' as the value's
    argv = ["oracle", "constrained-cutset", f"--avg={avg}"]
    code, out = run_cli(argv, "n 4\n0 1\n", monkeypatch, capsys)
    assert code == 2
    error = json.loads(out)["error"]
    assert (error["type"], error["message"]) == ("GraphError", f"--avg expects P/Q, got {avg!r}")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["find-cutset", "--method", "thm1", "--delta", "4", "--r", "7"],
         "find-cutset --method thm1 takes no --r"),
        (["find-cutset", "--method", "thm2", "--delta", "4"],
         "find-cutset --method thm2 takes no --delta"),
        (["find-cutset", "--method", "degenerate", "--delta", "4", "--r", "2"],
         "find-cutset --method degenerate takes no --delta or --r"),
        (["oracle", "min-cutsets", "--r", "3", "--max-delta", "2", "--avg", "1/2"],
         "oracle min-cutsets takes no --r or --max-delta or --avg"),
        (["oracle", "krr", "--r", "2", "--max-delta", "1"], "oracle krr takes no --max-delta"),
        (["oracle", "constrained-cutset", "--max-delta", "1", "--r", "2"],
         "oracle constrained-cutset takes no --r"),
        (["oracle", "connectivity", "--avg", "1/2"], "oracle connectivity takes no --avg"),
        # a foreign option is named before a missing one
        (["find-cutset", "--method", "thm1", "--r", "2"], "find-cutset --method thm1 takes no --r"),
        (["find-cutset", "--method", "thm5", "--delta", "5"],
         "find-cutset --method thm5 requires --delta and --r"),
        (["oracle", "krr"], "oracle krr requires --r"),
        (["oracle", "constrained-cutset"], "oracle constrained-cutset needs --max-delta or --avg"),
    ],
)
def test_options_are_checked_against_the_method_or_probe(argv, message, monkeypatch, capsys):
    # one report, exit 2, rather than an option echoed as if it shaped the
    # run, or a run without an option it needs
    code, out = pipe(monkeypatch, capsys, ["generate", "squared-cycle", "14"], argv)
    report = json.loads(out)
    assert (code, report["certificate"]) == (2, None)
    assert report["error"]["type"] == "PreconditionError"
    assert report["error"]["message"] == message


def test_oracle_budget_exhausted_exit(monkeypatch, capsys):
    code, out = pipe(
        monkeypatch,
        capsys,
        ["generate", "squared-cycle", "30"],
        ["oracle", "independent-cutset"],
    )
    assert code == 3
    assert json.loads(out)["error"]["type"] == "BudgetExhausted"
    code, out = pipe(
        monkeypatch,
        capsys,
        ["generate", "squared-cycle", "14"],
        ["oracle", "min-cutsets", "--max-subset", "3"],
    )
    assert code == 3
    assert "max_subset_size=3" in json.loads(out)["error"]["message"]


def test_oracle_connectivity_reads_the_time_hint(monkeypatch, capsys):
    code, out = pipe(
        monkeypatch,
        capsys,
        ["generate", "squared-cycle", "400"],
        ["oracle", "connectivity", "--time-hint", "1e-9"],
    )
    assert code == 3
    error = json.loads(out)["error"]
    assert error["type"] == "BudgetExhausted"
    # the clock is read after every pair, and the first pair outlasts 1e-9 s
    assert error["message"] == "oracle time budget of 1e-09s exceeded after 1 of 398 flow pairs"
    # and no other cap: the flows are not exponential
    code, out = pipe(
        monkeypatch,
        capsys,
        ["generate", "squared-cycle", "400"],
        ["oracle", "connectivity", "--max-n", "5", "--max-subset", "1"],
    )
    assert code == 0
    assert json.loads(out)["stats"]["connectivity"] == 4


def test_oracle_long_cycle_search_ends_in_one_report(monkeypatch, capsys):
    # with an average bound the degree walk goes by size, so on a 1200-cycle
    # it reaches (0, 2) at size 2, well before its time hint
    cycle = "".join(f"{i} {(i + 1) % 1200}\n" for i in range(1200))
    t0 = time.monotonic()
    code, out = run_cli(
        [
            "oracle",
            "constrained-cutset",
            "--max-delta",
            "2",
            "--avg",
            "1/2",
            "--max-n",
            "2000",
            "--time-hint",
            "0.2",
        ],
        cycle,
        monkeypatch,
        capsys,
    )
    assert time.monotonic() - t0 < 1.0
    assert code == 0
    report = json.loads(out)
    assert report["certificate"]["cutset"] == [0, 2]


def test_oracle_time_hinted_size_walk_ends_in_one_budget_report(monkeypatch, capsys):
    # a cutset of C_1200^2 holds two disjoint edges, so one with internal
    # degree at most 1 and average below 1/2 has at least 9 vertices: the
    # walk would first cover every degree-capped set of sizes 1 to 8, the
    # 9.5e19 independent 8-sets among them, and stops at its time hint
    code, graph_text = run_cli(["generate", "squared-cycle", "1200"], capsys=capsys)
    assert code == 0
    t0 = time.monotonic()
    code, out = run_cli(
        [
            "oracle",
            "constrained-cutset",
            "--max-delta",
            "1",
            "--avg",
            "1/2",
            "--max-n",
            "2000",
            "--time-hint",
            "0.2",
        ],
        graph_text,
        monkeypatch,
        capsys,
    )
    assert time.monotonic() - t0 < 1.0
    assert code == 3
    report = json.loads(out)
    assert report["error"]["type"] == "BudgetExhausted"
    assert report["input_digest"] is not None


def test_oracle_rejects_negative_budget(monkeypatch, capsys):
    code, out = pipe(
        monkeypatch,
        capsys,
        ["generate", "squared-cycle", "14"],
        ["oracle", "independent-cutset", "--max-n", "-1"],
    )
    assert code == 2
    assert json.loads(out)["error"]["type"] == "PreconditionError"


@pytest.mark.parametrize(
    "graph_text",
    ["n 2\n", "n 3\n0 1\n1 2\n", "n 30\n"],
    ids=["disconnected", "path3", "above-max-n"],
)
def test_oracle_rejects_a_negative_max_delta(graph_text, monkeypatch, capsys):
    # no set meets a negative cap: a refusal, not an answer that fails its
    # own re-check (exit 1) or a "found": false
    code, out = run_cli(
        ["oracle", "constrained-cutset", "--max-delta", "-1"], graph_text, monkeypatch, capsys
    )
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "PreconditionError"
    assert error["message"] == "find_constrained_cutset: max_delta must be non-negative, got -1"


def test_oracle_squared_cycle_recognizer(monkeypatch, capsys):
    code, out = pipe(
        monkeypatch,
        capsys,
        ["generate", "squared-cycle", "11"],
        ["oracle", "squared-cycle"],
    )
    assert code == 0
    assert json.loads(out)["certificate"]["kind"] == "squared-cycle-iso"


@pytest.mark.parametrize(
    "run_argv",
    [
        ["find-cutset", "--method", "thm1", "--delta", "4", "--verify"],
        ["oracle", "krr", "--r", "2", "--verify"],
    ],
)
def test_failed_recheck_reports_in_documented_order(monkeypatch, capsys, run_argv):
    # find-cutset reports the method's own check, so a failed check ends the
    # method as a broken invariant; oracle probes are re-checked by the CLI
    own_check = run_argv[0] == "find-cutset"
    where = "algorithms" if own_check else "cli"
    monkeypatch.setattr(f"sparsecut.{where}.verify_certificate", lambda g, cert: False)
    code, out = pipe(monkeypatch, capsys, ["generate", "squared-cycle", "14"], run_argv)
    assert code == 1
    report = json.loads(out)
    _, schema = run_cli(["report", "--json"], capsys=capsys)
    assert list(report) == [f["name"] for f in json.loads(schema)["fields"]]
    if own_check:
        assert report["verified"] is None
        assert report["error"]["type"] == "InternalInvariantError"
    else:
        assert report["verified"] is False
        assert report["error"]["type"] == "VerificationFailed"


# -------------------------------------------------------------------- verify


def test_verify_round_trips_serialized_certificate(tmp_path, monkeypatch, capsys):
    code, graph_text = run_cli(["generate", "squared-cycle", "14"], capsys=capsys)
    code, out = run_cli(
        ["find-cutset", "--method", "thm1", "--delta", "4"],
        graph_text,
        monkeypatch,
        capsys,
    )
    cert = json.loads(out)["certificate"]
    graph_file = tmp_path / "g.edges"
    graph_file.write_text(graph_text, encoding="ascii")
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(cert), encoding="ascii")
    code, out = run_cli(
        ["verify", "-i", str(graph_file), "--certificate", str(cert_file)],
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert json.loads(out)["verified"] is True

    tampered = dict(cert)
    tampered["cutset"] = [0, 1, 2]
    cert_file.write_text(json.dumps(tampered), encoding="ascii")
    code, out = run_cli(
        ["verify", "-i", str(graph_file), "--certificate", str(cert_file)],
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 1
    report = json.loads(out)
    assert report["verified"] is False
    assert report["error"]["type"] == "VerificationFailed"


_OPS = {
    "find-cutset": ["find-cutset", "--method", "thm1", "--delta", "4"],
    "oracle": ["oracle", "connectivity"],
    "verify": ["verify", "--certificate", "CERT"],
}


@pytest.mark.parametrize("case", ["missing-input", "non-ascii-input", "output-dir-missing"])
@pytest.mark.parametrize("op", sorted(_OPS))
def test_unreadable_files_end_in_one_json_report(tmp_path, capsys, op, case):
    from sparsecut.generators import squared_cycle
    from sparsecut.io import emit_edge_list

    graph_file = tmp_path / "g.edges"
    graph_file.write_text(emit_edge_list(squared_cycle(14)), encoding="ascii")
    cert_file = tmp_path / "cert.json"
    cert_file.write_text('{"kind": "squared-cycle-iso", "order": [0, 1]}', encoding="ascii")
    argv = [str(cert_file) if a == "CERT" else a for a in _OPS[op]]
    if case == "missing-input":
        argv += ["-i", str(tmp_path / "nope.edges")]
    elif case == "non-ascii-input":
        graph_file.write_bytes(graph_file.read_bytes() + "# \u00e9\n".encode("utf-8"))
        argv += ["-i", str(graph_file)]
    else:
        argv += ["-i", str(graph_file), "-o", str(tmp_path / "no-dir" / "out.json")]
    code, out = run_cli(argv, capsys=capsys)
    assert code == 2
    report = json.loads(out)
    assert report["command"]["op"] == op
    assert report["error"]["code"] == 2 and report["error"]["type"] == "GraphError"


@pytest.mark.parametrize(
    "data,argv",
    [
        (b"\xff\xfe 1\n", ["find-cutset", "--method", "thm1", "--delta", "4"]),
        # an Arabic-Indic three, which int() would read as vertex 3
        ("\u0663 1\n0 1\n".encode("utf-8"), ["oracle", "connectivity"]),
    ],
    ids=["not-utf8", "non-ascii-digit"],
)
def test_stdin_is_held_to_the_file_ascii_rule(tmp_path, monkeypatch, capsys, data, argv):
    monkeypatch.setattr(
        sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict")
    )
    code, out = run_cli(argv, capsys=capsys)
    assert code == 2
    report = json.loads(out)
    assert report["error"]["type"] == "GraphError"
    assert report["error"]["message"].startswith("cannot read stdin: ")
    graph_file = tmp_path / "g.edges"
    graph_file.write_bytes(data)
    code, out = run_cli([*argv, "-i", str(graph_file)], capsys=capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "GraphError"


def test_find_cutset_verifies_its_certificate_once(monkeypatch, capsys):
    import sparsecut.algorithms
    import sparsecut.cli

    calls = []
    for module in (sparsecut.algorithms, sparsecut.cli):
        def counted(g, cert, check=module.verify_certificate):
            calls.append(cert)
            return check(g, cert)

        monkeypatch.setattr(module, "verify_certificate", counted)
    code, out = pipe(
        monkeypatch,
        capsys,
        ["generate", "squared-cycle", "14"],
        ["find-cutset", "--method", "thm1", "--delta", "4", "--verify"],
    )
    assert code == 0
    assert json.loads(out)["verified"] is True
    assert len(calls) == 1


@pytest.mark.parametrize(
    "graph_text,cert_text",
    [
        ("n 3\n0 1\n0 1\n", '{"kind": "is-icosahedron"}'),
        (None, '{"kind": '),
        (None, "[" * 100000),
        (None, '{"kind": "good-cutset", "cutset": ["x"]}'),
        (None, '["not", "an", "object"]'),
    ],
    ids=["graph", "truncated", "deep", "field-type", "list"],
)
def test_verify_unparsable_input_ends_in_one_json_report(tmp_path, capsys, graph_text, cert_text):
    from sparsecut.generators import squared_cycle
    from sparsecut.io import emit_edge_list

    graph_file = tmp_path / "g.edges"
    graph_file.write_text(graph_text or emit_edge_list(squared_cycle(14)), encoding="ascii")
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(cert_text, encoding="ascii")
    code, out = run_cli(
        ["verify", "-i", str(graph_file), "--certificate", str(cert_file)], capsys=capsys
    )
    assert code == 2
    report = json.loads(out)
    assert report["certificate"] is None
    assert report["error"]["type"] == "GraphError"


def test_verify_reports_an_int_past_the_digit_limit(tmp_path):
    # json.loads refuses an int literal longer than the interpreter's digit
    # limit with a ValueError that is not a JSONDecodeError; the case needs
    # that limit to be below 5000 digits, as it is by default
    limit = sys.get_int_max_str_digits()
    assert 0 < limit < 5000, f"int string limit is {limit}, so 5000 digits parse"
    graph_file = tmp_path / "p3.edges"
    graph_file.write_text("n 3\n0 1\n1 2\n", encoding="ascii")
    cert_file = tmp_path / "cert.json"
    cert_text = '{"kind": "good-cutset", "cutset": [' + "9" * 5000 + "]}"
    cert_file.write_text(cert_text, encoding="ascii")
    code, report = _one_report(
        ["verify", "-i", str(graph_file), "--certificate", str(cert_file)]
    )
    assert code == 2
    assert report["error"]["type"] == "GraphError"
    # the file is valid JSON, so the report says so rather than "not JSON"
    assert report["error"]["message"].startswith(
        f"certificate {cert_file} holds a value this interpreter cannot read: "
    )
    assert report["input_digest"] is not None


@pytest.mark.parametrize(
    "cert_text", ['{"kind": "good-cutset", "cutset": [1', "[" * 100000], ids=["cut-short", "nested"]
)
def test_verify_reports_a_certificate_that_is_not_json(tmp_path, cert_text):
    # a JSONDecodeError and a RecursionError from json.loads both mean the
    # file is not JSON this reader can take
    graph_file = tmp_path / "p3.edges"
    graph_file.write_text("n 3\n0 1\n1 2\n", encoding="ascii")
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(cert_text, encoding="ascii")
    code, report = _one_report(
        ["verify", "-i", str(graph_file), "--certificate", str(cert_file)]
    )
    assert code == 2
    assert report["error"]["type"] == "GraphError"
    assert report["error"]["message"].startswith(f"certificate {cert_file} is not JSON: ")


def test_verify_refuted_claim_on_missing_vertices(tmp_path, capsys):
    graph_file = tmp_path / "g.edges"
    graph_file.write_text("n 3\n0 1\n1 2\n", encoding="ascii")
    cert_file = tmp_path / "cert.json"
    cert_file.write_text('{"kind": "good-cutset", "cutset": [1, 99]}', encoding="ascii")
    code, out = run_cli(
        ["verify", "-i", str(graph_file), "--certificate", str(cert_file)], capsys=capsys
    )
    assert code == 1
    report = json.loads(out)
    assert report["verified"] is False and report["stats"] is None
    assert report["error"]["type"] == "VerificationFailed"


# -------------------------------------------------------------------- corpus


def test_corpus_runs_sorted_and_aggregated(tmp_path, monkeypatch, capsys):
    from sparsecut.generators import squared_cycle
    from sparsecut.io import emit_edge_list

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name, n in (("b.edges", 16), ("a.edges", 14), ("c.edges", 18)):
        (corpus / name).write_text(emit_edge_list(squared_cycle(n)), encoding="ascii")
    code, out = run_cli(
        ["find-cutset", "--method", "thm1", "--delta", "4", "--corpus", str(corpus)],
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    agg = json.loads(out)
    assert [row["file"] for row in agg["results"]] == ["a.edges", "b.edges", "c.edges"]
    assert agg["count"] == 3
    for row in agg["results"]:
        assert row["report"]["certificate"]["kind"] == "good-cutset"


def test_corpus_propagates_worst_exit_code(tmp_path, monkeypatch, capsys):
    from sparsecut.generators import icosahedron, squared_cycle
    from sparsecut.io import emit_edge_list

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "good.edges").write_text(
        emit_edge_list(squared_cycle(14)), encoding="ascii"
    )
    (corpus / "small.edges").write_text(
        emit_edge_list(icosahedron()), encoding="ascii"
    )
    code, out = run_cli(
        ["find-cutset", "--method", "thm1", "--delta", "5", "--corpus", str(corpus)],
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 2
    agg = json.loads(out)
    by_name = {row["file"]: row["report"] for row in agg["results"]}
    assert by_name["good.edges"]["certificate"]["kind"] == "good-cutset"
    assert "error" not in by_name["good.edges"]
    assert by_name["small.edges"]["error"]["code"] == 2


@pytest.mark.parametrize("case", ["output-dir-missing", "not-a-directory", "empty-directory"])
def test_corpus_failures_end_in_one_json_report(tmp_path, capsys, case):
    from sparsecut.generators import squared_cycle
    from sparsecut.io import emit_edge_list

    corpus = tmp_path / "corpus"
    argv = ["find-cutset", "--method", "thm1", "--delta", "4", "--corpus", str(corpus)]
    if case == "output-dir-missing":
        corpus.mkdir()
        (corpus / "a.edges").write_text(emit_edge_list(squared_cycle(14)), encoding="ascii")
        argv += ["-o", str(tmp_path / "no-dir" / "out.json")]
    elif case == "not-a-directory":
        corpus.write_text(emit_edge_list(squared_cycle(14)), encoding="ascii")
    else:
        corpus.mkdir()
    code, out = run_cli(argv, capsys=capsys)
    assert code == 2
    report = json.loads(out)
    assert report["corpus"] == str(corpus)
    assert report["error"]["code"] == 2 and report["error"]["type"] == "GraphError"


# ------------------------------------------------------------- determinism


def test_zeroed_timing_runs_are_byte_identical(monkeypatch, capsys):
    monkeypatch.setenv("SPARSECUT_ZERO_TIMING", "1")
    outs = []
    for _ in range(2):
        code, out = pipe(
            monkeypatch,
            capsys,
            ["generate", "squared-cycle", "14"],
            ["find-cutset", "--method", "thm1", "--delta", "4", "--verify"],
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["timing_ms"] == 0


_ALONE = "import sys; from sparsecut.cli import main; sys.exit(main(sys.argv[1:]))"


def test_one_process_prints_what_each_call_prints_alone(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SPARSECUT_ZERO_TIMING", "1")
    graph = tmp_path / "sq30.edges"
    graph.write_text(emit_edge_list(squared_cycle(30)), encoding="ascii")
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"kind": "squared-cycle-iso", "order": list(range(30))}))
    calls = [
        ["generate", "squared-cycle", "30"],
        ["verify", "-i", str(graph), "--certificate", str(cert)],
        # verify's verify=True must not carry over: n = 30 skips the re-check
        ["find-cutset", "--method", "thm1", "--delta", "4", "-i", str(graph)],
        ["find-cutset", "--method", "no-such-method", "-i", str(graph)],
        ["oracle", "connectivity", "-i", str(graph)],
        ["report"],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(sparsecut.__file__).parents[1])}
    alone = []
    for argv in calls:
        done = subprocess.run(
            [sys.executable, "-c", _ALONE, *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        alone.append((done.returncode, done.stdout))
    assert [code for code, _ in alone] == [0, 0, 0, 2, 0, 0]
    assert json.loads(alone[2][1])["verified"] is None

    together = [run_cli(calls[0], capsys=capsys)]
    # the parser is built once per process, so later calls never ask again
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    together += [run_cli(argv, capsys=capsys) for argv in calls[1:]]
    assert together == alone

    # dispatch reads the module at call time: a rebound function is the one that runs
    rebound = (("_cmd_generate", calls[0]), ("_cmd_batch", calls[1]), ("_cmd_report", calls[5]))
    for name, argv in rebound:
        monkeypatch.setattr(cli, name, lambda args, name=name: print(name) or 7)
        assert run_cli(argv, capsys=capsys) == (7, name + "\n")


def test_report_schema_lists_fields(capsys):
    code, out = run_cli(["report", "--json"], capsys=capsys)
    assert code == 0
    schema = json.loads(out)
    names = [f["name"] for f in schema["fields"]]
    assert names[:3] == ["schema_version", "input_digest", "command"]
    assert "timing_ms" in names
    code, out = run_cli(["report"], capsys=capsys)
    assert code == 0
    assert "schema" in out


# ---------------------------------------------------------------------- fuzz

_FUZZ_RUNS = [
    ["find-cutset", "--method", "thm1", "--delta", "4"],
    ["find-cutset", "--method", "thm2"],
    ["find-cutset", "--method", "thm3"],
    ["find-cutset", "--method", "thm4"],
    ["find-cutset", "--method", "thm5", "--delta", "5", "--r", "2"],
    ["find-cutset", "--method", "prop2"],
    ["find-cutset", "--method", "degenerate", "--u", "1"],
    ["oracle", "independent-cutset"],
    ["oracle", "constrained-cutset", "--max-delta", "1"],
    ["oracle", "connectivity"],
    ["oracle", "krr", "--r", "2"],
    ["oracle", "min-cutsets"],
    ["oracle", "squared-cycle"],
]

_TOKENS = st.one_of(
    st.integers(-2, 12).map(str),
    st.sampled_from(["", "n", "x", "1.5", "0x1", "--", "n 3", "258048", "\t", "# c"]),
)


def _one_report(argv: list[str]) -> tuple[int, dict]:
    """Run main() once; its exit code and the one JSON report it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    report = json.loads(out.getvalue())
    assert err.getvalue() == ""
    assert code in (0, 1, 2, 3)
    return code, report


def _error_code(report: dict) -> int:
    return 0 if report.get("error") is None else report["error"]["code"]


@st.composite
def _small_graph(draw) -> Graph:
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


@st.composite
def _mangled_graph_text(draw) -> bytes:
    """Random bytes, an edge list with up to three lines dropped, doubled or
    retyped, or a graph6 line cut short or padded."""
    kind = draw(st.sampled_from(["bytes", "edge-list", "graph6"]))
    if kind == "bytes":
        return draw(st.binary(max_size=48))
    g = draw(_small_graph())
    if kind == "graph6":
        text = emit_graph6(g)
        cut = draw(st.integers(0, len(text)))
        pad = draw(st.text(st.characters(min_codepoint=32, max_codepoint=126) | st.just("\n"), max_size=4))
        return (text[:cut] + pad).encode("ascii")
    lines = emit_edge_list(g).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(["drop", "double", "retype"]))
        if how == "drop":
            del lines[at]
        elif how == "double":
            lines.insert(at, lines[at])
        else:
            tokens = lines[at].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_TOKENS)
            lines[at] = " ".join(tokens)
        if not lines:
            break
    return "\n".join(lines).encode("ascii")


@given(data=_mangled_graph_text(), run=st.sampled_from(_FUZZ_RUNS), corpus=st.booleans())
@settings(max_examples=250, deadline=None)
def test_fuzzed_graph_inputs_end_in_one_report(data, run, corpus):
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "input.txt"
        target.write_bytes(data)
        source = ["--corpus", tmp] if corpus else ["-i", str(target)]
        code, report = _one_report([*run, *source])
    if corpus:
        # one file in the corpus: the aggregate exits with its report's code
        (row,) = report["results"]
        assert code == _error_code(row["report"])
    else:
        assert code == _error_code(report)


_CERTIFICATES = [
    {"kind": "good-cutset", "cutset": [2, 3, 12, 13], "size_bound": 4,
     "degree_bound": 1, "avg_bound_strict": [3, 2], "require_minimal": True},
    {"kind": "independent-cutset", "cutset": [0, 5], "size_bound": 3},
    {"kind": "krr-witness", "r": 2, "side_a": [0, 1], "side_b": [2, 3]},
    {"kind": "squared-cycle-iso", "order": list(range(14))},
    {"kind": "is-icosahedron"},
]

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)


@st.composite
def _mangled_certificate_text(draw) -> str:
    """A certificate with a field dropped or retyped, cut short, or not JSON."""
    cert = dict(draw(st.sampled_from(_CERTIFICATES)))
    how = draw(st.sampled_from(["drop", "retype", "truncate", "text"]))
    if how == "text":
        return draw(st.text(max_size=24))
    key = draw(st.sampled_from(sorted(cert)))
    if how == "drop":
        del cert[key]
    elif how == "retype":
        cert[key] = draw(_JSON)
    text = json.dumps(cert)
    return text[: draw(st.integers(0, len(text)))] if how == "truncate" else text


@given(text=_mangled_certificate_text())
@settings(max_examples=200, deadline=None)
def test_fuzzed_certificates_end_in_one_report(text):
    with tempfile.TemporaryDirectory() as tmp:
        graph = Path(tmp) / "sq14.edges"
        graph.write_text(emit_edge_list(squared_cycle(14)), encoding="ascii")
        cert = Path(tmp) / "cert.json"
        cert.write_text(text, encoding="utf-8")
        code, report = _one_report(["verify", "-i", str(graph), "--certificate", str(cert)])
    assert code == _error_code(report)
