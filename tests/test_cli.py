"""End-to-end command line behavior, run in process through main().

Covers the documented pipelines, the exit code taxonomy, corpus
aggregation and the zeroed-timing determinism contract.
"""

from __future__ import annotations

import io
import json
import sys
import time

import pytest

from sparsecut.cli import main


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


def test_oracle_long_cycle_search_ends_in_one_report(monkeypatch, capsys):
    # the constrained search goes about n levels deep on a cycle; it must
    # stop at the time hint with a budget report, not a RecursionError
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
