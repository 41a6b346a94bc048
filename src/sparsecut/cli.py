"""Command line front end for batch cutset runs.

Every computing subcommand prints one JSON report with a fixed field
order, so two runs over the same inputs and seeds are byte-identical
(timing can be zeroed through SPARSECUT_ZERO_TIMING for comparisons).
Exit codes separate the reasons a run can stop: 0 success, 2 violated
precondition or unusable input, 3 exhausted search budget, 1 broken
internal invariant.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

from .algorithms import (
    degenerate_sparse_cutset,
    prop2_cutset,
    theorem1_cutset,
    theorem2_cutset,
    theorem3_dichotomy,
    theorem4_independent_cutset,
    theorem5_certify,
)
from .certificates import (
    Certificate,
    GoodCutset,
    IndependentCutset,
    KrrWitness,
    SquaredCycleIso,
    certificate_from_dict,
    certificate_to_dict,
)
from .errors import (
    BudgetExhausted,
    GraphError,
    InternalInvariantError,
    PreconditionError,
)
from .generators import (
    CliqueChainParams,
    clique_chain,
    figure2_pattern,
    icosahedron,
    named_small,
    random_regular,
    squared_cycle,
    squared_path,
)
from .graph import Graph, induced_stats
from .io import (
    MAX_ORDER,
    emit_edge_list,
    emit_graph6,
    parse_with_digest,
    to_dot,
)
from .oracles import (
    OracleBudget,
    enumerate_min_cutsets,
    find_constrained_cutset,
    find_independent_cutset,
    find_krr,
    recognize_squared_cycle,
    verify_certificate,
    vertex_connectivity,
)

SCHEMA_VERSION = 1

_REPORT_FIELDS = (
    ("schema_version", "int, currently 1"),
    ("input_digest", "sha256 of the canonical edge list, null for generate"),
    ("command", "object: op plus the parameters that shaped the run"),
    ("certificate", "tagged certificate object, or null when none applies"),
    ("verified", "bool when verification ran, null when skipped"),
    ("stats", "cutset statistics or oracle payload, null when none"),
    ("error", "only on failures: code, type, message"),
    ("timing_ms", "integer; 0 under SPARSECUT_ZERO_TIMING"),
)


def _timing_ms(t0: float) -> int:
    zero = os.environ.get("SPARSECUT_ZERO_TIMING", "")
    if zero and zero.strip().lower() not in ("0", "false", "no", "off"):
        return 0
    return int((time.monotonic() - t0) * 1000)


def _budget(args) -> OracleBudget:
    base = OracleBudget()
    return OracleBudget(
        max_n=base.max_n if args.max_n is None else args.max_n,
        max_subset_size=base.max_subset_size if args.max_subset is None else args.max_subset,
        time_hint_s=args.time_hint,
    )


def _read_text(path: str | None) -> str:
    """The input as ASCII text, from the file at path or from stdin."""
    from_stdin = path is None or path == "-"
    try:
        if not from_stdin:
            return Path(path).read_text(encoding="ascii")
        text = sys.stdin.read()
        text.encode("ascii")  # stdin arrives decoded with the locale's codec
        return text
    except (OSError, UnicodeError) as exc:
        raise GraphError(f"cannot read {'stdin' if from_stdin else path}: {exc}") from None


def _write_out(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="ascii")
    except OSError as exc:
        raise GraphError(f"cannot write {path}: {exc}") from None


def _emit(report: dict, path: str | None = None) -> None:
    _write_out(json.dumps(report, indent=2) + "\n", path)


def _stats_for(g: Graph, cert: Certificate | None) -> dict | None:
    members = getattr(cert, "cutset", None)
    if members is None:
        return None
    rep = induced_stats(g, members)
    avg = rep.avg_degree_in_s
    return {
        "cutset": list(rep.cutset),
        "max_degree_in_s": rep.max_degree_in_s,
        "induced_edge_count": rep.induced_edge_count,
        "avg_degree_in_s": [avg.numerator, avg.denominator],
        "component_count": rep.component_count,
        # schema 1 prints null above six vertices, as the recorded answers pin
        "minimal": rep.minimal if len(rep.cutset) <= 6 else None,
    }


def _verification_wanted(args, g: Graph) -> bool:
    if args.verify is not None:
        return args.verify
    return g.n <= 20


def _report_skeleton(op: str, digest: str | None, params: dict) -> dict:
    command = {"op": op}
    command.update(params)
    return {
        "schema_version": SCHEMA_VERSION,
        "input_digest": digest,
        "command": command,
    }


_ERROR_CODES = (
    (InternalInvariantError, 1),
    (BudgetExhausted, 3),
    (PreconditionError, 2),
    (GraphError, 2),
)


def _code_for(exc: Exception) -> int | None:
    for cls, code in _ERROR_CODES:
        if isinstance(exc, cls):
            return code
    return None


# ----------------------------------------------------------------- generate


def _cmd_generate(args) -> int:
    name = args.family
    params = args.params
    try:
        g = _build_family(name, params, args.seed)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, (GraphError, PreconditionError)):
            raise
        raise GraphError(f"generate {name}: bad parameters {params}: {exc}") from None
    text = emit_graph6(g) + "\n" if args.format == "graph6" else emit_edge_list(g)
    _write_out(text, args.output)
    return 0


# The most edges generate builds. Building and writing a graph peaks at
# about 300 bytes per edge (110 MB for the 359,988 edges of clique-chain
# 9 20000), so about 0.6 GB at this limit.
MAX_GENERATED_EDGES = 2_000_000


def _clique_chain_size(delta: int, length: int, cyclic: int = 0, seed: int = 0) -> tuple[int, int]:
    p = CliqueChainParams(delta, length)
    k, d = p.clique_order, p.connector_degree
    return length * k, length * (k * (k - 1) // 2) + (length - 1 + bool(cyclic)) * k * d


def _clique_chain(params: list[int], seed: int | None) -> Graph:
    # --seed S stands for a fourth parameter S, and may not contradict one
    if seed is not None and len(params) > 3 and params[3] != seed:
        raise GraphError(
            f"generate clique-chain: positional seed {params[3]} and --seed {seed} differ"
        )
    if seed is None or len(params) > 3:
        return clique_chain(CliqueChainParams(*params))
    return clique_chain(CliqueChainParams(*params, seed=seed))


# The tables below call through this module's globals, so a function
# rebound here (by a test or a tracer) is the one that runs.
# family -> (its order and edge count, from the parameters alone; builder)
# A builder's seed is None when --seed is not given, and only the families in
# _SEEDED take one.
_FAMILIES = {
    "icosahedron": (lambda: (12, 30), lambda params, seed: icosahedron(*params)),
    "squared-cycle": (lambda n: (n, 2 * n), lambda params, seed: squared_cycle(*params)),
    "squared-path": (lambda n: (n, 2 * n - 3), lambda params, seed: squared_path(*params)),
    "figure2": (
        lambda blocks: (4 * blocks, 10 * blocks),
        lambda params, seed: figure2_pattern(*params),
    ),
    "clique-chain": (_clique_chain_size, _clique_chain),
    "random-regular": (
        lambda n, d: (n, n * d // 2),
        lambda params, seed: random_regular(*params, seed=seed or 0),
    ),
    "k4": (lambda: (4, 6), lambda params, seed: named_small("K4", *params)),
    "triangular-prism": (
        lambda: (6, 9),
        lambda params, seed: named_small("TriangularPrism", *params),
    ),
    "k3boxk3": (lambda: (9, 18), lambda params, seed: named_small("K3BoxK3", *params)),
    "linegraphpetersen": (
        lambda: (15, 30),
        lambda params, seed: named_small("LineGraphPetersen", *params),
    ),
}


_SEEDED = ("clique-chain", "random-regular")


def _build_family(name: str, params: list[int], seed: int | None) -> Graph:
    if name not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise GraphError(f"unknown family {name!r}; known: {known}")
    if seed is not None and name not in _SEEDED:
        raise GraphError(
            f"generate {name}: takes no --seed; only {' and '.join(_SEEDED)} do"
        )
    size, build = _FAMILIES[name]
    try:
        n, m = size(*params)
    except TypeError:
        n = m = 0  # a wrong parameter count, which the builder reports
    if n > MAX_ORDER:
        raise GraphError(f"generate {name}: order {n} above the limit {MAX_ORDER}")
    if m > MAX_GENERATED_EDGES:
        raise GraphError(
            f"generate {name}: {m} edges above the limit {MAX_GENERATED_EDGES}"
        )
    return build(params, seed)


# --------------------------------------------------------------- find-cutset


def _check_options(what: str, args, takes: tuple[str, ...], needs: tuple[str, ...]) -> None:
    """Refuse each of --delta, --r, --max-delta and --avg that the method or
    probe does not take, rather than echo it into the report as if it had
    shaped the run; then require the options it needs."""
    foreign = [n for n in ("delta", "r", "max_delta", "avg")
               if n not in takes and getattr(args, n, None) is not None]
    if foreign:
        flags = " or ".join("--" + n.replace("_", "-") for n in foreign)
        raise PreconditionError(f"{what} takes no {flags}")
    if any(getattr(args, n) is None for n in needs):
        raise PreconditionError(f"{what} requires " + " and ".join(f"--{n}" for n in needs))


# method -> (options it requires, the only ones it takes; call)
_METHODS = {
    "thm1": (("delta",), lambda g, args: theorem1_cutset(g, args.delta)),
    "thm2": ((), lambda g, args: theorem2_cutset(g)),
    "thm3": ((), lambda g, args: theorem3_dichotomy(g)),
    "thm4": ((), lambda g, args: theorem4_independent_cutset(g)),
    "thm5": (("delta", "r"), lambda g, args: theorem5_certify(g, args.delta, args.r)),
    "prop2": ((), lambda g, args: prop2_cutset(g)),
    "degenerate": ((), lambda g, args: degenerate_sparse_cutset(g, args.u)),
}


def _run_method(g: Graph, args) -> Certificate:
    needs, run = _METHODS[args.method]
    _check_options(f"find-cutset --method {args.method}", args, needs, needs)
    return run(g, args)


# -------------------------------------------------------------------- oracle

# Each probe returns a certificate, or a stats payload when none applies.


def _probe_independent(g: Graph, args, budget: OracleBudget) -> Certificate | dict:
    hit = find_independent_cutset(g, budget)
    return {"found": False} if hit is None else IndependentCutset(cutset=hit)


# --avg is P or P/Q, each a run of ASCII digits with an optional leading
# '-', as vertex ids in an edge list are: int() alone would also take '+',
# '_', spaces and the digits of other scripts
_AVG = re.compile(r"(-?[0-9]+)(?:/(-?[0-9]+))?")


def _probe_constrained(g: Graph, args, budget: OracleBudget) -> Certificate | dict:
    if args.max_delta is None and args.avg is None:
        raise PreconditionError("oracle constrained-cutset needs --max-delta or --avg")
    avg = None
    if args.avg is not None:
        plain = _AVG.fullmatch(args.avg)
        try:
            avg = Fraction(int(plain[1]), int(plain[2] or "1")) if plain else None
        except (ValueError, ZeroDivisionError):  # past int()'s digit limit, or Q = 0
            pass
        if avg is None:
            raise GraphError(f"--avg expects P/Q, got {args.avg!r}")
    hit = find_constrained_cutset(g, max_delta=args.max_delta, max_avg=avg, budget=budget)
    if hit is None:
        return {"found": False}
    return GoodCutset(
        cutset=hit,
        degree_bound=args.max_delta,
        avg_bound_strict=None if avg is None else (avg.numerator, avg.denominator),
    )


def _probe_krr(g: Graph, args, budget: OracleBudget) -> Certificate | dict:
    hit = find_krr(g, args.r, budget)
    if hit is None:
        return {"found": False}
    return KrrWitness(args.r, *hit)


def _probe_min_cutsets(g: Graph, args, budget: OracleBudget) -> dict:
    cuts = enumerate_min_cutsets(g, budget)
    return {"count": len(cuts), "cutsets": [list(c) for c in cuts]}


def _probe_squared_cycle(g: Graph, args, budget: OracleBudget) -> Certificate | dict:
    order = recognize_squared_cycle(g)
    return {"found": False} if order is None else SquaredCycleIso(order=order)


# probe -> (which of --r, --max-delta and --avg it takes, which it requires,
# call); constrained-cutset requires one of its two, which it checks itself
_PROBES = {
    "independent-cutset": ((), (), _probe_independent),
    "constrained-cutset": (("max_delta", "avg"), (), _probe_constrained),
    "connectivity": (
        (), (), lambda g, args, budget: {"connectivity": vertex_connectivity(g, budget)}
    ),
    "krr": (("r",), ("r",), _probe_krr),
    "min-cutsets": ((), (), _probe_min_cutsets),
    "squared-cycle": ((), (), _probe_squared_cycle),
}


def _run_oracle(g: Graph, args) -> Certificate | dict:
    takes, needs, probe = _PROBES[args.probe]
    _check_options(f"oracle {args.probe}", args, takes, needs)
    return probe(g, args, _budget(args))


# -------------------------------------------------------------------- verify


def _read_certificate(g: Graph, args) -> Certificate:
    text = _read_text(args.certificate_file)
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise GraphError(f"certificate {args.certificate_file} is not JSON: {exc}") from None
    # valid JSON with an int literal past the interpreter's digit limit
    except ValueError as exc:
        raise GraphError(
            f"certificate {args.certificate_file} holds a value this interpreter cannot read: {exc}"
        ) from None
    return certificate_from_dict(data)


# ----------------------------------------------- find-cutset, oracle, verify

# op -> (leading parameter, optional parameters, runner, re-check failure
# message); None means the runner's certificate is verified already, since
# every constructive method ends in its own verify_certificate call
_BATCH_OPS = {
    "find-cutset": (
        "method",
        ("delta", "r", "u"),
        _run_method,
        None,
    ),
    "oracle": (
        "probe",
        ("r", "max_delta", "avg", "max_n", "max_subset", "time_hint"),
        _run_oracle,
        "oracle result failed the certificate re-check",
    ),
    "verify": (
        "certificate_file",
        (),
        _read_certificate,
        "certificate failed the oracle check",
    ),
}


def _error_report(out: dict, t0: float, code: int, kind: str, message: str) -> tuple[dict, int]:
    """Finish a report as failed, keeping the documented field order."""
    for key in ("certificate", "verified", "stats"):
        out.setdefault(key, None)
    out["error"] = {"code": code, "type": kind, "message": message}
    out["timing_ms"] = _timing_ms(t0)
    return out, code


def _run_once(path: str | None, args) -> tuple[dict, int]:
    """Read one input, run the op on it, and build its report and exit code."""
    t0 = time.monotonic()
    lead, keys, run, mismatch = _BATCH_OPS[args.op]
    params = {lead: getattr(args, lead)}
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    out = _report_skeleton(args.op, None, params)
    try:
        g, out["input_digest"] = parse_with_digest(_read_text(path), args.format)
        result = run(g, args)
    except Exception as exc:
        code = _code_for(exc)
        if code is None:
            raise
        return _error_report(out, t0, code, type(exc).__name__, str(exc))
    cert = None if isinstance(result, dict) else result
    out["certificate"] = None if cert is None else certificate_to_dict(cert)
    if cert is not None and _verification_wanted(args, g):
        out["verified"] = mismatch is None or verify_certificate(g, cert)
    else:
        out["verified"] = None
    if out["verified"] is False:
        # no stats for a refuted claim: its vertex ids need not even exist
        return _error_report(out, t0, 1, "VerificationFailed", mismatch)
    out["stats"] = result if cert is None else _stats_for(g, cert)
    if getattr(args, "dot", None) is not None:
        try:
            _write_out(to_dot(g, getattr(cert, "cutset", ())), args.dot)
        except GraphError as exc:
            return _error_report(out, t0, 2, "GraphError", str(exc))
    out["timing_ms"] = _timing_ms(t0)
    return out, 0


def _cmd_batch(args) -> int:
    t0 = time.monotonic()
    if getattr(args, "corpus", None) is not None:
        out, code = _corpus_run(args)
        head_keys = ("schema_version", "corpus")
    else:
        out, code = _run_once(args.input, args)
        head_keys = ("schema_version", "input_digest", "command")
    try:
        _emit(out, args.output)
    except GraphError as exc:
        # the report cannot reach its file, so the failure is reported on stdout
        head = {key: out[key] for key in head_keys}
        out, code = _error_report(head, t0, 2, "GraphError", str(exc))
        _emit(out)
    return code


# -------------------------------------------------------------------- report


def _cmd_report(args) -> int:
    if args.json:
        schema = {
            "schema_version": SCHEMA_VERSION,
            "fields": [
                {"name": name, "doc": doc} for name, doc in _REPORT_FIELDS
            ],
            "exit_codes": {
                "0": "certificate produced (and verified when enabled)",
                "1": "internal invariant breach or failed verification",
                "2": "violated precondition or unusable input",
                "3": "search budget exhausted",
            },
        }
        _emit(schema, args.output)
        return 0
    lines = [f"run report schema, version {SCHEMA_VERSION}", ""]
    for name, doc in _REPORT_FIELDS:
        lines.append(f"  {name}: {doc}")
    lines += [
        "",
        "exit codes: 0 success, 2 precondition, 3 budget, 1 invariant breach",
    ]
    _write_out("\n".join(lines) + "\n", args.output)
    return 0


# -------------------------------------------------------------------- corpus


def _corpus_run(args) -> tuple[dict, int]:
    """Run every file of the corpus directory; the aggregate and worst exit code."""
    t0 = time.monotonic()
    root = Path(args.corpus)
    aggregate = {"schema_version": SCHEMA_VERSION, "corpus": str(root)}
    try:
        files = sorted(p for p in root.iterdir() if p.is_file())
    except OSError as exc:
        return _error_report(aggregate, t0, 2, "GraphError", f"cannot list --corpus {root}: {exc}")
    if not files:
        return _error_report(aggregate, t0, 2, "GraphError", f"--corpus {root} holds no files")

    # one file after another: the work is pure-Python computation under the GIL
    rows = [(path.name, *_run_once(str(path), args)) for path in files]
    aggregate["count"] = len(rows)
    aggregate["results"] = [{"file": name, "report": out} for name, out, _ in rows]
    codes = {code for _, _, code in rows}
    for severe in (1, 3, 2):
        if severe in codes:
            return aggregate, severe
    return aggregate, 0


# ---------------------------------------------------------------- arg wiring


def _add_io_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("-i", "--input", default=None, help="graph file, '-' or absent for stdin")
    p.add_argument("-o", "--output", default=None, help="write output here instead of stdout")
    p.add_argument(
        "--format",
        choices=("auto", "edge-list", "graph6"),
        default="auto",
        help="input format; auto sniffs graph6 lines",
    )


def _add_batch_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--verify",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="report the oracle check as verified, or null (default: on for n <= 20); "
        "find-cutset methods run that check either way",
    )
    p.add_argument("--corpus", default=None, help="process every file in this directory")


def _add_budget_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-n", type=int, default=None, help="oracle order cap")
    p.add_argument("--max-subset", type=int, default=None, help="oracle subset size cap")
    p.add_argument("--time-hint", type=float, default=None, help="soft seconds limit")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsecut",
        description="certified sparse cutsets: constructions, oracles, reports",
    )
    sub = parser.add_subparsers(dest="op", required=True)

    p = sub.add_parser("generate", help="emit a fixture graph")
    p.add_argument("family", help="icosahedron, squared-cycle, figure2, ...")
    p.add_argument("params", nargs="*", type=int, help="family parameters")
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="RNG seed of clique-chain and random-regular (default 0); other families refuse it",
    )
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--format", choices=("edge-list", "graph6"), default="edge-list")

    p = sub.add_parser("find-cutset", help="run a constructive method")
    p.add_argument(
        "--method",
        required=True,
        choices=tuple(_METHODS),
    )
    p.add_argument("--delta", type=int, default=None, help="degree bound for thm1/thm5")
    p.add_argument("--r", type=int, default=None, help="biclique order for thm5")
    p.add_argument("--u", type=int, default=0, help="center vertex for degenerate")
    p.add_argument("--dot", default=None, help="also write a DOT file with the cutset filled")
    _add_batch_options(p)
    _add_io_options(p)

    p = sub.add_parser("oracle", help="run a brute-force search or check")
    p.add_argument(
        "probe",
        choices=tuple(_PROBES),
    )
    p.add_argument("--r", type=int, default=None, help="biclique order for krr")
    p.add_argument("--max-delta", type=int, default=None, help="internal degree cap")
    p.add_argument("--avg", default=None, help="strict average bound as P/Q")
    _add_batch_options(p)
    _add_budget_options(p)
    _add_io_options(p)

    p = sub.add_parser("verify", help="re-check a serialized certificate")
    p.add_argument("--certificate", dest="certificate_file", required=True, help="certificate file")
    _add_io_options(p)
    p.set_defaults(verify=True)

    p = sub.add_parser("report", help="describe the JSON report schema")
    p.add_argument("--json", action="store_true", help="machine-readable schema")
    p.add_argument("-o", "--output", default=None)

    return parser


# op -> its command, called through this module's globals at call time (not
# captured when the parser is built), so a rebound function is the one that runs
_COMMANDS = {
    "generate": lambda args: _cmd_generate(args),
    "find-cutset": lambda args: _cmd_batch(args),
    "oracle": lambda args: _cmd_batch(args),
    "verify": lambda args: _cmd_batch(args),
    "report": lambda args: _cmd_report(args),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parse_args keeps no state between calls."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command line; may be called any number of times in one process."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.op](args)
    except (KeyboardInterrupt, BrokenPipeError):
        return 130
    except Exception as exc:
        code = _code_for(exc)
        if code is None:
            raise
        print(f"sparsecut: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
