"""The three workloads: inputs made from a seed, and the operations run on them.

Each ``build_*`` function makes one workload's inputs from ``random.Random``
seeded with the workload name and the input slot, writes any files it
needs, and returns the operation list that one cycle of the closed loop
runs. sparsecut is reached only through its module attributes at call time
(``sc.oracles.find_krr``, never a name imported once), so the tracer's
wrappers are seen.

Every ``Op`` turns an outcome into a small JSON answer, whose digest is
compared with the recorded one, and checks that answer with ``check.py``,
which shares no code with sparsecut.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import check
from check import Plain

# An outcome is ("ok", value) or ("raised", exception).
Outcome = tuple


@dataclass
class Op:
    key: str
    call: Callable[[], object]
    answer: Callable[[Outcome], dict]
    verdict: Callable[[Outcome, dict], bool]
    # a constructive method produces this op's certificate; verifier calls
    # inside it count toward oracles.verify_per_answer
    answers: bool = False


@dataclass
class Workload:
    ops: list[Op]
    inputs: list[str] = field(default_factory=list)
    kept: int = 0
    tried: int = 0
    cli_bytes: int = 0

    def input_digest(self) -> str:
        return check.json_digest(self.inputs)


def raised_kind(exc: BaseException, sc) -> str:
    """The documented category of an exception, or its type for anything else."""
    errors = sc.errors
    if isinstance(exc, errors.NoCutsetFound):
        return "no-cutset"
    if isinstance(exc, errors.PreconditionError):
        return "precondition"
    if isinstance(exc, errors.BudgetExhausted):
        return "budget"
    return "error:" + type(exc).__name__


# ------------------------------------------------------------- input makers


def bounded_degree(n: int, cap: int, rng: random.Random) -> Plain:
    """Random connected graph with degrees at most cap: a capped random tree
    filled with random edges while the cap allows."""
    deg = [0] * n
    edges = set()
    for v in range(1, n):
        u = rng.choice([w for w in range(v) if deg[w] < cap])
        edges.add((u, v))
        deg[u] += 1
        deg[v] += 1
    for _ in range(3 * n):
        a, b = rng.randrange(n), rng.randrange(n)
        e = (min(a, b), max(a, b))
        if a != b and e not in edges and deg[a] < cap and deg[b] < cap:
            edges.add(e)
            deg[a] += 1
            deg[b] += 1
    return Plain(n, edges)


def gated_sparse(n: int, rng: random.Random) -> Plain:
    """Random connected graph inside prop2's gate m <= (2 + 1/(D^2+1))n - 4."""

    def gate_ok(m: int, dmax: int) -> bool:
        q = dmax * dmax + 1
        return m * q <= (2 * q + 1) * n - 4 * q

    deg = [0] * n
    edges = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.add((u, v))
        deg[u] += 1
        deg[v] += 1
    for _ in range(60):
        a, b = rng.randrange(n), rng.randrange(n)
        e = (min(a, b), max(a, b))
        if a == b or e in edges:
            continue
        if gate_ok(len(edges) + 1, max(max(deg), deg[a] + 1, deg[b] + 1)):
            edges.add(e)
            deg[a] += 1
            deg[b] += 1
    return Plain(n, edges)


def connected_regular(sc, work: Workload, n: int, d: int, rng: random.Random):
    """First connected sparsecut.random_regular(n, d) over seeds drawn from rng."""
    while True:
        work.tried += 1
        try:
            g = sc.generators.random_regular(n, d, rng.randrange(1 << 30))
        except sc.errors.BudgetExhausted:
            continue
        plain = Plain(n, g.edges())
        if check.connected(plain):
            work.kept += 1
            return g, plain


def to_graph(sc, plain: Plain):
    return sc.graph.Graph(plain.n, plain.edges)


def _members(x) -> list[int]:
    return sorted(int(v) for v in getattr(x, "members", x))


# --------------------------------------------------------------- certify_mix


def _method_answer(sc):
    def answer(outcome) -> dict:
        status, value = outcome
        if status == "raised":
            return {"raised": raised_kind(value, sc)}
        if hasattr(value, "side_a"):
            return {"krr": [_members(value.side_a), _members(value.side_b)]}
        if hasattr(value, "order"):
            return {"order": [int(v) for v in value.order]}
        if hasattr(value, "cutset"):
            return {"cutset": _members(value.cutset)}
        return {"value": type(value).__name__}

    return answer


def method_verdict(method: str, plain: Plain, delta: int | None = None):
    """Independent check of a constructive method's answer on plain."""

    def verdict(outcome, ans: dict) -> bool:
        if "cutset" in ans:
            s = ans["cutset"]
            if method == "thm1":
                return check.cutset_ok(plain, s, size=delta, degree=delta - 3)
            if method == "thm2":
                return check.cutset_ok(plain, s, size=5, degree=2, avg_below=Fraction(2))
            if method == "thm3":
                return check.cutset_ok(
                    plain, s, size=4, avg_below=Fraction(1), minimal=True
                )
            if method == "thm4":
                return check.cutset_ok(plain, s, size=3, degree=0)
            if method == "thm5":
                return check.cutset_ok(plain, s, size=5, degree=1)
            if method in ("prop2", "degenerate"):
                return check.cutset_ok(plain, s, degree=1 if method == "prop2" else None)
            return False
        if "krr" in ans:
            return method == "thm5" and check.krr_ok(plain, 2, *ans["krr"])
        if "order" in ans:
            return method == "thm3" and check.squared_cycle_order_ok(plain, ans["order"])
        if ans.get("value") == "IsIcosahedron":
            return method == "thm2" and check.is_icosahedron(plain)
        kind = ans.get("raised")
        if method == "thm4" and kind == "precondition":
            return check.connectivity_above(plain, 3)
        if method == "thm3" and kind == "precondition":
            return check.all_two_k2(plain)
        if method == "thm3" and kind == "no-cutset":
            return check.no_sparse_minimal_cutset(plain, 4, Fraction(1))
        return False

    return verdict


def build_certify_mix(sc, slot: int, workdir: Path) -> Workload:
    rng = random.Random(f"certify_mix/{slot}")
    work = Workload([])
    answer = _method_answer(sc)
    alg = sc.algorithms

    def add(key, method, plain, call, delta=None):
        work.inputs.append(plain.digest())
        work.ops.append(
            Op(key, call, answer, method_verdict(method, plain, delta), answers=True)
        )

    for delta in (3, 4, 5, 6):
        low = 2 * delta + 4
        for k in range(8):
            plain = bounded_degree(low + k * (60 - low) // 7, delta, rng)
            g = to_graph(sc, plain)
            add(f"thm1/{delta}/{k}", "thm1", plain,
                lambda g=g, d=delta: alg.theorem1_cutset(g, d), delta)
    for n in range(14, 61, 2):
        g, plain = connected_regular(sc, work, n, 5, rng)
        # thm1 with delta = 5 meets no low-degree vertex here, so it runs
        # the grow-and-swap loop instead of the one-step neighbourhood answer
        add(f"thm1/regular/{n}", "thm1", plain, lambda g=g: alg.theorem1_cutset(g, 5), 5)
        add(f"thm2/{n}", "thm2", plain, lambda g=g: alg.theorem2_cutset(g))
        add(f"thm5/{n}", "thm5", plain, lambda g=g: alg.theorem5_certify(g, 5, 2))
    # thm3's subset scan stops at a graph-dependent place, so its cost
    # varies from graph to graph; it stays at n <= 20, below the cost of
    # thm4 at n = 32, whose flows cost about the same on every graph and
    # therefore set op_tail_ms
    for n in (12, 14, 16, 18, 20) * 3:
        g, plain = connected_regular(sc, work, n, 4, rng)
        add(f"thm3/{n}/{len(work.ops)}", "thm3", plain, lambda g=g: alg.theorem3_dichotomy(g))
    for n in (12, 16, 20, 24, 28) * 2 + (32,) * 3:
        # unscreened: connectivity-4 graphs must end in the documented
        # PreconditionError
        g, plain = connected_regular(sc, work, n, 4, rng)
        add(f"thm4/{n}/{len(work.ops)}", "thm4", plain,
            lambda g=g: alg.theorem4_independent_cutset(g))
    for k in range(32):
        plain = gated_sparse(12 + k * 48 // 31, rng)
        g = to_graph(sc, plain)
        add(f"prop2/{k}", "prop2", plain, lambda g=g: alg.prop2_cutset(g))
    return work


# -------------------------------------------------------------- oracle_probe


# Published facts for the named shelf: which searches have no answer at all.
# Squared cycles have no independent cutset because any cutset of C_n^2 takes
# two consecutive, hence adjacent, vertices; the icosahedron and the figure-2
# family have no cutset of internal degree at most 1.
def _known_none(family: str, probe: str) -> bool:
    if family == "K4":
        return True  # complete: no cutset at all
    if probe == "independent":
        return family in ("TriangularPrism", "icosahedron") or family.startswith(
            ("squared_cycle", "figure2")
        )
    if probe == "constrained_d1":
        return family == "icosahedron" or family.startswith("figure2")
    return False


def build_oracle_probe(sc, slot: int, workdir: Path) -> Workload:
    rng = random.Random(f"oracle_probe/{slot}")
    work = Workload([])
    gen, orc = sc.generators, sc.oracles
    shelf = [
        ("K4", gen.named_small("K4")),
        ("TriangularPrism", gen.named_small("TriangularPrism")),
        ("icosahedron", gen.icosahedron()),
        *((f"figure2_{b}", gen.figure2_pattern(b)) for b in (3, 4, 5)),
        *((f"squared_cycle_{n}", gen.squared_cycle(n)) for n in range(14, 25, 2)),
    ]
    # Nine random 4-regular graphs of order 20 cost about the same to probe
    # and sit mid-distribution, so op_p50_ms lands among many similar
    # operations instead of in the gap between two unlike ones.
    for d, n in ((4, 16), *((4, 20),) * 9, (4, 24), (5, 16), (5, 20), (5, 24)):
        g = connected_regular(sc, work, n, d, rng)[0]
        shelf.append((f"random_{d}_regular_{n}/{len(shelf)}", g))

    def probe_answer(outcome) -> dict:
        status, value = outcome
        if status == "raised":
            return {"raised": raised_kind(value, sc)}
        indep, d1, avg, krr2, krr3, cuts = value
        return {
            "independent": None if indep is None else _members(indep),
            "constrained_d1": None if d1 is None else _members(d1),
            "avg": None if avg is None else _members(avg),
            "krr2": None if krr2 is None else [_members(s) for s in krr2],
            "krr3": None if krr3 is None else [_members(s) for s in krr3],
            "min_cutsets": [_members(c) for c in cuts],
        }

    def probe_verdict(family: str, p: Plain):
        def none_ok(probe: str) -> bool:
            if _known_none(family, probe):
                return True
            return check.no_cutset(p, 0 if probe == "independent" else 1)

        def min_cutsets_ok(cuts) -> bool:
            if not cuts:
                return len(p.edges) == p.n * (p.n - 1) // 2
            k = len(cuts[0])
            return (
                cuts == sorted(cuts)
                and len({tuple(c) for c in cuts}) == len(cuts)
                and all(len(c) == k and check.separates(p, c) for c in cuts)
            )

        def verdict(outcome, ans) -> bool:
            if "raised" in ans:
                return False
            indep, d1, avg = ans["independent"], ans["constrained_d1"], ans["avg"]
            return (
                (none_ok("independent") if indep is None else check.cutset_ok(p, indep, degree=0))
                and (none_ok("constrained_d1") if d1 is None else check.cutset_ok(p, d1, degree=1))
                # the average-only search stops at the size cap, so its None
                # is held to the recorded answer alone
                and (avg is None or check.cutset_ok(p, avg, avg_below=Fraction(3, 2)))
                and all(
                    check.krr_ok(p, r, *ans[f"krr{r}"]) if ans[f"krr{r}"] else not check.has_krr(p, r)
                    for r in (2, 3)
                )
                and min_cutsets_ok(ans["min_cutsets"])
            )

        return verdict

    # One operation probes one graph six ways, so work shared per graph,
    # such as building its bitmasks, is paid inside every operation.
    def probe_all(g):
        return (
            orc.find_independent_cutset(g),
            orc.find_constrained_cutset(g, max_delta=1),
            orc.find_constrained_cutset(g, max_avg=(3, 2)),
            orc.find_krr(g, 2),
            orc.find_krr(g, 3),
            orc.enumerate_min_cutsets(g),
        )

    for family, g in shelf:
        plain = Plain(g.n, g.edges())
        work.inputs.append(plain.digest())
        work.ops.append(Op(f"probe/{family}", lambda g=g: probe_all(g), probe_answer,
                           probe_verdict(family, plain)))

    heavy = [
        ("squared_cycle_60", gen.squared_cycle(60), 4),
        ("squared_cycle_160", gen.squared_cycle(160), 4),
        ("random_4_regular_80", connected_regular(sc, work, 80, 4, rng)[0], None),
        ("random_3_regular_120", connected_regular(sc, work, 120, 3, rng)[0], None),
    ]
    for family, g, known in heavy:
        plain = Plain(g.n, g.edges())
        work.inputs.append(plain.digest())

        def conn_answer(outcome):
            status, value = outcome
            return {"raised": raised_kind(value, sc)} if status == "raised" else {"value": value}

        # the exact value needs a flow search of its own; the check confirms
        # the bound kappa <= min degree, the published kappa(C_n^2) = 4, and
        # leaves the rest to the recorded answer
        def conn_verdict(outcome, ans, p=plain, known=known):
            k = ans.get("value")
            if not isinstance(k, int) or not 1 <= k <= min(len(a) for a in p.adj):
                return False
            return known is None or k == known

        work.ops.append(Op(f"connectivity/{family}", lambda g=g: orc.vertex_connectivity(g),
                           conn_answer, conn_verdict))
    for n in (250, 500, 1000):
        g = gen.squared_cycle(n)
        plain = Plain(n, g.edges())
        work.inputs.append(plain.digest())

        def order_answer(outcome):
            status, value = outcome
            if status == "raised":
                return {"raised": raised_kind(value, sc)}
            return {"order": None if value is None else [int(v) for v in value]}

        def order_verdict(outcome, ans, p=plain):
            return ans.get("order") is not None and check.squared_cycle_order_ok(p, ans["order"])

        work.ops.append(Op(f"recognize/{n}", lambda g=g: orc.recognize_squared_cycle(g),
                           order_answer, order_verdict))
    return work


# ----------------------------------------------------------------- cli_batch


def run_cli(sc, work: Workload, argv: list[str]) -> tuple[int, str]:
    """sparsecut.cli.main in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sc.cli.main(argv)
    text = out.getvalue()
    work.cli_bytes += len(text)
    return code, text


def build_cli_batch(sc, slot: int, workdir: Path) -> Workload:
    rng = random.Random(f"cli_batch/{slot}")
    work = Workload([])
    root = workdir / "cli_batch"
    for sub in ("corpus_edge", "corpus_g6", "small", "gen", "cert"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    rel = os.path.relpath(root)

    def write(path: str, text: str) -> str:
        (root / path).write_text(text, encoding="ascii")
        return f"{rel}/{path}"

    def squared(n: int) -> Plain:
        return Plain(n, [(i, (i + d) % n) for i in range(n) for d in (1, 2)])

    big = {n: squared(n) for n in (1000, 4000, 16000)}
    for n, plain in big.items():
        write(f"corpus_edge/sq{n}.edges", check.write_edge_list(plain))
        work.inputs.append(plain.digest())
    for n in (1000, 4000):
        write(f"corpus_g6/sq{n}.g6", check.write_graph6(big[n]))

    def cli_op(key, argv, verdict, out_file=None, answers=False):
        def answer(outcome):
            status, value = outcome
            if status == "raised":
                return {"raised": "error:" + type(value).__name__}
            code, text = value
            ans = {"exit": code, "stdout": check.bytes_digest(text.encode())}
            if out_file is not None:
                ans["file"] = check.bytes_digest((root / out_file).read_bytes())
            return ans

        def judge(outcome, ans):
            return "raised" not in ans and verdict(outcome[1])

        work.ops.append(Op(key, lambda: run_cli(sc, work, argv), answer, judge, answers))

    # write side: generators and emitters, graph6 only at n <= 1000
    def generated(path: str, expect: Callable[[Plain], bool], g6: bool = False):
        def verdict(result):
            code, _ = result
            text = (root / path).read_text(encoding="ascii")
            plain = check.read_graph6(text) if g6 else check.read_edge_list(text)
            return code == 0 and expect(plain)

        return verdict

    for n, d, fmt in ((1000, 3, "graph6"), (1000, 3, "edge-list"), (2000, 3, "edge-list"),
                      (3000, 3, "edge-list"), (4000, 3, "edge-list")):
        seed = str(rng.randrange(1 << 30))
        path = f"gen/rr{n}_{d}.{'g6' if fmt == 'graph6' else 'edges'}"
        cli_op(f"generate/random-regular/{n}/{d}/{fmt}",
               ["generate", "random-regular", str(n), str(d), "--seed", seed,
                "--format", fmt, "-o", f"{rel}/{path}"],
               generated(path, lambda p, n=n, d=d: check.regular_simple(p, n, d), fmt == "graph6"),
               out_file=path)
    cli_op("generate/squared-cycle/16000",
           ["generate", "squared-cycle", "16000", "-o", f"{rel}/gen/sq16000.edges"],
           generated("gen/sq16000.edges", check.is_squared_cycle_labelled),
           out_file="gen/sq16000.edges")
    cli_op("generate/squared-cycle/1000/graph6",
           ["generate", "squared-cycle", "1000", "--format", "graph6",
            "-o", f"{rel}/gen/sq1000.g6"],
           generated("gen/sq1000.g6", check.is_squared_cycle_labelled, g6=True),
           out_file="gen/sq1000.g6")
    for delta, length, cyclic in ((9, 40, 0), (9, 80, 1)):
        k = delta + 1 - 2 * _ceil_sqrt(delta)
        path = f"gen/clique_chain_{length}.edges"

        def chain_ok(p, k=k, length=length, delta=delta):
            blocks_are_cliques = all(
                len(p.adj[b * k + i] & set(range(b * k, b * k + k))) == k - 1
                for b in range(length)
                for i in range(k)
            )
            return (
                p.n == k * length
                and max(len(a) for a in p.adj) <= delta
                and blocks_are_cliques
                and check.connected(p)
            )

        cli_op(f"generate/clique-chain/{delta}/{length}",
               ["generate", "clique-chain", str(delta), str(length), str(cyclic),
                str(rng.randrange(1 << 30)), "-o", f"{rel}/{path}"],
               generated(path, chain_ok), out_file=path)

    # read side: corpus runs over 1k/4k/16k squared cycles
    def corpus_verdict(graphs: dict[str, Plain]):
        def verdict(result):
            code, text = result
            report = json.loads(text)
            rows = report["results"]
            return code == 0 and [r["file"] for r in rows] == sorted(graphs) and all(
                check.cutset_ok(graphs[r["file"]], r["report"]["certificate"]["cutset"],
                                size=4, degree=1)
                for r in rows
            )

        return verdict

    cli_op("find-cutset/corpus/edge-list",
           ["find-cutset", "--method", "thm1", "--delta", "4", "--corpus", f"{rel}/corpus_edge"],
           corpus_verdict({f"sq{n}.edges": big[n] for n in big}), answers=True)
    cli_op("find-cutset/corpus/graph6",
           ["find-cutset", "--method", "thm1", "--delta", "4", "--corpus", f"{rel}/corpus_g6"],
           corpus_verdict({f"sq{n}.g6": big[n] for n in (1000, 4000)}), answers=True)

    def single_verdict(result):
        code, text = result
        report = json.loads(text)
        return code == 0 and check.cutset_ok(
            big[4000], report["certificate"]["cutset"], size=4, degree=1
        )

    cli_op("find-cutset/graph6/4000",
           ["find-cutset", "--method", "thm1", "--delta", "4",
            "-i", f"{rel}/corpus_g6/sq4000.g6"],
           single_verdict, answers=True)

    # read side: small graphs, where verification is on by default. They are
    # most of the calls, so op_p50_ms sits among them and shows the per-call
    # cost of parsing, re-verifying and reporting.
    small = {}
    for n in (12, 14, 16, 18, 20):
        small[f"sq{n}"] = squared(n)
        small[f"sparse{n}"] = gated_sparse(n, rng)
        small[f"rr3_{n}"] = connected_regular(sc, work, n, 3, rng)[1]
    for n in (14, 16, 18, 20):
        small[f"rr5_{n}"] = connected_regular(sc, work, n, 5, rng)[1]
    for n in (14, 16, 18):
        small[f"rr4_{n}"] = connected_regular(sc, work, n, 4, rng)[1]
    for name, plain in small.items():
        write(f"small/{name}.edges", check.write_edge_list(plain))
        work.inputs.append(plain.digest())
    runs = [
        *(("thm1", f"sq{n}", ["--delta", "4"], 4) for n in (12, 14, 16, 18, 20)),
        *(("thm2", f"rr5_{n}", [], None) for n in (14, 16, 18, 20)),
        *(("thm3", f"sq{n}", [], None) for n in (12, 14, 16, 18, 20)),
        *(("thm4", f"rr4_{n}", [], None) for n in (14, 16, 18)),
        *(("thm5", f"rr5_{n}", ["--delta", "5", "--r", "2"], None) for n in (14, 16, 18, 20)),
        *(("prop2", f"sparse{n}", [], None) for n in (12, 14, 16, 18, 20)),
        *(("degenerate", f"rr3_{n}", ["--u", "0"], None) for n in (12, 14, 16, 18, 20)),
    ]
    for method, name, extra, delta in runs:
        plain = small[name]
        judge_lib = method_verdict(method, plain, delta)

        def verdict(result, judge_lib=judge_lib):
            code, text = result
            report = json.loads(text)
            cert = report["certificate"]
            if cert is None:
                kind = {"NoCutsetFound": "no-cutset"}.get(report["error"]["type"], "precondition")
                return code == 2 and judge_lib(None, {"raised": kind})
            ans = {k: cert[k] for k in ("cutset", "order") if k in cert}
            if cert["kind"] == "krr-witness":
                ans = {"krr": [cert["side_a"], cert["side_b"]]}
            if cert["kind"] == "is-icosahedron":
                ans = {"value": "IsIcosahedron"}
            return code == 0 and report["verified"] is True and judge_lib(None, ans)

        cli_op(f"find-cutset/{method}/{name}",
               ["find-cutset", "--method", method, *extra, "-i", f"{rel}/small/{name}.edges"],
               verdict, answers=True)

    # read side: re-check serialized certificates; each is valid by construction
    certs = (
        ("good-cutset", 4000, {"kind": "good-cutset", "cutset": [0, 1, 2000, 2001],
                               "size_bound": 4, "degree_bound": 1,
                               "avg_bound_strict": None, "require_minimal": False}),
        ("squared-cycle-iso", 1000, {"kind": "squared-cycle-iso", "order": list(range(1000))}),
        ("krr-witness", 1000, {"kind": "krr-witness", "r": 2, "side_a": [0, 3], "side_b": [1, 2]}),
    )
    def verified(result):
        return result[0] == 0 and json.loads(result[1])["verified"] is True

    for kind, n, payload in certs:
        cert_path = write(f"cert/{kind}.json", json.dumps(payload))
        cli_op(f"verify/{kind}",
               ["verify", "-i", f"{rel}/corpus_edge/sq{n}.edges", "--certificate", cert_path],
               verified)
    cli_op("verify/good-cutset/graph6",
           ["verify", "-i", f"{rel}/corpus_g6/sq4000.g6",
            "--certificate", f"{rel}/cert/good-cutset.json"],
           verified)

    # the known RecursionError: a deep depth-first search on a long cycle
    cycle = Plain(1200, [(i, (i + 1) % 1200) for i in range(1200)])
    work.inputs.append(cycle.digest())
    cycle_path = write("small/cycle1200.edges", check.write_edge_list(cycle))

    def constrained_verdict(result):
        code, text = result
        report = json.loads(text)
        cert = report.get("certificate")
        if code == 0 and cert is not None:
            return check.cutset_ok(cycle, cert["cutset"], degree=2, avg_below=Fraction(1, 2))
        if code == 0:
            return report["stats"] == {"found": False}
        return code in (2, 3) and "error" in report

    cli_op("oracle/constrained-cutset/cycle1200",
           ["oracle", "constrained-cutset", "--max-delta", "2", "--avg", "1/2",
            "--max-n", "2000", "--time-hint", "0.2", "-i", cycle_path],
           constrained_verdict)
    return work


def _ceil_sqrt(x: int) -> int:
    r = math.isqrt(x)
    return r if r * r == x else r + 1


# Seconds one cycle of each operation list takes at the seed commit, measured
# untraced on a 2-vCPU x86_64 container under Python 3.11.
CYCLE_S = {
    "certify_mix": 0.8,
    "oracle_probe": 5.2,
    "cli_batch": 7.6,
}

WORKLOADS = {
    "certify_mix": build_certify_mix,
    "oracle_probe": build_oracle_probe,
    "cli_batch": build_cli_batch,
}
