"""sparsecut benchmark runner.

    python3 perfbench/run.py --workload certify_mix --seed 3 --seconds 20 --trace 0

Run from anywhere; the runner works from the repository root it sits in
and imports sparsecut from that root's ``src/`` only. Each run is one fresh
closed loop with a single caller: the next operation starts when the
previous one has returned. The loop runs whole cycles of the workload's
operation list. ``--seconds`` fixes how many: seconds divided by the
workload's cycle time at the seed commit on the reference machine
(``workloads.CYCLE_S``), so every run of a workload does the same work and
the tail percentile always lands on the same kind of operation.

An untraced run splits its cycles over ``WORKERS`` fresh worker processes,
started one after another. Throughput is the median of the workers'
values; the latency percentiles are taken over the pooled samples. A
Python process's speed depends on its memory layout and hash seed, and a
shared host's speed drifts, so a median over workers keeps one slow
process or one slow stretch from deciding a run.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends half the
time untraced and half traced and prints the per-layer metrics for one
set-up plus one cycle, with the traced-to-untraced throughput ratio.

The last stdout line is the JSON result; the line before it, prefixed
``report:``, carries the environment, the input and answer digests and the
latency percentile behind ``op_tail_ms``. The exit code is 2 when the
library cannot be imported from ``src/`` or no answers were recorded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = Path(".perfbench_work")
SLOTS = 16  # inputs are recorded for seed % SLOTS
WORKERS = 5

sys.path.insert(0, str(HERE))

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def load_sparsecut():
    """Import sparsecut from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sparsecut
        import sparsecut.cli  # noqa: F401  (not imported by the package itself)
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import sparsecut from {src}: {exc}")
    if Path(sparsecut.__file__).resolve().parent != (src / "sparsecut").resolve():
        raise SystemExit(f"perfbench: sparsecut came from {sparsecut.__file__}, not {src}")
    return sparsecut


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sparsecut").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "system": platform.platform(),
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


class Judge:
    """Outcome bookkeeping: the independent check, cached per distinct answer,
    and the comparison with the recorded answer digest."""

    def __init__(self, recorded: dict[str, str | None]):
        self.recorded = recorded
        self.verdicts: dict[tuple[str, str], bool] = {}
        self.answers: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: dict[str, str] = {}

    def __call__(self, op: workloads.Op, outcome) -> None:
        ans = op.answer(outcome)
        digest = check.json_digest(ans)
        self.answers.setdefault(op.key, digest)
        ok = self.verdicts.get((op.key, digest))
        if ok is None:
            try:
                ok = bool(op.verdict(outcome, ans))
            except Exception:  # a malformed answer fails its check
                ok = False
            self.verdicts[(op.key, digest)] = ok
        # a null records an op that failed when the answers were recorded
        expected = self.recorded.get(op.key, "missing")
        matches = expected is None or expected == digest
        self.attempted += 1
        if ok and matches:
            return
        self.failed += 1
        crashed = str(ans.get("raised", "")).startswith("error:")
        if not crashed:
            self.wrong += 1
        self.failures.setdefault(op.key, ans.get("raised") or ("mismatch" if ok else "check"))

    def answers_digest(self) -> str:
        return check.json_digest(sorted(self.answers.items()))


def call(op: workloads.Op):
    try:
        return ("ok", op.call())
    except Exception as exc:
        return ("raised", exc)


def set_up(sc, name: str, slot: int):
    """Make the inputs, write the files and warm up: one call per kind of op."""
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    t0 = time.perf_counter()
    work = workloads.WORKLOADS[name](sc, slot, WORKDIR)
    seen = set()
    for op in work.ops:
        kind = op.key.split("/")[0]
        if kind not in seen:
            seen.add(kind)
            call(op)
    return work, time.perf_counter() - t0


def closed_loop(work, judge: Judge, cycles: int, tracer=None) -> list[float]:
    latencies: list[float] = []
    clock = time.perf_counter
    for _ in range(cycles):
        for op in work.ops:
            if tracer is not None:
                tracer.answer_scope = op.answers
            t0 = clock()
            outcome = call(op)
            latencies.append(clock() - t0)
            judge(op, outcome)
    return latencies


def cycle_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / workloads.CYCLE_S[workload]))


def tail(latencies: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = max(n - 11, 0)
    return ordered[idx], 100.0 * (idx + 1) / n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker-cycles", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if (args.seconds is None) == (args.worker_cycles is None):
        parser.error("give --seconds")

    os.chdir(ROOT)
    for var in ("SPARSECUT_MAX_N", "SPARSECUT_MAX_SUBSET", "SPARSECUT_SEED", "SPARSECUT_VERIFY"):
        os.environ.pop(var, None)
    os.environ["SPARSECUT_ZERO_TIMING"] = "1"
    sc = load_sparsecut()
    slot = args.seed % SLOTS
    recorded_path = HERE / "recorded.json"
    try:
        recorded = json.loads(recorded_path.read_text())[args.workload][str(slot)]
    except (OSError, KeyError, ValueError) as exc:
        print(f"perfbench: no recorded answers for {args.workload} slot {slot}: {exc}",
              file=sys.stderr)
        return 2

    judge = Judge(recorded["answers"])
    if args.worker_cycles is not None:
        try:
            print(json.dumps(worker(sc, args.workload, slot, args.worker_cycles, judge)))
        finally:
            shutil.rmtree(WORKDIR, ignore_errors=True)
        return 0
    report = {"workload": args.workload, "slot": slot, "env": environment(args.seed)}
    if args.trace:
        try:
            metrics = traced_run(sc, args, slot, judge, report)
        finally:
            shutil.rmtree(WORKDIR, ignore_errors=True)
        wrong, failed, attempted = judge.wrong, judge.failed, judge.attempted
        report["answers_digest"] = judge.answers_digest()
        report["failures"] = judge.failures
    else:
        metrics, wrong, failed, attempted = untraced_run(args, slot, report)
    report["inputs_match_recorded"] = report["input_digest"] == recorded["inputs"]
    correct = wrong == 0 and report["inputs_deterministic"] and report["inputs_match_recorded"]
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def worker(sc, name: str, slot: int, cycles: int, judge: Judge) -> dict:
    """Set up once, then run the given number of cycles."""
    work, seconds = set_up(sc, name, slot)
    return {
        "latencies": closed_loop(work, judge, cycles),
        "setup_s": seconds,
        "input_digest": work.input_digest(),
        "ops_per_cycle": len(work.ops),
        "attempted": judge.attempted,
        "failed": judge.failed,
        "wrong": judge.wrong,
        "failures": judge.failures,
        "answers_digest": judge.answers_digest(),
    }


def untraced_run(args, slot: int, report: dict):
    """Split the cycles over fresh worker processes and pool their samples."""
    cycles = cycle_count(args.workload, args.seconds)
    workers = min(WORKERS, cycles)
    shares = [cycles // workers + (i < cycles % workers) for i in range(workers)]
    parts = []
    for share in shares:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--worker-cycles", str(share)],
            capture_output=True, text=True, timeout=900,
        )
        if done.returncode != 0:
            raise SystemExit(f"perfbench: worker exited {done.returncode}:\n{done.stderr}")
        parts.append(json.loads(done.stdout.splitlines()[-1]))
    timed = [part["latencies"] for part in parts]
    latencies = [t for part in timed for t in part]
    setups = [part["setup_s"] for part in parts]
    digests = {part["input_digest"] for part in parts}
    answers = {part["answers_digest"] for part in parts}
    attempted = sum(part["attempted"] for part in parts)
    failed = sum(part["failed"] for part in parts)
    wrong = sum(part["wrong"] for part in parts)
    value, pct = tail(latencies)
    report["input_digest"] = min(digests)
    report["inputs_deterministic"] = len(digests) == 1 and len(answers) == 1
    report["answers_digest"] = min(answers)
    report["failures"] = {k: v for part in parts for k, v in part["failures"].items()}
    report["cycles"] = cycles
    report["ops_per_cycle"] = parts[0]["ops_per_cycle"]
    report["op_tail"] = {"percentile": pct, "samples": len(latencies)}
    report["failed_ratio"] = failed / attempted
    report["setup_s_samples"] = setups
    metrics = {
        "throughput_ops_s": {
            "value": statistics.median(len(part) / sum(part) for part in timed),
            "unit": "1/s",
        },
        "op_p50_ms": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
        "op_tail_ms": {"value": 1000 * value, "unit": "ms"},
        "ok_ratio": {"value": 1 - failed / attempted, "unit": "ratio"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        # the largest peak among the workers, all of which have been waited for
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "unit": "MB",
        },
    }
    return metrics, wrong, failed, attempted


def traced_run(sc, args, slot, judge, report) -> dict:
    tracer = spans.Tracer(sc.errors.BudgetExhausted)
    tracer.install(sc)
    try:
        work, _ = set_up(sc, args.workload, slot)
    finally:
        tracer.uninstall()
    setup_sums = dict(tracer.sums)
    setup_sums["cli.bytes_out"] = work.cli_bytes
    report["input_digest"] = work.input_digest()
    report["inputs_deterministic"] = True
    cycles = cycle_count(args.workload, args.seconds / 2)
    plain = closed_loop(work, judge, cycles)
    before = work.cli_bytes
    tracer.install(sc)
    try:
        traced = closed_loop(work, judge, cycles, tracer)
    finally:
        tracer.uninstall()
    loop_sums = {k: v - setup_sums.get(k, 0.0) for k, v in tracer.sums.items()}
    loop_sums["cli.bytes_out"] = work.cli_bytes - before
    ratio = (len(traced) / sum(traced)) / (len(plain) / sum(plain))
    report["trace"] = {"cycles": cycles, "untraced_ops": len(plain), "traced_ops": len(traced)}
    return spans.layer_metrics(setup_sums, loop_sums, cycles, ratio, work.kept / work.tried)


if __name__ == "__main__":
    sys.exit(main())
