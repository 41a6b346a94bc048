"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 0-9 [--seconds 30] [--workloads a,b]
                                 [--trace-seed 0] [--out perfbench/baseline.json]

Each run is a fresh ``run.py`` process, one after another. For every
end-to-end metric the summary gives the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
interquartile distance as a share of the median. ``--trace-seed`` adds one
traced run per workload for the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, traced: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(traced)],
        capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    result["report"] = json.loads(lines[-2].removeprefix("report: "))
    result["seed"] = seed
    return result


def summary(runs: list[dict]) -> dict:
    out = {}
    for spec in BENCH["end_to_end"]:
        name = spec["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": spec["unit"],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "bound": spec["bound"],
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    parser.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    result = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [one_run(workload, s, args.seconds, 0) for s in args.seeds]
        entry = {
            "env": runs[0]["report"]["env"],
            "summary": summary(runs),
            "failed_ratio": [r["failed"] / r["attempted"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "op_tail": [r["report"]["op_tail"] for r in runs],
            "input_digests": {r["seed"]: r["report"]["input_digest"] for r in runs},
            "runs": [{"seed": r["seed"], "attempted": r["attempted"], "failed": r["failed"],
                      "metrics": {k: m["value"] for k, m in r["metrics"].items()}}
                     for r in runs],
        }
        entry["env"].pop("seed")
        if args.trace_seed is not None:
            traced = one_run(workload, args.trace_seed, args.seconds, 1)
            entry["trace"] = {
                "seed": args.trace_seed,
                "correct": traced["correct"],
                "cycles": traced["report"]["trace"],
                "metrics": {k: m["value"] for k, m in traced["metrics"].items()},
            }
        result["workloads"][workload] = entry
        print(f"== {workload}: correct={entry['correct']} "
              f"failed_ratio={sorted(set(entry['failed_ratio']))}")
        for name, s in entry["summary"].items():
            flag = "" if s["spread"] <= s["bound"] / 3 else "  <-- above a third of the bound"
            values = " ".join(f"{r['metrics'][name]:.4g}" for r in entry["runs"])
            print(f"  {name:18s} median {s['median']:10.4f} {s['unit']:5s} "
                  f"spread {s['spread']:.4f} (bound {s['bound']}){flag}\n      runs: {values}")
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
