"""Record the answer digests the benchmark compares against.

    python3 perfbench/record.py [workload ...]

For every input slot of each named workload (all three by default) this
builds the inputs, runs every operation once, checks each answer with the
benchmark's own checker and stores its digest in ``recorded.json``. An
operation that raises an undocumented exception is stored as null: it
counts as failed in every run, and its later answers are held to the
checker alone. A wrong answer stops the recording.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import check


def record(sc, name: str, slot: int) -> dict:
    work, _ = run.set_up(sc, name, slot)
    answers = {}
    for op in work.ops:
        outcome = run.call(op)
        ans = op.answer(outcome)
        if str(ans.get("raised", "")).startswith("error:"):
            answers[op.key] = None
            continue
        if not op.verdict(outcome, ans):
            raise SystemExit(f"{name} slot {slot}: {op.key} gave a wrong answer {ans}")
        answers[op.key] = check.json_digest(ans)
    return {"inputs": work.input_digest(), "answers": answers}


def main() -> int:
    os.chdir(run.ROOT)
    os.environ["SPARSECUT_ZERO_TIMING"] = "1"
    sc = run.load_sparsecut()
    path = run.HERE / "recorded.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    names = sys.argv[1:] or sorted(run.workloads.WORKLOADS)
    try:
        for name in names:
            data[name] = {str(s): record(sc, name, s) for s in range(run.SLOTS)}
            print(f"recorded {name}", flush=True)
    finally:
        shutil.rmtree(run.WORKDIR, ignore_errors=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
