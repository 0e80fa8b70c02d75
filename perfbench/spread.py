#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload qaoa-mean --seeds 1-10 [--trace 0]

Runs ``perfbench/run.py`` once per seed, one after another, and prints each
metric's median, quartiles (``statistics.quantiles(values, n=4)``) and the
quartile distance as a share of the median, next to the metric's bound from
``BENCHMARK.json`` (end-to-end metrics only). ``--save FILE`` merges the
summary into FILE under the workload's name, which is how ``baseline.json``
was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "exit": proc.returncode, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"]})
        print(f"seed {seed}: exit {proc.returncode}, {result['failed']} of {result['attempted']} failed",
              file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    summary = {}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / median if median else None
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "unit": units[name]}
        bound = bounds.get(name)
        verdict = "" if bound is None or spread is None else f"bound {bound:<5} {'ok' if spread < bound / 3 else 'WIDE'}"
        shown = "n/a" if spread is None else f"{spread:7.4f}"
        print(f"{name:40s} median {median:12.6g} {units[name]:6s} spread {shown:>7}  {verdict}")
    if args.save:
        saved = json.loads(args.save.read_text()) if args.save.exists() else {}
        last = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seeds[-1]}-trace{args.trace}.json"
        saved[f"{args.workload}/trace{args.trace}"] = {
            "seeds": args.seeds,
            "machine": json.loads(last.read_text())["machine"],
            "runs": runs,
            "metrics": summary,
        }
        args.save.write_text(json.dumps(saved, indent=2) + "\n")
    return 0 if all(r["exit"] == 0 and r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
