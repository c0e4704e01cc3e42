"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workloads transform cli --seeds 1-10 [--trace 1]
        [--save runs.json]

For every workload and end-to-end metric it prints the median of the runs,
the quartiles (``statistics.quantiles(values, n=4)``) and the interquartile
distance as a share of the median, next to a third of the metric's bound
from ``BENCHMARK.json``: the benchmark counts as steady when every spread
except ``setup_s`` stays below that third.  ``--save`` keeps every run's
result line.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import machine_facts


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", default=None)
    args = parser.parse_args()

    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {}
    summary = {}
    for workload in args.workloads:
        runs[workload] = []
        for seed in seed_list(args.seeds):
            cmd = [*bench["command"], "--workload", workload, "--seed",
                   str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[workload].append({"seed": seed, **result})
            values = {k: round(v["value"], 4)
                      for k, v in result["metrics"].items()}
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}",
                  flush=True)
        summary[workload] = {}
        for name in runs[workload][0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            med = statistics.median(values)
            entry = {"median": med, "unit": runs[workload][0]["metrics"][name]["unit"]}
            summary[workload][name] = entry
            if len(values) < 2 or name not in bounds:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            bound = bounds[name]
            entry.update(q1=q1, q3=q3, spread=spread)
            verdict = "ok" if name == "setup_s" or spread < bound / 3 else "WIDE"
            print(f"  {workload:12s} {name:14s} median={med:.6g} "
                  f"q1={q1:.6g} q3={q3:.6g} spread={spread:.4f} "
                  f"bound/3={bound / 3:.4f} {verdict}", flush=True)
    if args.save:
        doc = {}
        if os.path.exists(args.save):
            with open(args.save) as handle:
                doc = json.load(handle)
        section = "per_layer" if args.trace else "end_to_end"
        doc["machine"] = machine_facts(os.getcwd())
        doc.setdefault(section, {})
        for workload in args.workloads:
            doc[section][workload] = {"summary": summary[workload],
                                      "runs": runs[workload]}
        with open(args.save, "w") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
