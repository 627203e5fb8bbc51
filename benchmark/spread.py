#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, as the driver takes it.

    python3 benchmark/spread.py [--runs 10] [--first-seed 101] [--workload NAME ...]

Runs each workload `--runs` times through benchmark/run.sh, each time with
another seed, and prints for every end-to-end metric the distance between
the first and third quartile of its values (statistics.quantiles, n=4) as
a share of their median, beside the metric's bound from BENCHMARK.json.
The benchmark is steady enough when every spread except setup_s is below
a third of its bound. Exits non-zero when one exceeds its bound.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    over = 0
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(args.runs):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(args.first_seed + i),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{workload} seed {args.first_seed + i} failed:\n{out.stdout}\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, result
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(f"# {workload} seed {args.first_seed + i}: "
                  + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        print(f"| {workload} | median | IQR/median | bound | |")
        print("|---|---:|---:|---:|---|")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            if m["name"] == "setup_s":
                verdict = "(not gated)"
            elif spread > m["bound"]:
                verdict, over = "OVER BOUND", over + 1
            elif spread > m["bound"] / 3:
                verdict = "over a third"
            else:
                verdict = "ok"
            print(f"| {m['name']} | {med:.5g} | {spread:.2%} | {m['bound']:.0%} | {verdict} |")
        print(flush=True)
    sys.exit(1 if over else 0)


if __name__ == "__main__":
    main()
