"""Runs every benchmark workload and prints each metric by name and unit.

    python3 perfbench/run_all.py [--seeds 1,2,3] [--trace 0|1]

Run from the repository root. For every workload in BENCHMARK.json, each
run is the command there with
`--workload <name> --seed <n> --seconds <run_seconds> --trace <t>`.
With more than one seed it also prints, per workload and metric, the
median and the spread (interquartile range over median) and compares the
spread with the metric's bound, `setup_s` included. Exits non-zero when
a run fails, reports a failed output check, or (untraced, several seeds)
a spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values = {}
        for seed in seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", args.trace]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            if not result["correct"] or result["failed"]:
                ok = False
                print(proc.stderr[-2000:])
            for name, m in sorted(result["metrics"].items()):
                print(f"  {name:24} {m['value']:>16.6g} {m['unit']}")
                values.setdefault(name, []).append(m["value"])
        if len(seeds) < 2:
            continue
        print(f"{workload}: spread over {len(seeds)} seeds")
        for name, vs in sorted(values.items()):
            median = statistics.median(vs)
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / median if median else float("nan")
            bound = bounds.get(name) if args.trace == "0" else None
            verdict = ""
            if bound is not None:
                verdict = "ok" if spread <= bound else "OVER BOUND"
                ok &= spread <= bound
            print(f"  {name:24} median {median:12.6g} spread {spread:7.3f} bound {bound} {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
