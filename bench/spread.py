"""Run-to-run spread of the end-to-end metrics, checked against BENCHMARK.json.

    python3 bench/spread.py --seeds 1-10 [--workloads build-si,...] \
        [--holdout 9001] [--save bench/_out/spread.json]

Runs the benchmark once per seed and workload, one run at a time, and
reports per metric the median and the spread (third minus first quartile
over the median, ``statistics.quantiles(values, n=4)``) next to the metric's
bound.  Every spread except setup_s must stay within its bound, and for a
steady benchmark below a third of it.  With ``--holdout`` it also runs an
unseen seed and reports how far each of its metrics lies from the median,
as a share of the median, against the same bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(spec: dict, workload: str, seed: int, trace: int = 0) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--holdout", type=int, default=None)
    parser.add_argument("--save", default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    seeds = parse_seeds(args.seeds)

    summary = {}
    ok = True
    for workload in workloads:
        runs = []
        for seed in seeds:
            r = run_once(spec, workload, seed)
            ok &= bool(r["correct"])
            runs.append(r)
            print(f"{workload} seed {seed}: correct={r['correct']} failed={r['failed']}/"
                  f"{r['attempted']} wall {r['wall_s']:.1f}s", flush=True)
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            steady = name == "setup_s" or spread <= bound / 3
            ok &= name == "setup_s" or spread <= bound
            rows[name] = {"median": med, "spread": spread, "bound": bound, "values": values}
            print(f"  {name:16s} median {med:12.6g}  spread {spread:7.2%}  bound {bound:.0%}"
                  f"{'' if steady else '  <-- above a third of the bound'}")
        if args.holdout is not None:
            r = run_once(spec, workload, args.holdout)
            ok &= bool(r["correct"])
            for name, bound in bounds.items():
                value = r["metrics"][name]["value"]
                med = rows[name]["median"]
                off = abs(value - med) / med
                ok &= off <= bound
                rows[name]["holdout"] = {"seed": args.holdout, "value": value, "offset": off}
                print(f"  holdout {args.holdout} {name:16s} {value:12.6g}  off median "
                      f"{off:7.2%}  bound {bound:.0%}{'' if off <= bound else '  <-- outside'}")
        summary[workload] = {"seeds": seeds, "metrics": rows,
                             "wall_s": [r["wall_s"] for r in runs]}

    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    print("all within bounds" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
