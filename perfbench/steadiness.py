"""Run-to-run steadiness of the end-to-end metrics.

Usage, from the checkout root::

    python3 perfbench/steadiness.py                       # every workload, seeds 1..10
    python3 perfbench/steadiness.py --workloads query_paper --seeds 1,2,3,4,5
    python3 perfbench/steadiness.py --workloads query_paper --seeds 1,1,1

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time,
and prints, per end-to-end metric, the median and quartiles of the runs'
values and their spread: the interquartile distance as a share of the
median, as ``statistics.quantiles(values, n=4)`` gives the quartiles.
The bounds in ``BENCHMARK.json`` are set from these spreads; a spread
above a third of its bound is flagged (``setup_s`` is exempt from the
spread rule and only reported).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float) -> Dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} seed {seed}: no output (exit {proc.returncode})\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.perf_counter() - start
    return result


def spread(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3, "spread": (q3 - q1) / median}


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="Run-to-run spread of the end-to-end metrics.")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if len(seeds) < 2:
        parser.error("need at least two runs to measure a spread")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    flagged = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, args.seconds)
            runs.append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(
                f"{workload} seed {seed}: correct={result['correct']} "
                f"{result['elapsed_s']:.1f} s {values}",
                flush=True,
            )
        incorrect = sum(1 for r in runs if not r["correct"])
        print(f"\n{workload}: {len(runs)} runs, {incorrect} incorrect")
        print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if len(values) < 2:
                continue
            s = spread(values)
            verdict = ""
            if name != "setup_s" and s["spread"] > bound / 3.0:
                verdict = "  > bound/3" if s["spread"] <= bound else "  > BOUND"
                flagged += 1
            print(
                f"  {name:<16}{s['median']:>12.5g}{s['q1']:>12.5g}{s['q3']:>12.5g}"
                f"{s['spread']:>9.3f}{bound:>7.2f}{verdict}"
            )
        print()
        flagged += incorrect
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
