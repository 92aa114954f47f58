"""Run one benchmark workload and print its metrics.

Usage, from the checkout root::

    python3 perfbench/run.py --workload query_paper --seed 1 --seconds 30 --trace 0

Each trial builds one simulation in a fresh interpreter (one trial at a
time), so its set-up time and peak RSS belong to it alone.  Every trial
of a run simulates the network of ``--seed``, and the number of trials
follows from ``--seconds`` and the workload's nominal trial length, never
from how fast the program runs, so two programs are measured on the same
inputs.

``--trace 0`` reports the end-to-end metrics.  Other tenants of a shared
machine slow it down by a fifth or more, in bursts from milliseconds to
tens of seconds long, so each trial runs a fixed reference loop between
its simulation steps, and each time is scaled to the speed at which that
loop takes ``REFERENCE_S`` (see ``perfbench/trial.py``).  The trials of a
run repeat the same simulation step for step, so each step then counts
at its best over the trials, and each construction and the report at
their median; ``setup_s`` is the median over all of the run's
constructions.
``--trace 1`` runs the seed's network twice untraced and once traced,
and reports the per-layer metrics of the traced trial.

Every trial's report is checked: the accounting identities hold, the
workload's expected shape holds, all trials of the run (traced or not)
send the same probes step for step and give one fingerprint, and at the
default seed that fingerprint equals the one pinned in
``perfbench/ledger.json``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.trial import call_scale, scaled, trial_wall  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402

#: Trials per ``--trace 0`` run, at least.
MIN_TRIALS = 3
#: A trial that takes longer than this is killed and counted as failed.
TRIAL_TIMEOUT_S = 150.0
#: Where traced runs write their full trace.
TRACE_DIR = ROOT / ".perfbench_out"


class Trial:
    """Outcome of one child interpreter."""

    def __init__(self, result: Optional[Dict[str, Any]], error: Optional[str]) -> None:
        self.result = result
        self.error = error

    @property
    def ok(self) -> bool:
        return self.error is None


def spawn_trial(workload: str, seed: int, trace_file: Optional[Path] = None) -> Trial:
    """Run ``perfbench.trial`` in a fresh interpreter and parse its result."""
    cmd = [sys.executable, "-m", "perfbench.trial", "--workload", workload, "--seed", str(seed)]
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    # Same string hashes in every trial, so repeats lay out memory alike.
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TRIAL_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return Trial(None, f"trial exceeded {TRIAL_TIMEOUT_S:.0f} s")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return Trial(None, f"trial exited {proc.returncode}: {tail[0]}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return Trial(None, "trial printed no result")
    if result["problems"]:
        return Trial(result, "; ".join(result["problems"]))
    return Trial(result, None)


def check_repeats(trials: List[Trial], workload: str, seed: int) -> None:
    """Fail trials that disagree with the run's first passing trial.

    Every trial simulates the same network, so each must send the same
    probes step for step and give the same fingerprint.  At the default
    seed the fingerprint must also equal the pinned one.
    """
    passing = [t for t in trials if t.ok]
    if not passing:
        return
    ref = passing[0].result
    for t in passing[1:]:
        if t.result["digest"] != ref["digest"]:
            t.error = f"fingerprint {t.result['digest']} differs from {ref['digest']}"
        elif t.result["sent"] != ref["sent"] or t.result["warm_steps"] != ref["warm_steps"]:
            t.error = "probes sent per step differ from the first trial's"
    if seed == DEFAULT_SEED:
        ledger = json.loads((ROOT / "perfbench" / "ledger.json").read_text())
        pinned = ledger["fingerprints"][workload]
        for t in passing:
            if t.ok and t.result["fingerprint"] != pinned:
                diff = sorted(k for k in pinned if pinned[k] != t.result["fingerprint"].get(k))
                t.error = f"fingerprint differs from the pinned one in {diff}"


def load_units(section: str) -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def end_to_end(results: List[Dict[str, Any]], workload: Workload) -> Dict[str, float]:
    """End-to-end metrics of a run's passing trials.

    Every time is first scaled to the reference speed: a step by the
    reference loops run next to it, a construction or report by its
    trial's :func:`call_scale`.  Each step then counts at its best over
    the trials, each construction and the report at their median.
    """
    median = statistics.median
    steps = [min(scaled(t) for t in column) for column in zip(*(r["steps"] for r in results))]
    warm = results[0]["warm_steps"]
    sent = results[0]["sent"]
    timed = sum(steps[warm:])
    scales = [call_scale(r) for r in results]
    setup = median(s * k for r, k in zip(results, scales) for s in r["setups"])
    report = median(r["report_s"] * k for r, k in zip(results, scales))
    return {
        "trial_wall_s": setup + sum(steps) + report,
        "setup_s": setup,
        "probes_per_s": (sent[-1] - sent[warm - 1]) / timed,
        "sim_s_per_s": (len(steps) - warm) * workload.step / timed,
        "peak_rss_mb": median(r["peak_rss_mb"] for r in results),
    }


def report_end_to_end(trials: List[Trial], workload: Workload) -> Dict[str, Dict[str, Any]]:
    passed = [t.result for t in trials if t.ok]
    if not passed:
        return {}
    values = end_to_end(passed, workload)
    metrics: Dict[str, Dict[str, Any]] = {}
    print(f"{'metric':<16}{'unit':<10}{'value':>14}")
    for name, unit in load_units("end_to_end").items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name:<16}{unit:<10}{values[name]:>14.6g}")
    print(f"{'sim_s_per_s':<16}{'sim-s/s':<10}{values['sim_s_per_s']:>14.6g}")
    failed = sum(1 for t in trials if not t.ok)
    print(f"{'error_rate':<16}{'ratio':<10}{failed / len(trials):>14.6g}")
    walls = sorted(trial_wall(r) for r in passed)
    print(
        f"{len(passed)} trials of {len(passed[0]['steps'])} steps, "
        f"{sum(len(r['setups']) for r in passed)} constructions; "
        f"one trial's scaled wall {walls[0]:.3f}..{walls[-1]:.3f} s"
    )
    return metrics


def report_per_layer(traced: Trial, overhead: float) -> Dict[str, Dict[str, Any]]:
    layers = dict(traced.result["layers"], trace_overhead_s=overhead)
    print("self time by layer (traced trial):")
    for layer, secs, share in traced.result["shares"]:
        print(f"  {layer:<12}{secs:>10.3f} s {share:>7.1%}")
    tail = layers["search.query_ms_tail_pct"]
    print(
        f"search.query_ms: p50 {layers['search.query_ms_p50']:.3f} ms, "
        f"p{tail} {layers['search.query_ms_ptail']:.3f} ms "
        f"over {layers['search.query_samples']} queries"
    )
    metrics = {}
    for name, unit in load_units("per_layer").items():
        metrics[name] = {"value": layers[name], "unit": unit}
        print(f"  {name:<30}{unit:<11}{layers[name]:>16.6g}")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")

    traced: Optional[Trial] = None
    if args.trace:
        trials = [spawn_trial(workload.name, args.seed) for _ in range(2)]
        trace_file = TRACE_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        traced = spawn_trial(workload.name, args.seed, trace_file)
        if traced.ok and not workload.plans_armed:
            busy = {k: v for k, v in traced.result["plan_calls"].items() if v}
            if busy:
                traced.error = f"plan layers called with no plan armed: {busy}"
        trials.append(traced)
    else:
        count = max(MIN_TRIALS, round(args.seconds / workload.trial_s))
        trials = [spawn_trial(workload.name, args.seed) for _ in range(count)]
    check_repeats(trials, workload.name, args.seed)

    for i, t in enumerate(trials):
        label = "traced" if t is traced else "untraced"
        digest = t.result["digest"] if t.result else "-"
        status = "ok" if t.ok else f"FAILED: {t.error}"
        print(f"trial {i + 1} ({label}, fingerprint {digest}): {status}")

    metrics: Dict[str, Dict[str, Any]] = {}
    if traced is None:
        metrics = report_end_to_end(trials, workload)
    elif traced.ok:
        untraced = [trial_wall(t.result) for t in trials if t.ok and t is not traced]
        if untraced:
            overhead = trial_wall(traced.result) - statistics.median(untraced)
            metrics = report_per_layer(traced, overhead)
    failed = sum(1 for t in trials if not t.ok)
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": len(trials), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
