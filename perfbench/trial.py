"""One benchmark trial, run in a fresh interpreter.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 -m perfbench.trial --workload query_paper --seed 1 [--trace FILE]

Prints one JSON object: the raw wall seconds of each construction, each
simulation step (paired with the reference-loop time taken next to it)
and the report; the probes sent after each step; the report
fingerprint and any failed identity.  With ``--trace`` the layers' entry
points are wrapped for the whole trial, the per-layer metrics are added,
and the full trace is written to ``FILE`` when the trial ends.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Optional

from perfbench import ROOT
from perfbench.fingerprint import digest, fingerprint, identity_problems
from perfbench.layers import instrument, layer_shares, per_layer_metrics, plan_layer_calls
from perfbench.tracer import Instrumentation, Tracer
from perfbench.workloads import WORKLOADS, Workload

#: Iterations of the reference loop.
REFERENCE_ITERATIONS = 8_000
#: Reference-loop seconds at the machine speed reported times are scaled
#: to: the loop's time on an unloaded Intel Xeon core under CPython 3.11.
REFERENCE_S = 4.5e-4


def reference_loop() -> float:
    """Wall seconds of a fixed pure-Python loop that uses no program code.

    Other tenants of a shared machine slow it down by a fifth or more,
    in bursts from milliseconds to tens of seconds long.  This loop slows
    down with it, so a time measured next to it can be scaled to a fixed
    machine speed.
    """
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def scaled(step: List[float]) -> float:
    """A step's ``[wall seconds, reference seconds]`` as seconds at the
    reference speed."""
    wall, reference = step
    return wall * REFERENCE_S / reference


def call_scale(result: Dict[str, Any]) -> float:
    """Factor turning a trial's construction and report wall seconds into
    seconds at the reference speed.  These calls are too long to pair
    with one loop, so they take the mean of the trial's step loops."""
    references = [reference for _, reference in result["steps"]]
    return REFERENCE_S * len(references) / sum(references)


def trial_wall(result: Dict[str, Any]) -> float:
    """Seconds at the reference speed of a trial's last construction,
    its steps and its report (the reference loops excluded)."""
    calls = (result["setups"][-1] + result["report_s"]) * call_scale(result)
    return calls + sum(scaled(step) for step in result["steps"])


def _check_source() -> None:
    """Refuse to measure a ``repro`` that is not this checkout's ``src``."""
    import repro

    where = Path(repro.__file__).resolve()
    if not where.is_relative_to((ROOT / "src").resolve()):
        raise SystemExit(f"repro imported from {where}, not from {ROOT / 'src'}")


def _advance(
    sim: Any, workload: Workload, target: int, steps: List[List[float]], sent: List[int]
) -> None:
    """Step ``sim`` until the transport has sent ``target`` probes.

    Runs the reference loop before the first step and after every step,
    appends each step's ``[wall seconds, reference seconds]`` to
    ``steps`` and the transport's probe count after it to ``sent``.  A
    step's reference is the faster of the loops just before and just
    after it, so one loop that happened to be interrupted does not set
    the step's scale.
    """
    clock = time.perf_counter
    transport = sim.transport
    before = reference_loop()
    while transport.probes_sent < target:
        if sim.engine.now >= workload.max_sim:
            raise RuntimeError(
                f"{transport.probes_sent} of {target} probes sent after "
                f"{workload.max_sim:g} simulated seconds"
            )
        start = clock()
        sim.run(workload.step)
        wall = clock() - start
        after = reference_loop()
        steps.append([wall, min(before, after)])
        sent.append(transport.probes_sent)
        before = after


def run_trial(workload: Workload, seed: int, tracer: Optional[Tracer] = None) -> Dict[str, Any]:
    """Build, warm up, time and report one simulation.

    Returns every construction's wall seconds, each step's ``[wall
    seconds, reference seconds]``, the report's wall seconds, the probes
    sent after each step, the trial's peak RSS, the report fingerprint
    and the engine's event count.  Extra set-up repeats are skipped when
    traced, so the trace covers exactly one simulation.
    """
    clock = time.perf_counter
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    setups = []
    for _ in range(0 if tracer is not None else workload.setup_repeats - 1):
        start = clock()
        spare = workload.build(seed)
        setups.append(clock() - start)
        del spare
        gc.collect()

    start = clock()
    with span("root.setup"):
        sim = workload.build(seed)
    setups.append(clock() - start)
    steps: List[List[float]] = []
    sent: List[int] = []
    base = sim.transport.probes_sent
    _advance(sim, workload, base + workload.warmup_probes, steps, sent)
    warm_steps = len(steps)
    _advance(sim, workload, sent[-1] + workload.timed_probes, steps, sent)
    start = clock()
    with span("root.report"):
        report = sim.report()
    report_s = clock() - start

    fp = fingerprint(report)
    return {
        "setups": setups,
        "steps": steps,
        "report_s": report_s,
        "sent": sent,
        "warm_steps": warm_steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fingerprint": fp,
        "digest": digest(fp),
        "problems": identity_problems(fp) + workload.expect(fp),
        "engine_events": sim.engine.events_executed,
    }


def traced_trial(workload: Workload, seed: int, trace_file: Path) -> Dict[str, Any]:
    """:func:`run_trial` with every layer wrapped; writes the trace file."""
    tracer = Tracer()
    with Instrumentation(tracer) as inst:
        instrument(inst)
        result = run_trial(workload, seed, tracer)
    summary = tracer.summary()
    result["layers"] = per_layer_metrics(summary, result["engine_events"])
    result["shares"] = layer_shares(summary)
    result["plan_calls"] = plan_layer_calls(summary)
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps({"workload": workload.name, "seed": seed, **summary}))
    return result


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=Path, default=None, metavar="FILE")
    args = parser.parse_args(argv)
    _check_source()
    workload = WORKLOADS[args.workload]
    if args.trace is None:
        result = run_trial(workload, args.seed)
    else:
        result = traced_trial(workload, args.seed, args.trace)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
