"""The benchmark's named workloads.

Each workload is a batch job: build one :class:`repro.GuessSimulation`
from the master seed, run a warm-up so caches and capacity windows reach
steady state, then a timed interval, then ``report()``.  All use the
engine's default scheduler (heap), the one ``run_guess_config`` uses.

Warm-up and timed interval are fixed amounts of work, counted in
transport probes (the ROADMAP's unit), not fixed simulated spans: the
simulation advances ``step`` simulated seconds at a time until the
transport has sent the phase's probes.  Query bursts make the work in a
fixed simulated span vary by about a quarter from one seed to the next;
a fixed probe count keeps every seed's trial the same size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List

#: Seed used when ``--seed`` is not given; the ledger pins each
#: workload's report fingerprint at this seed.
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    """One named benchmark input.

    Attributes:
        name: the ``--workload`` value.
        why: one-line reason the workload exists.
        warmup_probes: transport probes sent during the warm-up.
        timed_probes: transport probes sent during the timed interval.
        step: simulated seconds per step; each step is timed on its own.
        max_sim: simulated seconds by which both phases must be done.
        setup_repeats: constructions per trial; ``setup_s`` is the
            median over a run's constructions.
        trial_s: nominal wall seconds of one trial; a run of ``--seconds``
            makes ``round(seconds / trial_s)`` trials, a count that does
            not depend on how fast the program is.
        plans_armed: whether any optional plan is armed; when not, the
            plan layers must read zero calls in the traced run.
        build: ``seed -> GuessSimulation`` (construction is timed).
        expect: fingerprint -> problems (empty when the report has the
            shape this workload must produce).
    """

    name: str
    why: str
    warmup_probes: int
    timed_probes: int
    step: float
    max_sim: float
    setup_repeats: int
    trial_s: float
    plans_armed: bool
    build: Callable[[int], Any]
    expect: Callable[[Dict[str, int]], List[str]]


def _require(fp: Dict[str, int], **rules: str) -> List[str]:
    """Check ``field=">0"`` / ``field="=0"`` rules against a fingerprint."""
    problems = []
    for field, rule in rules.items():
        value = fp[field]
        if rule == ">0" and not value > 0:
            problems.append(f"{field} must be > 0, got {value}")
        elif rule == "=0" and value != 0:
            problems.append(f"{field} must be 0, got {value}")
    return problems


def _query_paper(seed: int) -> Any:
    from repro import GuessSimulation, ProtocolParams, SystemParams

    return GuessSimulation(
        SystemParams(network_size=1000),
        ProtocolParams(),
        seed=seed,
    )


def _armed_adversarial(seed: int) -> Any:
    from repro import (
        BreakerSpec,
        BudgetSpec,
        ChurnStorm,
        FaultPlan,
        GossipPlan,
        GuessSimulation,
        ObservationPlan,
        ProtocolParams,
        ResiliencePolicy,
        ScenarioPlan,
        SystemParams,
    )
    from repro.freshness.plan import CacheSizing, FreshnessPlan

    # Departures spread over the first 120 simulated seconds, beyond the
    # end of every seed's timed interval, so each step of the run sees the
    # same storm; a short storm would fall at a seed-dependent point of
    # the probe-counted interval and make its cost per probe vary.
    storm = ChurnStorm(start=0.0, width=120.0, fraction=0.4)
    return GuessSimulation(
        SystemParams(network_size=500, percent_bad_peers=10.0),
        ProtocolParams(probe_retries=2),
        seed=seed,
        faults=FaultPlan(loss_rate=0.05),
        scenarios=ScenarioPlan(storms=(storm,)),
        resilience=ResiliencePolicy(breaker=BreakerSpec(), budget=BudgetSpec()),
        gossip=GossipPlan(fanout=2, ttl=2),
        freshness=FreshnessPlan(
            notify_budget=3, depth=2, sizing=CacheSizing(policy="power-law")
        ),
        observe=ObservationPlan(spans=True, registry=True),
    )


QUERY_PAPER = Workload(
    name="query_paper",
    why=(
        "paper reference point (N=1000, Table 1/2 defaults, no plans): "
        "isolates the query probe path"
    ),
    warmup_probes=20_000,
    timed_probes=50_000,
    step=0.25,
    max_sim=400.0,
    setup_repeats=2,
    trial_s=4.0,
    plans_armed=False,
    build=_query_paper,
    expect=lambda fp: _require(
        fp, queries=">0", total_probes=">0", gossip_pushes="=0",
        freshness_notices="=0",
    ),
)

ARMED_ADVERSARIAL = Workload(
    name="armed_adversarial",
    why=(
        "N=500, 10% dead-pong attackers, all six plan kinds armed together: "
        "the failure path and every plan mediator"
    ),
    warmup_probes=25_000,
    timed_probes=45_000,
    step=0.25,
    max_sim=300.0,
    setup_repeats=5,
    trial_s=5.0,
    plans_armed=True,
    build=_armed_adversarial,
    expect=lambda fp: _require(
        fp, queries=">0", dead_probes=">0", gossip_pushes=">0",
        freshness_notices=">0", deaths=">0",
    ),
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (QUERY_PAPER, ARMED_ADVERSARIAL)
}
