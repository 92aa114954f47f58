"""Output check and metric catalogue of the benchmark, on tiny networks."""

import json
from dataclasses import replace

import pytest

from perfbench import ROOT
from perfbench.fingerprint import digest, fingerprint, identity_problems
from perfbench.layers import per_layer_metrics
from perfbench.run import end_to_end
from perfbench.trial import REFERENCE_S, run_trial, traced_trial
from perfbench.workloads import ARMED_ADVERSARIAL, QUERY_PAPER, WORKLOADS


def _tiny_plain(seed):
    from repro import GuessSimulation, ProtocolParams, SystemParams

    return GuessSimulation(
        SystemParams(network_size=60, lifespan_multiplier=0.2),
        ProtocolParams(),
        seed=seed,
    )


def _tiny_armed(seed):
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

    return GuessSimulation(
        SystemParams(network_size=60, percent_bad_peers=10.0, lifespan_multiplier=0.2),
        ProtocolParams(probe_retries=2),
        seed=seed,
        faults=FaultPlan(loss_rate=0.05),
        scenarios=ScenarioPlan(storms=(ChurnStorm(start=20.0, width=5.0, fraction=0.4),)),
        resilience=ResiliencePolicy(breaker=BreakerSpec(), budget=BudgetSpec()),
        gossip=GossipPlan(fanout=2, ttl=2),
        freshness=FreshnessPlan(notify_budget=3, depth=2, sizing=CacheSizing(policy="power-law")),
        observe=ObservationPlan(spans=True, registry=True),
    )


TINY = dict(warmup_probes=200, timed_probes=600, step=1.0, max_sim=500.0, expect=lambda fp: [])
TINY_PLAIN = replace(QUERY_PAPER, name="tiny_plain", setup_repeats=2, build=_tiny_plain, **TINY)
TINY_ARMED = replace(
    ARMED_ADVERSARIAL, name="tiny_armed", setup_repeats=1, build=_tiny_armed, **TINY
)


@pytest.mark.parametrize("workload", [TINY_PLAIN, TINY_ARMED], ids=lambda w: w.name)
def test_fingerprint_is_stable_and_tracing_is_invisible(workload, tmp_path):
    first = run_trial(workload, seed=3)
    second = run_trial(workload, seed=3)
    assert first["fingerprint"] == second["fingerprint"]
    assert first["sent"] == second["sent"]
    assert first["sent"][first["warm_steps"] - 1] >= TINY["warmup_probes"]
    assert first["sent"][-1] - first["sent"][first["warm_steps"] - 1] >= TINY["timed_probes"]
    assert len(first["setups"]) == workload.setup_repeats
    assert len(first["steps"]) == len(first["sent"])
    assert first["problems"] == []
    assert first["fingerprint"]["total_probes"] > 0

    traced = traced_trial(workload, 3, tmp_path / "trace.json")
    assert traced["fingerprint"] == first["fingerprint"]
    assert (tmp_path / "trace.json").is_file()
    plan_calls = traced["plan_calls"]
    if workload.plans_armed:
        assert all(plan_calls[layer] > 0 for layer in ("faults", "gossip", "observe"))
    else:
        assert not any(plan_calls.values())

    other = run_trial(workload, seed=4)
    assert other["digest"] != first["digest"]


def test_identities_catch_a_broken_report():
    class Report:
        pass

    report = Report()
    for field in json.loads((ROOT / "perfbench" / "ledger.json").read_text())[
        "fingerprints"
    ]["query_paper"]:
        setattr(report, field, 0)
    report.total_probes, report.good_probes, report.dead_probes = 10, 7, 2
    fp = fingerprint(report)
    assert any("total_probes" in p for p in identity_problems(fp))
    report.refused_probes = 1
    assert any("stale + fresh" in p for p in identity_problems(fingerprint(report)))
    report.fresh_dead_probes = 2
    assert identity_problems(fingerprint(report)) == []
    assert digest(fingerprint(report)) == digest(dict(fingerprint(report)))


def test_steps_count_at_their_best_and_calls_at_their_median():
    ref = REFERENCE_S

    def result(setups, steps, report_s, rss):
        return {"setups": setups, "steps": steps, "report_s": report_s,
                "sent": [10, 20, 35, 50], "warm_steps": 2, "peak_rss_mb": rss}

    # The second trial ran on a machine twice as slow: its reference loops
    # took twice as long, so its times count half.
    values = end_to_end(
        [result([2.0, 4.0], [[1.0, ref], [5.0, ref], [2.0, ref], [1.0, ref]], 0.5, 10.0),
         result([6.0, 10.0], [[6.0, 2 * ref]] * 4, 2.0, 30.0),
         result([1.0, 3.0], [[2.0, ref], [4.0, ref], [4.0, ref], [2.0, ref]], 1.5, 20.0)],
        replace(QUERY_PAPER, step=0.5),
    )
    assert values == {
        "trial_wall_s": 3.0 + (1.0 + 3.0 + 2.0 + 1.0) + 1.0,
        "setup_s": 3.0,
        "probes_per_s": 30 / 3.0,
        "sim_s_per_s": 1.0 / 3.0,
        "peak_rss_mb": 20.0,
    }


def test_catalogue_matches_what_the_benchmark_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ledger = json.loads((ROOT / "perfbench" / "ledger.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert set(ledger["fingerprints"]) == set(WORKLOADS)

    empty = {"stats": {}, "samples": {}, "roots": []}
    emitted = set(per_layer_metrics(empty, 0)) | {"trace_overhead_s"}
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert set(per_layer) == emitted
    assert set(ledger["per_layer"]) == set(per_layer)
    e2e = [m["name"] for m in spec["end_to_end"]]
    for name, entry in ledger["per_layer"].items():
        for move in entry["moves"]:
            assert move["workload"] in WORKLOADS, name
            assert move["metric"] in e2e, name

    assert "setup_s" in e2e
    one_trial = {"setups": [1.0], "steps": [[1.0, 1.0]] * 2, "report_s": 1.0,
                 "sent": [1, 2], "warm_steps": 1, "peak_rss_mb": 1.0}
    assert set(e2e) <= set(end_to_end([one_trial], QUERY_PAPER))

