"""Which entry points the traced run wraps, and the per-layer metrics.

Span names are ``<layer>.<operation>``; the layer is the part before the
first dot.  Spans in the ``root`` layer are the simulator's event
handlers and the benchmark's own phases (set-up, report): their self time
is work no named layer covers, reported as ``unattributed_s``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Tuple

from perfbench.tracer import Instrumentation

#: Layers that only exist while a plan is armed (the ``from_plan -> None``
#: contract): their call counts must read zero on a plan-free workload.
PLAN_LAYERS = ("faults", "gossip", "freshness", "resilience", "observe")

#: Simulator event handlers traced as root operations.
ROOT_HANDLERS = (
    ("_query_burst", "root.query_burst"),
    ("_ping_cycle", "root.ping_cycle"),
    ("_on_death", "root.death"),
    ("_spawn_peer", "root.spawn"),
    ("_sample_health", "root.health_sample"),
    ("_churn_storm", "root.storm"),
    ("_storm_death", "root.storm_death"),
    ("_gossip_hop", "root.gossip_hop"),
    ("_invalidation_hop", "root.invalidation_hop"),
)


def _delivered(outcome: Any) -> int:
    return 1 if outcome.delivered else 0


def _truthy(result: Any) -> int:
    return 1 if result else 0


def _probes(result: Any) -> int:
    return result.probes


def _class_tree(cls: type) -> Iterator[type]:
    """``cls`` and every subclass, each once, in a stable order."""
    seen = set()
    pending = [cls]
    while pending:
        current = pending.pop(0)
        if current in seen:
            continue
        seen.add(current)
        yield current
        pending.extend(sorted(current.__subclasses__(), key=lambda c: c.__qualname__))


def targets() -> List[Tuple[Any, str, str, Dict[str, Any]]]:
    """Every ``(owner, attribute, span name, options)`` the traced run wraps."""
    from repro.baselines.gossip import GossipRelay
    from repro.core import network_sim, search
    from repro.core.entry import CacheEntry
    from repro.core.link_cache import LinkCache
    from repro.core.network_sim import GuessSimulation
    from repro.core.peer import GuessPeer
    from repro.core.policies import Policy
    from repro.core.query_cache import QueryCache
    from repro.faults.injector import FaultInjector
    from repro.faults.retry import RetryPolicy
    from repro.freshness.mediator import FreshnessMediator
    from repro.metrics.collectors import MetricsCollector
    from repro.network.transport import Transport
    from repro.observe.registry import Histogram, MetricsRegistry
    from repro.observe.spans import QuerySpan, SpanRecorder
    from repro.resilience.breaker import BreakerBoard
    from repro.resilience.budget import RetryBudget
    from repro.sim.engine import Simulator
    from repro.sim.windows import BucketedRateLimiter, SlidingWindowCounter
    from repro.workload.content import ContentModel

    found: List[Tuple[Any, str, str, Dict[str, Any]]] = [
        (Simulator, "run_until", "engine.run", {}),
        (Simulator, "schedule", "engine.schedule", {}),
        (Simulator, "schedule_after", "engine.schedule", {}),
        # Patched where the simulator looks it up, not where it is defined.
        (
            network_sim,
            "execute_query",
            "search.execute_query",
            {"tally": _probes, "samples": True},
        ),
        (Transport, "probe", "transport.probe", {"tally": _delivered}),
        (LinkCache, "insert", "link_cache.insert", {"tally": _truthy}),
        (LinkCache, "evict", "link_cache.evict", {}),
        (CacheEntry, "copy", "entry.copy", {}),
        (CacheEntry, "copy_for_import", "entry.copy_for_import", {}),
        (QueryCache, "add", "query_cache.add", {"tally": _truthy}),
        (ContentModel, "build_library", "content.build_library", {}),
        (ContentModel, "draw_query_target", "content.draw_query_target", {}),
        (FaultInjector, "should_drop", "faults.should_drop", {}),
        (FaultInjector, "extra_rtt", "faults.extra_rtt", {}),
        (RetryPolicy, "delay", "faults.retry_delay", {}),
        (network_sim, "probe_with_retry", "faults.retry", {}),
        (search, "probe_with_retry", "faults.retry", {}),
        (GossipRelay, "pick_targets", "gossip.hop", {}),
        (FreshnessMediator, "pick_contacts", "freshness.pick_contacts", {}),
        (FreshnessMediator, "cache_capacity", "freshness.cache_capacity", {}),
        (RetryBudget, "try_spend", "resilience.budget", {}),
        (SpanRecorder, "begin", "observe.spans", {}),
        (SpanRecorder, "finish", "observe.spans", {}),
        (QuerySpan, "record_probe", "observe.spans", {}),
        (MetricsRegistry, "advance", "observe.registry", {}),
        (Histogram, "observe", "observe.registry", {}),
    ]
    for attr in ("allow", "record_success", "record_refusal", "discard", "state_of"):
        found.append((BreakerBoard, attr, "resilience.breaker", {}))
    for cls in (BucketedRateLimiter, SlidingWindowCounter):
        found.append((cls, "try_record", "windows.try_record", {}))
        found.append((cls, "record", "windows.record", {}))
    for attr in sorted(vars(MetricsCollector)):
        if attr.startswith("record_") or attr == "harvest_peer":
            found.append((MetricsCollector, attr, "collectors.record", {}))
    found.append((MetricsCollector, "build_report", "collectors.report", {}))
    peer_names = {
        "receive_probe": "peer.receive_probe",
        "make_pong": "peer.make_pong",
        "import_pong_to_link_cache": "peer.import_pong",
    }
    for cls in _class_tree(GuessPeer):
        for attr, name in peer_names.items():
            if attr in vars(cls):
                found.append((cls, attr, name, {}))
    policy_names = {
        "select_best": "policies.select",
        "select_top": "policies.select",
        "order": "policies.order",
        "choose_victim": "policies.victim",
        "choose_victim_from": "policies.victim",
    }
    for cls in _class_tree(Policy):
        for attr, name in policy_names.items():
            if attr in vars(cls):
                found.append((cls, attr, name, {}))
    for attr, name in ROOT_HANDLERS:
        found.append((GuessSimulation, attr, name, {"root": True}))
    return found


def instrument(inst: Instrumentation) -> None:
    """Wrap every entry point in :func:`targets`."""
    for owner, attr, name, options in targets():
        inst.patch(owner, attr, name, **options)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _by_layer(stats: Dict[str, Any]) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Self seconds and calls summed per layer."""
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for name, s in stats.items():
        layer = layer_of(name)
        self_s[layer] = self_s.get(layer, 0.0) + s["self_s"]
        calls[layer] = calls.get(layer, 0) + s["calls"]
    return self_s, calls


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten of ``count`` samples
    beyond it under :func:`percentile`'s nearest rank; 0 when none has."""
    return (100 * (count - 10)) // count if count > 10 else 0


def percentile(values: List[float], pct: int) -> float:
    """Nearest-rank ``pct``-th percentile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1]


def per_layer_metrics(summary: Dict[str, Any], engine_events: int) -> Dict[str, float]:
    """The per-layer metric values of one traced trial.

    ``trace_overhead_s`` needs the untraced trials too and is added by
    the caller.
    """
    stats = summary["stats"]

    def calls(name: str) -> int:
        return stats.get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return stats.get(name, {}).get("self_s", 0.0)

    def tally(name: str) -> float:
        return stats.get(name, {}).get("tally", 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    layer_self, layer_calls = _by_layer(stats)

    query_ms = [d * 1000.0 for d in summary["samples"].get("search.execute_query", [])]
    tail = tail_percentile(len(query_ms))
    queries = calls("search.execute_query")
    engine_self = layer_self.get("engine", 0.0)
    metrics = {
        "engine.events": engine_events,
        "engine.events_per_s": ratio(engine_events, engine_self),
        "engine.self_s": engine_self,
        "search.queries": queries,
        "search.self_s": layer_self.get("search", 0.0),
        "search.probes_per_query": ratio(tally("search.execute_query"), queries),
        "search.query_ms_p50": percentile(query_ms, 50),
        "search.query_ms_ptail": percentile(query_ms, tail) if tail else 0.0,
        "search.query_ms_tail_pct": tail,
        "search.query_samples": len(query_ms),
        "transport.probes": calls("transport.probe"),
        "transport.self_s": layer_self.get("transport", 0.0),
        "transport.delivered_ratio": ratio(
            tally("transport.probe"), calls("transport.probe")
        ),
        "peer.receive_probe_calls": calls("peer.receive_probe"),
        "peer.receive_probe_self_s": self_s("peer.receive_probe"),
        "peer.make_pong_calls": calls("peer.make_pong"),
        "peer.make_pong_self_s": self_s("peer.make_pong"),
        "peer.import_pong_calls": calls("peer.import_pong"),
        "peer.import_pong_self_s": self_s("peer.import_pong"),
        "link_cache.insert_calls": calls("link_cache.insert"),
        "link_cache.insert_self_s": self_s("link_cache.insert"),
        "link_cache.admit_ratio": ratio(
            tally("link_cache.insert"), calls("link_cache.insert")
        ),
        "link_cache.evict_calls": calls("link_cache.evict"),
        "entry.copies": calls("entry.copy"),
        "entry.copy_self_s": layer_self.get("entry", 0.0),
        "query_cache.add_calls": calls("query_cache.add"),
        "query_cache.add_self_s": self_s("query_cache.add"),
        "query_cache.accept_ratio": ratio(
            tally("query_cache.add"), calls("query_cache.add")
        ),
        "policies.select_calls": calls("policies.select"),
        "policies.victim_calls": calls("policies.victim"),
        "policies.self_s": layer_self.get("policies", 0.0),
        "windows.record_calls": calls("windows.try_record"),
        "windows.self_s": layer_self.get("windows", 0.0),
        "collectors.record_calls": calls("collectors.record"),
        "collectors.self_s": layer_self.get("collectors", 0.0),
        "content.build_library_calls": calls("content.build_library"),
        "content.self_s": layer_self.get("content", 0.0),
        "gossip.hop_calls": calls("gossip.hop"),
        "unattributed_s": layer_self.get("root", 0.0),
    }
    for layer in PLAN_LAYERS:
        if layer != "gossip":
            metrics[f"{layer}.calls"] = layer_calls.get(layer, 0)
        metrics[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    return metrics


def layer_shares(summary: Dict[str, Any]) -> List[Tuple[str, float, float]]:
    """``(layer, self seconds, share of all self time)``, largest first."""
    totals, _ = _by_layer(summary["stats"])
    whole = sum(totals.values()) or 1.0
    return sorted(
        ((layer, secs, secs / whole) for layer, secs in totals.items()),
        key=lambda row: -row[1],
    )


def plan_layer_calls(summary: Dict[str, Any]) -> Dict[str, int]:
    """Call counts of the plan layers (all zero when no plan is armed)."""
    _, calls = _by_layer(summary["stats"])
    return {layer: calls.get(layer, 0) for layer in PLAN_LAYERS}
