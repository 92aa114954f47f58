"""Output check: a fingerprint of a :class:`repro.SimulationReport`.

Two runs of one workload at one seed must produce the same fingerprint,
traced or not — that is what proves the trace wrappers are invisible —
and every fingerprint must satisfy the report's accounting identities.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List

#: Report counters folded into the fingerprint, in a fixed order.
FIELDS = (
    "queries",
    "satisfied_queries",
    "total_results",
    "total_probes",
    "good_probes",
    "dead_probes",
    "refused_probes",
    "pings_sent",
    "dead_pings",
    "stale_dead_probes",
    "fresh_dead_probes",
    "births",
    "deaths",
    "gossip_rumors",
    "gossip_pushes",
    "gossip_delivered",
    "gossip_refused",
    "gossip_imports",
    "gossip_suppressed_forwards",
    "freshness_notices",
    "freshness_notices_delivered",
    "freshness_notices_refused",
    "freshness_purges",
    "freshness_refresh_imports",
    "transport_probes_sent",
)


def fingerprint(report: Any) -> Dict[str, int]:
    """The report's counters named in :data:`FIELDS`."""
    return {field: int(getattr(report, field)) for field in FIELDS}


def digest(fp: Dict[str, int]) -> str:
    """Short stable hex digest of a fingerprint."""
    text = json.dumps(fp, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def identity_problems(fp: Dict[str, int]) -> List[str]:
    """Accounting identities every report must satisfy."""
    problems = []
    outcomes = fp["good_probes"] + fp["dead_probes"] + fp["refused_probes"]
    if outcomes != fp["total_probes"]:
        problems.append(
            f"good + dead + refused = {outcomes} != total_probes "
            f"{fp['total_probes']}"
        )
    dead = fp["dead_probes"] + fp["dead_pings"]
    split = fp["stale_dead_probes"] + fp["fresh_dead_probes"]
    if split != dead:
        problems.append(f"stale + fresh dead = {split} != dead probes + pings {dead}")
    if min(fp["stale_dead_probes"], fp["fresh_dead_probes"]) < 0:
        problems.append("stale/fresh dead split has a negative part")
    if fp["satisfied_queries"] > fp["queries"]:
        problems.append("more satisfied queries than queries")
    return problems
