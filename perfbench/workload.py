"""Seeded workload logs: request envelopes and telemetry batches as bytes.

Everything the server receives is generated here from the run's seed,
so the same seed always yields the same inputs.  The request shapes
(warm shapes, cold topologies) are part of the workload's definition
and the same for every seed; the seed chooses the contracts, the order
of the requests, their ids and the telemetry.  Recommend streams are
generated lazily (a closed loop does not know in advance how many
requests it will send); the prefix a run actually consumed is written to
its log so a later run can replay exactly those bytes (``--from-run``).

This module imports nothing from the system under test: it only builds
JSON documents in the broker's v2 wire format.
"""

from __future__ import annotations

import json
import random
import threading

#: Providers and component kinds the served broker observes at start-up.
PROVIDERS = ("cumulus", "metalcloud", "stratus")
KINDS = ("vm", "volume", "gateway")

#: Seconds between telemetry batches in ingest-mixed (open loop).
INGEST_PERIOD_S = 0.5
#: Due time of the first batch, relative to the start of the window.
INGEST_FIRST_DUE_S = 0.25
#: Ingest batches posted before the window on the closed-loop workloads,
#: one due every ``PROBE_PERIOD_S`` (an open loop): spread over 5 s, so
#: their median does not hang on one second of host speed.
PROBE_BATCHES = 100
PROBE_PERIOD_S = 0.05

#: Warm shapes.  The server's engine cache holds 16 engines at its
#: defaults and every shape pins one provider, so 16 shapes fill the
#: cache exactly and every warm request after the warm-up pass hits.
WARM_SHAPES = 16

#: The five penalty-clause shapes of the wire format.
PENALTY_KINDS = ("none", "linear", "tiered", "capped", "service-credit")
STRATEGIES = ("pruned", "brute-force", "branch-and-bound")

#: Cold-sweep topologies: (layer, min nodes, max nodes) per cluster.
#: 5-6 clusters over the extended catalog give 768-3072 candidates per
#: provider.  The ``other`` layer is avoided: it has no HA technology,
#: so it would not widen the search.
COLD_TOPOLOGIES = (
    (("compute", 2, 4), ("compute", 2, 3), ("compute", 1, 3),
     ("storage", 1, 2), ("storage", 1, 3), ("network", 1, 2)),
    (("compute", 2, 4), ("compute", 1, 3), ("storage", 1, 2),
     ("storage", 1, 3), ("network", 1, 2), ("network", 1, 1)),
    (("compute", 2, 4), ("compute", 1, 3), ("storage", 1, 2),
     ("storage", 1, 3), ("network", 1, 2)),
    (("compute", 2, 5), ("compute", 1, 3), ("compute", 1, 2),
     ("storage", 1, 2), ("network", 1, 2)),
)

WORKLOADS = ("warm-recommend", "cold-sweep", "ingest-mixed")


def _penalty(rng: random.Random, kind: str) -> dict:
    if kind == "none":
        return {"kind": "none"}
    if kind == "linear":
        return {"kind": "linear", "rate_per_hour": round(rng.uniform(50, 2000), 2)}
    if kind == "tiered":
        first = round(rng.uniform(1, 4), 2)
        second = round(rng.uniform(4, 12), 2)
        rate = round(rng.uniform(50, 400), 2)
        return {
            "kind": "tiered",
            "tiers": [[first, rate], [second, rate * 2], [1000.0, rate * 4]],
        }
    if kind == "capped":
        return {
            "kind": "capped",
            "monthly_cap": round(rng.uniform(500, 20000), 2),
            "inner": _penalty(rng, "linear"),
        }
    low = round(rng.uniform(0.5, 3), 2)
    return {
        "kind": "service-credit",
        "monthly_contract_value": round(rng.uniform(1000, 50000), 2),
        "schedule": [
            [low, 0.1],
            [round(low + rng.uniform(2, 8), 2), 0.25],
            [round(low + rng.uniform(10, 30), 2), 0.5],
        ],
    }


def _contract(rng: random.Random, kind: str) -> dict:
    return {
        "sla_percent": round(rng.uniform(99.0, 99.99), 4),
        "penalty": _penalty(rng, kind),
    }


def _request(name, clusters, contract, provider, strategy=None, extended=False):
    request = {
        "system_name": name,
        "clusters": clusters,
        "contract": contract,
        "providers": [provider],
    }
    if strategy is not None:
        request["strategy"] = strategy
    if extended:
        request["extended_catalog"] = True
    return request


def envelope_bytes(request: dict, request_id: str) -> bytes:
    """The exact body POSTed to ``/v2/recommend`` for one request."""
    envelope = {
        "schema_version": 2,
        "kind": "recommend-request",
        "request_id": request_id,
        "request": request,
    }
    return json.dumps(envelope, sort_keys=True).encode("utf-8")


def warm_shapes() -> list[dict]:
    """The warm request shapes: 3-4 clusters, all five penalty shapes.

    Strategy and backend are left unset, so the server's defaults
    apply.  Shape ``i`` pins provider ``i % 3``.  The shapes do not
    depend on the seed: a cache miss costs more on some shapes than on
    others, and the seed must not change how much work a window holds.
    """
    rng = random.Random("warm-shapes")
    shapes = []
    for index in range(WARM_SHAPES):
        clusters = [
            {"name": "web", "layer": "compute", "nodes": rng.randint(2, 4)},
            {"name": "data", "layer": "storage", "nodes": rng.randint(1, 2)},
            {"name": "edge", "layer": "network", "nodes": 1},
        ]
        if index % 2:
            extra = rng.choice(("compute", "storage"))
            clusters.insert(1, {"name": "app", "layer": extra,
                                "nodes": rng.randint(1, 3)})
        kind = PENALTY_KINDS[index % len(PENALTY_KINDS)]
        shapes.append(_request(
            f"warm-{index:02d}", clusters, _contract(rng, kind),
            PROVIDERS[index % len(PROVIDERS)],
        ))
    return shapes


def _cold_topologies() -> list[list[dict]]:
    """The cold-sweep topologies, the same for every seed: node counts
    change the cost of a search, and the seed must not change that."""
    rng = random.Random("cold-shapes")
    return [
        [
            {"name": f"{layer}-{position}", "layer": layer,
             "nodes": rng.randint(low, high)}
            for position, (layer, low, high) in enumerate(layout)
        ]
        for layout in COLD_TOPOLOGIES
    ]


class RecommendStream:
    """A workload's recommend requests, generated on demand from a seed.

    ``take()`` is thread-safe and returns ``(op index, request, body)``;
    ``None`` once a replayed log is exhausted.  ``taken`` is the prefix
    consumed so far, in send order — what the run's log records.
    """

    def __init__(self, workload: str, seed: int, replay: list | None = None):
        self.workload = workload
        self.seed = seed
        self.replay = replay
        self.taken: list[dict] = []
        self._lock = threading.Lock()
        self._rng = random.Random(f"{workload}:{seed}")
        self._shapes = warm_shapes()
        self._topologies = _cold_topologies()
        self._block: list[tuple] = []

    def _generate(self, index: int) -> dict:
        rng = self._rng
        if self.workload != "cold-sweep":
            return self._shapes[rng.randrange(len(self._shapes))]
        # Request costs span two orders of magnitude across topology,
        # strategy and provider, so each block of requests covers every
        # combination once, in seeded order: the mix a window sees (and
        # with it throughput and the percentiles) does not drift by seed.
        if not self._block:
            self._block = [
                (topology, strategy, provider)
                for topology in self._topologies
                for strategy in STRATEGIES
                for provider in PROVIDERS
            ]
            rng.shuffle(self._block)
        topology, strategy, provider = self._block.pop()
        return _request(
            f"cold-{index:05d}", topology,
            _contract(rng, rng.choice(PENALTY_KINDS)), provider,
            strategy=strategy, extended=True,
        )

    def take(self):
        with self._lock:
            index = len(self.taken)
            if self.replay is not None:
                if index >= len(self.replay):
                    return None
                entry = self.replay[index]
            else:
                entry = {
                    "request": self._generate(index),
                    "request_id": f"{self.workload}-{self.seed}-{index:06d}",
                }
            self.taken.append(entry)
        return index, entry, envelope_bytes(entry["request"], entry["request_id"])


def warmup_requests(workload: str, seed: int) -> list[dict]:
    """The warm-up pass sent once per server start, before any timing.

    Warm and mixed workloads send every shape once, so the engine cache
    holds all of them.  Cold-sweep sends one request per topology and
    strategy with contracts of its own, which loads the optimizer code
    paths without giving any timed request a cache hit.
    """
    if workload != "cold-sweep":
        requests = warm_shapes()
    else:
        rng = random.Random(f"cold-warmup:{seed}")
        topologies = _cold_topologies()
        requests = [
            _request(
                f"cold-warmup-{index}-{strategy}", clusters,
                _contract(rng, "linear"), PROVIDERS[index % len(PROVIDERS)],
                strategy=strategy, extended=True,
            )
            for index, clusters in enumerate(topologies)
            for strategy in STRATEGIES
        ]
    return [
        {"request": request, "request_id": f"warmup-{index:03d}"}
        for index, request in enumerate(requests)
    ]


def telemetry_batch(rng: random.Random, batch: int) -> str:
    """One day of fleet telemetry for every provider and kind, as JSONL.

    Each (provider, kind) pair gets at most one exposure and one repair
    record per batch.  The store accumulates those as float sums, so
    with one addend per pair and batch the merged state does not depend
    on how the server's periodic merges split a batch; failure counts
    are integers and failover samples an ordered list.
    """
    lines = []
    base = batch * 1440.0
    for provider in PROVIDERS:
        for kind in KINDS:
            common = {"provider": provider, "component_kind": kind}
            lines.append({
                "kind": "exposure", **common,
                "node_count": rng.randint(10, 40),
                "horizon_minutes": 1440.0,
            })
            failures = rng.randint(0, 3)
            for number in range(failures):
                lines.append({
                    "kind": "failure", **common,
                    "resource_id": f"probe-{batch}-{number}",
                    "time_minutes": base + rng.randint(0, 1439),
                    "duration_minutes": 0.0,
                })
            if failures:
                lines.append({
                    "kind": "repair", **common,
                    "resource_id": f"probe-{batch}-0",
                    "time_minutes": base + 1439.0,
                    "duration_minutes": round(rng.uniform(5, 240), 3),
                })
            for number in range(rng.randint(1, 2)):
                lines.append({
                    "kind": "failover", **common,
                    "resource_id": f"probe-{batch}-{number}",
                    "time_minutes": base + rng.randint(0, 1439),
                    "duration_minutes": round(rng.uniform(0.2, 15), 3),
                })
    return "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)


def ingest_schedule(seed: int, seconds: float) -> list[dict]:
    """Open-loop telemetry batches for ingest-mixed: due time and body."""
    rng = random.Random(f"ingest:{seed}")
    schedule = []
    due = INGEST_FIRST_DUE_S
    while due < seconds:
        schedule.append({"due_s": due, "body": telemetry_batch(rng, len(schedule))})
        due += INGEST_PERIOD_S
    return schedule


def probe_batches(seed: int) -> list[str]:
    """Ingest batches posted before a closed-loop window."""
    rng = random.Random(f"probe:{seed}")
    return [telemetry_batch(rng, index) for index in range(PROBE_BATCHES)]
