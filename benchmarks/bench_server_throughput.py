"""E11/E15/E16 — broker server throughput: wire requests, ingestion, guards.

Four sweeps over the :mod:`repro.server` serving layer:

1. **Requests/sec vs session worker count** — a fleet of client threads
   drives warm ``POST /v2/recommend`` calls through a live asyncio
   server; the engine cache means each request is pure serving work.
2. **Ingest throughput vs shard count** — a simulation-generated JSONL
   trace (wide cross-cloud keyspace, so hash partitioning balances)
   through the sharded pipeline at 1, 2, 4 and 8 thread shards.  The
   table records ``os.cpu_count()`` alongside the rates.
3. **Tracing overhead** (``--trace``; E15) — warm request throughput
   through an untraced server (twice, bounding run-to-run jitter) and
   through a ``trace=True`` server with a traceparent-stamping client,
   asserting the traced server actually recorded span trees and that
   reports stay identical either way.
4. **Hardening overhead** (``--hardened``; E16) — the same warm request
   sweep through an open server (twice) and through the full guard
   stack — bearer auth, a non-binding rate limit and idempotency-key
   replay — asserting the replay table really filled and that reports
   stay identical either way.

``--json PATH`` writes whichever leg ran as a machine-readable
artifact (e.g. ``BENCH_E15.json``) for CI trend tracking.

Correctness is asserted alongside the timing: wire reports are
bit-identical to a direct session, and sharded ingestion reproduces
single-store estimates exactly at every shard count.
"""

from __future__ import annotations

import json
import os
import random
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone

from repro.broker.envelope import RecommendEnvelope
from repro.broker.request import three_tier_request
from repro.broker.service import BrokerService
from repro.broker.telemetry import TelemetryStore
from repro.cloud.events import ResourceEvent, ResourceEventKind
from repro.cloud.providers import all_providers
from repro.server import ServerClient, start_in_thread
from repro.server.ingest import ShardedIngestor, records_to_jsonl
from repro.sla.contract import Contract


def observed_broker(years: float = 1.0, seed: int = 23) -> BrokerService:
    broker = BrokerService(all_providers())
    broker.observe_all(years=years, seed=seed)
    return broker


def cross_cloud_trace(lines: int, providers: int = 16, seed: int = 1) -> str:
    """A JSONL telemetry trace over a wide (provider, kind) keyspace."""
    rng = random.Random(seed)
    names = [f"cloud-{index:02d}" for index in range(providers)]
    kinds = ("vm", "volume", "gateway", "lb")
    cycle = (
        ResourceEventKind.FAILURE,
        ResourceEventKind.REPAIR,
        ResourceEventKind.FAILOVER,
    )
    records = [
        ResourceEvent(
            float(index),
            names[index % providers],
            kinds[(index // providers) % len(kinds)],
            f"r-{index % 64}",
            cycle[index % 3],
            rng.random() * 50.0,
        )
        for index in range(lines)
    ]
    return records_to_jsonl(records)


def ingest_reference(text: str) -> TelemetryStore:
    store = TelemetryStore()
    with ShardedIngestor(store, num_shards=1) as ingestor:
        ingestor.submit_jsonl(text)
    return store


def _drive_requests(client: ServerClient, envelope, total: int, fleet: int):
    with ThreadPoolExecutor(max_workers=fleet) as pool:
        start = time.perf_counter()
        futures = [
            pool.submit(client.recommend, envelope) for _ in range(total)
        ]
        reports = [future.result() for future in futures]
        elapsed = time.perf_counter() - start
    return reports, elapsed


def test_request_throughput_vs_workers(emit):
    """Warm requests/sec through the wire, 1 vs 4 session workers."""
    request = three_tier_request(Contract.linear(98.0, 100.0))
    envelope = RecommendEnvelope(request, request_id="bench")
    total, fleet = 32, 8
    rows = []
    for max_workers in (1, 4):
        broker = observed_broker()
        with broker.session() as session:
            expected = session.recommend_envelope(envelope)
        with start_in_thread(broker, max_workers=max_workers) as handle:
            client = ServerClient(handle.host, handle.port)
            client.recommend(envelope)  # warm every provider engine
            reports, elapsed = _drive_requests(client, envelope, total, fleet)
        # engine_stats audit warm vs cold serving; the recommendation
        # itself must be identical.
        want = {k: v for k, v in expected.best.to_dict().items()
                if k != "engine_stats"}
        for report in reports:
            got = {k: v for k, v in report.best.to_dict().items()
                   if k != "engine_stats"}
            assert got == want
        rows.append((max_workers, total / elapsed))
    table = "\n".join(
        f"  {workers} session worker(s): {rate:8.1f} req/s"
        for workers, rate in rows
    )
    emit(
        f"[E11] warm /v2/recommend throughput ({fleet} client threads, "
        f"{total} requests, {os.cpu_count()} cpu):\n{table}"
    )


def test_ingest_throughput_vs_shards(emit):
    """Sharded JSONL ingestion at 1, 2, 4 and 8 shards."""
    text = cross_cloud_trace(lines=60_000)
    lines = text.count("\n")
    reference = ingest_reference(text)
    rows = []
    for shards in (1, 2, 4, 8):
        serving = TelemetryStore()
        with ShardedIngestor(serving, num_shards=shards) as ingestor:
            start = time.perf_counter()
            ingestor.submit_jsonl(text)
            ingestor.flush()
            elapsed = time.perf_counter() - start
        assert serving.snapshot() == reference.snapshot()
        rows.append((shards, lines / elapsed))
    table = "\n".join(
        f"  shards={shards}: {rate:9,.0f} lines/s" for shards, rate in rows
    )
    emit(
        f"[E11] sharded ingest throughput ({lines:,}-line trace, 64 keys, "
        f"{os.cpu_count()} cpu):\n{table}"
    )


def _write_json(path: str, payload: dict) -> None:
    """Write one benchmark artifact (stable key order, trailing newline)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _trace_overhead(
    emit=print, json_path: str | None = None, fleet: int = 8, total: int = 48
) -> int:
    """E15 tracing overhead leg — untraced x2 vs traced serving.

    Three identical warm ``POST /v2/recommend`` sweeps: two through an
    untraced server (their spread bounds run-to-run jitter — tracing
    left disabled must hide inside it, since the trace-capable code is
    in the hot path either way) and one through a ``trace=True`` server
    driven by a traceparent-stamping client.  The traced leg's relative
    slowdown is the *enabled* overhead the table and JSON artifact
    report.  Alongside the timing we assert the observability claims:
    the traced server recorded one span tree per request (request /
    parse / serialize phases present, retrievable via ``/v2/traces``)
    and the recommendation payload is identical in every leg.
    """
    request = three_tier_request(Contract.linear(98.0, 100.0))
    envelope = RecommendEnvelope(request, request_id="bench-e15")

    def serve(trace: bool):
        with start_in_thread(observed_broker(), trace=trace) as handle:
            client = ServerClient(handle.host, handle.port, trace=trace)
            client.recommend(envelope)  # warm every provider engine
            reports, elapsed = _drive_requests(client, envelope, total, fleet)
            tracing = None
            if trace:
                listing = client.traces(limit=total + 8)
                assert listing["traces"], "traced server recorded no traces"
                spans = client.trace_spans(client.last_trace_id)
                names = {span.name for span in spans}
                assert {"request", "parse", "serialize"} <= names, names
                tracing = {
                    "traces_recorded": len(listing["traces"]),
                    "dropped": listing["dropped"],
                    "spans_in_last_trace": len(spans),
                }
            return reports, elapsed, tracing

    legs = []
    want = None
    for mode, trace in (
        ("untraced-a", False), ("untraced-b", False), ("traced", True)
    ):
        reports, elapsed, tracing = serve(trace)
        stripped = [
            {k: v for k, v in report.best.to_dict().items()
             if k != "engine_stats"}
            for report in reports
        ]
        if want is None:
            want = stripped[0]
        assert all(got == want for got in stripped), f"{mode} diverged"
        leg = {
            "mode": mode,
            "requests": total,
            "seconds": elapsed,
            "requests_per_s": total / elapsed,
        }
        if tracing is not None:
            leg["tracing"] = tracing
        legs.append(leg)

    rate_a, rate_b, rate_traced = (leg["requests_per_s"] for leg in legs)
    jitter = abs(rate_a - rate_b) / max(rate_a, rate_b)
    baseline = (rate_a + rate_b) / 2.0
    enabled_overhead = max(0.0, 1.0 - rate_traced / baseline)
    emit(
        f"[E15] tracing overhead ({fleet} client threads, {total} requests "
        f"per leg, {os.cpu_count()} cpu):\n"
        + "\n".join(
            f"  {leg['mode']:<12} {leg['seconds']:6.2f} s   "
            f"{leg['requests_per_s']:8.1f} req/s"
            for leg in legs
        )
        + f"\n  untraced jitter {jitter:.1%}; enabled overhead "
        f"{enabled_overhead:.1%} vs untraced mean "
        f"({legs[2]['tracing']['traces_recorded']} traces recorded, "
        "reports identical)"
    )
    if json_path:
        _write_json(json_path, {
            "experiment": "E15",
            "generated": datetime.now(timezone.utc).isoformat(),
            "cores": os.cpu_count(),
            "client_threads": fleet,
            "requests_per_leg": total,
            "legs": legs,
            "untraced_jitter": jitter,
            "enabled_overhead_vs_untraced_mean": enabled_overhead,
        })
        emit(f"  wrote {json_path}")
    return 0


def test_trace_overhead_smoke(emit):
    """Traced serving records span trees, reports identical (fast)."""
    _trace_overhead(emit=emit, fleet=2, total=6)


def _hardening_overhead(
    emit=print, json_path: str | None = None, fleet: int = 8, total: int = 48
) -> int:
    """E16 hardening overhead leg — open serving vs the full guard stack.

    Three identical warm ``POST /v2/recommend`` sweeps: two through an
    open server with an unkeyed client (their spread bounds run-to-run
    jitter) and one through a hardened server — bearer auth, a
    non-binding rate limit, and a key-stamping client, so every request
    pays the auth check, a token-bucket debit and a replay-table claim/
    commit.  Alongside the timing we assert the hardening actually
    engaged (the replay table holds one entry per keyed request) and
    that the recommendation payload is identical in every leg.
    """
    request = three_tier_request(Contract.linear(98.0, 100.0))
    envelope = RecommendEnvelope(request, request_id="bench-e16")
    token = "bench-e16-token"

    def serve(hardened: bool):
        kwargs = {}
        if hardened:
            kwargs = {
                "auth_token": token,
                "rate_limit": 1e6,  # every request pays the bucket, none 429
                "idempotency_capacity": total * 2,
            }
        with start_in_thread(observed_broker(), **kwargs) as handle:
            client = ServerClient(
                handle.host,
                handle.port,
                auth_token=token if hardened else None,
                idempotency=hardened,
            )
            client.recommend(envelope)  # warm every provider engine
            reports, elapsed = _drive_requests(client, envelope, total, fleet)
            stored = len(handle.server.idempotency)
            if hardened:
                assert stored >= total, (
                    f"replay table holds {stored} entries for {total} "
                    "keyed requests — hardening did not engage"
                )
            return reports, elapsed, stored

    legs = []
    want = None
    for mode, hardened in (
        ("open-a", False), ("open-b", False), ("hardened", True)
    ):
        reports, elapsed, stored = serve(hardened)
        stripped = [
            {k: v for k, v in report.best.to_dict().items()
             if k != "engine_stats"}
            for report in reports
        ]
        if want is None:
            want = stripped[0]
        assert all(got == want for got in stripped), f"{mode} diverged"
        legs.append({
            "mode": mode,
            "requests": total,
            "seconds": elapsed,
            "requests_per_s": total / elapsed,
            "replay_entries": stored,
        })

    rate_a, rate_b, rate_hardened = (leg["requests_per_s"] for leg in legs)
    jitter = abs(rate_a - rate_b) / max(rate_a, rate_b)
    baseline = (rate_a + rate_b) / 2.0
    overhead = max(0.0, 1.0 - rate_hardened / baseline)
    emit(
        f"[E16] hardening overhead ({fleet} client threads, {total} requests "
        f"per leg, {os.cpu_count()} cpu):\n"
        + "\n".join(
            f"  {leg['mode']:<10} {leg['seconds']:6.2f} s   "
            f"{leg['requests_per_s']:8.1f} req/s"
            for leg in legs
        )
        + f"\n  open jitter {jitter:.1%}; auth+rate-limit+replay overhead "
        f"{overhead:.1%} vs open mean ({legs[2]['replay_entries']} replay "
        "entries stored, reports identical)"
    )
    if json_path:
        _write_json(json_path, {
            "experiment": "E16",
            "generated": datetime.now(timezone.utc).isoformat(),
            "cores": os.cpu_count(),
            "client_threads": fleet,
            "requests_per_leg": total,
            "legs": legs,
            "open_jitter": jitter,
            "overhead_vs_open_mean": overhead,
        })
        emit(f"  wrote {json_path}")
    return 0


def test_hardening_overhead_smoke(emit):
    """The guard stack engages and reports stay identical (fast)."""
    _hardening_overhead(emit=emit, fleet=2, total=6)


def _smoke() -> int:
    """Fast CI guard: wire fidelity + sharded-ingest exactness."""
    # 1. Wire report identical to a direct session on a twin broker.
    request = three_tier_request(Contract.linear(98.0, 100.0))
    envelope = RecommendEnvelope(request, request_id="smoke")
    with observed_broker(seed=7).session() as session:
        expected = session.recommend_envelope(envelope).to_json()
    with start_in_thread(observed_broker(seed=7)) as handle:
        client = ServerClient(handle.host, handle.port)
        got = client.recommend(envelope).to_json()
        assert got == expected, "wire report diverged from direct session"
        samples = client.metrics()
        assert ("repro_engine_cache_misses_total", ()) in samples

    # 2. Sharded ingestion == single store.
    text = cross_cloud_trace(lines=4_000)
    reference = ingest_reference(text)
    serving = TelemetryStore()
    with ShardedIngestor(serving, num_shards=4) as ingestor:
        start = time.perf_counter()
        ingestor.submit_jsonl(text)
        ingestor.flush()
        elapsed = time.perf_counter() - start
    assert serving.snapshot() == reference.snapshot()
    print(
        "[smoke] wire report bit-identical; ingest "
        f"4 shards {4_000 / elapsed:,.0f} lines/s"
    )
    return 0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the fast correctness smoke instead of pytest-benchmark",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="measure tracing overhead: untraced x2 vs traced (E15)",
    )
    parser.add_argument(
        "--hardened", action="store_true",
        help="measure auth+rate-limit+replay overhead: open x2 vs "
        "hardened (E16)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="with --trace or --hardened, also write the timings as a "
        "JSON artifact (e.g. BENCH_E15.json)",
    )
    args = parser.parse_args()
    if args.trace and args.hardened:
        parser.error("--trace and --hardened are separate legs")
    if args.trace:
        raise SystemExit(_trace_overhead(json_path=args.json))
    if args.hardened:
        raise SystemExit(_hardening_overhead(json_path=args.json))
    if args.json:
        parser.error("--json requires --trace or --hardened")
    if not args.smoke:
        parser.error("run via pytest for full benchmarks, or pass --smoke")
    raise SystemExit(_smoke())
