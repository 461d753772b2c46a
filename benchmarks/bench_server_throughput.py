"""E11/E15-E17 — broker server throughput: wire requests, ingestion, guards.

Five sweeps over the :mod:`repro.server` serving layer:

1. **Requests/sec vs session worker count** — a fleet of client threads
   drives warm ``POST /v2/recommend`` calls through a live asyncio
   server; the engine cache means each request is pure serving work.
2. **Ingest throughput vs shard count** — a simulation-generated JSONL
   trace (wide cross-cloud keyspace, so hash partitioning balances)
   through the sharded pipeline, thread vs process backends.  Shard
   workers parse their own lines, so the process backend turns JSONL
   decoding into true parallelism on multi-core hosts; the table
   records ``os.cpu_count()`` because on a single core every sweep is
   necessarily flat.
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
5. **Gateway worker scaling** (``--workers N ...``; E17) — a warm sweep
   over eight distinct contracts through the in-process server and
   through a multi-process gateway at each requested worker count,
   asserting byte-identical recommendations everywhere and (on hosts
   with 4+ cores) that partitioned workers actually scale.

``--json PATH`` writes whichever legs ran as a machine-readable
artifact (e.g. ``BENCH_E15.json``, ``BENCH_E17.json``) for CI trend
tracking.

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
    """Sharded JSONL ingestion, thread vs process backends."""
    text = cross_cloud_trace(lines=60_000)
    lines = text.count("\n")
    reference = ingest_reference(text)
    rows = []
    for backend, shard_counts in (
        ("thread", (1, 4)),
        ("process", (1, 2, 4, 8)),
    ):
        for shards in shard_counts:
            serving = TelemetryStore()
            with ShardedIngestor(
                serving, num_shards=shards, backend=backend
            ) as ingestor:
                start = time.perf_counter()
                ingestor.submit_jsonl(text)
                ingestor.flush()
                elapsed = time.perf_counter() - start
            assert serving.snapshot() == reference.snapshot()
            rows.append((backend, shards, lines / elapsed))
    table = "\n".join(
        f"  {backend:<8} shards={shards}: {rate:9,.0f} lines/s"
        for backend, shards, rate in rows
    )
    emit(
        f"[E11] sharded ingest throughput ({lines:,}-line trace, 64 keys, "
        f"{os.cpu_count()} cpu):\n{table}\n"
        "  (process shards parse their own lines; scaling tracks core count)"
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


def _worker_scaling(
    emit=print,
    json_path: str | None = None,
    worker_counts: tuple[int, ...] = (1, 2, 4),
    fleet: int = 8,
    total: int = 48,
) -> int:
    """E17 worker scaling leg — in-process serving vs the gateway fleet.

    One warm ``POST /v2/recommend`` sweep over eight distinct contracts
    (so content routing actually spreads requests across partitions)
    through the in-process server, then through a gateway at each
    requested worker count — twin brokers every time, so the
    recommendation payloads must be identical across every leg.  The
    scaling assertions only engage on a genuinely multi-core host
    (``os.cpu_count() >= 4``): the whole point of the fleet is to put
    independent evaluation work on independent cores, and on one core
    the gateway can only add dispatch overhead.
    """
    contracts = [
        Contract.linear(98.0, 100.0 + 25.0 * index) for index in range(8)
    ]
    envelopes = [
        RecommendEnvelope(
            three_tier_request(contract), request_id=f"bench-e17-{index}"
        )
        for index, contract in enumerate(contracts)
    ]

    def drive(client):
        for envelope in envelopes:  # warm every partition's engines
            client.recommend(envelope)
        with ThreadPoolExecutor(max_workers=fleet) as pool:
            start = time.perf_counter()
            futures = [
                pool.submit(client.recommend, envelopes[index % len(envelopes)])
                for index in range(total)
            ]
            reports = [future.result() for future in futures]
            elapsed = time.perf_counter() - start
        stripped = [
            {k: v for k, v in report.best.to_dict().items()
             if k != "engine_stats"}
            for report in reports
        ]
        return stripped, elapsed

    legs = []
    baseline = None
    for workers in (0, *worker_counts):
        with start_in_thread(observed_broker(), workers=workers) as handle:
            client = ServerClient(handle.host, handle.port)
            stripped, elapsed = drive(client)
        mode = "in-process" if workers == 0 else f"gateway-{workers}"
        if baseline is None:
            baseline = stripped
        else:
            assert stripped == baseline, f"{mode} diverged from in-process"
        legs.append({
            "mode": mode,
            "workers": workers,
            "requests": total,
            "seconds": elapsed,
            "requests_per_s": total / elapsed,
        })

    base_rate = legs[0]["requests_per_s"]
    ratios = {
        leg["workers"]: leg["requests_per_s"] / base_rate for leg in legs[1:]
    }
    cores = os.cpu_count() or 1
    if cores >= 4:
        if 1 in ratios:
            assert ratios[1] >= 0.9, (
                f"one-worker gateway ran at {ratios[1]:.2f}x the in-process "
                "server — dispatch overhead exceeds the 10% budget"
            )
        if 4 in ratios:
            assert ratios[4] >= 2.0, (
                f"four-worker gateway ran at {ratios[4]:.2f}x the in-process "
                "server on a multi-core host — partitioning is not scaling"
            )
    emit(
        f"[E17] gateway worker scaling ({fleet} client threads, {total} "
        f"requests per leg, {len(envelopes)} contracts, {cores} cpu):\n"
        + "\n".join(
            f"  {leg['mode']:<12} {leg['seconds']:6.2f} s   "
            f"{leg['requests_per_s']:8.1f} req/s"
            + (
                f"   ({ratios[leg['workers']]:.2f}x in-process)"
                if leg["workers"] in ratios else ""
            )
            for leg in legs
        )
        + "\n  reports identical across every leg"
        + ("" if cores >= 4 else "; scaling asserts skipped on <4 cores")
    )
    if json_path:
        _write_json(json_path, {
            "experiment": "E17",
            "generated": datetime.now(timezone.utc).isoformat(),
            "cores": cores,
            "client_threads": fleet,
            "requests_per_leg": total,
            "legs": legs,
            "speedup_vs_in_process": {
                str(workers): ratio for workers, ratio in ratios.items()
            },
            "scaling_asserts_engaged": cores >= 4,
        })
        emit(f"  wrote {json_path}")
    return 0


def test_worker_scaling_smoke(emit):
    """A one-worker gateway answers byte-identically (fast)."""
    _worker_scaling(emit=emit, worker_counts=(1,), fleet=2, total=8)


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

    # 2. Sharded ingestion == single store, thread and process backends.
    text = cross_cloud_trace(lines=4_000)
    reference = ingest_reference(text)
    rates = []
    for backend, shards in (("thread", 4), ("process", 2)):
        serving = TelemetryStore()
        with ShardedIngestor(
            serving, num_shards=shards, backend=backend
        ) as ingestor:
            start = time.perf_counter()
            ingestor.submit_jsonl(text)
            ingestor.flush()
            elapsed = time.perf_counter() - start
        assert serving.snapshot() == reference.snapshot(), backend
        rates.append(f"{backend}x{shards} {4_000 / elapsed:,.0f} lines/s")
    print(f"[smoke] wire report bit-identical; ingest {'; '.join(rates)}")
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
        "--workers", nargs="+", type=int, metavar="N", default=None,
        help="measure gateway scaling at these worker counts vs the "
        "in-process server (E17), e.g. --workers 1 2 4",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="with --trace, --hardened or --workers, also "
        "write the timings as a JSON artifact (e.g. BENCH_E17.json)",
    )
    args = parser.parse_args()
    if sum((args.trace, args.hardened, args.workers is not None)) > 1:
        parser.error("--trace, --hardened and --workers are separate legs")
    if args.trace:
        raise SystemExit(_trace_overhead(json_path=args.json))
    if args.hardened:
        raise SystemExit(_hardening_overhead(json_path=args.json))
    if args.workers is not None:
        if any(count < 1 for count in args.workers):
            parser.error("--workers counts must be >= 1")
        raise SystemExit(
            _worker_scaling(
                json_path=args.json, worker_counts=tuple(args.workers)
            )
        )
    if args.json:
        parser.error(
            "--json requires --trace, --hardened or --workers"
        )
    if not args.smoke:
        parser.error("run via pytest for full benchmarks, or pass --smoke")
    raise SystemExit(_smoke())
