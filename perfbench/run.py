#!/usr/bin/env python3
"""Out-of-process benchmark of the brokered recommendation service.

Spawns ``repro serve`` as a child process, drives one seeded workload at
it from this process, checks every answer against a twin broker built
in-process from the server's seed, and prints every metric by name and
unit.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` a separate traced run reports the per-layer ones.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest-mixed --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --from-run perfbench/runs/<run> --trace 1

Each run writes its log, results and (traced) spans and layer table to
``perfbench/runs/<workload>-s<seed>-t<trace>-<time>/`` (or ``--out``);
``--from-run`` replays an earlier run's log from that directory.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Server starts per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: Equal slices of the timed window.  A slice in which the hypervisor
#: took more than ``STEAL_LIMIT`` of the host's CPU time is left out of
#: the timings, but never more than half of them.
SLICES = 10
STEAL_LIMIT = 0.05
#: Sequential ``GET /healthz`` sent by the traced run (the HTTP floor).
HEALTHZ_PROBES = 200
#: The tail percentile of each workload.  Each leaves at least ten
#: samples beyond it in the timed half of a 25-second window; p99 on
#: warm and mixed did too, but moved by a third between runs of the
#: same code.
TAIL_PERCENTILE = {"warm-recommend": 95, "cold-sweep": 90, "ingest-mixed": 95}

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "success_rate": "fraction",
    "ingest_visible_p50_ms": "ms",
    "server_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "server.recommend_rtt_ms": "ms",
    "server.healthz_rtt_ms": "ms",
    "server.edge_self_ms": "ms",
    "server.ingest_rtt_ms": "ms",
    "server.flush_rtt_ms": "ms",
    "server.failed.recommend": "count",
    "server.failed.ingest": "count",
    "server.failed.flush": "count",
    "envelope.parse_ms": "ms",
    "envelope.serialize_ms": "ms",
    "envelope.client_decode_ms": "ms",
    "broker.key_ms": "ms",
    "broker.cache_lookup_ms": "ms",
    "broker.cache_hit_ratio": "fraction",
    "broker.cache_evictions": "count",
    "broker.session_ms": "ms",
    "broker.coverage": "fraction",
    "broker.ingest_merge_ms": "ms",
    "optimizer.terms_ms": "ms",
    "optimizer.search_ms": "ms",
    "optimizer.evals_per_s": "1/s",
    "optimizer.candidates_per_request": "count",
    "optimizer.evaluated_fraction": "fraction",
    "optimizer.result_cache_hit_ratio": "fraction",
    "calib.serial_evals_per_s": "1/s",
    "calib.vector_evals_per_s": "1/s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("warm-recommend", "cold-sweep", "ingest-mixed"))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--from-run", type=Path,
                        help="replay the log saved in an earlier run's directory")
    parser.add_argument("--out", type=Path, help="directory for this run's files")
    args = parser.parse_args(argv)
    if args.from_run is not None:
        saved = json.loads((args.from_run / "config.json").read_text())
        for name in ("workload", "seed", "seconds"):
            if getattr(args, name) is None:
                setattr(args, name, saved[name])
    missing = [name for name in ("workload", "seed", "seconds")
               if getattr(args, name) is None]
    if missing:
        parser.error("missing " + ", ".join("--" + name for name in missing))
    return args


def percentile(values, percent):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    if not ordered:
        return 0.0, 0
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def kept_slices(steal, slice_s: float) -> set[int]:
    """The slices of the window whose operations are timed.

    ``steal`` holds the host's steal counter at each slice edge.  Slices
    are ranked by the CPU time the hypervisor took in them; the better
    half is always kept, the rest only while under ``STEAL_LIMIT``.
    """
    limit = STEAL_LIMIT * slice_s * os.cpu_count() * os.sysconf("SC_CLK_TCK")
    stolen = [after - before for (_, before), (_, after) in zip(steal, steal[1:])]
    ranked = sorted(range(len(stolen)), key=stolen.__getitem__)
    half = len(ranked) // 2
    return set(ranked[:half]) | {i for i in ranked[half:] if stolen[i] <= limit}


def median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def main(argv=None) -> int:
    args = parse_args(argv)
    # A shell that starts a job in the background ignores SIGINT in it,
    # and an ignored signal stays ignored across exec, so the server
    # would not stop on it; a handler is reset to the default instead.
    # SIGTERM unwinds the same way, so the server is stopped then too.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    # The server and the twin run at their defaults whatever the caller's
    # environment says (REPRO_WORKERS, REPRO_BACKEND, REPRO_TRACE, ...).
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    from perfbench import reference, wire, workload

    stamp = time.strftime("%Y%m%d-%H%M%S") + f"-{os.getpid()}"
    run_dir = args.out or (
        ROOT / "perfbench" / "runs"
        / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}"
    )
    run_dir.mkdir(parents=True, exist_ok=True)

    # -- the seeded log ---------------------------------------------------
    if args.from_run is not None:
        log = json.loads((args.from_run / "log.json").read_text())
        stream = workload.RecommendStream(args.workload, args.seed, log["recommends"])
    else:
        log = {
            "workload": args.workload,
            "seed": args.seed,
            "warmup": workload.warmup_requests(args.workload, args.seed),
            "ingest": (workload.ingest_schedule(args.seed, args.seconds)
                       if args.workload == "ingest-mixed" else []),
            "probe": ([] if args.workload == "ingest-mixed"
                      else workload.probe_batches(args.seed)),
        }
        stream = workload.RecommendStream(args.workload, args.seed)
    warm_bodies = [workload.envelope_bytes(entry["request"], entry["request_id"])
                   for entry in log["warmup"]]
    # ingest-mixed keeps one connection so that every recommend is sent
    # either before a batch or after its flush was acknowledged.
    connections = 1 if args.workload == "ingest-mixed" else min(2, os.cpu_count() or 1)
    # Every request is handed back and forth between this process and
    # the server, and on cold-sweep the server's two request threads hand
    # its interpreter lock to each other every few milliseconds.  On
    # separate CPUs each handoff wakes an idle virtual CPU, and that wake
    # waits on the hypervisor, which moved the timings with the host's
    # load; on one CPU (the server inherits this affinity) the handoffs
    # stay inside the guest.  The serial optimizer holds the lock while
    # it computes, so a second CPU would not run two searches at once.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    # -- the wire run -----------------------------------------------------
    realized: list = []  # (op, body) in the order the server saw them
    setups: list[float] = []
    scraped: list[dict] = []
    healthz: list = []
    server = None
    try:
        for _ in range(1 if args.trace else SETUPS):
            if server is not None:
                server.stop()
            server = wire.ServerProcess(ROOT, run_dir / "server.log")
            started = time.perf_counter()
            server.start()
            warm_ops = wire.send_all(server, warm_bodies)
            setups.append(time.perf_counter() - started)
            realized.extend(zip(warm_ops, warm_bodies))
        # Before the window, so the server's state when the batches
        # arrive is the same whatever the window left behind.
        probe_ops = wire.ingest_probe(server, log["probe"], workload.PROBE_PERIOD_S)
        for op in probe_ops:
            body = log["probe"][op.index].encode("utf-8") if op.route == "ingest" else b""
            realized.append((op, body))
        if args.trace:
            healthz = wire.healthz_probe(server, HEALTHZ_PROBES)
            scraped.append(wire.scrape_metrics(server))
        window = wire.run_window(
            server, stream, log["ingest"], args.seconds, connections, SLICES
        )
        steal_s = (window.steal[-1][1] - window.steal[0][1]) / os.sysconf("SC_CLK_TCK")
        if args.trace:
            scraped.append(wire.scrape_metrics(server))
        rss_mb = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    log["recommends"] = stream.taken

    recommend_bodies = [
        workload.envelope_bytes(entry["request"], entry["request_id"])
        for entry in stream.taken
    ]
    first_window = len(realized)
    for op in window.ops:
        if op.route == "recommend":
            body = recommend_bodies[op.index]
        elif op.route == "ingest":
            body = log["ingest"][op.index]["body"].encode("utf-8")
        else:
            body = b""
        realized.append((op, body))

    # -- the oracle (and, traced, the per-layer replay) ---------------------
    shards = 4
    for op, _ in realized:
        if op.route == "ingest" and op.ok:
            shards = json.loads(op.body).get("shards", shards)
            break
    twin = reference.Twin(wire.SERVER_SEED, wire.OBSERVE_YEARS, shards)
    spans = reference.Spans()
    try:
        if args.trace:
            replay = twin.replay_traced(realized, spans)
            verdicts = replay["verdicts"]
        else:
            replay = None
            verdicts = twin.verify(realized)
    finally:
        twin.close()
    calibration = reference.calibrate()

    attempted = len(realized)
    failed = verdicts.count(False)
    window_positions = range(first_window, first_window + len(window.ops))
    recommends = [
        position for position in window_positions
        if realized[position][0].route == "recommend"
    ]
    slice_s = args.seconds / SLICES
    kept = kept_slices(window.steal, slice_s)

    def in_kept(moment):
        return int((moment - window.start) / slice_s) in kept

    rtts = [realized[position][0].rtt_ms for position in recommends
            if in_kept(realized[position][0].sent)]
    telemetry_positions = [
        position for position in range(first_window - len(probe_ops), len(realized))
        if realized[position][0].route != "recommend"
    ]
    telemetry = [realized[position][0] for position in telemetry_positions]
    visible = [op.done - op.due for op in telemetry if op.route == "flush"]
    tail_percent = TAIL_PERCENTILE[args.workload]
    tail_ms, beyond = percentile(rtts, tail_percent)
    completed = sum(
        1 for position in recommends
        if verdicts[position] and realized[position][0].done <= window.end
        and in_kept(realized[position][0].done)
    )

    if not args.trace:
        metrics = {
            "setup_s": median(setups),
            "throughput_rps": completed / (len(kept) * slice_s),
            "latency_p50_ms": median(rtts),
            "latency_tail_ms": tail_ms,
            "success_rate": 1.0 - failed / attempted,
            "ingest_visible_p50_ms": median(visible) * 1000.0,
            "server_rss_mb": rss_mb,
        }
        units = END_TO_END_UNITS
        correct = failed == 0
    else:
        metrics, table = per_layer(
            realized, verdicts, recommends, telemetry_positions, replay, spans,
            scraped, healthz,
        )
        metrics.update(calibration)
        units = PER_LAYER_UNITS
        correct = failed == 0 and replay["mismatches"] == 0
        write_layers(run_dir, args.workload, metrics, table, units, replay, spans)

    # -- results ----------------------------------------------------------
    config = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "connections": connections,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "replayed_from": str(args.from_run) if args.from_run else None,
        "server_seed": wire.SERVER_SEED,
        "observe_years": wire.OBSERVE_YEARS,
        "shards": shards,
        "tail_percentile": tail_percent,
        "host": reference.host_block(wire.serve_command()),
        "calibration": calibration,
    }
    detail = {
        "setups_s": setups,
        "recommends_in_window": len(recommends),
        "recommends_timed": len(rtts),
        "tail_samples_beyond": beyond,
        "ingest_batches": len(visible),
        "ingest_lateness_ms": window.lateness_ms,
        "host_steal_s": steal_s,
        "host_steal_ticks": window.steal,
        "slices_kept": sorted(kept),
        "failed_by_route_status": failures_by_route(realized, verdicts),
    }
    (run_dir / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    (run_dir / "log.json").write_text(json.dumps(log) + "\n")
    with open(run_dir / "realized.jsonl", "w") as out:
        for (op, _), verdict in zip(realized, verdicts):
            out.write(json.dumps({
                "route": op.route, "index": op.index, "status": op.status,
                "error": op.error, "rtt_ms": op.rtt_ms, "ok": verdict,
                "sent_s": op.sent - window.start,
            }) + "\n")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    (run_dir / "result.json").write_text(
        json.dumps(dict(result, config=config, detail=detail), indent=2) + "\n"
    )
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={config['host']['nproc']} run_dir={run_dir}")
    for name, unit in units.items():
        print(f"# {name:36s} {metrics[name]:14.4f} {unit}")
    print(f"# p{tail_percent} tail has {beyond} samples beyond it of {len(rtts)}; "
          f"ingest lateness p50 {median(window.lateness_ms):.3f} ms; "
          f"host steal in window {steal_s:.2f} s, {len(kept)} of {SLICES} "
          f"slices timed")
    print(json.dumps(result))
    return 0


def failures_by_route(realized, verdicts) -> dict[str, int]:
    counts: dict[str, int] = {}
    for (op, _), verdict in zip(realized, verdicts):
        if not verdict:
            key = f"{op.route} {op.status or op.error}"
            counts[key] = counts.get(key, 0) + 1
    return counts


def per_layer(realized, verdicts, recommends, telemetry_positions, replay,
              spans, scraped, healthz):
    """The per-layer metrics of a traced run, and their sample counts."""
    figures = replay["figures"]
    telemetry = [realized[position][0] for position in telemetry_positions]
    by_request: dict[int, dict[str, list]] = {}
    children: set[int] = set()
    for record in spans.records:
        by_request.setdefault(record.request, {}).setdefault(
            record.name, []
        ).append(record)
        if record.name == "terms":
            children.add(record.parent)

    def summed(name, positions=recommends):
        return [sum(span.ms for span in by_request[position].get(name, ()))
                for position in positions]

    def each(name):
        return [span for position in recommends
                for span in by_request[position].get(name, ())]

    served = [json.loads(realized[position][0].body) for position in recommends
              if verdicts[position]]
    stats = [entry["engine_stats"] or {} for report in served
             for entry in report["providers"]]
    provider_rows = [entry for report in served for entry in report["providers"]]
    merge_ms = summed("ingest_merge", telemetry_positions)
    batches = [a + b for a, b in zip(merge_ms[::2], merge_ms[1::2])]
    lookups = each("cache_lookup")

    def scraped_delta(family):
        before, after = scraped
        return after.get(family, 0.0) - before.get(family, 0.0)

    hits = scraped_delta("repro_engine_cache_hits_total")
    misses = scraped_delta("repro_engine_cache_misses_total")
    covered = sum(summed("key")) + sum(summed("cache_lookup")) + sum(
        summed("search")) + sum(summed("serialize.from_report"))
    session_ms = summed("session")
    search_ms = summed("search")
    evaluations = sum(figures[position]["evaluations"] for position in recommends)
    candidates = sum(entry.get("candidate_evaluations", 0) for entry in stats)
    rtts = {position: realized[position][0].rtt_ms for position in recommends}

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics = {
        "server.recommend_rtt_ms": median(rtts.values()),
        "server.healthz_rtt_ms": median(op.rtt_ms for op in healthz),
        "server.edge_self_ms": median(
            rtt - session for rtt, session in zip(rtts.values(), session_ms)
        ),
        "server.ingest_rtt_ms": median(op.rtt_ms for op in telemetry if op.route == "ingest"),
        "server.flush_rtt_ms": median(op.rtt_ms for op in telemetry if op.route == "flush"),
        "server.failed.recommend": 0,
        "server.failed.ingest": 0,
        "server.failed.flush": 0,
        "envelope.parse_ms": median(span.ms for span in each("parse")),
        "envelope.serialize_ms": median(span.ms for span in each("serialize")),
        "envelope.client_decode_ms": median(span.ms for span in each("client_decode")),
        "broker.key_ms": median(summed("key")),
        "broker.cache_lookup_ms": median(
            span.ms for span in lookups if span.id not in children
        ),
        "broker.cache_hit_ratio": ratio(hits, hits + misses),
        "broker.cache_evictions": scraped_delta("repro_engine_cache_evictions_total"),
        "broker.session_ms": median(session_ms),
        "broker.coverage": ratio(covered, sum(session_ms)),
        "broker.ingest_merge_ms": median(batches),
        "optimizer.terms_ms": median(span.ms for span in each("terms")),
        "optimizer.search_ms": median(search_ms),
        "optimizer.evals_per_s": ratio(evaluations, sum(search_ms) / 1000.0),
        "optimizer.candidates_per_request": ratio(candidates, len(served)),
        "optimizer.evaluated_fraction": ratio(
            sum(entry["evaluations"] for entry in provider_rows),
            sum(entry["space_size"] for entry in provider_rows),
        ),
        "optimizer.result_cache_hit_ratio": ratio(
            sum(entry.get("cache_hits", 0) for entry in stats), candidates
        ),
    }
    for (op, _), verdict in zip(realized, verdicts):
        if not verdict:
            metrics[f"server.failed.{op.route}"] += 1
    samples = {
        "server.recommend_rtt_ms": len(recommends),
        "server.healthz_rtt_ms": len(healthz),
        "server.edge_self_ms": len(recommends),
        "server.ingest_rtt_ms": len(batches),
        "server.flush_rtt_ms": len(batches),
        "envelope.parse_ms": len(recommends),
        "envelope.serialize_ms": len(recommends),
        "envelope.client_decode_ms": len(served),
        "broker.key_ms": len(recommends),
        "broker.cache_lookup_ms": sum(1 for span in lookups if span.id not in children),
        "broker.cache_hit_ratio": int(hits + misses),
        "broker.session_ms": len(recommends),
        "broker.coverage": len(recommends),
        "broker.ingest_merge_ms": len(batches),
        "optimizer.terms_ms": len(each("terms")),
        "optimizer.search_ms": len(recommends),
        "optimizer.evals_per_s": evaluations,
        "optimizer.candidates_per_request": len(served),
        "optimizer.evaluated_fraction": len(provider_rows),
        "optimizer.result_cache_hit_ratio": candidates,
    }
    return metrics, samples


#: Which module each per-layer metric prefix measures.
LAYER_MODULES = {
    "server": "repro.server (HTTP edge, executor hop)",
    "envelope": "repro.broker.envelope",
    "broker": "repro.broker (key resolution, EngineCache, BrokerSession, ingest)",
    "optimizer": "repro.optimizer",
    "calib": "machine calibration",
}


def write_layers(run_dir, workload, metrics, samples, units, replay, spans) -> None:
    """Write the spans and the per-layer table of a traced run."""
    with open(run_dir / "spans.jsonl", "w") as out:
        for record in spans.records:
            out.write(json.dumps({
                "id": record.id, "parent": record.parent, "request": record.request,
                "name": record.name, "start": record.start, "end": record.end,
            }) + "\n")
    lines = [
        f"# Per-layer table: {workload}",
        "",
        f"Composed reports not byte-identical to recommend_envelope: "
        f"{replay['mismatches']}",
        "",
        "| layer | metric | value | unit | samples |",
        "|---|---|---:|---|---:|",
    ]
    for name, unit in units.items():
        layer = LAYER_MODULES[name.split(".", 1)[0]]
        lines.append(f"| {layer} | `{name}` | {metrics[name]:.4f} | {unit} "
                     f"| {samples.get(name, '')} |")
    (run_dir / "layers.md").write_text("\n".join(lines) + "\n")
    (run_dir / "layers.json").write_text(json.dumps(
        {"workload": workload, "metrics": metrics, "samples": samples,
         "mismatches": replay["mismatches"]}, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(main())
