"""Tests of the benchmark itself: short runs, seeded logs, the oracle.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, workload
from perfbench.wire import OBSERVE_YEARS, SERVER_SEED, Op

ROOT = Path(__file__).resolve().parent.parent


def _run(tmp_path: Path, *args: str) -> dict:
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args,
         "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_short_run_of_each_workload(tmp_path, name):
    result = _run(tmp_path, "--workload", name, "--seed", "3",
                  "--seconds", "1", "--trace", "0")
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    for name_, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END_UNITS[name_]
        assert metric["value"] > 0, name_


def test_traced_replay_of_a_saved_log(tmp_path):
    first = tmp_path / "first"
    _run(first, "--workload", "warm-recommend", "--seed", "4",
         "--seconds", "1", "--trace", "0")
    saved = json.loads((first / "log.json").read_text())
    replayed = tmp_path / "replayed"
    result = _run(replayed, "--from-run", str(first), "--trace", "1")
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER_UNITS)
    layers = json.loads((replayed / "layers.json").read_text())
    assert layers["mismatches"] == 0
    assert 0.0 < result["metrics"]["broker.coverage"]["value"] <= 1.5
    log = json.loads((replayed / "log.json").read_text())
    assert log["warmup"] == saved["warmup"]
    assert log["recommends"] == saved["recommends"][:len(log["recommends"])]


def _stream_bodies(name: str, seed: int, count: int) -> list[bytes]:
    stream = workload.RecommendStream(name, seed)
    return [stream.take()[2] for _ in range(count)]


@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_seed_determines_log(name):
    assert _stream_bodies(name, 7, 60) == _stream_bodies(name, 7, 60)
    assert _stream_bodies(name, 7, 60) != _stream_bodies(name, 8, 60)
    assert workload.warmup_requests(name, 7) == workload.warmup_requests(name, 7)
    assert workload.ingest_schedule(7, 5.0) == workload.ingest_schedule(7, 5.0)
    assert workload.ingest_schedule(7, 5.0) != workload.ingest_schedule(8, 5.0)
    assert workload.probe_batches(7) == workload.probe_batches(7)


def test_replayed_stream_sends_the_saved_bytes():
    original = workload.RecommendStream("cold-sweep", 5)
    bodies = [original.take()[2] for _ in range(10)]
    replay = workload.RecommendStream("cold-sweep", 99, replay=original.taken)
    assert [replay.take()[2] for _ in range(10)] == bodies
    assert replay.take() is None


@pytest.fixture(scope="module")
def twin():
    from perfbench.reference import Twin

    twin = Twin(SERVER_SEED, OBSERVE_YEARS, shards=4)
    yield twin
    twin.close()


def _served(twin, body: bytes) -> dict:
    from repro.broker.envelope import RecommendEnvelope

    envelope = RecommendEnvelope.from_json(body.decode())
    return twin.session.recommend_envelope(envelope).to_dict()


def test_tampered_report_is_counted_as_failed(twin):
    body = _stream_bodies("warm-recommend", 2, 1)[0]
    report = _served(twin, body)

    def op(payload, status=200):
        return Op(route="recommend", index=0, sent=0.0, status=status,
                  body=json.dumps(payload).encode())

    tampered = json.loads(json.dumps(report))
    tampered["providers"][0]["best"]["ha_cost"] += 0.01
    wrong_id = dict(report, request_id="someone-else")
    verdicts = twin.verify([
        (op(report), body),
        (op(tampered), body),
        (op(wrong_id), body),
        (op(report, status=500), body),
    ])
    assert verdicts == [True, False, False, False]


def test_ingest_ack_must_route_every_line(twin):
    text = workload.probe_batches(1)[0].encode()
    lines = len(text.splitlines())

    def ack(routed):
        return Op(route="ingest", index=0, sent=0.0, status=202,
                  body=json.dumps({"routed": routed}).encode())

    assert twin.verify([(ack(lines), text), (ack(lines - 1), text)]) == [True, False]



def test_slices_with_host_steal_are_left_out(monkeypatch):
    monkeypatch.setattr(run.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(run.os, "sysconf", lambda name: 100)
    # 2 CPUs x 2 s x 100 ticks/s: a 2-second slice holds 400 ticks, 5% is 20.
    ticks = [0, 5, 5, 60, 60, 65, 65, 65, 90, 90, 95]
    steal = [(2.0 * edge, count) for edge, count in enumerate(ticks)]
    assert run.kept_slices(steal, 2.0) == {0, 1, 3, 4, 5, 6, 8, 9}
    stolen_throughout = [(2.0 * edge, 100 * edge) for edge in range(11)]
    assert len(run.kept_slices(stolen_throughout, 2.0)) == 5
