"""The in-process side: twin broker oracle, traced replay, calibration.

``Twin`` is a broker built from the server's seed and horizon.  It
answers every request the server answered and, for ingest-mixed, applies
the same telemetry batches in the same order through a
``ShardedIngestor`` with the server's shard count, so a served report
can be checked exactly (engine statistics aside, which depend on the
cache history).

``Twin.replay_traced`` is the per-layer run.  For each request it calls
``BrokerSession.recommend_envelope`` on the twin's session, and it also
composes the same answer on a second session from the calls that
``BrokerSession._recommend_provider`` makes, one span around each.  The
composed report must be byte-identical to ``recommend_envelope``'s, so
the layer split describes the real path.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.broker.api import EngineKey, _request_stats
from repro.broker.envelope import RecommendEnvelope, ReportEnvelope
from repro.broker.ratecard import registry_for_provider
from repro.broker.service import (
    _STRATEGY_FUNCTIONS,
    BrokerService,
    ProviderRecommendation,
    RecommendationReport,
)
from repro.cloud.providers import all_providers
from repro.cost.rates import LaborRate
from repro.errors import InsufficientTelemetryError
from repro.optimizer.engine import EvaluationEngine
from repro.optimizer.space import OptimizationProblem
from repro.server.ingest import ShardedIngestor
from repro.workloads.generators import random_problem


def canonical_report(payload: dict) -> str:
    """A report's JSON without the fields that depend on cache history."""
    stripped = dict(payload, request_id=None)
    stripped["providers"] = [
        dict(entry, engine_stats=None) for entry in payload["providers"]
    ]
    return json.dumps(stripped, sort_keys=True)


@dataclass
class Span:
    """One timed call: ``request`` is shared by every span of a request."""

    id: int
    parent: int | None
    request: int
    name: str
    start: float
    end: float

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Spans:
    """Spans kept in memory during the replay, written out at the end."""

    def __init__(self) -> None:
        self.records: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request: int):
        span_id = len(self.records) + len(self._stack)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.records.append(
                Span(span_id, parent, request, name, start, time.perf_counter())
            )


class Twin:
    """A broker built like the server's, answering the same requests."""

    def __init__(self, seed: int, years: float, shards: int) -> None:
        self.broker = BrokerService(all_providers())
        self.broker.observe_all(years=years, seed=seed)
        self.session = self.broker.session()
        self.ingestor = ShardedIngestor(self.broker.telemetry, num_shards=shards)
        self._expected: dict[tuple, str] = {}

    def close(self) -> None:
        self.session.close()
        self.ingestor.close()

    def apply(self, route: str, body: bytes) -> None:
        """Apply an ingest batch or a flush, as the server did."""
        if route == "ingest":
            self.ingestor.submit_jsonl(body.decode("utf-8"))
        else:
            self.ingestor.flush()

    def expected(self, body: bytes, generation: int) -> str:
        """The canonical report the server must have sent for ``body``.

        Memoized per request content and telemetry generation (flushes
        applied so far): repeated requests differ only in request id.
        """
        key = (generation, json.dumps(json.loads(body)["request"], sort_keys=True))
        if key not in self._expected:
            envelope = RecommendEnvelope.from_json(body.decode("utf-8"))
            report = self.session.recommend_envelope(envelope)
            self._expected[key] = canonical_report(report.to_dict())
        return self._expected[key]

    def verify(self, realized) -> list[bool]:
        """Check every realized operation, in the order the server saw it.

        ``realized`` holds ``(op, body)`` pairs.  A recommend passes when
        it is a 2xx for its own request id whose report equals the
        twin's; an ingest passes when every line was routed; a flush
        when it is a 2xx.  Telemetry reaches the twin in the same order.
        """
        generation = 0
        verdicts = []
        for op, body in realized:
            if op.route == "recommend":
                verdicts.append(served_matches(op, body, self.expected(body, generation)))
                continue
            verdicts.append(op.ok and _ack_ok(op, body))
            self.apply(op.route, body)
            generation += op.route == "flush"
        return verdicts

    # -- the traced replay ------------------------------------------------

    def replay_traced(self, realized, spans: Spans) -> dict:
        """Replay ``realized`` operations with a span around each layer.

        Spans carry the operation's position in ``realized`` as their
        request id.  Returns, per position, the request's candidate
        evaluations in the composed search (None for telemetry), the verdict of each operation (as
        :meth:`verify`) and how many composed reports were not
        byte-identical to ``recommend_envelope``'s.
        """
        composed_session = self.broker.session()
        figures_list: list[dict | None] = []
        verdicts = []
        mismatches = 0
        try:
            for position, (op, body) in enumerate(realized):
                if op.route != "recommend":
                    verdicts.append(op.ok and _ack_ok(op, body))
                    with spans.span("ingest_merge", position):
                        self.apply(op.route, body)
                    figures_list.append(None)
                    continue
                if op.ok:
                    with spans.span("client_decode", position):
                        ReportEnvelope.from_json(op.body.decode("utf-8"))
                with spans.span("parse", position):
                    envelope = RecommendEnvelope.from_json(body.decode("utf-8"))
                with spans.span("session", position):
                    reference = self.session.recommend_envelope(envelope)
                figures = {"evaluations": 0}
                verdicts.append(served_matches(
                    op, body, canonical_report(reference.to_dict())
                ))
                with spans.span("compose", position):
                    report = _compose(composed_session, envelope.request,
                                      spans, position, figures)
                    with spans.span("serialize", position):
                        with spans.span("serialize.from_report", position):
                            composed = ReportEnvelope.from_report(
                                report, request_id=envelope.request_id
                            )
                        with spans.span("serialize.to_json", position):
                            text = composed.to_json()
                mismatches += text != reference.to_json()
                figures_list.append(figures)
        finally:
            composed_session.close()
        return {"figures": figures_list, "verdicts": verdicts,
                "mismatches": mismatches}


def served_matches(op, body: bytes, expected: str) -> bool:
    """Is ``op`` a 2xx answering ``body``'s request id with ``expected``?"""
    if not op.ok:
        return False
    try:
        served = json.loads(op.body)
        if served.get("request_id") != json.loads(body)["request_id"]:
            return False
        return canonical_report(served) == expected
    except (ValueError, KeyError, TypeError, AttributeError):
        return False


def _ack_ok(op, body: bytes) -> bool:
    """An ingest ack must report every line of its batch as routed."""
    if op.route != "ingest":
        return True
    try:
        return json.loads(op.body)["routed"] == len(body.splitlines())
    except (ValueError, KeyError, TypeError):
        return False


def _compose(session, request, spans: Spans, index: int, figures: dict):
    """``BrokerSession.recommend`` spelled out, one span per layer call."""
    recommendations = []
    failures = []
    for name in session._provider_names(request):
        try:
            recommendations.append(
                _compose_provider(session, request, name, spans, index, figures)
            )
        except InsufficientTelemetryError as exc:
            failures.append(f"{name}: {exc}")
    if not recommendations:
        raise InsufficientTelemetryError("; ".join(failures))
    return RecommendationReport(
        request_name=request.system_name,
        recommendations=tuple(recommendations),
    )


def _compose_provider(session, request, name, spans, index, figures):
    """The calls of ``_cache_entry`` and ``_recommend_provider``, in order."""
    service = session.service
    provider = service.provider(name)
    with spans.span("key", index):
        with spans.span("key.materialize", index):
            base_system = service.materialize_topology(request, provider)
        with spans.span("key.estimate", index):
            failover = {
                requirement.component_kind: service.knowledge_base.estimate(
                    name, requirement.component_kind
                ).failover_minutes
                for requirement in request.clusters
            }
        with spans.span("key.build", index):
            key = EngineKey.build(
                name, base_system, request.contract, provider.rate_card,
                failover_minutes=failover,
                extended_catalog=request.extended_catalog,
                engine_mode=request.engine,
            )
    backend = session._request_backend(request)

    def build_engine() -> EvaluationEngine:
        registry = registry_for_provider(
            provider, failover_minutes=failover, extended=request.extended_catalog
        )
        problem = OptimizationProblem(
            base_system=base_system,
            registry=registry,
            contract=request.contract,
            labor_rate=LaborRate(provider.rate_card.labor_rate_per_hour),
        )
        with spans.span("terms", index):
            return EvaluationEngine(problem, mode=request.engine, backend=backend)

    cache = session.engine_cache
    with spans.span("cache_lookup", index):
        entry = cache.entry(key, build_engine)
    engine = entry.engine
    optimize = _STRATEGY_FUNCTIONS[request.strategy]
    try:
        with entry.lock:
            engine.set_backend(backend)
            before = engine.stats.snapshot()
            with spans.span("search", index):
                result = optimize(engine.problem, engine=engine)
            after = engine.stats.snapshot()
            first_service = entry.unserved
            entry.unserved = False
    finally:
        cache.finish(entry)
    figures["evaluations"] += after.candidate_evaluations - before.candidate_evaluations
    return ProviderRecommendation(
        provider_name=name,
        base_system=engine.problem.base_system,
        result=result,
        engine_stats=_request_stats(before, after, first_service),
    )


# -- calibration and host ---------------------------------------------------

#: The E14 generator (``random_problem(2024, ...)``) at 7 clusters:
#: 9,216 candidates, small enough to sweep several times per run.
CALIBRATION_CLUSTERS = 7
CALIBRATION_REPEATS = 3


def calibrate() -> dict[str, float]:
    """Evaluations per second of ``evaluate_all``, serial and vector.

    Not gated: it tells results from different hosts apart.  Each
    backend sweeps the fixed catalog ``CALIBRATION_REPEATS`` times; the
    median sweep is reported.
    """
    problem = random_problem(2024, clusters=CALIBRATION_CLUSTERS, choices_per_layer=3)
    figures = {}
    for backend in ("serial", "vector"):
        rates = []
        for _ in range(CALIBRATION_REPEATS):
            engine = EvaluationEngine(problem, cache=False, backend=backend)
            try:
                started = time.perf_counter()
                count = sum(1 for _ in engine.evaluate_all())
                rates.append(count / (time.perf_counter() - started))
            finally:
                engine.close()
        figures[f"calib.{backend}_evals_per_s"] = statistics.median(rates)
    return figures


def host_block(command: list[str]) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "serve_command": command,
    }
