"""The v2 protocol conformance checks and their report.

Consumer-driven contract testing: each check drives a live server over
the real wire (via :class:`~repro.server.client.ServerClient`) and
asserts one observable protocol obligation — never implementation
detail.  Checks are independent; a failure carries enough detail to
diagnose the violating build without re-running.

Outcome semantics:

- ``pass`` — the obligation was exercised and held;
- ``fail`` — the server violated it (the report's exit code goes 1);
- ``skip`` — the obligation could not be exercised against this
  deployment (feature disabled, insufficient telemetry) — recorded, not
  counted as conformant.

Hardening features are *optional per deployment* but their shapes are
not: a server without a rate limiter skips the 429 check, while a
server that emits a 429 missing ``Retry-After`` fails it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from repro.broker.envelope import (
    ENVELOPE_SCHEMA_VERSION,
    ErrorEnvelope,
    RecommendEnvelope,
    ReportEnvelope,
)
from repro.broker.request import three_tier_request
from repro.obs import clock
from repro.obs.trace import new_trace_id
from repro.server.client import ServerClient
from repro.sla.contract import Contract

#: Seconds of polling granted to the async-job replay check.
_JOB_DEADLINE = 60.0


class _Fail(Exception):
    """Internal: the check's obligation was violated."""


class _Skip(Exception):
    """Internal: the obligation cannot be exercised on this deployment."""


@dataclass(frozen=True)
class CheckResult:
    """One check's outcome."""

    check: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "status": self.status,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class ConformanceReport:
    """The full suite outcome for one server."""

    url: str
    results: tuple[CheckResult, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> int:
        return sum(1 for result in self.results if result.status == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for result in self.results if result.status == "fail")

    @property
    def skipped(self) -> int:
        return sum(1 for result in self.results if result.status == "skip")

    @property
    def ok(self) -> bool:
        """Conformant: every exercised check passed."""
        return self.failed == 0

    def to_dict(self) -> dict:
        return {
            "schema_version": ENVELOPE_SCHEMA_VERSION,
            "kind": "conformance-report",
            "url": self.url,
            "ok": self.ok,
            "passed": self.passed,
            "failed": self.failed,
            "skipped": self.skipped,
            "results": [result.to_dict() for result in self.results],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_text(self) -> str:
        """Human-readable report (the CLI's stdout)."""
        marks = {"pass": "PASS", "fail": "FAIL", "skip": "skip"}
        lines = [f"v2 conformance against {self.url}:"]
        for result in self.results:
            line = f"  [{marks[result.status]}] {result.check}"
            if result.detail:
                line += f" — {result.detail}"
            lines.append(line)
        verdict = "CONFORMANT" if self.ok else "NOT CONFORMANT"
        lines.append(
            f"{verdict}: {self.passed} passed, {self.failed} failed, "
            f"{self.skipped} skipped"
        )
        return "\n".join(lines)


class ConformanceSuite:
    """Run the protocol checks against one server URL.

    ``auth_token`` is the credential for servers running with auth; the
    auth-shape check additionally probes *without* it to verify the
    401/403 envelopes.  Checks run in a fixed order with the
    rate-limit burst probe last, so its token spend cannot starve the
    earlier checks.
    """

    def __init__(
        self,
        url: str,
        auth_token: str | None = None,
        timeout: float = 30.0,
    ) -> None:
        self.url = url.rstrip("/")
        self.auth_token = auth_token
        self.timeout = timeout
        # The main client waits out 429s (rate_limit_budget) so a
        # limited deployment doesn't fail unrelated checks; the probe
        # client surfaces them (budget 0) for the shape checks.
        self.client = ServerClient.from_url(
            self.url,
            timeout=timeout,
            auth_token=auth_token,
            idempotency=False,
            rate_limit_budget=10.0,
        )
        self.probe = ServerClient.from_url(
            self.url,
            timeout=timeout,
            auth_token=auth_token,
            idempotency=False,
            rate_limit_budget=0.0,
        )

    def run(self) -> ConformanceReport:
        """Execute every check; exceptions become failures, not crashes."""
        checks = (
            ("health-endpoint", self.check_health),
            ("error-envelope-shape", self.check_error_envelope),
            ("envelope-key-discipline", self.check_key_discipline),
            ("recommend-round-trip", self.check_recommend_round_trip),
            ("trace-header-behaviour", self.check_trace_header),
            ("idempotent-recommend-replay", self.check_recommend_replay),
            ("idempotent-submit-replay", self.check_submit_replay),
            ("idempotent-ingest-replay", self.check_ingest_replay),
            ("job-result-replay", self.check_job_result_replay),
            ("cross-worker-replay", self.check_cross_worker_replay),
            ("auth-error-shape", self.check_auth_shape),
            ("rate-limit-shape", self.check_rate_limit_shape),
        )
        results = []
        for name, check in checks:
            try:
                detail = check() or ""
                results.append(CheckResult(name, "pass", detail))
            except _Skip as skip:
                results.append(CheckResult(name, "skip", str(skip)))
            except _Fail as failure:
                results.append(CheckResult(name, "fail", str(failure)))
            except Exception as exc:  # noqa: BLE001 - report, don't crash
                results.append(
                    CheckResult(
                        name, "fail", f"{type(exc).__name__}: {exc}"
                    )
                )
        return ConformanceReport(url=self.url, results=tuple(results))

    # -- request material ---------------------------------------------------

    def _envelope(self, **overrides) -> RecommendEnvelope:
        """A minimal valid recommend envelope (pruned three-tier)."""
        request = three_tier_request(
            Contract.linear(98.0, 100.0), compute_nodes=2
        )
        return RecommendEnvelope(request=request, **overrides)

    @staticmethod
    def _ingest_line() -> str:
        return json.dumps(
            {
                "kind": "exposure",
                "provider": "conformance-probe",
                "component_kind": "probe-node",
                "node_count": 1,
                "horizon_minutes": 1.0,
            }
        )

    @staticmethod
    def _error_envelope(status: int, text: str) -> ErrorEnvelope:
        try:
            envelope = ErrorEnvelope.from_json(text)
        except Exception as exc:  # noqa: BLE001 - shape check
            raise _Fail(
                f"{status} response body is not a parseable ErrorEnvelope: "
                f"{exc}; body: {text[:200]!r}"
            ) from exc
        if envelope.status != status:
            raise _Fail(
                f"error envelope status field {envelope.status} disagrees "
                f"with the HTTP status {status}"
            )
        return envelope

    def _post_recommend(self, envelope: RecommendEnvelope) -> tuple[int, str]:
        status, text = self.client.request_raw(
            "POST", "/v2/recommend", envelope.to_json(), idempotent_replay=True
        )
        if status == 422:
            raise _Skip(
                "server has insufficient telemetry for the probe request "
                "(observe providers before serving to exercise this check)"
            )
        return status, text

    # -- checks -------------------------------------------------------------

    def check_health(self) -> str:
        status, text = self.client.request_raw("GET", "/healthz")
        if status != 200:
            raise _Fail(f"GET /healthz returned {status}, want 200")
        payload = json.loads(text)
        if payload.get("kind") != "health" or payload.get("status") != "ok":
            raise _Fail(f"unexpected health document: {text[:200]!r}")
        return "healthy"

    def check_error_envelope(self) -> str:
        status, text = self.client.request_raw(
            "GET", "/v2/definitely-not-a-route"
        )
        if status != 404:
            raise _Fail(f"unknown route returned {status}, want 404")
        envelope = self._error_envelope(status, text)
        if not envelope.error:
            raise _Fail("404 envelope is missing its error slug")
        return f"404 envelope slug {envelope.error!r}"

    def check_key_discipline(self) -> str:
        payload = self._envelope().to_dict()
        payload["unexpected_field"] = True
        status, text = self.client.request_raw(
            "POST", "/v2/recommend", json.dumps(payload)
        )
        if status != 400:
            raise _Fail(
                f"envelope with an unknown key returned {status}, want 400"
            )
        self._error_envelope(status, text)
        return "unknown envelope keys rejected with a 400 envelope"

    def check_recommend_round_trip(self) -> str:
        envelope = self._envelope(request_id="conform-round-trip")
        status, text = self._post_recommend(envelope)
        if status != 200:
            raise _Fail(f"POST /v2/recommend returned {status}, want 200")
        report = ReportEnvelope.from_json(text)
        if report.request_id != "conform-round-trip":
            raise _Fail(
                f"report echoed request_id {report.request_id!r}, "
                "want 'conform-round-trip'"
            )
        return "request_id echoed through a full report round-trip"

    def check_trace_header(self) -> str:
        trace_id = new_trace_id()
        envelope = self._envelope(
            trace=f"00-{trace_id}-{'ab' * 8}-01"
        )
        status, _ = self._post_recommend(envelope)
        if status != 200:
            raise _Fail(f"traced recommend returned {status}, want 200")
        header = self.client.last_response_headers.get("x-repro-trace-id")
        if header is None:
            return "trace field accepted (tracing off: no trace header)"
        if header != trace_id:
            raise _Fail(
                f"X-Repro-Trace-Id {header!r} does not honour the "
                f"client-stamped trace id {trace_id!r}"
            )
        return "client-stamped trace id honoured in X-Repro-Trace-Id"

    def _assert_replay(
        self, first: tuple[int, str], second: tuple[int, str], what: str
    ) -> None:
        if second[0] != first[0]:
            raise _Fail(
                f"replayed {what} returned {second[0]}, original {first[0]}"
            )
        if second[1] != first[1]:
            raise _Fail(
                f"replayed {what} body is not byte-identical to the "
                f"original ({len(second[1])} vs {len(first[1])} chars)"
            )
        marker = self.client.last_response_headers.get(
            "idempotency-replayed"
        )
        if marker != "true":
            raise _Fail(
                f"repeated keyed {what} was re-executed, not replayed "
                "(no 'Idempotency-Replayed: true' header)"
            )

    def check_recommend_replay(self) -> str:
        envelope = self._envelope(idempotency_key=new_trace_id())
        first = self._post_recommend(envelope)
        if first[0] != 200:
            raise _Fail(f"keyed recommend returned {first[0]}, want 200")
        second = self._post_recommend(envelope)
        self._assert_replay(first, second, "recommend")
        return "byte-identical replay with the replay marker"

    def check_submit_replay(self) -> str:
        envelope = self._envelope(idempotency_key=new_trace_id())
        first = self.client.request_raw(
            "POST", "/v2/jobs", envelope.to_json(), idempotent_replay=True
        )
        if first[0] != 202:
            raise _Fail(f"keyed submit returned {first[0]}, want 202")
        second = self.client.request_raw(
            "POST", "/v2/jobs", envelope.to_json(), idempotent_replay=True
        )
        self._assert_replay(first, second, "submit")
        job_ids = {
            json.loads(first[1])["job_id"],
            json.loads(second[1])["job_id"],
        }
        if len(job_ids) != 1:
            raise _Fail(
                f"duplicate keyed submissions created distinct jobs: "
                f"{sorted(job_ids)}"
            )
        return f"one job ({job_ids.pop()}) for duplicate submissions"

    def check_ingest_replay(self) -> str:
        key = new_trace_id()
        line = self._ingest_line()
        first = self.client.request_raw(
            "POST",
            "/v2/ingest",
            line,
            headers={"Idempotency-Key": key},
            idempotent_replay=True,
        )
        if first[0] != 202:
            raise _Fail(f"keyed ingest returned {first[0]}, want 202")
        second = self.client.request_raw(
            "POST",
            "/v2/ingest",
            line,
            headers={"Idempotency-Key": key},
            idempotent_replay=True,
        )
        self._assert_replay(first, second, "ingest")
        return "repeated ingest acked from the replay table (no recount)"

    def check_job_result_replay(self) -> str:
        envelope = self._envelope(idempotency_key=new_trace_id())
        status, text = self.client.request_raw(
            "POST", "/v2/jobs", envelope.to_json(), idempotent_replay=True
        )
        if status != 202:
            raise _Fail(f"submit for result replay returned {status}")
        job_id = json.loads(text)["job_id"]
        deadline = clock.monotonic() + min(_JOB_DEADLINE, self.timeout)
        while True:
            first = self.client.request_raw(
                "GET", f"/v2/jobs/{job_id}/result"
            )
            if first[0] != 202:
                break
            if clock.monotonic() >= deadline:
                raise _Skip(
                    f"job {job_id} did not finish within the deadline"
                )
            time.sleep(0.05)
        second = self.client.request_raw("GET", f"/v2/jobs/{job_id}/result")
        self._assert_replay(first, second, "job result")
        return (
            f"terminal result ({first[0]}) replayed byte-identically "
            "after retrieval"
        )

    def check_cross_worker_replay(self) -> str:
        """Replay follows the idempotency key alone: same key, new body.

        A retry whose body drifted (a client rebuilding the request)
        must still be answered with the original bytes.  A deployment
        that routed requests by content before consulting its replay
        table — a load balancer over several servers, say — would send
        the drifted retry elsewhere and execute it again; the check
        holds any deployment to the single-server answer.
        """
        key = new_trace_id()
        first_envelope = self._envelope(idempotency_key=key)
        first = self._post_recommend(first_envelope)
        if first[0] != 200:
            raise _Fail(
                f"keyed recommend returned {first[0]}, want 200"
            )
        # Same key, different request content — routes to a different
        # partition under content-keyed routing.
        drifted = RecommendEnvelope(
            request=three_tier_request(
                Contract.linear(98.0, 150.0), compute_nodes=3
            ),
            idempotency_key=key,
        )
        second = self._post_recommend(drifted)
        self._assert_replay(first, second, "cross-partition recommend")
        return (
            "drifted-body retry under the original key replayed the "
            "original bytes"
        )

    def check_auth_shape(self) -> str:
        bare = ServerClient.from_url(
            self.url,
            timeout=self.timeout,
            idempotency=False,
            rate_limit_budget=0.0,
        )
        status, text = bare.request_raw("GET", "/v2/jobs/conform-auth-probe")
        if status != 401:
            raise _Skip(
                f"credential-less probe returned {status}; auth appears "
                "to be disabled on this deployment"
            )
        envelope = self._error_envelope(status, text)
        challenge = bare.last_response_headers.get("www-authenticate", "")
        if "bearer" not in challenge.lower():
            raise _Fail(
                "401 response is missing a Bearer WWW-Authenticate "
                f"challenge (got {challenge!r})"
            )
        wrong = ServerClient.from_url(
            self.url,
            timeout=self.timeout,
            auth_token=f"conform-wrong-{new_trace_id()}",
            idempotency=False,
            rate_limit_budget=0.0,
        )
        status, text = wrong.request_raw("GET", "/v2/jobs/conform-auth-probe")
        if status != 403:
            raise _Fail(
                f"wrong-token probe returned {status}, want 403"
            )
        self._error_envelope(status, text)
        return f"401 ({envelope.error}) without and 403 with a wrong token"

    def check_rate_limit_shape(self) -> str:
        limited: tuple[int, str] | None = None
        for _ in range(50):
            status, text = self.probe.request_raw(
                "GET", "/v2/jobs/conform-rate-probe"
            )
            if status == 429:
                limited = (status, text)
                break
        if limited is None:
            raise _Skip(
                "no 429 within 50 rapid requests; the rate limiter "
                "appears to be disabled on this deployment"
            )
        envelope = self._error_envelope(*limited)
        retry_after = self.probe.last_response_headers.get("retry-after")
        if retry_after is None:
            raise _Fail("429 response is missing the Retry-After header")
        try:
            seconds = float(retry_after)
        except ValueError as exc:
            raise _Fail(
                f"Retry-After {retry_after!r} is not a number of seconds"
            ) from exc
        if seconds <= 0.0:
            raise _Fail(f"Retry-After must be positive, got {seconds!r}")
        return (
            f"429 ({envelope.error}) with Retry-After {seconds:.3f}s"
        )


def run_conformance(
    url: str, auth_token: str | None = None, timeout: float = 30.0
) -> ConformanceReport:
    """Run the full suite against ``url`` and return its report."""
    return ConformanceSuite(url, auth_token=auth_token, timeout=timeout).run()
