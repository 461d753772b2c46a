"""The broker as a network service: transport, ingestion, metrics.

The paper's broker is a *service* (§II-C): customers submit
requirements over a wire, and the broker continuously ingests
cross-cloud telemetry to keep its ``P̂/f̂/t̂`` database current.  This
package is that serving layer, stdlib-only:

- :mod:`repro.server.transport` — the asyncio HTTP edge speaking the
  v2 envelope protocol (recommend / batch / jobs / ingest / metrics)
  with per-connection backpressure and graceful shutdown;
- :mod:`repro.server.core` — the serving core, apart from HTTP
  framing: route resolution and the envelope handlers over one broker
  session;
- :mod:`repro.server.ingest` — sharded telemetry ingestion:
  hash-partitioned shard workers owning private stores, merged into the
  serving store by lock-free snapshot publication;
- :mod:`repro.server.metrics` — Prometheus text-format export of
  engine-cache, job-table, ingest-shard and request-latency metrics;
- :mod:`repro.server.hardening` — idempotency-key replay, per-client
  token-bucket rate limiting and bearer-token auth, so retried POSTs
  execute at most once and untrusted traffic is bounded;
- :mod:`repro.server.client` — the synchronous reference client, with
  keyed safe retries, 429 honouring and a circuit breaker.
"""

from repro.server.client import (
    CircuitBreaker,
    CircuitOpenError,
    ServerClient,
    ServerError,
)
from repro.server.core import RequestCore, resolve_route
from repro.server.hardening import (
    IDEMPOTENCY_KEY_HEADER,
    REPLAY_HEADER,
    IdempotencyStore,
    RateLimiter,
    authenticate,
    principal_for,
)
from repro.server.ingest import (
    ExposureRecord,
    ShardedIngestor,
    record_from_dict,
    record_to_dict,
    records_from_jsonl,
    records_to_jsonl,
    shard_index,
)
from repro.server.metrics import (
    MetricsRegistry,
    ServerMetrics,
    parse_prometheus_text,
)
from repro.server.transport import (
    SERVED_ROUTES,
    BrokerServer,
    ServerHandle,
    error_envelope_for,
    start_in_thread,
)

__all__ = [
    "IDEMPOTENCY_KEY_HEADER",
    "REPLAY_HEADER",
    "SERVED_ROUTES",
    "BrokerServer",
    "CircuitBreaker",
    "CircuitOpenError",
    "ExposureRecord",
    "IdempotencyStore",
    "MetricsRegistry",
    "RateLimiter",
    "RequestCore",
    "ServerClient",
    "ServerError",
    "ServerHandle",
    "ServerMetrics",
    "ShardedIngestor",
    "authenticate",
    "error_envelope_for",
    "parse_prometheus_text",
    "principal_for",
    "record_from_dict",
    "record_to_dict",
    "records_from_jsonl",
    "records_to_jsonl",
    "resolve_route",
    "shard_index",
    "start_in_thread",
]
