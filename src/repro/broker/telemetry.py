"""The broker's observation store.

The broker "determines and maintains a database of the ``P_i`` and
``f_i`` across IaaS components across clouds [and] the ``t_i`` for
various components" (§II-C).  :class:`TelemetryStore` is that database:
it tracks *exposure* (how many component-minutes were observed) and
*events* (failures, repair durations, failover latencies), and derives
the estimates:

- ``P̂`` = observed down minutes / observed exposure minutes;
- ``f̂`` = observed failures / observed exposure years;
- ``t̂`` = mean observed failover minutes.

The paper's §IV notes short-term skews "smooth out over the long term";
experiment E5 measures exactly that convergence.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.cloud.events import ResourceEvent, ResourceEventKind
from repro.errors import InsufficientTelemetryError, ValidationError
from repro.units import MINUTES_PER_YEAR

#: Key of one observed component class: (provider name, component kind).
ComponentKey = tuple[str, str]

#: Current snapshot format version (shared with :mod:`repro.broker.persistence`).
SNAPSHOT_VERSION = 1


def _check_minutes(name: str, value: float, *, positive: bool = False) -> None:
    """Reject NaN, ±inf and negative (or, with ``positive``, zero) minutes.

    NaN compares false against every bound, so a bare ``< 0.0`` guard
    lets it through; merges only ever add, so one NaN or inf sample
    would poison every later estimate for its component class.
    """
    if not math.isfinite(value) or value < 0.0 or (positive and value == 0.0):
        bound = "> 0" if positive else ">= 0"
        raise ValidationError(f"{name} must be finite and {bound}, got {value!r}")


@dataclass
class _ComponentStats:
    """Accumulated observations for one (provider, kind) pair."""

    exposure_minutes: float = 0.0
    down_minutes: float = 0.0
    failures: int = 0
    failover_samples: list[float] = field(default_factory=list)


class TelemetryStore:
    """Accumulates observations and answers estimate queries."""

    def __init__(self) -> None:
        self._stats: dict[ComponentKey, _ComponentStats] = {}

    # -- recording ---------------------------------------------------------

    def register_exposure(
        self,
        provider: str,
        component_kind: str,
        node_count: int,
        horizon_minutes: float,
    ) -> None:
        """Record that ``node_count`` components were watched for a span.

        Exposure is the denominator of both ``P̂`` and ``f̂``; ingesting
        events without registering exposure is rejected at query time.
        """
        if node_count < 1:
            raise ValidationError(f"node_count must be >= 1, got {node_count!r}")
        _check_minutes("horizon_minutes", horizon_minutes, positive=True)
        stats = self._stats.setdefault((provider, component_kind), _ComponentStats())
        stats.exposure_minutes += node_count * horizon_minutes

    def record_failure(self, provider: str, component_kind: str) -> None:
        """Count one component failure."""
        stats = self._stats.setdefault((provider, component_kind), _ComponentStats())
        stats.failures += 1

    def record_outage(
        self, provider: str, component_kind: str, down_minutes: float
    ) -> None:
        """Record the duration of a completed outage."""
        _check_minutes("down_minutes", down_minutes)
        stats = self._stats.setdefault((provider, component_kind), _ComponentStats())
        stats.down_minutes += down_minutes

    def record_failover(
        self, provider: str, component_kind: str, failover_minutes: float
    ) -> None:
        """Record one observed failover latency."""
        _check_minutes("failover_minutes", failover_minutes)
        stats = self._stats.setdefault((provider, component_kind), _ComponentStats())
        stats.failover_samples.append(failover_minutes)

    def ingest(self, events: Iterable[ResourceEvent]) -> int:
        """Consume a fault-injector event stream; returns events read.

        FAILURE events count failures; REPAIR events carry the outage
        duration; FAILOVER events carry takeover latencies.
        """
        count = 0
        for event in events:
            count += 1
            if event.kind is ResourceEventKind.FAILURE:
                self.record_failure(event.provider, event.component_kind)
            elif event.kind is ResourceEventKind.REPAIR:
                self.record_outage(
                    event.provider, event.component_kind, event.duration_minutes
                )
            elif event.kind is ResourceEventKind.FAILOVER:
                self.record_failover(
                    event.provider, event.component_kind, event.duration_minutes
                )
            else:  # pragma: no cover - exhaustive enum guard
                raise ValidationError(f"unknown event kind {event.kind!r}")
        return count

    # -- snapshots and merging ---------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """This store's full state as a versioned, JSON-safe document.

        The snapshot is a deep copy: later recording on the store does
        not mutate it, so a snapshot taken by one thread can be merged
        or serialized by another without coordination.  The format is
        the :mod:`repro.broker.persistence` on-disk format.
        """
        components = []
        for (provider, kind), stats in sorted(self._stats.items()):
            components.append(
                {
                    "provider": provider,
                    "component_kind": kind,
                    "exposure_minutes": stats.exposure_minutes,
                    "down_minutes": stats.down_minutes,
                    "failures": stats.failures,
                    "failover_samples": list(stats.failover_samples),
                }
            )
        return {"snapshot_version": SNAPSHOT_VERSION, "components": components}

    @classmethod
    def from_snapshot(cls, payload: Mapping[str, Any]) -> "TelemetryStore":
        """Rebuild a store from :meth:`snapshot` output (exact round-trip)."""
        version = payload.get("snapshot_version")
        if version != SNAPSHOT_VERSION:
            raise ValidationError(
                f"unsupported telemetry snapshot_version {version!r}; "
                f"this library reads version {SNAPSHOT_VERSION}"
            )
        store = cls()
        for entry in payload.get("components", []):
            stats = _ComponentStats(
                exposure_minutes=float(entry["exposure_minutes"]),
                down_minutes=float(entry["down_minutes"]),
                failures=int(entry["failures"]),
                failover_samples=[float(x) for x in entry["failover_samples"]],
            )
            if stats.failures < 0:
                raise ValidationError(
                    f"negative statistics in snapshot entry {entry!r}"
                )
            _check_minutes("exposure_minutes", stats.exposure_minutes)
            _check_minutes("down_minutes", stats.down_minutes)
            for sample in stats.failover_samples:
                _check_minutes("failover_minutes", sample)
            store._stats[(entry["provider"], entry["component_kind"])] = stats
        return store

    def copy(self) -> "TelemetryStore":
        """An independent deep copy of this store.

        Copies the stats directly: everything in a store was validated
        on the way in, so re-checking every sample (as
        :meth:`from_snapshot` must for outside input) would only make
        each ingestion flush cost O(all samples ever observed).
        """
        clone = TelemetryStore()
        clone._stats = {
            key: _ComponentStats(
                exposure_minutes=stats.exposure_minutes,
                down_minutes=stats.down_minutes,
                failures=stats.failures,
                failover_samples=list(stats.failover_samples),
            )
            for key, stats in sorted(self._stats.items())
        }
        return clone

    def merge(self, other: "TelemetryStore") -> "TelemetryStore":
        """Fold another store's observations into this one; returns self.

        Per component class the counters add and the failover samples
        concatenate, so merging N disjoint partitions of an event stream
        reproduces single-store ingestion: a key absent from ``self``
        adopts the other store's accumulation bit-for-bit (``0.0 + x``
        is exact), and shared keys add their sums.  Merging stores that
        *split* one key's events regroups float additions, so estimates
        there agree only to rounding (see the associativity property
        tests).
        """
        for key, theirs in other._stats.items():
            mine = self._stats.setdefault(key, _ComponentStats())
            mine.exposure_minutes += theirs.exposure_minutes
            mine.down_minutes += theirs.down_minutes
            mine.failures += theirs.failures
            mine.failover_samples.extend(theirs.failover_samples)
        return self

    def adopt(self, other: "TelemetryStore") -> None:
        """Atomically replace this store's contents with ``other``'s.

        Publication is a single dict-reference assignment, so concurrent
        readers (estimate queries from serving threads) observe either
        the old state or the new state, never a partial merge — the
        lock-free hand-off the sharded ingestion pipeline relies on.
        ``other`` must not be mutated afterwards (the dict is shared,
        not copied).
        """
        self._stats = other._stats

    # -- queries -----------------------------------------------------------

    def observed_components(self) -> tuple[ComponentKey, ...]:
        """All (provider, kind) pairs with any exposure or events."""
        return tuple(sorted(self._stats))

    def exposure_years(self, provider: str, component_kind: str) -> float:
        """Observed component-years for a pair (0 when never watched)."""
        stats = self._stats.get((provider, component_kind))
        if stats is None:
            return 0.0
        return stats.exposure_minutes / MINUTES_PER_YEAR

    def down_probability(self, provider: str, component_kind: str) -> float:
        """``P̂``: observed fraction of exposure spent down."""
        stats = self._require(provider, component_kind)
        return min(stats.down_minutes / stats.exposure_minutes, 1.0)

    def failures_per_year(self, provider: str, component_kind: str) -> float:
        """``f̂``: observed failures per component-year."""
        stats = self._require(provider, component_kind)
        return stats.failures / (stats.exposure_minutes / MINUTES_PER_YEAR)

    def failover_minutes(self, provider: str, component_kind: str) -> float:
        """``t̂``: mean observed failover latency.

        Requires at least one failover observation.
        """
        stats = self._require(provider, component_kind)
        if not stats.failover_samples:
            raise InsufficientTelemetryError(
                f"no failover observations for {component_kind!r} on "
                f"{provider!r}; cannot estimate t"
            )
        return sum(stats.failover_samples) / len(stats.failover_samples)

    def failover_minutes_std(self, provider: str, component_kind: str) -> float:
        """Sample standard deviation of observed failover latencies.

        0 with fewer than two samples (no spread measurable yet).
        """
        stats = self._require(provider, component_kind)
        samples = stats.failover_samples
        if len(samples) < 2:
            return 0.0
        mean = sum(samples) / len(samples)
        variance = sum((x - mean) ** 2 for x in samples) / (len(samples) - 1)
        return variance**0.5

    def failure_count(self, provider: str, component_kind: str) -> int:
        """Raw failure count (useful as a sample-size indicator)."""
        stats = self._stats.get((provider, component_kind))
        return 0 if stats is None else stats.failures

    def _require(self, provider: str, component_kind: str) -> _ComponentStats:
        stats = self._stats.get((provider, component_kind))
        if stats is None or stats.exposure_minutes <= 0.0:
            raise InsufficientTelemetryError(
                f"no exposure recorded for component {component_kind!r} on "
                f"provider {provider!r}; register_exposure() first"
            )
        return stats
