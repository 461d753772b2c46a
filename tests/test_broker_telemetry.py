"""TelemetryStore and KnowledgeBase: the broker's P/f/t database."""

from __future__ import annotations

import pytest

from repro.broker.knowledge_base import KnowledgeBase
from repro.broker.telemetry import TelemetryStore
from repro.cloud.deployment import deploy_system
from repro.cloud.faults import FaultInjector
from repro.cloud.providers import metalcloud
from repro.errors import InsufficientTelemetryError, ValidationError
from repro.units import MINUTES_PER_YEAR


class TestTelemetryStore:
    def test_exposure_required_for_estimates(self):
        store = TelemetryStore()
        store.record_failure("p", "vm")
        with pytest.raises(InsufficientTelemetryError, match="exposure"):
            store.down_probability("p", "vm")

    def test_down_probability_is_down_over_exposure(self):
        store = TelemetryStore()
        store.register_exposure("p", "vm", node_count=10, horizon_minutes=1000.0)
        store.record_outage("p", "vm", down_minutes=100.0)
        assert store.down_probability("p", "vm") == pytest.approx(0.01)

    def test_failures_per_year(self):
        store = TelemetryStore()
        store.register_exposure("p", "vm", 1, MINUTES_PER_YEAR)
        for _ in range(6):
            store.record_failure("p", "vm")
        assert store.failures_per_year("p", "vm") == pytest.approx(6.0)

    def test_failover_minutes_is_mean(self):
        store = TelemetryStore()
        store.register_exposure("p", "vm", 1, MINUTES_PER_YEAR)
        store.record_failover("p", "vm", 8.0)
        store.record_failover("p", "vm", 12.0)
        assert store.failover_minutes("p", "vm") == pytest.approx(10.0)

    def test_failover_without_samples_raises(self):
        store = TelemetryStore()
        store.register_exposure("p", "vm", 1, MINUTES_PER_YEAR)
        with pytest.raises(InsufficientTelemetryError, match="failover"):
            store.failover_minutes("p", "vm")

    def test_exposure_accumulates(self):
        store = TelemetryStore()
        store.register_exposure("p", "vm", 2, MINUTES_PER_YEAR)
        store.register_exposure("p", "vm", 3, MINUTES_PER_YEAR)
        assert store.exposure_years("p", "vm") == pytest.approx(5.0)

    def test_providers_kept_separate(self):
        store = TelemetryStore()
        store.register_exposure("a", "vm", 1, 1000.0)
        store.register_exposure("b", "vm", 1, 1000.0)
        store.record_outage("a", "vm", 100.0)
        assert store.down_probability("a", "vm") == pytest.approx(0.1)
        assert store.down_probability("b", "vm") == 0.0

    def test_ingest_counts_events(self):
        provider = metalcloud()
        vm = provider.provision_vm("bm.small")
        events = FaultInjector(provider, seed=1).inject(
            [vm], horizon_minutes=10 * MINUTES_PER_YEAR
        )
        store = TelemetryStore()
        assert store.ingest(events) == len(events)

    def test_validation_of_inputs(self):
        store = TelemetryStore()
        with pytest.raises(ValidationError):
            store.register_exposure("p", "vm", 0, 100.0)
        with pytest.raises(ValidationError):
            store.register_exposure("p", "vm", 1, 0.0)
        with pytest.raises(ValidationError):
            store.record_outage("p", "vm", -1.0)
        with pytest.raises(ValidationError):
            store.record_failover("p", "vm", -1.0)

    def test_observed_components_sorted(self):
        store = TelemetryStore()
        store.register_exposure("b", "vm", 1, 100.0)
        store.register_exposure("a", "volume", 1, 100.0)
        assert store.observed_components() == (("a", "volume"), ("b", "vm"))


class TestSnapshotAndMerge:
    def make_store(self, provider="p", kind="vm"):
        store = TelemetryStore()
        store.register_exposure(provider, kind, 4, 2 * MINUTES_PER_YEAR)
        for _ in range(3):
            store.record_failure(provider, kind)
        store.record_outage(provider, kind, 120.0)
        store.record_failover(provider, kind, 7.5)
        store.record_failover(provider, kind, 2.5)
        return store

    def test_snapshot_round_trip_is_exact(self):
        store = self.make_store()
        restored = TelemetryStore.from_snapshot(store.snapshot())
        assert restored.snapshot() == store.snapshot()
        assert restored.down_probability("p", "vm") == store.down_probability(
            "p", "vm"
        )
        assert restored.failover_minutes("p", "vm") == store.failover_minutes(
            "p", "vm"
        )

    def test_snapshot_is_a_deep_copy(self):
        store = self.make_store()
        snapshot = store.snapshot()
        store.record_failure("p", "vm")
        assert snapshot["components"][0]["failures"] == 3

    def test_snapshot_version_checked(self):
        with pytest.raises(ValidationError, match="snapshot_version"):
            TelemetryStore.from_snapshot({"snapshot_version": 99})

    def test_merge_disjoint_keys_equals_union(self):
        left = self.make_store(provider="a")
        right = self.make_store(provider="b")
        merged = left.copy().merge(right)
        assert merged.observed_components() == (("a", "vm"), ("b", "vm"))
        assert merged.down_probability("a", "vm") == left.down_probability(
            "a", "vm"
        )
        assert merged.down_probability("b", "vm") == right.down_probability(
            "b", "vm"
        )

    def test_merge_shared_key_adds_counters(self):
        left = TelemetryStore()
        left.register_exposure("p", "vm", 1, 1000.0)
        left.record_failure("p", "vm")
        left.record_failover("p", "vm", 4.0)
        right = TelemetryStore()
        right.register_exposure("p", "vm", 1, 3000.0)
        right.record_failure("p", "vm")
        right.record_failover("p", "vm", 8.0)
        merged = left.copy().merge(right)
        assert merged.exposure_years("p", "vm") == pytest.approx(
            4000.0 / MINUTES_PER_YEAR
        )
        assert merged.failure_count("p", "vm") == 2
        assert merged.failover_minutes("p", "vm") == pytest.approx(6.0)

    def test_merge_returns_self_and_leaves_other_intact(self):
        left = TelemetryStore()
        right = self.make_store()
        assert left.merge(right) is left
        assert right.failure_count("p", "vm") == 3
        # The merged samples are copies, not shared lists.
        left.record_failover("p", "vm", 100.0)
        assert len(right._stats[("p", "vm")].failover_samples) == 2

    def test_merge_into_empty_store_is_bit_identical(self):
        source = self.make_store()
        merged = TelemetryStore().merge(source)
        assert merged.snapshot() == source.snapshot()

    def test_adopt_publishes_other_contents(self):
        serving = TelemetryStore()
        serving.register_exposure("p", "vm", 1, 100.0)
        fresh = self.make_store()
        serving.adopt(fresh)
        assert serving.failure_count("p", "vm") == 3


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestNonFiniteTelemetry:
    """NaN/inf must be rejected at every entry point: merges only add,
    so one poisoned sample would pin its component's estimates forever."""

    @staticmethod
    def _observed() -> TelemetryStore:
        store = TelemetryStore()
        store.register_exposure("p", "vm", 1, MINUTES_PER_YEAR)
        store.record_outage("p", "vm", 60.0)
        store.record_failover("p", "vm", 5.0)
        return store

    @pytest.mark.parametrize("value", NON_FINITE, ids=str)
    def test_register_exposure_rejects(self, value):
        store = self._observed()
        with pytest.raises(ValidationError, match="horizon_minutes"):
            store.register_exposure("p", "vm", 1, value)
        assert store.exposure_years("p", "vm") == pytest.approx(1.0)

    @pytest.mark.parametrize("value", NON_FINITE, ids=str)
    def test_record_outage_rejects(self, value):
        store = self._observed()
        before = store.down_probability("p", "vm")
        with pytest.raises(ValidationError, match="down_minutes"):
            store.record_outage("p", "vm", value)
        assert store.down_probability("p", "vm") == before

    @pytest.mark.parametrize("value", NON_FINITE, ids=str)
    def test_record_failover_rejects(self, value):
        store = self._observed()
        with pytest.raises(ValidationError, match="failover_minutes"):
            store.record_failover("p", "vm", value)
        assert store.failover_minutes("p", "vm") == 5.0

    @pytest.mark.parametrize(
        "field", ["exposure_minutes", "down_minutes", "failover_samples"]
    )
    @pytest.mark.parametrize("value", NON_FINITE, ids=str)
    def test_from_snapshot_rejects(self, field, value):
        payload = self._observed().snapshot()
        entry = payload["components"][0]
        entry[field] = [value] if field == "failover_samples" else value
        with pytest.raises(ValidationError, match="finite"):
            TelemetryStore.from_snapshot(payload)


class TestKnowledgeBase:
    def make_populated_store(self, years=10.0, fleet=20, seed=2):
        provider = metalcloud()
        deployment_resources = [
            provider.provision_vm("bm.small") for _ in range(fleet)
        ]
        store = TelemetryStore()
        store.register_exposure(
            provider.name, "vm", fleet, years * MINUTES_PER_YEAR
        )
        events = FaultInjector(provider, seed=seed).inject(
            deployment_resources, horizon_minutes=years * MINUTES_PER_YEAR
        )
        store.ingest(events)
        return provider, store

    def test_estimate_converges_to_ground_truth(self):
        provider, store = self.make_populated_store(years=30.0, fleet=50)
        estimate = KnowledgeBase(store).estimate(provider.name, "vm")
        truth_p, truth_f, truth_t = provider.reliability.triple("vm")
        assert estimate.down_probability == pytest.approx(truth_p, rel=0.15)
        assert estimate.failures_per_year == pytest.approx(truth_f, rel=0.1)
        assert estimate.failover_minutes == pytest.approx(truth_t, rel=0.1)

    def test_min_failure_samples_enforced(self):
        store = TelemetryStore()
        store.register_exposure("p", "vm", 1, MINUTES_PER_YEAR)
        store.record_failure("p", "vm")
        kb = KnowledgeBase(store, min_failure_samples=5)
        with pytest.raises(InsufficientTelemetryError, match="at least 5"):
            kb.estimate("p", "vm")

    def test_node_spec_materialization(self):
        provider, store = self.make_populated_store()
        node = KnowledgeBase(store).node_spec(provider.name, "vm", monthly_cost=200.0)
        assert node.kind == "vm"
        assert node.monthly_cost == 200.0
        assert 0.0 < node.down_probability < 0.01

    def test_describe_includes_estimates(self):
        provider, store = self.make_populated_store()
        text = KnowledgeBase(store).describe()
        assert "metalcloud/vm" in text

    def test_describe_flags_insufficient_data(self):
        store = TelemetryStore()
        store.register_exposure("p", "vm", 1, 1000.0)
        text = KnowledgeBase(store).describe()
        assert "insufficient" in text
