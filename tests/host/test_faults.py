"""Tests for the deterministic fault-injection plans."""

import pytest

from repro.host.faults import ALWAYS, FaultKind, FaultPlan, FaultSpec


class TestFaultSpec:
    def test_fires_for_leading_attempts_only(self):
        spec = FaultSpec(chunk=3, kind=FaultKind.CRASH, attempts=2)
        assert spec.fires(0)
        assert spec.fires(1)
        assert not spec.fires(2)

    def test_always_never_stops_firing(self):
        spec = FaultSpec(chunk=0, kind=FaultKind.RAISE, attempts=ALWAYS)
        assert spec.fires(999)


class TestFaultPlan:
    def test_lookup_respects_attempt(self):
        plan = FaultPlan(specs=(FaultSpec(1, FaultKind.HANG, attempts=1),))
        assert plan.lookup(1, 0) is FaultKind.HANG
        assert plan.lookup(1, 1) is None
        assert plan.lookup(0, 0) is None

    def test_duplicate_chunks_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultPlan(
                specs=(
                    FaultSpec(2, FaultKind.CRASH),
                    FaultSpec(2, FaultKind.HANG),
                )
            )

    def test_parse(self):
        plan = FaultPlan.parse("1:crash,4:hang,7:corrupt:3")
        assert plan.lookup(1, 0) is FaultKind.CRASH
        assert plan.lookup(4, 0) is FaultKind.HANG
        assert plan.lookup(7, 2) is FaultKind.CORRUPT
        assert plan.lookup(7, 3) is None

    def test_parse_always_keyword(self):
        plan = FaultPlan.parse("0:raise:always")
        assert plan.lookup(0, 10_000) is FaultKind.RAISE
        assert plan.permanent_chunks == (0,)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("banana")
        with pytest.raises(ValueError):
            FaultPlan.parse("1:explode")

    def test_from_seed_is_deterministic(self):
        a = FaultPlan.from_seed(7, 32, rate=0.5)
        b = FaultPlan.from_seed(7, 32, rate=0.5)
        assert a.specs == b.specs
        assert FaultPlan.from_seed(8, 32, rate=0.5).specs != a.specs

    def test_from_seed_rate_bounds(self):
        assert not FaultPlan.from_seed(1, 16, rate=0.0)
        full = FaultPlan.from_seed(1, 16, rate=1.0)
        assert len(full.specs) == 16

    def test_recoverable_attempts_counts_finite_faults(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(0, FaultKind.RAISE, attempts=2),
                FaultSpec(1, FaultKind.CRASH, attempts=ALWAYS),
            )
        )
        assert plan.recoverable_attempts == 2
        assert plan.permanent_chunks == (1,)

    def test_dict_round_trip(self):
        plan = FaultPlan.parse("1:crash,3:corrupt:2", hang_seconds=5.0)
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.specs == plan.specs
        assert clone.hang_seconds == plan.hang_seconds

    def test_without_chunks(self):
        plan = FaultPlan.parse("1:crash,3:hang")
        trimmed = plan.without_chunks([1])
        assert trimmed.lookup(1, 0) is None
        assert trimmed.lookup(3, 0) is FaultKind.HANG
