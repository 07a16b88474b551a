"""Tests for sharded scans: a ``ScanSession(shards=)`` labels supervised tasks."""

import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.host.errors import ShardFailedError
from repro.host.faults import FaultPlan
from repro.host.resilience import RetryPolicy, ScanReport, ShardStatus
from repro.host.scan import scan_database
from repro.host.scan_session import ScanSession
from repro.host import windows
from repro.host.shards import plan_shards
from repro.obs.summary import normalize_report_dict
from repro.seq.generate import random_protein, random_rna


def make_references(rng, count=6, length=2500):
    return [random_rna(length, rng=rng, name=f"r{i}") for i in range(count)]


def hit_tuples(results):
    """One query's results flattened to comparable (ref, pos, score) rows."""
    return [
        (r.reference_name, h.position, h.score)
        for r in results
        for h in r.hits
    ]


# -- planning ------------------------------------------------------------------


class TestPlanShards:
    def test_contiguous_cover(self):
        specs = plan_shards([100, 200, 300, 400, 500], 3)
        assert specs[0].start == 0
        assert specs[-1].stop == 5
        for prev, nxt in zip(specs, specs[1:]):
            assert prev.stop == nxt.start
        assert sum(s.nucleotides for s in specs) == 1500

    def test_clamped_to_reference_count(self):
        specs = plan_shards([10, 20], 8)
        assert len(specs) == 2
        assert [s.num_references for s in specs] == [1, 1]

    def test_balances_unequal_lengths(self):
        # One huge reference should sit alone; the small ones pile together.
        specs = plan_shards([4000, 500, 500, 500, 500], 2)
        assert len(specs) == 2
        sizes = [s.nucleotides for s in specs]
        assert max(sizes) / (sum(sizes) / 2) < 1.4

    def test_empty_and_errors(self):
        assert plan_shards([], 4) == []
        with pytest.raises(ValueError, match=">= 1"):
            plan_shards([100], 0)
        with pytest.raises(ValueError, match=">= 1"):
            ScanSession([], shards=0)

    @settings(max_examples=50, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 5000), min_size=1, max_size=24),
        num_shards=st.integers(1, 8),
    )
    def test_invariants_property(self, lengths, num_shards):
        specs = plan_shards(lengths, num_shards)
        assert len(specs) == min(num_shards, len(lengths))
        assert specs[0].start == 0 and specs[-1].stop == len(lengths)
        for prev, nxt in zip(specs, specs[1:]):
            assert prev.stop == nxt.start  # contiguous, no gaps
        for spec in specs:
            assert spec.num_references >= 1
            assert spec.nucleotides == sum(lengths[spec.start : spec.stop])


# -- policy --------------------------------------------------------------------


class TestShardPolicy:
    """Shards run under the one RetryPolicy: a shard's attempt budget is
    ``max_retries + 1`` and ``degrade`` allows partial results."""

    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="timeout"):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError, match="max_respawns"):
            RetryPolicy(max_respawns=-1)


# -- bit-identity --------------------------------------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_matches_single_shard_scan(self, rng, num_shards):
        references = make_references(rng)
        queries = [random_protein(8, rng=rng), random_protein(6, rng=rng)]
        with ScanSession(references, shards=num_shards) as session:
            batches, report = session.scan_batch(
                queries, threshold=14, with_report=True
            )
        assert report.exit_code() == 0
        assert report.mode == "sharded"
        assert all(s.status == "ok" for s in report.shards)
        for query, batch in zip(queries, batches):
            expected = scan_database(
                query, references, threshold=14, engine="bitscore_batch"
            )
            assert hit_tuples(batch) == hit_tuples(expected)

    def test_keep_scores_bit_identical(self, rng):
        references = make_references(rng, count=4, length=1200)
        query = random_protein(7, rng=rng)
        with ScanSession(references, shards=2) as session:
            (batch,) = session.scan_batch([query], threshold=12, keep_scores=True)
        expected = scan_database(
            query, references, threshold=12,
            engine="bitscore_batch", keep_scores=True,
        )
        assert len(batch) == len(expected)
        for got, want in zip(batch, expected):
            np.testing.assert_array_equal(got.scores, want.scores)

    def test_empty_database_is_clean(self, rng):
        with ScanSession([], shards=4) as session:
            assert session.num_shards == 0
            batches, report = session.scan_batch(
                [random_protein(5, rng=rng)], threshold=10, with_report=True
            )
        assert batches == [[]]
        assert report.exit_code() == 0
        assert report.shards == []


# -- fault recovery ------------------------------------------------------------
#
# Six 2500-nt references in two shards and one query plan one task per
# shard, so task id ``i`` is shard ``i``'s task.


def sharded_scan(references, queries, **kwargs):
    """One call on a two-shard session, closed before it returns."""
    with ScanSession(references, shards=2) as session:
        return session.scan_batch(queries, **kwargs)


class TestFaultRecovery:
    @pytest.mark.parametrize(
        "kind",
        [
            pytest.param(kind, id=f"shard:1:{kind}")
            for kind in ("crash", "raise", "corrupt")
        ],
    )
    def test_recovers_from_transient_fault(self, rng, kind):
        references = make_references(rng)
        query = random_protein(8, rng=rng)
        batches, report = sharded_scan(
            references, [query], threshold=14, with_report=True,
            faults=FaultPlan.parse(f"1:{kind}"),
            policy=RetryPolicy(max_retries=2),
        )
        assert report.exit_code() == 0
        assert report.shards[1].attempts == 2
        assert report.retries == 1
        expected = scan_database(
            query, references, threshold=14, engine="bitscore_batch"
        )
        assert hit_tuples(batches[0]) == hit_tuples(expected)

    def test_hang_killed_at_deadline_then_respawned(self, rng):
        references = make_references(rng, count=4, length=1200)
        _, report = sharded_scan(
            references, [random_protein(6, rng=rng)], threshold=12,
            with_report=True,
            faults=FaultPlan.parse("0:hang", hang_seconds=60.0),
            policy=RetryPolicy(max_retries=2, timeout=0.6),
        )
        assert report.exit_code() == 0
        assert report.shards[0].attempts == 2
        outcomes = [a.outcome for a in report.attempts if a.chunk == 0]
        assert "timeout" in outcomes

    def test_permanent_fault_kills_shard_but_scan_completes(self, rng):
        references = make_references(rng)
        query = random_protein(8, rng=rng)
        with ScanSession(references, shards=2) as session:
            batches, report = session.scan_batch(
                [query], threshold=14, with_report=True,
                faults=FaultPlan.parse("0:crash:always"),
                policy=RetryPolicy(max_retries=1),
            )
        assert report.exit_code() == 4
        assert report.dead_shards == 1
        dead = report.shards[0]
        assert dead.status == "dead"
        assert dead.attempts == 2
        assert "health budget exhausted" in dead.detail
        # The surviving shard's references are still scanned, seam-exact.
        spec = session.shard_specs[1]
        expected = scan_database(
            query, references[spec.start : spec.stop],
            threshold=14, engine="bitscore_batch",
        )
        assert hit_tuples(batches[0]) == hit_tuples(expected)

    def test_allow_partial_off_raises(self, rng):
        with pytest.raises(ShardFailedError, match="shard 1 failed after 2"):
            sharded_scan(
                make_references(rng, count=4, length=1200),
                [random_protein(6, rng=rng)], threshold=12,
                faults=FaultPlan.parse("1:raise:always"),
                policy=RetryPolicy(max_retries=1, degrade=False),
            )


class TestCheckpointResume:
    def test_respawn_replays_only_unfinished_chunks(self, rng, tmp_path, monkeypatch):
        # 3 references x 20000 nt per shard = two tasks per shard (ids 0-1
        # and 2-3) under a 512 K-cell floor (21,846 positions of a
        # 24-element query).  Task 3 crashes once: only it is replayed, and
        # every task lands in the one checkpoint store, keyed by task id.
        monkeypatch.setattr(windows, "MIN_CHUNK_CELLS", 1 << 19)
        references = make_references(rng, count=6, length=20000)
        query = random_protein(8, rng=rng)
        batches, report = sharded_scan(
            references, [query], threshold=16, checkpoint_dir=tmp_path,
            with_report=True,
            faults=FaultPlan.parse("3:crash"),
            policy=RetryPolicy(max_retries=2),
        )
        assert report.exit_code() == 0
        assert report.chunks_total == 4
        assert [s.attempts for s in report.shards] == [2, 3]
        assert sorted(a.chunk for a in report.attempts) == [0, 1, 2, 3, 3]
        assert sorted(p.name for p in tmp_path.glob("chunk_*.npz")) == [
            f"chunk_{i:06d}.npz" for i in range(4)
        ]
        assert not [p for p in tmp_path.iterdir() if p.is_dir()]
        expected = scan_database(
            query, references, threshold=16, engine="bitscore_batch"
        )
        assert hit_tuples(batches[0]) == hit_tuples(expected)


class TestInlineFallback:
    def test_inline_retries_and_partial_semantics(self, rng):
        _, report = sharded_scan(
            make_references(rng, count=4, length=1200),
            [random_protein(6, rng=rng)], threshold=12, with_report=True,
            faults=FaultPlan.parse("0:crash,1:raise:always"),
            policy=RetryPolicy(max_retries=1),
        )
        # A crash fault raises in its worker thread and counts as a
        # respawn: shard 0 recovers on attempt 1, shard 1 exhausts its
        # budget.
        assert report.shards[0].status == "ok"
        assert report.shards[0].attempts == 2
        assert report.respawns == 1
        assert report.shards[1].status == "dead"
        assert report.exit_code() == 4


# -- thread lifecycle ----------------------------------------------------------


def scan_threads():
    return [t for t in threading.enumerate() if t.name.startswith("fabp-scan-")]


class TestThreadLifecycle:
    """A sharded session keeps one slot thread per shard across its calls."""

    def test_warm_call_starts_no_thread_and_close_joins(self, rng):
        before = scan_threads()
        queries = [random_protein(6, rng=rng)]
        with ScanSession(make_references(rng), shards=3) as session:
            session.scan_batch(queries, threshold=12)
            slots = [t for t in scan_threads() if t not in before]
            assert len(slots) == 3
            _, report = session.scan_batch(queries, threshold=12, with_report=True)
            assert report.workers == 3
            assert [t for t in scan_threads() if t not in before] == slots
        assert not any(t.is_alive() for t in slots)
        assert scan_threads() == before

    def test_crashed_attempt_thread_is_joined_before_return(self, rng):
        before = scan_threads()
        queries = [random_protein(6, rng=rng)]
        with ScanSession(make_references(rng), shards=3) as session:
            session.scan_batch(queries, threshold=12)
            slots = [t for t in scan_threads() if t not in before]
            _, report = session.scan_batch(
                queries, threshold=12, with_report=True,
                faults=FaultPlan.parse("1:crash"),
                policy=RetryPolicy(max_retries=2),
            )
            assert report.respawns == 1 and report.exit_code() == 0
            # The crashed attempt's thread was retired and joined; the other
            # slots kept theirs, and no slot has more than one thread.
            assert len([t for t in slots if not t.is_alive()]) == 1
            assert len([t for t in scan_threads() if t not in before]) <= 3
        assert scan_threads() == before


# -- report schema -------------------------------------------------------------


class TestShardReport:
    def test_report_round_trips_through_v3_schema(self, rng):
        _, report = sharded_scan(
            make_references(rng, count=4, length=1200),
            [random_protein(6, rng=rng)], threshold=12, with_report=True,
        )
        payload = report.to_dict()
        assert payload["version"] == 3
        assert payload["mode"] == "sharded"
        normalized = normalize_report_dict(payload)
        restored = [ShardStatus.from_dict(s) for s in normalized["shards"]]
        # to_dict rounds elapsed_seconds to microseconds; everything else
        # must survive the round trip exactly.
        assert restored == [
            replace(s, elapsed_seconds=round(s.elapsed_seconds, 6))
            for s in report.shards
        ]

    def test_summary_counts_dead_shards(self):
        report = ScanReport(mode="sharded", workers=2, chunks_total=2)
        report.chunks_completed = 1
        report.shards = [
            ShardStatus(0, 0, 2, 5000, "ok", 1),
            ShardStatus(1, 2, 4, 5000, "dead", 3, detail="budget"),
        ]
        assert report.dead_shards == 1
        assert report.exit_code() == 4
        text = report.summary()
        assert "dead-shards" in text
        assert "shards=2 dead=1" in text
