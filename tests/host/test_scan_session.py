"""ScanSession: warm reuse, batching, supervision, checkpoint, teardown.

The acceptance bar mirrors the rest of the host suite: whatever the warm
runtime does internally — shared passes, windowed tasks, worker threads —
its results must be bit-identical to :func:`repro.host.scan.scan_database`
run per query, and nothing may leak (``/dev/shm`` segments, threads,
stale replies) across calls or after close.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core.encoding import encode_query
from repro.host import scan as scan_mod
from repro.host import scan_session as session_mod
from repro.host.errors import CheckpointMismatchError, ScanError
from repro.host.faults import FaultPlan
from repro.host.resilience import RetryPolicy
from repro.host.scan import PackedDatabase, scan_database
from repro.host.scan_session import (
    MAX_PASS_SPAN_RATIO,
    MAX_QUERIES_PER_PASS,
    ScanSession,
)
from repro.seq.generate import random_protein, random_rna

RNG = np.random.default_rng(777)
RESIDUE_MIX = (40, 40, 18, 40, 7, 25)


@pytest.fixture(scope="module")
def queries():
    return [random_protein(n, rng=RNG) for n in RESIDUE_MIX]


@pytest.fixture(scope="module")
def database():
    references = [random_rna(n, rng=RNG).letters for n in (9_000, 3_000, 6_000)]
    return PackedDatabase.from_references(references)


@pytest.fixture(scope="module")
def solo_results(queries, database):
    return [
        scan_database(q, database, min_identity=0.8, keep_scores=True)
        for q in queries
    ]


def assert_matches_solo(batches, solo_results):
    assert len(batches) == len(solo_results)
    for got_list, want_list in zip(batches, solo_results):
        assert len(got_list) == len(want_list)
        for got, want in zip(got_list, want_list):
            assert np.array_equal(got.hits, want.hits)
            assert np.array_equal(got.scores, want.scores)
            assert got.scores.dtype == want.scores.dtype


class TestBitIdentity:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_batch_matches_per_query_scan(
        self, queries, database, solo_results, workers
    ):
        with ScanSession(database, workers=workers) as session:
            batches = session.scan_batch(
                queries, min_identity=0.8, keep_scores=True
            )
            assert_matches_solo(batches, solo_results)

    def test_single_query_sugar(self, queries, database, solo_results):
        with ScanSession(database, workers=1) as session:
            results = session.scan(queries[0], min_identity=0.8, keep_scores=True)
            assert_matches_solo([results], solo_results[:1])

    def test_empty_batch(self, database):
        with ScanSession(database, workers=1) as session:
            assert session.scan_batch([]) == []

    def test_every_engine_agrees(self, queries, database, solo_results):
        for engine in ("bitscore", "bitscore_batch", "vectorized"):
            with ScanSession(database, engine=engine, workers=1) as session:
                batches = session.scan_batch(
                    queries, min_identity=0.8, keep_scores=True
                )
                assert_matches_solo(batches, solo_results)


class TestWarmReuse:
    def test_pool_and_image_survive_across_calls(self, queries, database):
        """Every call reads the one resident image; none leaves a thread."""
        threads = threading.enumerate()
        with ScanSession(database, workers=2) as session:
            first = session.scan_batch(queries, min_identity=0.8)
            for _ in range(2):
                again = session.scan_batch(queries, min_identity=0.8)
                for got_list, want_list in zip(again, first):
                    for got, want in zip(got_list, want_list):
                        assert np.array_equal(got.hits, want.hits)
                assert threading.enumerate() == threads
            assert session.database.buffer is database.buffer
            assert session.scans_completed == 3
            assert session.pool_reuses == 2
            assert session.respawns_total == 0

    def test_report_is_clean_and_warm(self, queries, database):
        with ScanSession(database, workers=2) as session:
            session.scan_batch(queries[:2], min_identity=0.8)
            _, report = session.scan_batch(
                queries[:2], min_identity=0.8, with_report=True
            )
            assert report.clean
            assert report.exit_code() == 0
            assert report.chunks_completed == report.chunks_total > 0

    def test_dead_worker_is_replaced_between_calls(self, queries, database):
        """A crashed attempt is a respawn; the next call runs at full width."""
        policy = RetryPolicy(backoff=0.01, seed=1)
        with ScanSession(database, workers=2) as session:
            baseline = session.scan_batch(queries, min_identity=0.8)
            session.scan_batch(
                queries, min_identity=0.8, policy=policy,
                faults=FaultPlan.parse("0:crash"),
            )
            assert session.respawns_total == 1
            again, report = session.scan_batch(
                queries, min_identity=0.8, with_report=True
            )
            for got_list, want_list in zip(again, baseline):
                for got, want in zip(got_list, want_list):
                    assert np.array_equal(got.hits, want.hits)
            assert report.clean and report.respawns == 0
            assert report.mode == "parallel" and report.workers == 2
            assert session.respawns_total == 1
            assert session.num_workers == 2

    def test_oversubscribed_threads_match_serial(self, queries, database):
        """More worker threads than cores, switching often: still bit-identical."""
        with ScanSession(database, workers=1) as serial:
            want = serial.scan_batch(queries, min_identity=0.8, keep_scores=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ScanSession(database, workers=8) as session:
                got, report = session.scan_batch(
                    queries, min_identity=0.8, keep_scores=True, chunk_size=1,
                    with_report=True,
                )
        finally:
            sys.setswitchinterval(interval)
        assert report.mode == "parallel" and report.clean
        assert_matches_solo(got, want)


class TestPassPlanning:
    def test_similar_spans_share_one_pass(self, database):
        encoded = [encode_query(random_protein(40, rng=RNG)) for _ in range(6)]
        with ScanSession(database, workers=1) as session:
            passes, tasks = session._plan(encoded, [60] * len(encoded))
            assert len(passes) == 1
            assert sorted(passes[0].query_indices) == list(range(6))
            assert tasks, "a non-empty pass must produce tasks"

    def test_span_spread_splits_passes(self, database):
        encoded = [
            encode_query(random_protein(n, rng=RNG)) for n in (200, 10, 200, 10)
        ]
        with ScanSession(database, workers=1) as session:
            passes, _ = session._plan(encoded, [10] * len(encoded))
            assert len(passes) == 2
            for spec in passes:
                assert spec.max_span <= spec.min_span * MAX_PASS_SPAN_RATIO

    def test_pass_size_is_capped(self, database):
        encoded = [
            encode_query(random_protein(20, rng=RNG))
            for _ in range(MAX_QUERIES_PER_PASS + 3)
        ]
        with ScanSession(database, workers=1) as session:
            passes, _ = session._plan(encoded, [30] * len(encoded))
            assert max(len(p.query_indices) for p in passes) == MAX_QUERIES_PER_PASS
            covered = sorted(i for p in passes for i in p.query_indices)
            assert covered == list(range(len(encoded)))


class TestCheckpoint:
    def test_resume_skips_completed_tasks(self, queries, database, tmp_path):
        with ScanSession(database, workers=1) as session:
            first, report = session.scan_batch(
                queries, min_identity=0.8, checkpoint_dir=tmp_path,
                with_report=True,
            )
            assert report.chunks_total > 0
            resumed, report2 = session.scan_batch(
                queries, min_identity=0.8, checkpoint_dir=tmp_path,
                resume=True, with_report=True,
            )
            assert report2.chunks_from_checkpoint == report2.chunks_total
            for got_list, want_list in zip(resumed, first):
                for got, want in zip(got_list, want_list):
                    assert np.array_equal(got.hits, want.hits)
                    assert np.array_equal(got.scores, want.scores)

    def test_resume_across_sessions(self, queries, database, tmp_path):
        with ScanSession(database, workers=1) as session:
            first = session.scan_batch(
                queries, min_identity=0.8, checkpoint_dir=tmp_path
            )
        with ScanSession(database, workers=1) as session:
            resumed, report = session.scan_batch(
                queries, min_identity=0.8, checkpoint_dir=tmp_path,
                resume=True, with_report=True,
            )
            assert report.chunks_from_checkpoint == report.chunks_total
            for got_list, want_list in zip(resumed, first):
                for got, want in zip(got_list, want_list):
                    assert np.array_equal(got.hits, want.hits)

    def test_changed_workload_refuses_resume(self, queries, database, tmp_path):
        with ScanSession(database, workers=1) as session:
            session.scan_batch(
                queries, min_identity=0.8, checkpoint_dir=tmp_path
            )
            with pytest.raises(CheckpointMismatchError):
                session.scan_batch(
                    queries, min_identity=0.9, checkpoint_dir=tmp_path,
                    resume=True,
                )


class TestLifecycle:
    def test_close_is_idempotent_and_final(self, queries, database):
        session = ScanSession(database, workers=2)
        session.scan_batch(queries[:1], min_identity=0.8)
        session.close()
        session.close()
        assert session.closed
        with pytest.raises(ScanError, match="closed"):
            session.scan_batch(queries[:1], min_identity=0.8)

    def test_no_segment_leaks_after_close(self, queries, database):
        with ScanSession(database, workers=2) as session:
            session.scan_batch(queries[:2], min_identity=0.8)
        assert scan_mod._LIVE_SEGMENTS == {}

    def test_serial_session_never_publishes_segments(self, queries, database):
        with ScanSession(database, workers=1) as session:
            session.scan_batch(queries[:2], min_identity=0.8)
            assert scan_mod._LIVE_SEGMENTS == {}
            assert session.num_workers == 1

    def test_resident_bytes_reports_the_image(self, database):
        with ScanSession(database, workers=1) as session:
            assert session.resident_bytes == database.packed_bytes

    def test_default_engine_is_the_batched_kernel(self, database):
        with ScanSession(database, workers=1) as session:
            assert session.engine == session_mod.SESSION_ENGINE == "bitscore_batch"
