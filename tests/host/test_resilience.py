"""Tests for the task supervisor behind every scan runtime.

The acceptance bar: a scan running under a seeded FaultPlan with crashes,
hangs and corrupt results must produce bit-identical output to a
fault-free serial scan, and a checkpointed scan must resume to identical
results without rescoring completed chunks.  Supervised scans go through
``scan_database(..., with_report=True)``; an explicit ``chunk_size`` keys
fault plans and checkpoints on whole-reference chunks.
"""

import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.encoding import encode_query
from repro.host import scan as scan_mod
from repro.host.errors import (
    CheckpointMismatchError,
    ChunkFailedError,
    ScanError,
)
from repro.host.faults import ALWAYS, FaultKind, FaultPlan, FaultSpec
from repro.host.resilience import RetryPolicy, ScanReport, corrupt_records
from repro.host.scan import PackedDatabase, scan_database
from repro.host.scan_session import ScanSession, plan_batch

THRESHOLD = 4

#: A policy tuned for tests: fast backoff, short timeouts.
FAST = RetryPolicy(max_retries=3, timeout=2.0, backoff=0.01, backoff_max=0.05, seed=1)


@pytest.fixture(scope="module")
def database():
    rng = np.random.default_rng(0xFAB9)
    refs = [
        rng.integers(0, 4, size=n, dtype=np.uint8)
        for n in (300, 500, 420, 380, 610, 290, 350, 470)
    ]
    return PackedDatabase.from_references(refs)


@pytest.fixture(scope="module")
def query():
    return encode_query("MKV")


@pytest.fixture(scope="module")
def baseline(query, database):
    """Fault-free serial results: the bit-identity oracle."""
    return scan_database(query, database, threshold=THRESHOLD, workers=1)


def supervised_scan(query, database, **kwargs):
    """A supervised one-shot scan: ``(results, report)``."""
    return scan_database(query, database, with_report=True, **kwargs)


def assert_identical(results, baseline):
    assert len(results) == len(baseline)
    for ours, expected in zip(results, baseline):
        assert ours.reference_name == expected.reference_name
        assert ours.reference_length == expected.reference_length
        assert ours.hits == expected.hits


class TestSerialSupervised:
    def test_bit_identical_without_faults(self, query, database, baseline):
        results, report = supervised_scan(
            query, database, threshold=THRESHOLD, engine="bitscore",
            workers=1, chunk_size=2, policy=FAST,
        )
        assert_identical(results, baseline)
        assert report.mode == "serial"
        assert report.clean
        assert report.exit_code() == 0
        assert report.chunks_completed == report.chunks_total == 4

    def test_recovers_from_raise_and_corrupt(self, query, database, baseline):
        plan = FaultPlan.parse("0:raise,2:corrupt")
        results, report = supervised_scan(
            query, database, threshold=THRESHOLD, engine="bitscore",
            workers=1, chunk_size=2, policy=FAST, faults=plan,
        )
        assert_identical(results, baseline)
        assert report.clean
        assert report.raised == 1
        assert report.corrupt == 1
        assert report.retries == 2

    def test_keep_scores_round_trip(self, query, database):
        expected = scan_database(
            query, database, threshold=THRESHOLD, workers=1, keep_scores=True
        )
        results, report = supervised_scan(
            query, database, threshold=THRESHOLD, engine="bitscore",
            workers=1, chunk_size=3, policy=FAST, keep_scores=True,
            faults=FaultPlan.parse("1:corrupt"),
        )
        assert_identical(results, expected)
        for ours, reference in zip(results, expected):
            np.testing.assert_array_equal(ours.scores, reference.scores)


class TestParallelFaults:
    """One test per injected fault kind, on the thread executor."""

    def run(self, query, database, plan, policy=FAST, workers=3):
        return supervised_scan(
            query, database, threshold=THRESHOLD, engine="bitscore",
            workers=workers, chunk_size=2, policy=policy, faults=plan,
        )

    def test_crash_is_retried(self, query, database, baseline):
        results, report = self.run(query, database, FaultPlan.parse("1:crash"))
        assert_identical(results, baseline)
        assert report.mode == "parallel"
        assert report.clean
        assert report.crashes == 1
        assert report.respawns >= 1

    def test_hang_is_killed_and_retried(self, query, database, baseline):
        policy = RetryPolicy(
            max_retries=3, timeout=0.5, backoff=0.01, backoff_max=0.05, seed=1
        )
        results, report = self.run(query, database, FaultPlan.parse("2:hang"), policy=policy)
        assert_identical(results, baseline)
        assert report.clean
        assert report.timeouts == 1

    def test_raise_is_retried(self, query, database, baseline):
        results, report = self.run(query, database, FaultPlan.parse("3:raise"))
        assert_identical(results, baseline)
        assert report.clean
        assert report.raised == 1

    def test_corrupt_is_detected_and_retried(self, query, database, baseline):
        results, report = self.run(query, database, FaultPlan.parse("0:corrupt"))
        assert_identical(results, baseline)
        assert report.clean
        assert report.corrupt == 1

    def test_acceptance_mixed_faults_bit_identical(self, query, database, baseline):
        """ISSUE acceptance: crash + hang + corrupt, bit-identical output."""
        policy = RetryPolicy(
            max_retries=3, timeout=0.5, backoff=0.01, backoff_max=0.05, seed=1
        )
        plan = FaultPlan.parse("0:crash,1:hang,3:corrupt")
        results, report = self.run(query, database, plan, policy=policy)
        assert_identical(results, baseline)
        assert report.clean
        assert report.crashes == 1
        assert report.timeouts == 1
        assert report.corrupt == 1

    def test_hedged_straggler_finishes_early(self, query, database, baseline):
        # Chunk 0 hangs; with hedging the drained executor re-dispatches it
        # to an idle slot long before the 10 s deadline.
        policy = RetryPolicy(
            max_retries=3, timeout=10.0, backoff=0.01, hedge_after=0.2, seed=1
        )
        results, report = self.run(query, database, FaultPlan.parse("0:hang"), policy=policy)
        assert_identical(results, baseline)
        assert report.clean
        assert report.hedges >= 1
        assert report.elapsed_seconds < 10.0


class TestDegradation:
    def test_permanent_crash_degrades_to_serial(self, query, database, baseline):
        plan = FaultPlan(specs=(FaultSpec(1, FaultKind.CRASH, attempts=ALWAYS),))
        policy = RetryPolicy(
            max_retries=1, timeout=2.0, backoff=0.01, max_respawns=3, seed=1
        )
        results, report = supervised_scan(
            query, database, threshold=THRESHOLD, engine="bitscore",
            workers=3, chunk_size=2, policy=policy, faults=plan,
        )
        # Degraded, but still correct: the serial fallback runs faultless.
        assert_identical(results, baseline)
        assert report.degraded
        assert report.degraded_reason
        assert report.exit_code() == 3
        assert report.chunks_degraded >= 1

    def test_no_degrade_raises_scan_error(self, query, database):
        plan = FaultPlan(specs=(FaultSpec(0, FaultKind.RAISE, attempts=ALWAYS),))
        policy = RetryPolicy(max_retries=1, backoff=0.01, degrade=False, seed=1)
        with pytest.raises(ChunkFailedError):
            supervised_scan(
                query, database, threshold=THRESHOLD, engine="bitscore",
                workers=1, chunk_size=2, policy=policy, faults=plan,
            )

    def test_chunk_failed_error_is_a_scan_error(self):
        assert issubclass(ChunkFailedError, ScanError)


class TestCheckpointResume:
    def test_resume_skips_completed_chunks(self, query, database, baseline, tmp_path):
        ckpt = tmp_path / "ckpt"
        first, _ = supervised_scan(
            query, database, threshold=THRESHOLD, engine="bitscore",
            workers=1, chunk_size=2, policy=FAST, checkpoint_dir=ckpt,
        )
        assert_identical(first, baseline)
        assert sorted(p.name for p in ckpt.glob("chunk_*.npz")) == [
            f"chunk_{i:06d}.npz" for i in range(4)
        ]
        # Resume under an everything-crashes plan: if any chunk were
        # rescored the scan could not complete cleanly — so a clean,
        # attempt-free run proves every chunk came from the checkpoint.
        poison = FaultPlan(
            specs=tuple(
                FaultSpec(i, FaultKind.CRASH, attempts=ALWAYS) for i in range(4)
            )
        )
        second, second_report = supervised_scan(
            query, database, threshold=THRESHOLD, engine="bitscore",
            workers=1, chunk_size=2, policy=FAST, faults=poison,
            checkpoint_dir=ckpt, resume=True,
        )
        assert_identical(second, baseline)
        assert second_report.clean
        assert second_report.resumed
        assert second_report.chunks_from_checkpoint == 4
        assert second_report.attempts == []

    def test_resume_refuses_different_scan(self, query, database, tmp_path):
        ckpt = tmp_path / "ckpt"
        supervised_scan(
            query, database, threshold=THRESHOLD, engine="bitscore",
            workers=1, chunk_size=2, policy=FAST, checkpoint_dir=ckpt,
        )
        with pytest.raises(CheckpointMismatchError):
            supervised_scan(
                query, database, threshold=THRESHOLD + 1, engine="bitscore",
                workers=1, chunk_size=2, policy=FAST,
                checkpoint_dir=ckpt, resume=True,
            )

    def test_corrupted_checkpoint_chunk_is_rescanned(
        self, query, database, baseline, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        supervised_scan(
            query, database, threshold=THRESHOLD, engine="bitscore",
            workers=1, chunk_size=2, policy=FAST, checkpoint_dir=ckpt,
        )
        # Truncate one chunk file as a kill-mid-write would.
        victim = ckpt / "chunk_000002.npz"
        victim.write_bytes(victim.read_bytes()[:16])
        results, report = supervised_scan(
            query, database, threshold=THRESHOLD, engine="bitscore",
            workers=1, chunk_size=2, policy=FAST,
            checkpoint_dir=ckpt, resume=True,
        )
        assert_identical(results, baseline)
        assert report.chunks_from_checkpoint == 3
        assert {a.chunk for a in report.attempts} == {2}


def child_pids():
    """Live children of this process (the stdlib shm tracker aside)."""
    from multiprocessing import resource_tracker

    own = os.getpid()
    tracker = getattr(resource_tracker._resource_tracker, "_pid", None)
    pids = set()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == own and fields[0] != "Z":
            pids.add(int(entry.name))
    return pids - {tracker}


def shm_entries():
    shm = Path("/dev/shm")
    return {p.name for p in shm.iterdir()} if shm.is_dir() else set()


class TestSharedMemoryLifecycle:
    """Nothing a scan starts outlives it.

    Scans publish no ``/dev/shm`` segment and start no process; their
    workers are threads, and every call joins the ones it started.
    """

    @pytest.fixture
    def snapshot(self):
        return threading.enumerate(), child_pids(), shm_entries()

    def assert_nothing_left(self, snapshot):
        threads, children, segments = snapshot
        assert threading.enumerate() == threads
        assert child_pids() <= children
        assert shm_entries() <= segments
        assert scan_mod._LIVE_SEGMENTS == {}

    def test_no_segment_leaks_after_faulty_parallel_scans(
        self, query, database, baseline, snapshot
    ):
        plan = FaultPlan.parse("0:crash,2:raise")
        results, report = supervised_scan(
            query, database, threshold=THRESHOLD, engine="bitscore",
            workers=3, chunk_size=2, policy=FAST, faults=plan,
        )
        assert_identical(results, baseline)
        assert report.mode == "parallel"
        self.assert_nothing_left(snapshot)

    def test_no_segment_leaks_when_scan_raises(self, query, database, snapshot):
        plan = FaultPlan(specs=(FaultSpec(0, FaultKind.RAISE, attempts=ALWAYS),))
        policy = RetryPolicy(max_retries=0, backoff=0.0, degrade=False, seed=1)
        with pytest.raises(ScanError):
            supervised_scan(
                query, database, threshold=THRESHOLD, engine="bitscore",
                workers=2, chunk_size=2, policy=policy, faults=plan,
            )
        self.assert_nothing_left(snapshot)

    def test_report_less_scan_leaves_no_segment(
        self, query, database, baseline, snapshot
    ):
        results = scan_database(
            query, database, threshold=THRESHOLD, workers=2, chunk_size=2
        )
        assert_identical(results, baseline)
        self.assert_nothing_left(snapshot)

    @pytest.mark.parametrize(
        "plan, policy, outcome",
        [
            pytest.param(
                "0:hang",
                RetryPolicy(max_retries=2, timeout=0.3, backoff=0.01, seed=1),
                "timeout",
                id="hang-then-timeout",
            ),
            pytest.param(
                "0:hang",
                RetryPolicy(
                    max_retries=2, timeout=None, hedge_after=0.2, backoff=0.01,
                    seed=1,
                ),
                "hedge",
                id="hedged-straggler",
            ),
            pytest.param(
                "0:hang:always,1:crash:always",
                RetryPolicy(
                    max_retries=1, timeout=0.3, backoff=0.01, degrade=False,
                    seed=1,
                ),
                "raise",
                id="exhausted-no-degrade",
            ),
        ],
    )
    def test_session_joins_every_thread(
        self, query, database, baseline, snapshot, plan, policy, outcome
    ):
        """A hung attempt is cancelled and joined, however the call ends."""
        faults = FaultPlan.parse(plan, hang_seconds=60.0)
        started = time.monotonic()
        with ScanSession(database, engine="bitscore", workers=2) as session:
            if outcome == "raise":
                with pytest.raises(ScanError):
                    session.scan(
                        query, threshold=THRESHOLD, chunk_size=2,
                        policy=policy, faults=faults,
                    )
            else:
                results, report = session.scan(
                    query, threshold=THRESHOLD, chunk_size=2, policy=policy,
                    faults=faults, with_report=True,
                )
                assert_identical(results, baseline)
                assert report.clean
                if outcome == "timeout":
                    assert report.timeouts == 1 and report.respawns == 1
                else:
                    assert report.hedges == 1 and report.timeouts == 0
            self.assert_nothing_left(snapshot)
        assert time.monotonic() - started < 30.0


class TestSanityCheck:
    def make_task(self, query, database, start, stop, keep_scores=False):
        _passes, tasks = plan_batch(
            database.lengths, [query], [THRESHOLD], 1,
            chunk_size=2, engine="bitscore", keep_scores=keep_scores,
        )
        return tasks[start // 2]

    def test_honest_payload_passes(self, query, database):
        task = self.make_task(query, database, 0, 2)
        assert task.check(database, task.run(database, 0)) is None

    def test_corruption_is_always_detected(self, query, database):
        for start, stop in ((0, 2), (2, 4), (4, 6), (6, 8)):
            task = self.make_task(query, database, start, stop)
            payload = corrupt_records(task.run(database, 0))
            assert task.check(database, payload) is not None

    def test_wrong_record_count_detected(self, query, database):
        task = self.make_task(query, database, 0, 2)
        payload = task.run(database, 0)[:1]
        assert task.check(database, payload) is not None

    def test_keep_scores_cross_check(self, query, database):
        task = self.make_task(query, database, 0, 2, keep_scores=True)
        payload = task.run(database, 0)
        assert task.check(database, payload) is None
        slot, reference, start, hits, hit_scores, scores = payload[0]
        tampered = [(slot, reference, start, hits, hit_scores + 1, scores)] + payload[1:]
        if hits.size:
            assert task.check(database, tampered) is not None


class TestPolicyAndReport:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=-1.0)

    def test_backoff_grows_and_caps(self):
        import random

        policy = RetryPolicy(backoff=0.1, backoff_max=0.4, jitter=0.0)
        rng = random.Random(0)
        delays = [policy.delay(n, rng) for n in (1, 2, 3, 4, 5)]
        assert delays == [0.1, 0.2, 0.4, 0.4, 0.4]

    def test_report_dict_schema(self, query, database):
        results, report = supervised_scan(
            query, database, threshold=THRESHOLD, engine="bitscore",
            workers=1, chunk_size=2, policy=FAST,
            faults=FaultPlan.parse("1:raise"),
        )
        payload = report.to_dict()
        assert payload["version"] == ScanReport.VERSION
        assert payload["clean"] is True
        assert payload["mode"] == "serial"
        assert payload["chunks"]["total"] == 4
        assert payload["chunks"]["completed"] == 4
        assert payload["counters"]["retries"] == 1
        assert payload["counters"]["raises"] == 1
        outcomes = [a["outcome"] for a in payload["chunk_attempts"]]
        assert "raise" in outcomes and "ok" in outcomes

    def test_scan_database_with_report(self, query, database, baseline):
        results, report = scan_database(
            query, database, threshold=THRESHOLD, workers=1,
            policy=FAST, with_report=True,
        )
        assert_identical(results, baseline)
        assert isinstance(report, ScanReport)
        assert report.clean
