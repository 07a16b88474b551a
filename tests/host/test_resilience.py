"""Tests for the task supervisor behind every scan runtime.

The acceptance bar: a scan running under a seeded FaultPlan with crashes,
hangs and corrupt results must produce bit-identical output to a
fault-free serial scan, and a checkpointed scan must resume to identical
results without rescoring completed chunks.  Supervised scans go through
``scan_database(..., with_report=True)``; an explicit ``chunk_size`` keys
fault plans and checkpoints on whole-reference chunks.
"""

import os
import re
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
from repro.host.resilience import RetryPolicy, ScanReport
from repro.host.scan import PackedDatabase, scan_database
from repro.host.scan_session import ScanSession, WindowTask, plan_batch

THRESHOLD = 4

#: A policy tuned for tests: short timeouts.
FAST = RetryPolicy(max_retries=3, timeout=2.0)


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
        policy = RetryPolicy(max_retries=3, timeout=0.5)
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
        policy = RetryPolicy(max_retries=3, timeout=0.5)
        plan = FaultPlan.parse("0:crash,1:hang,3:corrupt")
        results, report = self.run(query, database, plan, policy=policy)
        assert_identical(results, baseline)
        assert report.clean
        assert report.crashes == 1
        assert report.timeouts == 1
        assert report.corrupt == 1


class TestDegradation:
    def test_permanent_crash_degrades_to_serial(self, query, database, baseline):
        plan = FaultPlan(specs=(FaultSpec(1, FaultKind.CRASH, attempts=ALWAYS),))
        policy = RetryPolicy(max_retries=1, timeout=2.0, max_respawns=3)
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
        policy = RetryPolicy(max_retries=1, degrade=False)
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
    workers are threads.  A session keeps one idle thread per slot between
    calls and joins them at close; every call joins the threads of its
    lost attempts.
    """

    @pytest.fixture
    def snapshot(self):
        return threading.enumerate(), child_pids(), shm_entries()

    def assert_nothing_left(self, snapshot, slots=0):
        """``slots``: idle worker threads an open session may keep."""
        threads, children, segments = snapshot
        now = threading.enumerate()
        extra = [thread for thread in now if thread not in threads]
        assert all(thread in now for thread in threads)
        assert len(extra) <= slots
        assert all(thread.name.startswith("fabp-scan-") for thread in extra)
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
        policy = RetryPolicy(max_retries=0, degrade=False)
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
                RetryPolicy(max_retries=2, timeout=0.3),
                "timeout",
                id="hang-then-timeout",
            ),
            pytest.param(
                "0:hang:always,1:crash:always",
                RetryPolicy(max_retries=1, timeout=0.3, degrade=False),
                "raise",
                id="exhausted-no-degrade",
            ),
        ],
    )
    def test_session_joins_every_thread(
        self, query, database, baseline, snapshot, plan, policy, outcome
    ):
        """A hung attempt is cancelled and joined, however the call ends;
        closing the session joins its slot threads."""
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
                assert report.timeouts == 1 and report.respawns == 1
            # The hung attempt's thread is joined; the two slots keep theirs.
            self.assert_nothing_left(snapshot, slots=2)
        self.assert_nothing_left(snapshot)
        assert time.monotonic() - started < 30.0


class TestOneLoop:
    """Width 1, width >= 2 and the degraded completion share one loop."""

    @pytest.fixture
    def runs(self, monkeypatch):
        """Wrap ``WindowTask.run``: log each call's thread, and raise
        ``MemoryError`` on the attempts of the task over reference 2 that
        ``fail`` names (``"first"`` or ``"always"``)."""
        log = {"threads": [], "fail": None}
        real = WindowTask.run

        def run(task, database, attempt):
            log["threads"].append(threading.get_ident())
            if task.windows[0][0] == 2 and (
                log["fail"] == "always" or (log["fail"] == "first" and attempt == 0)
            ):
                raise MemoryError("no room for planes")
            return real(task, database, attempt)

        monkeypatch.setattr(WindowTask, "run", run)
        return log

    def scan(self, query, database, workers, **kwargs):
        return supervised_scan(
            query, database, threshold=THRESHOLD, engine="bitscore",
            workers=workers, chunk_size=2, **kwargs,
        )

    @pytest.mark.parametrize("workers", [1, 3])
    def test_transient_exception_recovers_at_every_width(
        self, query, database, baseline, runs, workers
    ):
        runs["fail"] = "first"
        results, report = self.scan(query, database, workers, policy=FAST)
        assert_identical(results, baseline)
        assert report.clean
        assert (report.crashes, report.retries) == (1, 1)
        crash = next(a for a in report.attempts if a.outcome == "crash")
        assert (crash.chunk, crash.attempt) == (1, 0)
        assert crash.detail.startswith("MemoryError")
        # Only a slot thread can be lost; the calling thread never is.
        assert report.respawns == (1 if workers > 1 else 0)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_exhausted_exception_is_chained(self, query, database, runs, workers):
        runs["fail"] = "always"
        policy = RetryPolicy(max_retries=1, timeout=2.0, degrade=False)
        with pytest.raises(ChunkFailedError) as caught:
            self.scan(query, database, workers, policy=policy)
        assert isinstance(caught.value.__cause__, MemoryError)

    def test_width_one_and_degraded_run_on_the_caller(
        self, query, database, baseline, runs, monkeypatch
    ):
        started = []
        real_start = threading.Thread.start

        def start(thread):
            started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        plan = FaultPlan(specs=(FaultSpec(1, FaultKind.CRASH, attempts=ALWAYS),))
        results, report = self.scan(
            query, database, 1, policy=RetryPolicy(max_retries=1), faults=plan
        )
        assert_identical(results, baseline)
        assert report.degraded and report.chunks_degraded == 3
        assert runs["threads"] == [threading.get_ident()] * 4
        assert started == []

    def test_degraded_completion_runs_on_the_caller(
        self, query, database, baseline, runs
    ):
        plan = FaultPlan(specs=(FaultSpec(1, FaultKind.CRASH, attempts=ALWAYS),))
        policy = RetryPolicy(max_retries=1, timeout=2.0)
        results, report = self.scan(query, database, 3, policy=policy, faults=plan)
        assert_identical(results, baseline)
        assert report.degraded and report.chunks_degraded >= 1
        degraded = runs["threads"][-report.chunks_degraded:]
        assert degraded == [threading.get_ident()] * report.chunks_degraded

    def test_width_one_hang_waits_its_hang_seconds(self, query, database, baseline):
        # The policy's timeout is shorter than the hang, but a caller
        # cannot time itself out: the hang ends on its own.
        faults = FaultPlan.parse("1:hang", hang_seconds=0.4)
        began = time.monotonic()
        results, report = self.scan(
            query, database, 1, policy=RetryPolicy(max_retries=3, timeout=0.05),
            faults=faults,
        )
        assert time.monotonic() - began >= 0.4
        assert_identical(results, baseline)
        assert report.clean
        assert [a.outcome for a in report.attempts if a.chunk == 1] == [
            "hang-timeout", "ok",
        ]
        assert (report.timeouts, report.respawns) == (1, 0)

    @pytest.mark.parametrize(
        "spec, retries, counters",
        [
            ("0:crash", 3, dict(attempts=5, retries=1, crashes=1)),
            ("1:hang", 3, dict(attempts=5, retries=1, timeouts=1)),
            ("2:raise", 3, dict(attempts=5, retries=1, raises=1)),
            ("3:corrupt", 3, dict(attempts=5, retries=1, corrupt=1)),
            (
                "0:crash,1:hang,2:raise,3:corrupt:2", 3,
                dict(attempts=9, retries=5, timeouts=1, crashes=1, raises=1, corrupt=2),
            ),
            ("1:crash:always", 1, dict(attempts=6, retries=1, crashes=2)),
            ("2:raise:always,0:hang:always", 1, dict(attempts=6, retries=1, timeouts=2)),
        ],
    )
    def test_width_one_counters_per_fault_kind(
        self, query, database, baseline, spec, retries, counters
    ):
        """The counters a width-1 scan reported before it shared the loop."""
        _, report = self.scan(
            query, database, 1, policy=RetryPolicy(max_retries=retries),
            faults=FaultPlan.parse(spec, hang_seconds=0.05),
        )
        expected = dict(
            attempts=0, retries=0, timeouts=0, crashes=0, raises=0, corrupt=0,
            hedges=0, respawns=0,
        )
        expected.update(counters)
        assert report.to_dict()["counters"] == expected
        assert report.degraded == spec.endswith("always")


def _slot0(payload, **rows):
    """``payload`` (a one-query task's) with query slot 0's rows replaced."""
    return payload._replace(**{name: (row,) for name, row in rows.items()})


def _edit(row, index, value):
    """A copy of ``row`` with ``row[index] = value``."""
    row = row.copy()
    row[index] = value
    return row


def _swap_first_hits(p, t, span):
    assert p.counts[0, 0] >= 2
    return _slot0(p, positions=_edit(p.positions[0], [0, 1], p.positions[0][[1, 0]]))


def _off_hit(p, t, value):
    """The score row with its first non-hit position scoring ``value``."""
    (misses,) = np.nonzero(p.scores[0] < t)
    return _slot0(p, scores=_edit(p.scores[0], misses[0], value))


def _hit_rescored(p, t, span):
    """The score row with the first hit's score changed, still a hit."""
    at, score = p.positions[0][0], p.hit_scores[0][0]
    return _slot0(p, scores=_edit(p.scores[0], at, t if score != t else span))


#: ``(keep_scores, damage(payload, threshold, span), reason pattern)``: one
#: case per rejection reason of ``WindowTask.check``, each damaging an
#: honest payload in the one way that reason names.
SANITY_CASES = [
    pytest.param(
        False, lambda p, t, s: list(p),
        r"^payload is list, expected ScanRows$", id="not-rows",
    ),
    pytest.param(
        False, lambda p, t, s: p._replace(counts=p.counts[:1]),
        r"^hit counts are not a 2 x 1 integer matrix$", id="counts-shape",
    ),
    pytest.param(
        False, lambda p, t, s: p._replace(counts=p.counts.astype(float)),
        r"^hit counts are not a 2 x 1 integer matrix$", id="counts-dtype",
    ),
    pytest.param(
        False, lambda p, t, s: p._replace(positions=()),
        r"^expected hit rows for 1 queries$", id="hit-rows",
    ),
    pytest.param(
        False, lambda p, t, s: _slot0(p, positions=p.positions[0][None]),
        r"^query slot 0: hit positions is not a 1-D array$", id="positions-2d",
    ),
    pytest.param(
        False, lambda p, t, s: _slot0(p, hit_scores=p.hit_scores[0][1:]),
        r"^query slot 0: hit_scores shape mismatch$", id="hit-scores-shape",
    ),
    pytest.param(
        False,
        lambda p, t, s: _slot0(
            p, positions=p.positions[0][1:], hit_scores=p.hit_scores[0][1:]
        ),
        r"^query slot 0: hit counts sum to \d+, the row holds \d+$", id="wrong-count",
    ),
    pytest.param(
        False, lambda p, t, s: p._replace(counts=_edit(p.counts, (0, 0), -1)),
        r"^query slot 0: hit counts sum to", id="count-below-row",
    ),
    pytest.param(
        False,
        lambda p, t, s: p._replace(counts=np.array([[-1], [p.counts.sum() + 1]])),
        r"^negative hit count$", id="negative-count",
    ),
    pytest.param(
        False, lambda p, t, s: _slot0(p, positions=p.positions[0].astype(float)),
        r"^query slot 0: non-integer hit arrays$", id="non-integer",
    ),
    pytest.param(
        False, lambda p, t, s: _slot0(p, positions=_edit(p.positions[0], -1, 10**6)),
        r"^hit position out of range$", id="position-past-window",
    ),
    pytest.param(
        False, lambda p, t, s: _slot0(p, positions=_edit(p.positions[0], 0, -1)),
        r"^hit position out of range$", id="negative-position",
    ),
    pytest.param(
        False, _swap_first_hits,
        r"^hit positions not strictly increasing$", id="not-increasing",
    ),
    pytest.param(
        False, lambda p, t, s: _slot0(p, hit_scores=_edit(p.hit_scores[0], 0, t - 1)),
        r"^query slot 0: hit score outside \[4, 9\]$", id="hit-score-below-threshold",
    ),
    pytest.param(
        False, lambda p, t, s: _slot0(p, hit_scores=_edit(p.hit_scores[0], 0, s + 1)),
        r"^query slot 0: hit score outside \[4, 9\]$", id="hit-score-above-span",
    ),
    pytest.param(
        False, lambda p, t, s: p._replace(scores=(np.zeros(p.counts.sum(), np.int32),)),
        r"^unexpected score rows$", id="scores-without-keep",
    ),
    pytest.param(
        True, lambda p, t, s: p._replace(scores=None),
        r"^missing score rows for 1 queries$", id="no-score-rows",
    ),
    pytest.param(
        True, lambda p, t, s: _slot0(p, scores=None),
        r"^query slot 0: missing score row$", id="no-score-row",
    ),
    pytest.param(
        True, lambda p, t, s: _slot0(p, scores=p.scores[0][None]),
        r"^query slot 0: missing score row$", id="score-row-2d",
    ),
    pytest.param(
        True, lambda p, t, s: _slot0(p, scores=p.scores[0][:-1]),
        r"^query slot 0: score row size \d+ != \d+$", id="score-row-size",
    ),
    pytest.param(
        True, lambda p, t, s: _off_hit(p, t, -1),
        r"^query slot 0: score outside \[0, 9\]$", id="score-negative",
    ),
    pytest.param(
        True,
        lambda p, t, s: _slot0(p, scores=_edit(p.scores[0], p.positions[0][0], s + 1)),
        r"^query slot 0: score outside \[0, 9\]$", id="score-above-span",
    ),
    pytest.param(
        True, lambda p, t, s: _off_hit(p, t, s),
        r"^hits disagree with score rows$", id="hits-disagree",
    ),
    pytest.param(
        True, _hit_rescored,
        r"^hit scores disagree with score rows$", id="hit-scores-disagree",
    ),
]


class TestSanityCheck:
    def make_task(
        self, query, database, start, stop, keep_scores=False, threshold=THRESHOLD
    ):
        _passes, tasks = plan_batch(
            database.lengths, [query], [threshold], 1,
            chunk_size=2, engine="bitscore", keep_scores=keep_scores,
        )
        return tasks[start // 2]

    def test_honest_payload_passes(self, query, database):
        task = self.make_task(query, database, 0, 2)
        assert task.check(database, task.run(database, 0)) is None

    def test_corruption_is_always_detected(self, query, database):
        for start, stop in ((0, 2), (2, 4), (4, 6), (6, 8)):
            task = self.make_task(query, database, start, stop)
            payload = task.corrupt(task.run(database, 0))
            assert task.check(database, payload) is not None

    @pytest.mark.parametrize("keep_scores", [False, True])
    def test_corruption_is_detected_without_hits(self, query, database, keep_scores):
        """A threshold past the span leaves every window without a hit."""
        span = len(query)
        task = self.make_task(query, database, 0, 2, keep_scores, threshold=span + 1)
        payload = task.run(database, 0)
        assert not payload.counts.any()
        assert task.check(database, payload) is None
        reason = task.check(database, task.corrupt(payload))
        assert reason is not None and "hit counts sum to" in reason

    def test_wrong_record_count_detected(self, query, database):
        task = self.make_task(query, database, 0, 2)
        payload = task.run(database, 0)
        payload = payload._replace(counts=payload.counts[:1])
        assert task.check(database, payload) is not None

    def test_keep_scores_cross_check(self, query, database):
        task = self.make_task(query, database, 0, 2, keep_scores=True)
        payload = task.run(database, 0)
        assert task.check(database, payload) is None
        tampered = payload._replace(hit_scores=(payload.hit_scores[0] + 1,))
        if payload.positions[0].size:
            assert task.check(database, tampered) is not None

    def test_rows_of_two_queries(self, query, database):
        _passes, tasks = plan_batch(
            database.lengths, [query, encode_query("MKW")], [THRESHOLD] * 2, 1,
            chunk_size=2, engine="bitscore", keep_scores=True,
        )
        payload = tasks[0].run(database, 0)
        assert payload.counts.shape == (2, 2)
        assert tasks[0].check(database, payload) is None
        swapped = payload._replace(
            positions=payload.positions[::-1], hit_scores=payload.hit_scores[::-1]
        )
        assert tasks[0].check(database, swapped) is not None

    @pytest.mark.parametrize("keep_scores, damage, reason", SANITY_CASES)
    def test_each_reason_is_caught(self, query, database, keep_scores, damage, reason):
        task = self.make_task(query, database, 0, 2, keep_scores)
        payload = task.run(database, 0)
        assert task.check(database, payload) is None
        damaged = damage(payload, THRESHOLD, len(query))
        found = task.check(database, damaged)
        assert found is not None and re.search(reason, found), found


class TestPolicyAndReport:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_respawns=-1)

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
