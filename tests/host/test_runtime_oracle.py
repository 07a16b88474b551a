"""Every scan runtime against the one oracle: the ``naive`` engine.

The one-shot scan, the warm session and the sharded session all run on the
same task supervisor.  Each is checked here against the paper's
instruction semantics (``naive``) at every alignment position — score
vectors via ``keep_scores=True`` and the hit lists they imply — never one
runtime against another.
"""

import os
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np
import pytest

from repro.core.aligner import resolve_threshold, scores_from_codes
from repro.core.encoding import encode_query
from repro.host.faults import FaultPlan
from repro.host.resilience import RetryPolicy
from repro.host.scan import PackedDatabase, scan_database
from repro.host.scan_session import ScanSession, ShardedScanRuntime, plan_batch
from repro.host import windows
from repro.seq.generate import random_protein, random_rna

RNG = np.random.default_rng(0x0AC1E)

#: Fast retries; hangs are short so in-process ones cost little.
POLICY = RetryPolicy(max_retries=3, timeout=5.0)


def make_database(lengths):
    references = [random_rna(n, rng=RNG).letters for n in lengths]
    return PackedDatabase.from_references(
        references, names=[f"ref_{i}" for i in range(len(lengths))]
    )


#: Big enough that position-balanced planning yields several tasks and
#: cuts the first reference into windows (seams inside a reference), with
#: a reference shorter than every query.
BIG = make_database((75_000, 30, 2_000, 9_000))
#: Small enough for a multi-query naive oracle.
SMALL = make_database((3_000, 50, 1_800, 2_600))

QUERY = random_protein(8, rng=RNG)
#: Spans 12, 36, 21 and 75 elements: more than one shared pass.
MIXED = [random_protein(n, rng=RNG) for n in (4, 12, 7, 25)]


def oracle(query, database):
    """Naive scores at every position of every reference."""
    instructions = encode_query(query).as_array()
    return [
        scores_from_codes(instructions, database.reference_codes(i), "naive")
        for i in range(database.num_references)
    ]


def assert_matches_oracle(results, expected_scores, threshold):
    assert len(results) == len(expected_scores)
    for result, scores in zip(results, expected_scores):
        assert result.threshold == threshold
        np.testing.assert_array_equal(result.scores, scores)
        wanted = [
            (int(p), int(scores[p])) for p in np.nonzero(scores >= threshold)[0]
        ]
        assert [(hit.position, hit.score) for hit in result.hits] == wanted


@pytest.fixture(autouse=True)
def small_chunk_floor(monkeypatch):
    """Plan these databases, small enough for a ``naive`` oracle, into
    several tasks with seams inside a reference, as a large scan is
    planned: a 512 K-cell floor is 21,846 positions of an 8-residue query,
    so ``BIG`` (85,931 positions) is three tasks (the planner's own floor
    is 2**28 cells, about 11 M positions)."""
    monkeypatch.setattr(windows, "MIN_CHUNK_CELLS", 1 << 19)


@pytest.fixture(scope="module")
def big_oracle():
    return oracle(QUERY, BIG)


@pytest.fixture(scope="module")
def mixed_oracle():
    return [oracle(query, SMALL) for query in MIXED]


class TestScanDatabase:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk_size", [None, 1])
    @pytest.mark.parametrize("faulty", [False, True])
    def test_matches_naive(self, big_oracle, workers, chunk_size, faulty):
        threshold = 14
        plan = None
        if faulty:
            plan = FaultPlan.parse(
                "0:crash,1:corrupt,2:raise,3:hang", hang_seconds=0.2
            )
        results, report = scan_database(
            QUERY, BIG, threshold=threshold, workers=workers,
            chunk_size=chunk_size, keep_scores=True, policy=POLICY,
            faults=plan, with_report=True,
        )
        assert_matches_oracle(results, big_oracle, threshold)
        assert report.clean
        assert report.chunks_total > 1
        assert report.mode == ("parallel" if workers > 1 else "serial")
        if faulty:
            assert report.retries >= min(4, report.chunks_total)


class TestScanSession:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_mixed_spans_and_thresholds(self, mixed_oracle, workers):
        thresholds = [10, None, 15, None]
        with ScanSession(SMALL, workers=workers) as session:
            batches, report = session.scan_batch(
                MIXED, threshold=thresholds, min_identity=0.7,
                keep_scores=True, with_report=True,
            )
        assert report.clean
        for query, given, batch, expected in zip(
            MIXED, thresholds, batches, mixed_oracle
        ):
            resolved = resolve_threshold(
                encode_query(query), given, 0.7 if given is None else None
            )
            assert_matches_oracle(batch, expected, resolved)


def shard_task_ids(session, queries, chunk_size=None):
    """Task ids per shard for one call, as the session numbers them."""
    encoded = [encode_query(query) for query in queries]
    _passes, tasks = plan_batch(
        session.database.lengths, encoded, [0] * len(encoded),
        session.num_shards, chunk_size=chunk_size, shards=session.shard_specs,
    )
    owned = {}
    for task_id, task in enumerate(tasks):
        owned.setdefault(task.shard, []).append(task_id)
    return owned


def child_pids():
    """Live children of this process, the multiprocessing tracker aside."""
    own = os.getpid()
    tracker = getattr(resource_tracker._resource_tracker, "_pid", None)
    pids = set()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == own and fields[0] != "Z":
            pids.add(int(entry.name))
    return pids - {tracker}


def shm_entries():
    shm = Path("/dev/shm")
    return {p.name for p in shm.iterdir()} if shm.is_dir() else set()


def sharded_session(num_shards):
    return ScanSession(SMALL, shards=num_shards)


def sharded_shim(num_shards):
    """The old constructor name, with the arguments perfbench passes."""
    return ShardedScanRuntime(
        [SMALL.reference_codes(i) for i in range(SMALL.num_references)],
        num_shards=num_shards, names=list(SMALL.names),
    )


class TestShardedScanRuntime:
    @pytest.mark.parametrize(
        "num_shards, fault, open_sharded",
        [
            pytest.param(1, None, sharded_session, id="1-None"),
            pytest.param(3, None, sharded_session, id="3-None"),
            pytest.param(3, "crash", sharded_session, id="3-shard:1:crash"),
            pytest.param(3, None, sharded_shim, id="3-ShardedScanRuntime"),
        ],
    )
    def test_matches_naive(self, mixed_oracle, num_shards, fault, open_sharded):
        queries = MIXED[:2]
        plan = None
        with open_sharded(num_shards) as session:
            if fault is not None:
                # Shard 1's first task faults once.
                first = shard_task_ids(session, queries)[1][0]
                plan = FaultPlan.parse(f"{first}:{fault}")
            batches, report = session.scan_batch(
                queries, min_identity=0.6, keep_scores=True, policy=POLICY,
                faults=plan, with_report=True,
            )
        assert report.exit_code() == 0
        assert len(report.shards) == num_shards
        if fault is not None:
            assert report.retries == 1
            assert report.crashes == 1
        for query, batch, expected in zip(queries, batches, mixed_oracle):
            threshold = resolve_threshold(encode_query(query), None, 0.6)
            assert_matches_oracle(batch, expected, threshold)

    def test_dead_shard_omits_exactly_its_references(self, mixed_oracle):
        queries = MIXED[:2]
        with ScanSession(SMALL, shards=3) as session:
            victim = shard_task_ids(session, queries)[1][0]
            batches, report = session.scan_batch(
                queries, min_identity=0.6, keep_scores=True, policy=POLICY,
                faults=FaultPlan.parse(f"{victim}:raise:always"),
                with_report=True,
            )
        assert report.exit_code() == 4
        assert [s.status for s in report.shards] == ["ok", "dead", "ok"]
        dead = session.shard_specs[1]
        live = [
            i for i in range(SMALL.num_references)
            if not dead.start <= i < dead.stop
        ]
        for query, batch, expected in zip(queries, batches, mixed_oracle):
            assert [r.reference_name for r in batch] == [
                SMALL.names[i] for i in live
            ]
            threshold = resolve_threshold(encode_query(query), None, 0.6)
            assert_matches_oracle(batch, [expected[i] for i in live], threshold)

    def test_crashed_task_replays_alone(self, mixed_oracle):
        # Whole-reference tasks give each shard one task per reference.
        query = MIXED[0]
        with ScanSession(SMALL, shards=2) as session:
            owned = shard_task_ids(session, [query], chunk_size=1)
            assert len(owned[1]) >= 2
            victim = owned[1][0]
            batches, report = session.scan_batch(
                [query], threshold=8, keep_scores=True, chunk_size=1,
                policy=POLICY, faults=FaultPlan.parse(f"{victim}:crash"),
                with_report=True,
            )
        assert report.exit_code() == 0
        assert report.mode == "sharded"
        per_task = {}
        for attempt in report.attempts:
            per_task.setdefault(attempt.chunk, []).append(attempt.outcome)
        assert per_task.pop(victim) == ["crash", "ok"]
        assert all(outcomes == ["ok"] for outcomes in per_task.values())
        assert report.shards[1].attempts == len(owned[1]) + 1
        assert_matches_oracle(batches[0], mixed_oracle[0], 8)

    def test_resume_restores_finished_tasks(self, mixed_oracle, tmp_path):
        query = MIXED[0]
        with ScanSession(SMALL, shards=2) as session:
            owned = shard_task_ids(session, [query], chunk_size=1)
            victim = owned[1][-1]
            _, first = session.scan_batch(
                [query], threshold=8, keep_scores=True, chunk_size=1,
                policy=POLICY, faults=FaultPlan.parse(f"{victim}:raise:always"),
                checkpoint_dir=tmp_path, with_report=True,
            )
            assert first.exit_code() == 4
            batches, report = session.scan_batch(
                [query], threshold=8, keep_scores=True, chunk_size=1,
                checkpoint_dir=tmp_path, resume=True, with_report=True,
            )
        assert report.exit_code() == 0
        # Only the task that died is scanned again.
        assert [a.chunk for a in report.attempts] == [victim]
        assert report.chunks_from_checkpoint == report.chunks_total - 1
        assert [s.resumed_chunks for s in report.shards] == [
            len(owned[0]), len(owned[1]) - 1,
        ]
        assert_matches_oracle(batches[0], mixed_oracle[0], 8)

    def test_call_leaves_no_process_or_segment(self, mixed_oracle):
        children, segments = child_pids(), shm_entries()
        with ScanSession(SMALL, shards=3) as session:
            batches, report = session.scan_batch(
                MIXED[:1], threshold=8, keep_scores=True, policy=POLICY,
                with_report=True,
            )
            assert report.workers == 3
            # The session is still open.
            assert child_pids() <= children
            assert shm_entries() <= segments
        assert_matches_oracle(batches[0], mixed_oracle[0], 8)
