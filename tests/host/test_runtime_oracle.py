"""Every scan runtime against the one oracle: the ``naive`` engine.

The one-shot scan, the warm session and the sharded runtime all run on the
same task supervisor.  Each is checked here against the paper's
instruction semantics (``naive``) at every alignment position — score
vectors via ``keep_scores=True`` and the hit lists they imply — never one
runtime against another.
"""

import numpy as np
import pytest

from repro.core.aligner import resolve_threshold, scores_from_codes
from repro.core.encoding import encode_query
from repro.host.faults import FaultPlan, ShardFaultPlan
from repro.host.resilience import RetryPolicy
from repro.host.scan import PackedDatabase, scan_database
from repro.host.scan_session import ScanSession
from repro.host.shards import ShardedScanRuntime
from repro.seq.generate import random_protein, random_rna

RNG = np.random.default_rng(0x0AC1E)

#: Fast retries; hangs are short so in-process ones cost little.
POLICY = RetryPolicy(max_retries=3, timeout=5.0, backoff=0.01, backoff_max=0.02, seed=3)


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


class TestShardedScanRuntime:
    @pytest.mark.parametrize(
        "num_shards, plan",
        [(1, None), (3, None), (3, "shard:1:crash")],
    )
    def test_matches_naive(self, mixed_oracle, num_shards, plan):
        queries = MIXED[:2]
        runtime = ShardedScanRuntime(
            SMALL,
            num_shards=num_shards,
            policy=POLICY,
            faults=None if plan is None else ShardFaultPlan.parse(plan),
        )
        batches, report = runtime.scan_batch(
            queries, min_identity=0.6, keep_scores=True, with_report=True
        )
        assert report.exit_code() == 0
        assert len(report.shards) == num_shards
        if plan is not None:
            assert report.shards[1].attempts == 2
        for query, batch, expected in zip(queries, batches, mixed_oracle):
            threshold = resolve_threshold(encode_query(query), None, 0.6)
            assert_matches_oracle(batch, expected, threshold)
