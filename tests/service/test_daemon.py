"""ScanService unit tests: batching, caching, back-pressure, drain."""

import threading
import time

import pytest

from repro.core.contracts import MAX_QUERY_ELEMENTS
from repro.core.encoding import encode_query
from repro.host.scan import PackedDatabase, scan_database
from repro.service import (
    ScanService,
    ServiceClosedError,
    ServiceSaturatedError,
)
from repro.workloads import build_database, sample_queries


@pytest.fixture(scope="module")
def workload():
    queries = sample_queries(4, length=12, seed=9)
    database = build_database(
        queries, num_references=5, reference_length=600, seed=9
    )
    packed = PackedDatabase.from_references(database.references)
    return [str(q) for q in queries], packed


def wait_done(job, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if job.state in ("done", "failed"):
            return job
        time.sleep(0.005)
    raise AssertionError(f"job {job.id} stuck in {job.state}")


def hit_view(results):
    return [
        (r.reference_name, tuple((h.position, h.score) for h in r.hits))
        for r in results
    ]


def test_submit_matches_scan_database(workload):
    queries, packed = workload
    with ScanService(packed, workers=1) as service:
        job = service.submit(queries[0], min_identity=0.9, name="q0")
        wait_done(job)
        assert job.state == "done" and job.exit_code() == 0
        solo = scan_database(
            encode_query(queries[0]), packed, min_identity=0.9, workers=1
        )
        assert hit_view(job.results) == hit_view(solo)


def test_concurrent_submitters_bit_identical(workload):
    queries, packed = workload
    with ScanService(packed, workers=1) as service:
        jobs = {}

        def client(i):
            jobs[i] = service.submit(queries[i % len(queries)], min_identity=0.9)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i, job in jobs.items():
            wait_done(job)
            assert job.state == "done", job.error
            solo = scan_database(
                encode_query(queries[i % len(queries)]),
                packed,
                min_identity=0.9,
                workers=1,
            )
            assert hit_view(job.results) == hit_view(solo)
        assert service.exit_code() == 0


def test_cache_hit_replays_identical_results(workload):
    queries, packed = workload
    with ScanService(packed, workers=1) as service:
        first = wait_done(service.submit(queries[1], min_identity=0.9))
        second = service.submit(queries[1], min_identity=0.9)
        # A hit is answered at admission: already done, flagged cached.
        assert second.state == "done" and second.cached
        assert hit_view(second.results) == hit_view(first.results)
        stats = service.cache.stats()
        assert stats["hits"] == 1
        # A different threshold is a different key -> miss.
        third = wait_done(service.submit(queries[1], threshold=first.threshold - 1))
        assert not third.cached


def test_database_swap_means_no_stale_hits(workload):
    queries, packed = workload
    with ScanService(packed, workers=1) as service:
        wait_done(service.submit(queries[0], min_identity=0.9))
        fp_before = service.database_fingerprint
    other = build_database(
        sample_queries(4, length=12, seed=9),
        num_references=5,
        reference_length=600,
        substitution_rate=0.05,
        seed=10,
    )
    with ScanService(
        PackedDatabase.from_references(other.references), workers=1
    ) as swapped:
        assert swapped.database_fingerprint != fp_before
        job = swapped.submit(queries[0], min_identity=0.9)
        assert not job.cached  # fresh database, fresh key space
        wait_done(job)


def test_bad_requests_are_rejected_up_front(workload):
    _, packed = workload
    with ScanService(packed, workers=1) as service:
        with pytest.raises(ValueError):
            service.submit("MFR", threshold=5, min_identity=0.9)  # both
        with pytest.raises(Exception):
            service.submit("not a protein ]]", min_identity=0.9)
        # Rejections never became jobs the batcher must run.
        assert service.stats()["queue_depth"] == 0


def test_saturation_refuses_instead_of_dropping(workload):
    queries, packed = workload

    class Gated(ScanService):
        """Block the batcher so the queue can be filled deterministically."""

        gate = threading.Event()

        def _execute(self, batch):
            self.gate.wait(timeout=30)
            super()._execute(batch)

    service = Gated(packed, workers=1, max_queue=2, max_batch=1)
    try:
        admitted = [service.submit(q, min_identity=0.9) for q in queries[:2]]
        # Queue bound 2 and a gated batcher: one more may be in flight,
        # but within a few submits the queue must refuse.
        with pytest.raises(ServiceSaturatedError):
            for query in 4 * queries:
                service.submit(query, threshold=1)
        Gated.gate.set()
        for job in admitted:
            wait_done(job)
    finally:
        Gated.gate.set()
        service.close()


@pytest.mark.parametrize("field", ["max_queue", "max_batch"])
@pytest.mark.parametrize("value", [0, -1])
def test_sizes_below_one_are_refused(workload, field, value):
    """``max_queue=0`` would build an unbounded queue that never refuses."""
    _, packed = workload
    threads = set(threading.enumerate())
    with pytest.raises(ValueError, match=f"{field} must be >= 1"):
        ScanService(packed, workers=1, **{field: value})
    assert set(threading.enumerate()) <= threads


def test_jobs_queued_during_a_pass_share_the_next_pass(workload):
    """With no linger, jobs that queue behind a running pass still coalesce."""
    queries, packed = workload

    class Gated(ScanService):
        """Block the first pass so three more jobs queue behind it."""

        gate = threading.Event()
        entered = threading.Event()
        batches = []

        def _execute(self, batch):
            self.batches.append([job.id for job in batch])
            self.entered.set()
            self.gate.wait(timeout=30)
            super()._execute(batch)

    service = Gated(packed, workers=1)
    try:
        first = service.submit(queries[0], min_identity=0.9)
        assert Gated.entered.wait(timeout=30)
        queued = [service.submit(q, min_identity=0.9) for q in queries[1:4]]
        Gated.gate.set()
        for job in [first, *queued]:
            wait_done(job)
        assert service.batches_dispatched == 2
        assert Gated.batches == [[first.id], [job.id for job in queued]]
        for query, job in zip(queries, [first, *queued]):
            assert job.state == "done", job.error
            solo = scan_database(
                encode_query(query), packed, min_identity=0.9, workers=1
            )
            assert hit_view(job.results) == hit_view(solo)
    finally:
        Gated.gate.set()
        service.close()


def test_query_envelope_enforced_at_submit(workload):
    _, packed = workload
    with ScanService(packed, workers=1) as service:
        with pytest.raises(ValueError, match="MAX_QUERY_ELEMENTS = 750"):
            service.submit("M" * 251, threshold=1)  # 753 elements
        with pytest.raises(ValueError, match="empty"):
            service.submit("", threshold=0)
        job = wait_done(service.submit("M" * 250, min_identity=0.9))
        assert job.state == "done" and len(job.query) == MAX_QUERY_ELEMENTS


def test_drain_finishes_queued_work_then_refuses(workload):
    queries, packed = workload
    service = ScanService(packed, workers=1)
    try:
        jobs = [service.submit(q, min_identity=0.9) for q in queries]
        assert service.drain(timeout=60.0)
        assert service.draining
        for job in jobs:
            assert job.state == "done", job.error
        with pytest.raises(ServiceClosedError):
            service.submit(queries[0], min_identity=0.9)
    finally:
        service.close()
    # close() is idempotent and a closed service still reports stats.
    service.close()
    assert service.stats()["state"] == "closed"


def test_stats_shape(workload):
    queries, packed = workload
    with ScanService(packed, workers=1, cache_entries=8) as service:
        wait_done(service.submit(queries[0], min_identity=0.9))
        stats = service.stats()
        assert stats["state"] == "serving"
        assert stats["backend"]["mode"] == "session"
        assert "num_shards" not in stats["backend"]
        assert stats["backend"]["engine"] == "bitscore_batch"
        assert stats["database"]["references"] == packed.num_references
        assert stats["cache"]["max_entries"] == 8
        assert stats["jobs"]["done"] == 1
        assert stats["exit_code"] == 0


def test_sharded_backend(workload):
    queries, packed = workload
    with ScanService(packed, shards=2) as service:
        assert service.stats()["backend"] == {
            "engine": "bitscore_batch",
            "mode": "sharded",
            "workers": 2,
            "resident_bytes": packed.packed_bytes,
            "scans_completed": 0,
            "pool_reuses": 0,
            "respawns_total": 0,
            "num_shards": 2,
        }
        job = wait_done(service.submit(queries[0], min_identity=0.9), timeout=120)
        assert job.state == "done", job.error
        solo = scan_database(
            encode_query(queries[0]), packed, min_identity=0.9, workers=1
        )
        assert hit_view(job.results) == hit_view(solo)
        assert service.stats()["backend"]["scans_completed"] == 1


def test_checkpointed_batches_resume(workload, tmp_path):
    """An identical re-submitted batch lands in the same checkpoint store."""
    queries, packed = workload
    ckpt = tmp_path / "service_ckpt"
    with ScanService(packed, workers=1, checkpoint_dir=ckpt) as service:
        wait_done(service.submit(queries[0], min_identity=0.9))
    stores = list(ckpt.glob("batch_*"))
    assert len(stores) == 1
    # Same query on a fresh daemon: deterministic directory, warm resume.
    with ScanService(packed, workers=1, checkpoint_dir=ckpt) as service:
        job = wait_done(service.submit(queries[0], min_identity=0.9))
        assert job.state == "done"
    assert list(ckpt.glob("batch_*")) == stores
