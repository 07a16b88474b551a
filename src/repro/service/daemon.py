"""The resident scan daemon: admission queue, batcher, cache, drain.

:class:`ScanService` is the long-lived core the HTTP front door
(:mod:`repro.service.server`) delegates to.  It owns

* one warm backend, a :class:`repro.host.scan_session.ScanSession`
  (packed image resident once, supervised worker threads per pass),
  opened with ``shards=`` for a sharded scan;
* a bounded admission queue; :meth:`submit` either answers from the LRU
  result cache immediately, enqueues a job, or refuses
  (:class:`ServiceSaturatedError` on a full queue,
  :class:`ServiceClosedError` once draining) — refusal is back-pressure,
  never silent dropping;
* a single **batcher thread** that takes the next job plus whatever is
  already queued behind it, up to ``max_batch``, and dispatches them as
  one ``scan_batch`` call — jobs that arrive while a pass runs ride the
  next pass together, and heterogeneous thresholds share it via the
  per-query threshold sequence the host runtimes accept.

Concurrency model: many HTTP threads call :meth:`submit` / read job
state; exactly one thread (the batcher) touches the backend runtime.
The session is therefore never called from two threads at once — each
call runs its own supervisor — and every shared
structure here (queue, job store, cache, counters) is individually
locked.

Graceful drain (:meth:`drain`) stops admission, lets the queue empty and
the in-flight batch finish, and leaves completed results readable; with a
checkpoint directory configured, every batch runs under a durable
fingerprinted checkpoint, so a drain that is interrupted mid-batch leaves
chunks a re-submitted identical batch resumes instead of recomputing.
"""

from __future__ import annotations

import hashlib
import queue
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union, cast

from repro.core.aligner import resolve_threshold
from repro.core.contracts import check_query_elements
from repro.core.encoding import EncodedQuery, encode_query
from repro.host.scan import SESSION_ENGINE, PackedDatabase
from repro.host.scan_session import ScanSession
from repro.obs import profile as _obs_profile
from repro.service.cache import (
    CacheKey,
    ResultCache,
    database_fingerprint,
    query_fingerprint,
)
from repro.service.jobs import Job, JobStore

__all__ = [
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_QUEUE",
    "ScanService",
    "ServiceClosedError",
    "ServiceSaturatedError",
]

#: Default admission-queue bound; a full queue refuses with HTTP 503.
DEFAULT_MAX_QUEUE = 64

#: Default jobs per dispatched batch (the session caps queries per *pass*
#: separately — this bounds one ``scan_batch`` call's working set).
DEFAULT_MAX_BATCH = 16


class ServiceSaturatedError(RuntimeError):
    """The admission queue is full; the client should retry later."""


class ServiceClosedError(RuntimeError):
    """The service is draining or closed and admits no new jobs."""


class ScanService:
    """Resident scan daemon over one packed database (see module docs)."""

    def __init__(
        self,
        references: Union[PackedDatabase, Any],
        *,
        workers: Optional[int] = None,
        shards: Optional[int] = None,
        max_queue: int = DEFAULT_MAX_QUEUE,
        max_batch: int = DEFAULT_MAX_BATCH,
        cache_entries: int = 256,
        checkpoint_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        # queue.Queue(maxsize=0) is unbounded: admission would never refuse.
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self._database = (
            references
            if isinstance(references, PackedDatabase)
            else PackedDatabase.from_references(references)
        )
        self._runtime = ScanSession(self._database, workers=workers, shards=shards)
        self._db_fingerprint = database_fingerprint(self._database)
        self._checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self._max_batch = max_batch
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue(
            maxsize=max_queue
        )
        self._jobs = JobStore()
        self._cache = ResultCache(cache_entries)
        self._lock = threading.Lock()
        self._draining = threading.Event()
        self._closed = threading.Event()
        self._idle = threading.Event()
        self._idle.set()
        self._started_at = time.time()
        self.batches_dispatched = 0
        self.jobs_submitted = 0
        self.jobs_done = 0
        self.jobs_failed = 0
        self.jobs_cached = 0
        self._worst_exit = 0
        self._batcher = threading.Thread(
            target=self._run_batcher, name="fabp-service-batcher", daemon=True
        )
        self._batcher.start()

    # -- introspection ---------------------------------------------------------

    @property
    def database(self) -> PackedDatabase:
        return self._database

    @property
    def database_fingerprint(self) -> str:
        """SHA-256 of the resident database; part of every cache key."""
        return self._db_fingerprint

    @property
    def jobs(self) -> JobStore:
        return self._jobs

    @property
    def cache(self) -> ResultCache:
        return self._cache

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def exit_code(self) -> int:
        """Worst job outcome seen, in the CLI's scheme: 0 / 3 / 4."""
        with self._lock:
            return self._worst_exit

    def stats(self) -> Dict[str, Any]:
        """The ``/healthz`` snapshot: supervision, queue, cache, backend."""
        if self._closed.is_set():
            state = "closed"
        elif self._draining.is_set():
            state = "draining"
        else:
            state = "serving"
        runtime = self._runtime
        backend: Dict[str, Any] = {
            "engine": SESSION_ENGINE,
            "mode": "session" if runtime.num_shards is None else "sharded",
            "workers": runtime.num_workers,
            "resident_bytes": runtime.resident_bytes,
            "scans_completed": runtime.scans_completed,
            "pool_reuses": runtime.pool_reuses,
            "respawns_total": runtime.respawns_total,
        }
        if runtime.num_shards is not None:
            backend["num_shards"] = runtime.num_shards
        return {
            "state": state,
            "uptime_seconds": time.time() - self._started_at,
            "queue_depth": self._queue.qsize(),
            "jobs": self._jobs.counts(),
            "submitted": self.jobs_submitted,
            "batches_dispatched": self.batches_dispatched,
            "cache": self._cache.stats(),
            "backend": backend,
            "database": {
                "references": self._database.num_references,
                "nucleotides": self._database.total_nucleotides,
                "fingerprint": self._db_fingerprint[:16],
            },
            "exit_code": self.exit_code(),
        }

    # -- admission -------------------------------------------------------------

    def check(
        self,
        query: Union[str, EncodedQuery],
        *,
        threshold: Optional[int] = None,
        min_identity: Optional[float] = None,
    ) -> Tuple[EncodedQuery, int]:
        """Encode a query and resolve its threshold without admitting it.

        Raises ``ValueError`` (or an encoding error) on a malformed request,
        so a caller can check every query of a request before admitting one.
        """
        encoded = query if isinstance(query, EncodedQuery) else encode_query(query)
        check_query_elements(len(encoded))
        return encoded, resolve_threshold(encoded, threshold, min_identity)

    def submit(
        self,
        query: Union[str, EncodedQuery],
        *,
        name: Optional[str] = None,
        threshold: Optional[int] = None,
        min_identity: Optional[float] = None,
    ) -> Job:
        """Admit one scan job; answer from cache when the key recurs.

        Raises :class:`ServiceClosedError` while draining/closed,
        :class:`ServiceSaturatedError` on a full queue, and ``ValueError``
        (or an encoding error) on a malformed request — the HTTP layer
        maps these to 503 / 503 / 400.
        """
        if self._draining.is_set() or self._closed.is_set():
            raise ServiceClosedError("service is draining; no new jobs")
        encoded, resolved = self.check(
            query, threshold=threshold, min_identity=min_identity
        )
        job = self._jobs.create(name or "query", encoded, resolved)
        key: CacheKey = (query_fingerprint(encoded), self._db_fingerprint, resolved)
        cached = self._cache.get(key)
        _obs_profile.record_service_cache(cached is not None)
        if cached is not None:
            job.mark_done(cached, cached=True)
            with self._lock:
                self.jobs_submitted += 1
                self.jobs_cached += 1
            _obs_profile.record_service_job("cached")
            return job
        self._idle.clear()
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            job.mark_failed("admission queue full")
            _obs_profile.record_service_job("refused")
            raise ServiceSaturatedError(
                f"admission queue full ({self._queue.maxsize} jobs)"
            ) from None
        with self._lock:
            self.jobs_submitted += 1
        _obs_profile.record_service_queue_depth(self._queue.qsize())
        return job

    # -- batcher ---------------------------------------------------------------

    def _collect_batch(self, first: Job) -> List[Job]:
        """``first`` plus the jobs already queued behind it, up to the cap."""
        batch = [first]
        while len(batch) < self._max_batch:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is None:  # shutdown sentinel: put it back for the loop
                self._queue.put(item)
                break
            batch.append(item)
        return batch

    def _run_batcher(self) -> None:
        while True:
            try:
                job = self._queue.get(timeout=0.1)
            except queue.Empty:
                self._idle.set()
                if self._closed.is_set():
                    return
                continue
            if job is None:
                self._idle.set()
                return
            self._idle.clear()
            batch = self._collect_batch(job)
            self._execute(batch)
            _obs_profile.record_service_queue_depth(self._queue.qsize())
            if self._queue.qsize() == 0:
                self._idle.set()

    def _batch_checkpoint_dir(self, batch: List[Job]) -> Optional[str]:
        """A per-batch checkpoint subdirectory, deterministic in content.

        Keyed by the batch's (query fingerprint, threshold) multiset, so a
        re-submitted identical batch — after a crash or an interrupted
        drain — lands in the same store and resumes its finished chunks.
        """
        if self._checkpoint_dir is None:
            return None
        digest = hashlib.sha256()
        for token in sorted(
            f"{query_fingerprint(job.query)}:{job.threshold}" for job in batch
        ):
            digest.update(token.encode("ascii"))
        return str(self._checkpoint_dir / f"batch_{digest.hexdigest()[:16]}")

    def _execute(self, batch: List[Job]) -> None:
        for job in batch:
            job.mark_running()
        started = time.monotonic()
        try:
            outcome = self._runtime.scan_batch(
                [job.query for job in batch],
                threshold=[job.threshold for job in batch],
                checkpoint_dir=self._batch_checkpoint_dir(batch),
                resume=self._checkpoint_dir is not None,
                with_report=True,
            )
        except Exception as error:  # noqa: BLE001 - one batch must not kill the daemon
            message = f"{type(error).__name__}: {error}"
            with self._lock:
                self.jobs_failed += len(batch)
                self._worst_exit = max(self._worst_exit, 3)
            for job in batch:
                job.mark_failed(message)
                _obs_profile.record_service_job("failed")
            return
        finally:
            with self._lock:
                self.batches_dispatched += 1
            _obs_profile.record_service_batch(
                len(batch), time.monotonic() - started
            )
        batches, report = cast(
            Tuple[List[List[Any]], Any], outcome
        )
        degraded = bool(report.degraded)
        dead = int(report.dead_shards)
        for job, results in zip(batch, batches):
            job.mark_done(results, degraded=degraded, dead_shards=dead)
            key: CacheKey = (
                query_fingerprint(job.query), self._db_fingerprint, job.threshold
            )
            if not degraded and not dead:
                self._cache.put(key, results)
            _obs_profile.record_service_job("done")
        with self._lock:
            self.jobs_done += len(batch)
            self._worst_exit = max(self._worst_exit, report.exit_code())

    # -- lifecycle -------------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting, let queued and in-flight jobs finish.

        Returns ``True`` once the queue is empty and the batcher idle;
        ``False`` if ``timeout`` elapsed first (jobs keep running — a
        second call can keep waiting).  Completed results stay readable
        either way.
        """
        self._draining.set()
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while True:
            if self._queue.qsize() == 0 and self._idle.is_set():
                return True
            if self._closed.is_set():
                return self._queue.qsize() == 0
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.01)

    def close(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Tear the daemon down; with ``drain`` (default) finish work first."""
        if self._closed.is_set():
            return
        if drain:
            self.drain(timeout=timeout)
        self._draining.set()
        self._closed.set()
        self._queue.put(None)  # wake the batcher so it can exit
        self._batcher.join(timeout=10.0)
        self._runtime.close()

    def __enter__(self) -> "ScanService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
