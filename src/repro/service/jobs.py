"""Job lifecycle of the front-door scan service.

A **job** is one admitted protein-query scan: it is created ``queued`` by
``POST /scan``, picked up by the batcher (``running``), and finishes
``done`` (results attached) or ``failed`` (error attached).  Jobs that hit
the result cache are born ``done`` with ``cached=True`` and never touch
the queue.  The :class:`JobStore` keeps a bounded, thread-safe history so
``GET /jobs/<id>`` / ``GET /results/<id>`` stay answerable after
completion without growing without bound.

Result payloads are JSON-rendered with :func:`result_to_dict` — the same
information :class:`repro.core.aligner.AlignmentResult` carries, minus the
optional full score vectors (``keep_scores`` stays a library-level
feature; the HTTP surface returns hits only).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.core.aligner import AlignmentResult
from repro.core.encoding import EncodedQuery

__all__ = [
    "JOB_STATES",
    "Job",
    "JobStore",
    "pending_jobs",
    "result_to_dict",
]

#: Every state a job can report; terminal states are ``done`` / ``failed``.
JOB_STATES = ("queued", "running", "done", "failed")


def result_to_dict(result: AlignmentResult) -> Dict[str, Any]:
    """Render one per-reference alignment result as a JSON-safe dict."""
    return {
        "reference": result.reference_name,
        "reference_length": result.reference_length,
        "threshold": result.threshold,
        "hits": [[hit.position, hit.score] for hit in result.hits],
        "max_score": result.max_score,
    }


@dataclass
class Job:
    """One admitted scan job and everything its lifecycle accretes."""

    id: str
    query_name: str
    query: EncodedQuery
    threshold: int
    state: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    results: Optional[List[AlignmentResult]] = None
    error: Optional[str] = None
    cached: bool = False
    degraded: bool = False
    dead_shards: int = 0
    finished: threading.Event = field(
        default_factory=threading.Event, repr=False, compare=False
    )

    def exit_code(self) -> int:
        """The job's CLI-contract exit code: 0 clean, 3 degraded, 4 dead shards."""
        if self.dead_shards:
            return 4
        if self.degraded:
            return 3
        return 0

    def mark_running(self) -> None:
        self.state = "running"
        self.started_at = time.time()

    def mark_done(
        self,
        results: List[AlignmentResult],
        *,
        degraded: bool = False,
        dead_shards: int = 0,
        cached: bool = False,
    ) -> None:
        self.results = results
        self.degraded = degraded
        self.dead_shards = dead_shards
        self.cached = cached
        self.state = "done"
        self.finished_at = time.time()
        self.finished.set()

    def mark_failed(self, error: str) -> None:
        self.error = error
        self.state = "failed"
        self.finished_at = time.time()
        self.finished.set()

    def to_dict(self, *, include_results: bool = False) -> Dict[str, Any]:
        """The job's JSON view; results ride along only when asked for."""
        payload: Dict[str, Any] = {
            "id": self.id,
            "query": self.query_name,
            "query_elements": len(self.query),
            "threshold": self.threshold,
            "state": self.state,
            "cached": self.cached,
            "submitted_at": self.submitted_at,
        }
        if self.started_at is not None:
            payload["started_at"] = self.started_at
        if self.finished_at is not None:
            payload["finished_at"] = self.finished_at
        if self.state in ("done", "failed"):
            payload["exit_code"] = 1 if self.state == "failed" else self.exit_code()
            payload["degraded"] = self.degraded
            payload["dead_shards"] = self.dead_shards
        if self.error is not None:
            payload["error"] = self.error
        if include_results and self.results is not None:
            payload["results"] = [result_to_dict(r) for r in self.results]
            payload["num_hits"] = sum(len(r.hits) for r in self.results)
        return payload


class JobStore:
    """Thread-safe, insertion-ordered job registry with bounded history.

    Once more than ``max_finished`` jobs sit in a terminal state the oldest
    finished ones are evicted (queued/running jobs are never evicted — a
    job the batcher still owns must stay addressable).
    """

    def __init__(self, *, max_finished: int = 1024) -> None:
        if max_finished < 1:
            raise ValueError("max_finished must be >= 1")
        self._max_finished = max_finished
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._serial = 0

    def create(self, query_name: str, query: EncodedQuery, threshold: int) -> Job:
        """Mint a job with a fresh id and register it."""
        with self._lock:
            self._serial += 1
            job = Job(
                id=f"job-{self._serial:06d}",
                query_name=query_name,
                query=query,
                threshold=threshold,
            )
            self._jobs[job.id] = job
            self._evict_locked()
            return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def counts(self) -> Dict[str, int]:
        """Jobs per state — the ``/healthz`` view."""
        tallies = {state: 0 for state in JOB_STATES}
        with self._lock:
            for job in self._jobs.values():
                tallies[job.state] = tallies.get(job.state, 0) + 1
        return tallies

    def _evict_locked(self) -> None:
        finished = [
            job_id
            for job_id, job in self._jobs.items()
            if job.state in ("done", "failed")
        ]
        excess = len(finished) - self._max_finished
        if excess > 0:
            for job_id in finished[:excess]:
                del self._jobs[job_id]


def pending_jobs(jobs: Sequence[Job]) -> List[Job]:
    """The subset of ``jobs`` still owned by the queue or the batcher."""
    return [job for job in jobs if job.state in ("queued", "running")]
