"""Open-loop HTTP load generator for the scan service.

Arrivals are a Poisson process conditioned on its count: ``count`` due
times drawn uniformly over the window and sorted, so the offered load is
fixed while the spacing stays random.  A small pool of threads, each with
one keep-alive connection, sends every ``POST /scan`` when it falls due
and then polls ``GET /results/<id>`` on a fixed per-job period until the
job finishes.  Latency runs from the due time, so a late send counts.
"""

from __future__ import annotations

import heapq
import http.client
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Fixed per-job poll period; a tight sweep over every pending job loads the
#: server's interpreter lock and moves the latencies being measured.
POLL_SECONDS = 0.02

#: A job not finished this long after it was due counts as failed.
JOB_TIMEOUT_SECONDS = 30.0


def arrival_schedule(seed: int, count: int, seconds: float) -> List[float]:
    """Due times (seconds from the start) of ``count`` seeded arrivals."""
    rng = np.random.default_rng([seed, 0x5EED])
    return sorted(float(t) for t in rng.uniform(0.0, seconds, count))


def job_order(seed: int, count: int, repeat_share: float) -> Tuple[int, List[int]]:
    """How many distinct queries, and which one each of ``count`` jobs sends.

    A fixed ``repeat_share`` of the jobs repeat an earlier query.  The
    repeated queries are spread evenly over the distinct ones and only the
    order is seeded, so the multiset of queries (and of their lengths) is
    the same for every seed.
    """
    repeats = round(repeat_share * count)
    distinct = count - repeats
    step = distinct / max(1, repeats)
    multiset = list(range(distinct)) + [int(i * step) for i in range(repeats)]
    rng = np.random.default_rng([seed, 0x0DE])
    return distinct, [multiset[i] for i in rng.permutation(len(multiset))]


@dataclass
class JobRecord:
    """What the client saw of one job."""

    index: int
    query: int
    due: float
    sent: float = 0.0
    end: float = 0.0
    status: str = "pending"  # ok | failed | refused | timeout
    job_id: str = ""
    post_seconds: float = 0.0
    results_seconds: float = 0.0
    polls: int = 0
    view: dict = field(default_factory=dict)

    @property
    def latency(self) -> float:
        return self.end - self.due


class OpenLoopClient:
    """Drive one server with a fixed schedule from ``threads`` connections."""

    def __init__(self, host: str, port: int, threads: int, tracer=None):
        self._tracer = tracer
        self._host = host
        self._port = port
        self._threads = threads
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self._cond = threading.Condition()
        self._pending = 0

    def _push(self, when: float, kind: str, record: JobRecord) -> None:
        heapq.heappush(self._heap, (when, next(self._seq), kind, record))
        self._cond.notify()

    def run(
        self, jobs: Sequence[Tuple[float, int, str]], start: float
    ) -> List[JobRecord]:
        """Send ``(offset, query index, query)`` jobs; return their records."""
        records = [JobRecord(i, q, start + offset) for i, (offset, q, _) in enumerate(jobs)]
        texts = [text for _, _, text in jobs]
        with self._cond:
            self._pending = len(records)
            for record in records:
                self._push(record.due, "post", record)
        workers = [
            threading.Thread(target=self._work, args=(texts,), daemon=True)
            for _ in range(self._threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=JOB_TIMEOUT_SECONDS + max(r.due for r in records) - start + 30)
        return records

    def _finish(self, record: JobRecord, status: str) -> None:
        record.status = status
        record.end = time.monotonic()
        with self._cond:
            self._pending -= 1
            self._cond.notify_all()

    def _work(self, texts: Sequence[str]) -> None:
        conn = http.client.HTTPConnection(self._host, self._port, timeout=JOB_TIMEOUT_SECONDS)
        try:
            while True:
                with self._cond:
                    while True:
                        if self._pending == 0:
                            return
                        if self._heap:
                            wait = self._heap[0][0] - time.monotonic()
                            if wait <= 0:
                                _, _, kind, record = heapq.heappop(self._heap)
                                break
                            self._cond.wait(wait)
                        else:
                            self._cond.wait(0.1)
                if kind == "post":
                    self._post(conn, record, texts[record.index])
                else:
                    self._poll(conn, record)
        finally:
            conn.close()

    def _request(self, conn, record: JobRecord, method: str, path: str,
                 body: Optional[bytes] = None):
        headers = {"Content-Type": "application/json"} if body else {}
        started = time.perf_counter()
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        payload = response.read()
        if self._tracer is not None and record.index % 2 == 1:
            # Odd jobs are the traced half of a traced run.
            self._tracer.record(f"{method} {path.split('/')[1]}", started,
                                time.perf_counter(), f"job-{record.index}")
        return response.status, payload

    def _post(self, conn, record: JobRecord, text: str) -> None:
        record.sent = time.monotonic()
        body = json.dumps({"query": text, "name": f"q{record.query}"}).encode()
        try:
            status, payload = self._request(conn, record, "POST", "/scan", body)
        except (OSError, http.client.HTTPException):
            self._finish(record, "failed")
            return
        record.post_seconds = time.monotonic() - record.sent
        if status == 503:
            self._finish(record, "refused")
            return
        if status != 202:
            self._finish(record, "failed")
            return
        reply = json.loads(payload)
        record.job_id = reply["id"]
        first = record.sent + POLL_SECONDS if reply["state"] != "done" else 0.0
        with self._cond:
            self._push(first, "poll", record)

    def _poll(self, conn, record: JobRecord) -> None:
        started = time.monotonic()
        try:
            status, payload = self._request(conn, record, "GET", f"/results/{record.job_id}")
        except (OSError, http.client.HTTPException):
            self._finish(record, "failed")
            return
        record.polls += 1
        now = time.monotonic()
        if status == 202:
            if now - record.due > JOB_TIMEOUT_SECONDS:
                self._finish(record, "timeout")
                return
            with self._cond:
                self._push(now + POLL_SECONDS, "poll", record)
            return
        record.results_seconds = now - started
        record.view = json.loads(payload)
        self._finish(record, "ok" if status == 200 else "failed")
