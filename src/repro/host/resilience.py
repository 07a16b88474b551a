"""The task supervisor every scan runs on.

The paper's host program controls its kernel instances from one place;
this module is that control loop in software.  Every scan path in
:mod:`repro.host` goes through one runtime,
:class:`repro.host.scan_session.ScanSession` — the one-shot
:func:`repro.host.scan.scan_database` is a session opened for one call,
and a sharded scan is a session opened with ``shards=`` — and every
session call hands a list of *tasks* to one :class:`Supervisor`.  A task
is any object with two methods:

* ``run(database, attempt)`` computes the task's payload against a
  :class:`repro.host.scan.PackedDatabase`;
* ``check(database, payload)`` is a cheap structural sanity check that
  returns ``None`` for a sane payload, else a reason.

A window task scores a chunk of database windows; a sharded scan labels
each of its window tasks with the shard whose reference range it covers.
Attempts run on a thread executor: ``workers`` slots in this process, all
reading the one in-process database image, as the paper's kernel
instances share one DRAM image.  The compiled kernel drops the GIL for
its calls, so the slots score in parallel.  Whatever the task, the
supervisor provides:

* **per-task timeout** — an attempt that runs past
  :attr:`RetryPolicy.timeout` is cancelled and marked lost (a thread
  cannot be killed; its late payload is discarded), its slot gets a new
  thread and the task is retried;
* **bounded retries with seeded exponential backoff + jitter** — every
  failed attempt (crash, hang, raise, corrupt) requeues the task until
  :attr:`RetryPolicy.max_retries` is exhausted;
* **lost-worker accounting** — an attempt that crashes or times out
  counts as a respawn, within the :attr:`RetryPolicy.max_respawns`
  budget;
* **hedged re-dispatch** — once the queue drains, stragglers older than
  :attr:`RetryPolicy.hedge_after` are re-issued to idle slots; the first
  sane result wins and duplicates are discarded;
* **per-task sanity checking** — a payload that fails ``check`` is never
  merged, it is retried;
* **durable checkpointing** — with a checkpoint store, every completed
  task is persisted immediately;
* **graceful degradation** — when a task exhausts its budget or the
  respawn budget trips, the remaining tasks finish in-process without
  injected faults and the :class:`ScanReport` marks the scan *degraded*
  (CLI exit 3).  In *partial* mode (sharded scans) an exhausted task is
  instead reported dead, its shard with it, and the scan completes
  without that shard's references (CLI exit 4).

An in-process loop with the same retry semantics serves ``workers <= 1``
and the degraded completion.  Faults from a
:class:`repro.host.faults.FaultPlan` enter through one hook,
:func:`run_attempt`, in both modes.  The slot threads are a
:class:`SlotThreads`, which a warm session keeps across its calls.  When
:meth:`Supervisor.run` returns or raises, no attempt of it is running:
every in-flight attempt has been cancelled, and every thread that served a
lost or unfinished attempt has been retired and joined; only idle slot
threads of a caller's :class:`SlotThreads` stay, for the next call.

Determinism: payloads are merged by task id, so retry order, hedging and
thread scheduling cannot change the output — any recoverable fault plan
yields results bit-identical to a fault-free scan.
"""

from __future__ import annotations

import queue
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.host.errors import (
    ChunkFailedError,
    InjectedFaultError,
    PoolUnhealthyError,
    ScanError,
    ShardFailedError,
)
from repro.host.faults import FaultKind
from repro.obs import profile as _obs_profile

__all__ = [
    "RetryPolicy",
    "ChunkAttempt",
    "ScanReport",
    "ShardStatus",
    "SlotThreads",
    "Supervisor",
    "corrupt_records",
    "run_attempt",
]


# -- policy --------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the supervisor (all durations in seconds).

    Every task gets ``max_retries + 1`` attempts.  In a sharded scan
    ``degrade`` also allows partial results: a shard with an exhausted
    task is reported dead instead of raising
    :class:`~repro.host.errors.ShardFailedError`.
    """

    #: Extra attempts allowed per task after the first one fails.
    max_retries: int = 3
    #: Per-attempt wall-clock budget; ``None`` disables timeouts.
    timeout: Optional[float] = 300.0
    #: Base backoff delay; attempt ``n`` waits ``backoff * 2**(n-1)``.
    backoff: float = 0.05
    #: Ceiling on the exponential backoff delay.
    backoff_max: float = 2.0
    #: Multiplicative jitter: the delay is scaled by ``1 + jitter * u``.
    jitter: float = 0.25
    #: Re-dispatch stragglers older than this once the queue drains;
    #: ``None`` disables hedging.
    hedge_after: Optional[float] = None
    #: Lost workers (crashed or timed-out attempts) tolerated per call
    #: before the executor is declared unhealthy.
    max_respawns: int = 8
    #: On an unhealthy executor / exhausted task, finish in-process (reported
    #: as *degraded*), or in a sharded scan report the shard dead, instead
    #: of raising.
    degrade: bool = True
    #: Seed of the jitter RNG — backoff schedules are reproducible.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.backoff < 0 or self.backoff_max < 0 or self.jitter < 0:
            raise ValueError("backoff, backoff_max and jitter must be >= 0")

    def delay(self, failures: int, rng: random.Random) -> float:
        """Backoff before retry number ``failures`` (1-based), with jitter."""
        base = min(self.backoff_max, self.backoff * (2.0 ** max(0, failures - 1)))
        return base * (1.0 + self.jitter * rng.random())


# -- report --------------------------------------------------------------------


@dataclass
class ChunkAttempt:
    """One attempt at one task, as recorded in the :class:`ScanReport`."""

    chunk: int
    attempt: int
    outcome: str  # ok | crash | hang-timeout | timeout | raise | corrupt | duplicate
    seconds: float
    worker: Optional[int] = None
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "chunk": self.chunk,
            "attempt": self.attempt,
            "outcome": self.outcome,
            "seconds": round(self.seconds, 6),
        }
        if self.worker is not None:
            payload["worker"] = self.worker
        if self.detail:
            payload["detail"] = self.detail
        return payload


@dataclass
class ShardStatus:
    """Per-shard outcome of a sharded scan (the schema-v3 ``shards`` row)."""

    shard: int
    start: int
    stop: int
    nucleotides: int
    status: str = "ok"  # ok | dead
    attempts: int = 0
    resumed_chunks: int = 0
    hedges: int = 0
    elapsed_seconds: float = 0.0
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "shard": self.shard,
            "start": self.start,
            "stop": self.stop,
            "nucleotides": self.nucleotides,
            "status": self.status,
            "attempts": self.attempts,
            "resumed_chunks": self.resumed_chunks,
            "hedges": self.hedges,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }
        if self.detail:
            payload["detail"] = self.detail
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ShardStatus":
        return cls(
            shard=int(payload["shard"]),
            start=int(payload["start"]),
            stop=int(payload["stop"]),
            nucleotides=int(payload["nucleotides"]),
            status=str(payload.get("status", "ok")),
            attempts=int(payload.get("attempts", 0)),
            resumed_chunks=int(payload.get("resumed_chunks", 0)),
            hedges=int(payload.get("hedges", 0)),
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
            detail=str(payload.get("detail", "")),
        )


@dataclass
class ScanReport:
    """Machine-readable account of a supervised scan (schema v3).

    Serialized by :meth:`to_dict` / written by ``fabp-repro scan
    --report-json``; the full schema is documented in
    ``docs/robustness.md`` and ``docs/observability.md``.  Schema v2 added
    the ``metrics`` section (stage wall-times and checkpoint volume);
    schema v3 adds the ``shards`` section filled by a sharded
    :class:`repro.host.scan_session.ScanSession` (one opened with
    ``shards=``; empty for unsharded scans) and the exit code 4 =
    "complete with dead shards".  Older
    reports remain readable through
    :func:`repro.obs.summary.normalize_report_dict`.
    """

    mode: str = "serial"  # serial | parallel | sharded
    workers: int = 1
    chunk_size: int = 0
    chunks_total: int = 0
    chunks_completed: int = 0
    chunks_from_checkpoint: int = 0
    chunks_degraded: int = 0
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    raised: int = 0
    corrupt: int = 0
    hedges: int = 0
    respawns: int = 0
    degraded: bool = False
    degraded_reason: Optional[str] = None
    engine: str = ""
    threshold: int = 0
    elapsed_seconds: float = 0.0
    checkpoint_dir: Optional[str] = None
    resumed: bool = False
    attempts: List[ChunkAttempt] = field(default_factory=list)
    #: Profiling section (new in v2): ``stage_seconds`` and
    #: ``checkpoint`` volume.
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Per-shard section (new in v3): filled by a sharded session, empty
    #: for unsharded scans.
    shards: List[ShardStatus] = field(default_factory=list)

    #: Report schema version (bump on breaking changes).
    VERSION = 3

    @property
    def clean(self) -> bool:
        """Completed without degradation (retries alone stay clean)."""
        return self.chunks_completed == self.chunks_total and not self.degraded

    @property
    def dead_shards(self) -> int:
        """Shards that exhausted their health budget (partial results)."""
        return sum(1 for shard in self.shards if shard.status == "dead")

    def exit_code(self) -> int:
        """The documented CLI contract: 0 clean, 3 degraded, 4 dead shards."""
        if self.dead_shards:
            return 4
        return 0 if self.clean else 3

    def record(
        self,
        chunk: int,
        attempt: int,
        outcome: str,
        seconds: float,
        worker: Optional[int] = None,
        detail: str = "",
    ) -> None:
        self.attempts.append(
            ChunkAttempt(chunk, attempt, outcome, seconds, worker, detail)
        )
        _obs_profile.record_scan_attempt(chunk, attempt, outcome, seconds, worker)
        if outcome in ("timeout", "hang-timeout"):
            self.timeouts += 1
        elif outcome == "crash":
            self.crashes += 1
        elif outcome == "raise":
            self.raised += 1
        elif outcome == "corrupt":
            self.corrupt += 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.VERSION,
            "clean": self.clean,
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
            "mode": self.mode,
            "workers": self.workers,
            "chunk_size": self.chunk_size,
            "engine": self.engine,
            "threshold": self.threshold,
            "chunks": {
                "total": self.chunks_total,
                "completed": self.chunks_completed,
                "from_checkpoint": self.chunks_from_checkpoint,
                "degraded_serial": self.chunks_degraded,
            },
            "counters": {
                "attempts": len(self.attempts),
                "retries": self.retries,
                "timeouts": self.timeouts,
                "crashes": self.crashes,
                "raises": self.raised,
                "corrupt": self.corrupt,
                "hedges": self.hedges,
                "respawns": self.respawns,
            },
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "checkpoint_dir": self.checkpoint_dir,
            "resumed": self.resumed,
            "chunk_attempts": [a.to_dict() for a in self.attempts],
            "metrics": self.metrics,
            "shards": [shard.to_dict() for shard in self.shards],
        }

    def summary(self) -> str:
        """One status line for CLI output."""
        if self.dead_shards:
            state = "dead-shards"
        elif self.degraded:
            state = "degraded"
        else:
            state = "clean"
        line = (
            f"{self.chunks_completed}/{self.chunks_total} chunks "
            f"({self.chunks_from_checkpoint} from checkpoint) [{state}] "
            f"retries={self.retries} timeouts={self.timeouts} "
            f"crashes={self.crashes} corrupt={self.corrupt} "
            f"hedges={self.hedges} mode={self.mode}"
        )
        if self.shards:
            line += f" shards={len(self.shards)} dead={self.dead_shards}"
        return line


# -- the fault hook ------------------------------------------------------------


def corrupt_records(payload: List[tuple]) -> List[tuple]:
    """Mis-key every record so the sanity check must reject it.

    Shifting the query-slot key is detectable on *every* record —
    including zero-hit windows, where damaging scores alone would be
    invisible.
    """
    return [(record[0] + 1,) + tuple(record[1:]) for record in payload]


def run_attempt(
    task: Any,
    task_id: int,
    attempt: int,
    database: Any,
    fault: Optional[FaultKind] = None,
    hang_seconds: float = 0.0,
    cancel: Optional[threading.Event] = None,
) -> Any:
    """One attempt at one task, with its planned fault (if any) injected.

    The single fault hook of every runtime.  ``crash``, ``hang`` and
    ``raise`` end in :class:`~repro.host.errors.InjectedFaultError`;
    ``hang`` first waits ``hang_seconds`` on ``cancel``, which the thread
    executor sets once the attempt is timed out or no longer needed.
    In-process nothing sets it, so the hang is real — exactly what the
    kill-and-resume scenario exploits.  ``corrupt`` damages the payload
    so the sanity check must catch it.
    """
    if fault is FaultKind.HANG:
        (cancel or threading.Event()).wait(hang_seconds)
    if fault in (FaultKind.CRASH, FaultKind.HANG, FaultKind.RAISE):
        raise InjectedFaultError(task_id, attempt, fault.value)
    payload = task.run(database, attempt)
    if fault is FaultKind.CORRUPT:
        payload = corrupt_records(payload)
    return payload


def _failure_outcome(error: ScanError) -> str:
    """The report outcome of an attempt that raised ``error``."""
    if isinstance(error, InjectedFaultError):
        return {"crash": "crash", "hang": "hang-timeout"}.get(error.kind, "raise")
    return "raise"


# -- slot threads --------------------------------------------------------------


def _slot_main(inbox: "queue.SimpleQueue[Optional[Callable[[], None]]]") -> None:
    """A slot thread: run the items it is handed until told to stop."""
    while True:
        item = inbox.get()
        if item is None:
            return
        item()
        # An attempt holds its supervisor and payload: drop it before the
        # thread waits, possibly across calls, for the next one.
        del item


class SlotThreads:
    """The threads that serve a supervisor's slots, one per slot.

    Slot ``i``'s thread runs the callables :meth:`submit` hands it, one at
    a time.  A :class:`repro.host.scan_session.ScanSession` keeps one
    across its calls, so a warm call starts no thread.  :meth:`retire`
    tells a slot's thread to stop once its current item ends (a crashed or
    timed-out attempt cannot be killed) and the next :meth:`submit` to
    that slot starts a new thread; :meth:`join_retired` joins the retired
    threads, and :meth:`close` retires every slot and, unless told not to,
    joins every thread.  Only one supervisor may use it at a time.
    """

    def __init__(self) -> None:
        self._inboxes: Dict[int, "queue.SimpleQueue[Any]"] = {}
        self._threads: Dict[int, threading.Thread] = {}
        self._retired: List[threading.Thread] = []

    def start(self, slots: int) -> None:
        """Give slots ``0 .. slots - 1`` a thread each, if they have none."""
        for slot in range(slots):
            self._inbox(slot)

    def submit(self, slot: int, item: Callable[[], None]) -> None:
        self._inbox(slot).put(item)

    def _inbox(self, slot: int) -> "queue.SimpleQueue[Any]":
        inbox = self._inboxes.get(slot)
        if inbox is None:
            inbox = queue.SimpleQueue()
            thread = threading.Thread(
                target=_slot_main, args=(inbox,),
                name=f"fabp-scan-{slot}", daemon=True,
            )
            thread.start()
            self._inboxes[slot] = inbox
            self._threads[slot] = thread
        return inbox

    def retire(self, slot: int) -> None:
        """Tell the slot's thread to stop once its current item ends."""
        inbox = self._inboxes.pop(slot, None)
        if inbox is not None:
            inbox.put(None)
            self._retired.append(self._threads.pop(slot))

    def join_retired(self) -> None:
        for thread in self._retired:
            thread.join()
        self._retired = []

    def close(self, join: bool = True) -> None:
        """Retire every slot (idempotent); with ``join``, wait for every thread."""
        for slot in list(self._inboxes):
            self.retire(slot)
        if join:
            self.join_retired()


# -- the supervisor ------------------------------------------------------------


class _Exhausted(Exception):
    """Internal: a task ran out of retries or the executor is unhealthy."""

    def __init__(self, reason: str, error: Exception):
        self.reason = reason
        self.error = error
        super().__init__(reason)


@dataclass(eq=False)
class _Attempt:
    """One attempt in flight on a slot of the thread executor."""

    slot: int
    task_id: int
    attempt: int
    started: float
    deadline: Optional[float]
    #: Set when the attempt timed out, its task completed, or the run ended.
    cancel: threading.Event = field(default_factory=threading.Event)


class Supervisor:
    """Drive tasks to completion under one :class:`RetryPolicy`.

    ``tasks`` maps task ids to tasks (the in-process loop runs them in
    that order); ``done`` receives each completed payload and may arrive
    pre-filled with checkpoint-restored ones.  ``faults`` is anything with
    ``lookup(task_id, attempt)`` and ``hang_seconds`` (a
    :class:`~repro.host.faults.FaultPlan`).  ``partial=True`` (tasks
    carry a ``shard`` label) reports a task that exhausts its attempts as
    dead rather than degrading.
    """

    def __init__(
        self,
        database: Any,
        tasks: Dict[int, Any],
        *,
        policy: RetryPolicy,
        report: ScanReport,
        done: Dict[int, Any],
        faults: Any = None,
        store: Any = None,
        partial: bool = False,
    ):
        self.database = database
        self.tasks = tasks
        self.policy = policy
        self.report = report
        self.done = done
        self.faults = faults
        self.store = store
        self.partial = partial
        #: Dead tasks (partial mode) and why they died.
        self.dead: Dict[int, str] = {}
        #: Attempts dispatched per task (hedges included).
        self.attempts: Dict[int, int] = {}
        #: Hedged re-dispatches per task.
        self.hedged: Dict[int, int] = {}
        #: Seconds from a task's first dispatch until it completed or died.
        self.elapsed: Dict[int, float] = {}
        #: Extra stage wall-times (``degraded``) for the report's metrics.
        self.stage_seconds: Dict[str, float] = {}
        self._rng = random.Random(policy.seed)
        self._failures: Dict[int, List[str]] = {}
        self._first_dispatch: Dict[int, float] = {}
        #: ``(ready_time, task_id)`` items awaiting dispatch.
        self._pending: List[Tuple[float, int]] = []
        self._degraded = False
        #: The thread executor: the attempt each slot runs, the threads
        #: serving the slots and the queue the threads post outcomes to.
        self._slots: List[Optional[_Attempt]] = []
        self._executor = SlotThreads()
        self._outbox: "queue.Queue[Tuple[_Attempt, str, Any]]" = queue.Queue()

    def _open(self, task_id: int) -> bool:
        return task_id not in self.done and task_id not in self.dead

    def run(self, workers: int, threads: Optional[SlotThreads] = None) -> None:
        """Finish every open task on ``workers`` threads (``<= 1``: in-process).

        ``threads`` serves the slots and keeps its idle threads afterwards;
        without it the run starts its own threads and joins them all.
        """
        try:
            if workers <= 1:
                self._run_in_process()
            else:
                self.report.mode = "parallel"
                self._run_threads(workers, threads)
        except _Exhausted as exhausted:
            if not self.policy.degrade:
                raise exhausted.error from None
            self.report.degraded = True
            self.report.degraded_reason = exhausted.reason
            self._degraded = True
            with _obs_profile.stage("scan.degraded", category="scan") as timer:
                try:
                    self._run_in_process()
                except _Exhausted as again:
                    raise again.error from None
            self.stage_seconds["degraded"] = timer.seconds

    # -- outcomes -------------------------------------------------------------

    def _take_attempt(self, task_id: int, now: float) -> int:
        attempt = self.attempts.get(task_id, 0)
        self.attempts[task_id] = attempt + 1
        self._first_dispatch.setdefault(task_id, now)
        return attempt

    def _accept(
        self, task_id: int, attempt: int, payload: Any, seconds: float,
        worker: Optional[int], now: float,
    ) -> Optional[float]:
        """Check a payload; complete the task or fail the attempt."""
        error = self.tasks[task_id].check(self.database, payload)
        if error is not None:
            return self._fail(task_id, attempt, "corrupt", seconds, worker, error, now)
        detail = "degraded serial" if self._degraded else ""
        self.report.record(task_id, attempt, "ok", seconds, worker, detail)
        if self._degraded:
            self.report.chunks_degraded += 1
        self.done[task_id] = payload
        self.elapsed[task_id] = now - self._first_dispatch.get(task_id, now)
        if self.store is not None:
            self.store.save_chunk(task_id, payload)
        return None

    def _fail(
        self, task_id: int, attempt: int, outcome: str, seconds: float,
        worker: Optional[int], detail: str, now: float,
    ) -> Optional[float]:
        """Record a failed attempt; queue the retry and return its backoff.

        Returns ``None`` when the task just died (partial mode); raises
        when it exhausted its budget otherwise.
        """
        self.report.record(task_id, attempt, outcome, seconds, worker, detail)
        outcomes = self._failures.setdefault(task_id, [])
        outcomes.append(outcome)
        if len(outcomes) > self.policy.max_retries:
            summary = f"{len(outcomes)} failures: {', '.join(outcomes)}"
            if not self.partial:
                raise _Exhausted(
                    f"task {task_id} exhausted its retry budget ({summary})",
                    ChunkFailedError(task_id, outcomes),
                )
            if not self.policy.degrade:
                raise ShardFailedError(self.tasks[task_id].shard, outcomes)
            self.dead[task_id] = (
                f"health budget exhausted after {len(outcomes)} attempts: "
                f"{', '.join(outcomes)}"
            )
            self.elapsed[task_id] = now - self._first_dispatch.get(task_id, now)
            return None
        self.report.retries += 1
        delay = self.policy.delay(len(outcomes), self._rng)
        self._pending.append((now + delay, task_id))
        return delay

    # -- in-process -----------------------------------------------------------

    def _run_in_process(self) -> None:
        """Same retry semantics, one attempt at a time on this thread.

        Serves serial mode and the degraded completion (which runs
        without injected faults).
        """
        hang_seconds = float(getattr(self.faults, "hang_seconds", 0.0))
        for task_id, task in self.tasks.items():
            while self._open(task_id):
                t0 = time.monotonic()
                attempt = self._take_attempt(task_id, t0)
                fault = None
                if self.faults is not None and not self._degraded:
                    fault = self.faults.lookup(task_id, attempt)
                try:
                    payload = run_attempt(
                        task, task_id, attempt, self.database, fault, hang_seconds
                    )
                except ScanError as exc:
                    now = time.monotonic()
                    delay = self._fail(
                        task_id, attempt, _failure_outcome(exc), now - t0, None,
                        f"{type(exc).__name__}: {exc}", now,
                    )
                else:
                    now = time.monotonic()
                    delay = self._accept(
                        task_id, attempt, payload, now - t0, None, now
                    )
                if delay:
                    time.sleep(delay)

    # -- thread executor ------------------------------------------------------

    def _run_threads(self, width: int, threads: Optional[SlotThreads]) -> None:
        """Run attempts on ``width`` slots, each served by one thread.

        A slot's thread runs the attempts it is handed, reads the one
        in-process database and posts ``(attempt, outcome, payload or
        detail)`` to the outbox; only this thread touches the supervisor's
        state.  A slot whose attempt crashed or timed out has lost its
        worker: that thread is retired, the slot gets a new one and a
        respawn is counted.  On the way out, every attempt in flight is
        cancelled, its thread retired, and every retired thread joined;
        the threads of a :class:`SlotThreads` this run did not start stay
        for the next run, the others are joined too.
        """
        self._slots = [None] * width
        self._executor = threads or SlotThreads()
        self._outbox = queue.Queue()
        now = time.monotonic()
        self._pending = [(now, t) for t in self.tasks if self._open(t)]
        # Start the threads before the first attempt runs: a thread started
        # while another slot's attempt runs waited for that attempt to end.
        self._executor.start(min(width, len(self._pending)))
        try:
            while len(self.done) + len(self.dead) < len(self.tasks):
                self._dispatch(time.monotonic())
                try:
                    message = self._outbox.get(
                        timeout=self._wait_timeout(time.monotonic())
                    )
                    while True:
                        self._on_result(*message, time.monotonic())
                        message = self._outbox.get_nowait()
                except queue.Empty:
                    pass
                self._sweep_timeouts(time.monotonic())
                if self.report.respawns > self.policy.max_respawns:
                    raise _Exhausted(
                        f"executor unhealthy: {self.report.respawns} worker respawns",
                        PoolUnhealthyError(
                            self.report.respawns, self.policy.max_respawns
                        ),
                    )
        finally:
            for slot, attempt in enumerate(self._slots):
                if attempt is not None:
                    attempt.cancel.set()
                    self._executor.retire(slot)
            if threads is None:
                self._executor.close()
            else:
                self._executor.join_retired()

    def _attempt_main(self, attempt: _Attempt, fault: Optional[FaultKind]) -> None:
        """Run one attempt and always post its outcome."""
        hang_seconds = float(getattr(self.faults, "hang_seconds", 0.0))
        try:
            payload = run_attempt(
                self.tasks[attempt.task_id], attempt.task_id, attempt.attempt,
                self.database, fault, hang_seconds, attempt.cancel,
            )
        except ScanError as exc:
            self._outbox.put(
                (attempt, _failure_outcome(exc), f"{type(exc).__name__}: {exc}")
            )
        except Exception as exc:
            # A thread boundary: an unexpected error must still reach the
            # supervisor, which records it as a lost worker.
            self._outbox.put((attempt, "crash", f"{type(exc).__name__}: {exc}"))
        else:
            self._outbox.put((attempt, "ok", payload))

    def _start(self, slot: int, task_id: int, now: float, hedge: bool) -> None:
        number = self._take_attempt(task_id, now)
        fault = self.faults.lookup(task_id, number) if self.faults else None
        deadline = None if self.policy.timeout is None else now + self.policy.timeout
        attempt = _Attempt(slot, task_id, number, now, deadline)
        self._executor.submit(slot, lambda: self._attempt_main(attempt, fault))
        self._slots[slot] = attempt
        if hedge:
            self.report.hedges += 1
            self.hedged[task_id] = self.hedged.get(task_id, 0) + 1

    def _idle_slots(self) -> List[int]:
        return [slot for slot, attempt in enumerate(self._slots) if attempt is None]

    def _dispatch(self, now: float) -> None:
        self._pending = sorted(p for p in self._pending if self._open(p[1]))
        for slot in self._idle_slots():
            if not self._pending or self._pending[0][0] > now:
                break
            self._start(slot, self._pending.pop(0)[1], now, hedge=False)
        # Hedging: queue drained, idle capacity, stragglers in flight.
        if self.policy.hedge_after is None or self._pending:
            return
        for slot in self._idle_slots():
            straggler = self._straggler(now)
            if straggler is None:
                return
            self._start(slot, straggler, now, hedge=True)

    def _straggler(self, now: float) -> Optional[int]:
        """The oldest lone in-flight task past the hedge threshold."""
        running = [attempt for attempt in self._slots if attempt is not None]
        oldest: Optional[_Attempt] = None
        for attempt in running:
            if sum(other.task_id == attempt.task_id for other in running) > 1:
                continue
            if not self._open(attempt.task_id):
                continue
            if now - attempt.started < (self.policy.hedge_after or 0.0):
                continue
            if oldest is None or attempt.started < oldest.started:
                oldest = attempt
        return None if oldest is None else oldest.task_id

    def _wait_timeout(self, now: float) -> Optional[float]:
        candidates: List[float] = []
        for attempt in self._slots:
            if attempt is None:
                continue
            if attempt.deadline is not None:
                candidates.append(attempt.deadline)
            if self.policy.hedge_after is not None:
                candidates.append(attempt.started + self.policy.hedge_after)
        if self._idle_slots():
            candidates.extend(ready for ready, _ in self._pending)
        if not candidates:
            return None
        return max(0.0, min(candidates) - now) + 0.005

    def _on_result(
        self, attempt: _Attempt, outcome: str, value: Any, now: float
    ) -> None:
        if self._slots[attempt.slot] is not attempt:
            return  # timed out earlier: the late payload is discarded
        self._slots[attempt.slot] = None
        task_id, seconds = attempt.task_id, now - attempt.started
        if not self._open(task_id):
            self.report.record(
                task_id, attempt.attempt, "duplicate", seconds, attempt.slot,
                "hedged twin finished first",
            )
            return
        if outcome == "ok":
            self._accept(task_id, attempt.attempt, value, seconds, attempt.slot, now)
            if not self._open(task_id):
                for twin in self._slots:
                    if twin is not None and twin.task_id == task_id:
                        twin.cancel.set()
            return
        if outcome == "crash":
            self._executor.retire(attempt.slot)
            self.report.respawns += 1
        self._fail(task_id, attempt.attempt, outcome, seconds, attempt.slot, value, now)

    def _sweep_timeouts(self, now: float) -> None:
        for slot, attempt in enumerate(self._slots):
            if attempt is None or attempt.deadline is None or now <= attempt.deadline:
                continue
            # A thread cannot be killed: cancel its attempt, mark it lost
            # and give the slot a new thread on the next dispatch.
            attempt.cancel.set()
            self._slots[slot] = None
            self._executor.retire(slot)
            self.report.respawns += 1
            if self._open(attempt.task_id):
                self._fail(
                    attempt.task_id, attempt.attempt, "timeout",
                    now - attempt.started, slot,
                    f"exceeded {self.policy.timeout:.3g}s", now,
                )
