"""The task supervisor every scan runtime runs on.

The paper's host program controls its kernel instances from one place;
this module is that control loop in software.  Every scan path in
:mod:`repro.host` — the one-shot :func:`repro.host.scan.scan_database`,
the warm :class:`repro.host.scan_session.ScanSession` and the sharded
:class:`repro.host.shards.ShardedScanRuntime` — hands a list of *tasks* to
one :class:`Supervisor`.  A task is any picklable object with two methods:

* ``run(database, attempt)`` computes the task's payload against a
  :class:`repro.host.scan.PackedDatabase`, in a worker process or
  in-process;
* ``check(database, payload)`` is a cheap structural sanity check that
  returns ``None`` for a sane payload, else a reason.

A window task scores a chunk of database windows; a sharded scan labels
each of its window tasks with the shard whose reference range it covers.
Whatever the task, the supervisor provides:

* **per-task timeout** — an attempt that runs past
  :attr:`RetryPolicy.timeout` gets its worker killed and the task retried;
* **bounded retries with seeded exponential backoff + jitter** — every
  failed attempt (crash, hang, raise, corrupt) requeues the task until
  :attr:`RetryPolicy.max_retries` is exhausted;
* **dead-worker detection and replacement** — worker deaths are observed
  via their process sentinels and the pool is topped back up, within the
  :attr:`RetryPolicy.max_respawns` budget;
* **hedged re-dispatch** — once the queue drains, stragglers older than
  :attr:`RetryPolicy.hedge_after` are re-issued to idle workers; the first
  sane result wins and duplicates are discarded;
* **per-task sanity checking** — a payload that fails ``check`` is never
  merged, it is retried;
* **durable checkpointing** — with a checkpoint store, every completed
  task is persisted immediately;
* **graceful degradation** — when a task exhausts its budget or the pool
  keeps dying, the remaining tasks finish in-process without injected
  faults and the :class:`ScanReport` marks the scan *degraded* (CLI exit
  3).  In *partial* mode (sharded scans) an exhausted task is instead
  reported dead, its shard with it, and the scan completes without that
  shard's references (CLI exit 4).

An in-process loop with the same retry semantics serves ``workers <= 1``,
restricted environments (no fork, no ``/dev/shm``) and the degraded
completion.  Faults from a :class:`repro.host.faults.FaultPlan` enter
through one hook, :func:`run_attempt`, in both modes.

Determinism: payloads are merged by task id, so retry order, hedging and
worker scheduling cannot change the output — any recoverable fault plan
yields results bit-identical to a fault-free scan.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

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
    "SharedImage",
    "ShardStatus",
    "Supervisor",
    "WorkerPool",
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
    #: Worker respawns tolerated before the pool is declared unhealthy.
    max_respawns: int = 8
    #: On an unhealthy pool / exhausted task, finish in-process (reported
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
    the ``metrics`` section (stage wall-times, checkpoint volume, shared
    memory footprint); schema v3 adds the ``shards`` section filled by
    :class:`repro.host.shards.ShardedScanRuntime` (empty for single-shard
    scans) and the exit code 4 = "complete with dead shards".  Older
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
    #: Profiling section (new in v2): ``stage_seconds``, ``checkpoint``
    #: volume and ``shared_memory_bytes``.
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Per-shard section (new in v3): filled by the sharded runtime, empty
    #: for single-shard scans.
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

#: The supervisor's pid when this process is a supervised worker, else
#: ``None``.  A crash fault can only kill a process that has a supervisor.
_WORKER_PARENT: Optional[int] = None

#: How often an idle worker re-checks that its supervisor is still alive.
_ORPHAN_POLL_SECONDS = 1.0


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
) -> Any:
    """One attempt at one task, with its planned fault (if any) injected.

    The single fault hook of every runtime.  ``crash`` kills a supervised
    worker outright; in-process there is no worker to sacrifice, so it
    raises.  ``hang`` sleeps: a supervised worker is killed at the task
    timeout (the sleep still notices an orphaning), while in-process the
    sleep is real — exactly what the kill-and-resume scenario exploits.
    ``raise`` raises and ``corrupt`` damages the payload so the sanity
    check must catch it.
    """
    if fault is FaultKind.CRASH and _WORKER_PARENT is not None:
        os._exit(17)
    if fault is FaultKind.HANG:
        if _WORKER_PARENT is not None:
            _hang_sleep(hang_seconds, _WORKER_PARENT)
        else:
            time.sleep(hang_seconds)
    if fault in (FaultKind.CRASH, FaultKind.HANG, FaultKind.RAISE):
        raise InjectedFaultError(task_id, attempt, fault.value)
    payload = task.run(database, attempt)
    if fault is FaultKind.CORRUPT:
        payload = corrupt_records(payload)
    return payload


def _recv_or_orphaned(conn, parent_pid: int):
    """Receive the next message, or raise ``EOFError`` if the parent died.

    Under the fork start method every worker inherits the parent-side pipe
    ends of its earlier-spawned siblings, so a supervisor killed by a
    signal does not reliably surface as pipe EOF — a sibling still holds a
    write end open and a blocking ``recv`` would wait forever.  Poll with
    a bounded timeout and watch for re-parenting instead: once
    ``getppid`` no longer names the supervisor, treat it exactly like EOF
    so the worker exits rather than outliving a SIGKILLed parent.
    """
    while not conn.poll(_ORPHAN_POLL_SECONDS):
        if os.getppid() != parent_pid:
            raise EOFError("supervisor died; worker orphaned")
    return conn.recv()


def _hang_sleep(seconds: float, parent_pid: int) -> None:
    """Injected-hang sleep that still notices a dead supervisor.

    The hang models a stuck worker from the *supervisor's* point of view
    (the task times out either way), so slicing the sleep changes nothing
    it tests — but it lets an orphaned hung worker exit within one slice
    instead of finishing a multi-minute nap first.
    """
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if os.getppid() != parent_pid:
            raise EOFError("supervisor died; worker orphaned")
        remaining = deadline - time.monotonic()
        # statics: ignore[RC005] injected fault: the hang IS the test
        time.sleep(min(_ORPHAN_POLL_SECONDS, max(0.0, remaining)))


# -- worker processes ----------------------------------------------------------


@dataclass(frozen=True)
class SharedImage:
    """A packed database published in shared memory, as workers attach it."""

    name: str
    packed_bytes: int
    lengths: np.ndarray
    byte_offsets: np.ndarray


def _worker_main(conn, image: SharedImage) -> None:
    """The worker loop: attach the database once, run tasks until stopped.

    ``image`` names the shared-memory database image, attached zero-copy.
    Protocol (parent -> worker): ``("task", task_id, attempt, task, fault,
    hang_seconds)`` or ``("stop",)``.  Worker -> parent: ``("ok", task_id,
    attempt, payload)`` or ``("err", task_id, attempt, message)``.  Every
    task message is self-contained, so a respawned or hedged worker needs
    no per-run installation step.
    """
    from multiprocessing import shared_memory

    from repro.host.scan import PackedDatabase

    global _WORKER_PARENT
    parent_pid = os.getppid()
    _WORKER_PARENT = parent_pid
    segment = shared_memory.SharedMemory(name=image.name)
    buffer: Optional[np.ndarray] = np.frombuffer(
        segment.buf, dtype=np.uint8, count=image.packed_bytes
    )
    database: Optional[PackedDatabase] = PackedDatabase(
        names=(),
        lengths=image.lengths,
        byte_offsets=image.byte_offsets,
        buffer=buffer,
    )
    try:
        while True:
            message = _recv_or_orphaned(conn, parent_pid)
            if message[0] == "stop":
                break
            _, task_id, attempt, task, fault, hang_seconds = message
            try:
                payload = run_attempt(
                    task, task_id, attempt, database, fault, hang_seconds
                )
            except (ScanError, ValueError, IndexError, OSError) as exc:
                conn.send(("err", task_id, attempt, f"{type(exc).__name__}: {exc}"))
                continue
            conn.send(("ok", task_id, attempt, payload))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        # Drop the numpy views first: closing a segment with an exported
        # buffer pointer raises BufferError at interpreter shutdown.
        buffer = None
        database = None  # noqa: F841
        try:
            segment.close()
        except (OSError, BufferError):
            pass


class _Worker:
    """Parent-side view of one worker process."""

    __slots__ = ("id", "process", "conn", "busy")

    def __init__(self, worker_id: int, process, conn):
        self.id = worker_id
        self.process = process
        self.conn = conn
        #: ``None`` when idle, else ``(task_id, attempt, started, deadline)``.
        self.busy: Optional[Tuple[int, int, float, Optional[float]]] = None


class WorkerPool:
    """Worker processes owned directly over duplex pipes.

    Every worker attaches ``image`` at spawn (see :func:`_worker_main`).
    A pool may outlive one supervisor run — a :class:`ScanSession` keeps
    its pool resident across calls — so :meth:`revive` tops it up before a
    run and :meth:`retire_busy` clears stale work after one.
    """

    def __init__(self, image: SharedImage, size: int):
        import multiprocessing

        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            self._context = multiprocessing.get_context()
        self.image = image
        self.size = size
        self.workers: List[_Worker] = []
        #: Workers replaced over the pool's lifetime (all causes).
        self.respawns = 0
        self._next_id = 0
        try:
            for _ in range(size):
                self.spawn()
        except BaseException:
            self.close()
            raise

    def spawn(self) -> _Worker:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main, args=(child_conn, self.image), daemon=True
        )
        process.start()
        child_conn.close()
        worker = _Worker(self._next_id, process, parent_conn)
        self._next_id += 1
        self.workers.append(worker)
        return worker

    def _drop(self, worker: _Worker) -> None:
        self.workers.remove(worker)
        try:
            worker.conn.close()
        except OSError:
            pass

    def reap(self, worker: _Worker) -> None:
        """Drop a worker that has exited."""
        worker.process.join(timeout=0.5)
        self._drop(worker)

    def kill(self, worker: _Worker) -> None:
        """Terminate a worker — there is no way to abort a task in place."""
        worker.process.terminate()
        worker.process.join(timeout=1.0)
        if worker.process.is_alive():  # pragma: no cover - stubborn child
            worker.process.kill()
            worker.process.join(timeout=1.0)
        self._drop(worker)

    def close(self) -> None:
        """Ask every worker to exit; kill any that do not within a second.

        Idempotent.
        """
        workers = list(self.workers)
        for worker in workers:
            try:
                worker.conn.send(("stop",))
            except OSError:
                pass
        for worker in workers:
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                self.kill(worker)
            else:
                self._drop(worker)

    def revive(self) -> None:
        """Replace workers that died between runs; top back up to size."""
        for worker in [w for w in self.workers if not w.process.is_alive()]:
            self.reap(worker)
            self.respawns += 1
        while len(self.workers) < self.size:
            self.spawn()

    def retire_busy(self) -> None:
        """Kill workers still holding a task so stale replies cannot leak.

        A hedged twin, or an exhausted or aborted run, may leave a worker
        mid-task; its late reply must never be mistaken for a later run's.
        """
        for worker in [w for w in self.workers if w.busy is not None]:
            self.kill(worker)
            self.respawns += 1


# -- the supervisor ------------------------------------------------------------


class _Exhausted(Exception):
    """Internal: a task ran out of retries or the pool is unhealthy."""

    def __init__(self, reason: str, error: Exception):
        self.reason = reason
        self.error = error
        super().__init__(reason)


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
        self._in_flight: Dict[int, int] = {}
        #: ``(ready_time, task_id)`` items awaiting dispatch.
        self._pending: List[Tuple[float, int]] = []
        self._degraded = False

    def _open(self, task_id: int) -> bool:
        return task_id not in self.done and task_id not in self.dead

    def run(self, pool: Optional[WorkerPool]) -> None:
        """Finish every open task; ``pool=None`` runs them in-process."""
        try:
            if pool is None:
                self._run_in_process()
            else:
                self.report.mode = "parallel"
                try:
                    self._run_pool(pool)
                except (ImportError, OSError):
                    # Restricted environments (pipes or fork failing
                    # mid-run): the in-process loop gives the same results.
                    self.report.mode = "serial"
                    self._run_in_process()
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
        """Same retry semantics, no pool to kill.

        Serves serial mode, restricted environments and the degraded
        completion (which runs without injected faults).
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
                    outcome = "raise"
                    if isinstance(exc, InjectedFaultError):
                        outcome = {"crash": "crash", "hang": "hang-timeout"}.get(
                            exc.kind, "raise"
                        )
                    delay = self._fail(
                        task_id, attempt, outcome, now - t0, None,
                        f"{type(exc).__name__}: {exc}", now,
                    )
                else:
                    now = time.monotonic()
                    delay = self._accept(
                        task_id, attempt, payload, now - t0, None, now
                    )
                if delay:
                    time.sleep(delay)

    # -- pool -----------------------------------------------------------------

    def _run_pool(self, pool: WorkerPool) -> None:
        from multiprocessing import connection

        now = time.monotonic()
        self._pending = [(now, t) for t in self.tasks if self._open(t)]
        try:
            while len(self.done) + len(self.dead) < len(self.tasks):
                if not pool.workers:
                    raise _Exhausted(
                        f"pool unhealthy: no workers left after "
                        f"{self.report.respawns} respawns",
                        PoolUnhealthyError(
                            self.report.respawns, self.policy.max_respawns
                        ),
                    )
                now = time.monotonic()
                self._dispatch(pool, now)
                handles = {w.conn: w for w in pool.workers}
                handles.update({w.process.sentinel: w for w in pool.workers})
                ready = connection.wait(
                    list(handles), timeout=self._wait_timeout(pool, now)
                )
                now = time.monotonic()
                for worker in {id(handles[h]): handles[h] for h in ready}.values():
                    if worker in pool.workers:
                        self._service(pool, worker, now)
                self._sweep_timeouts(pool, time.monotonic())
                if self.report.respawns > self.policy.max_respawns:
                    raise _Exhausted(
                        f"pool unhealthy: {self.report.respawns} worker respawns",
                        PoolUnhealthyError(
                            self.report.respawns, self.policy.max_respawns
                        ),
                    )
        finally:
            pool.retire_busy()

    def _send(self, worker: _Worker, task_id: int, now: float, hedge: bool) -> None:
        attempt = self._take_attempt(task_id, now)
        fault = self.faults.lookup(task_id, attempt) if self.faults else None
        hang_seconds = float(getattr(self.faults, "hang_seconds", 0.0))
        worker.conn.send(
            ("task", task_id, attempt, self.tasks[task_id], fault, hang_seconds)
        )
        deadline = None if self.policy.timeout is None else now + self.policy.timeout
        worker.busy = (task_id, attempt, now, deadline)
        self._in_flight[task_id] = self._in_flight.get(task_id, 0) + 1
        if hedge:
            self.report.hedges += 1
            self.hedged[task_id] = self.hedged.get(task_id, 0) + 1

    def _dispatch(self, pool: WorkerPool, now: float) -> None:
        self._pending = sorted(p for p in self._pending if self._open(p[1]))
        for worker in [w for w in pool.workers if w.busy is None]:
            if not self._pending or self._pending[0][0] > now:
                break
            self._send(worker, self._pending.pop(0)[1], now, hedge=False)
        # Hedging: queue drained, idle capacity, stragglers in flight.
        if self.policy.hedge_after is None or self._pending:
            return
        for worker in [w for w in pool.workers if w.busy is None]:
            straggler = self._straggler(pool, now)
            if straggler is None:
                return
            self._send(worker, straggler, now, hedge=True)

    def _straggler(self, pool: WorkerPool, now: float) -> Optional[int]:
        """The oldest lone in-flight task past the hedge threshold."""
        oldest: Optional[Tuple[float, int]] = None
        for worker in pool.workers:
            if worker.busy is None:
                continue
            task_id, _attempt, started, _deadline = worker.busy
            if not self._open(task_id) or self._in_flight.get(task_id, 0) > 1:
                continue
            if now - started < (self.policy.hedge_after or 0.0):
                continue
            if oldest is None or started < oldest[0]:
                oldest = (started, task_id)
        return None if oldest is None else oldest[1]

    def _wait_timeout(self, pool: WorkerPool, now: float) -> Optional[float]:
        candidates: List[float] = []
        for worker in pool.workers:
            if worker.busy is None:
                continue
            _task_id, _attempt, started, deadline = worker.busy
            if deadline is not None:
                candidates.append(deadline)
            if self.policy.hedge_after is not None:
                candidates.append(started + self.policy.hedge_after)
        if any(w.busy is None for w in pool.workers):
            candidates.extend(ready for ready, _ in self._pending)
        if not candidates:
            return None
        return max(0.0, min(candidates) - now) + 0.005

    def _service(self, pool: WorkerPool, worker: _Worker, now: float) -> None:
        message = None
        try:
            if worker.conn.poll():
                message = worker.conn.recv()
        except (EOFError, OSError):
            message = None
        if message is not None:
            self._on_message(worker, message, now)
            # Fall through: the worker may additionally have died.
        if not worker.process.is_alive():
            self._on_death(pool, worker, now)

    def _settle(self, worker: _Worker, task_id: int, now: float) -> float:
        """Free the worker's slot for ``task_id``; return the attempt's age."""
        started = worker.busy[2] if worker.busy else now
        worker.busy = None
        self._in_flight[task_id] = max(0, self._in_flight.get(task_id, 1) - 1)
        return now - started

    def _on_message(self, worker: _Worker, message, now: float) -> None:
        kind, task_id, attempt = message[0], message[1], message[2]
        seconds = self._settle(worker, task_id, now)
        if not self._open(task_id):
            self.report.record(
                task_id, attempt, "duplicate", seconds, worker.id,
                "hedged twin finished first",
            )
        elif kind == "err":
            self._fail(task_id, attempt, "raise", seconds, worker.id, message[3], now)
        else:
            self._accept(task_id, attempt, message[3], seconds, worker.id, now)

    def _lose(self, pool: WorkerPool, worker: _Worker, kill: bool) -> None:
        """Remove a dead or hung worker; replace it within the budget."""
        if kill:
            pool.kill(worker)
        else:
            pool.reap(worker)
        pool.respawns += 1
        self.report.respawns += 1
        if self.report.respawns <= self.policy.max_respawns:
            pool.spawn()

    def _on_death(self, pool: WorkerPool, worker: _Worker, now: float) -> None:
        busy = worker.busy
        self._lose(pool, worker, kill=False)
        if busy is None:
            return
        task_id, attempt = busy[0], busy[1]
        seconds = self._settle(worker, task_id, now)
        if self._open(task_id):
            self._fail(
                task_id, attempt, "crash", seconds, worker.id,
                f"exitcode {worker.process.exitcode}", now,
            )

    def _sweep_timeouts(self, pool: WorkerPool, now: float) -> None:
        for worker in list(pool.workers):
            if worker.busy is None:
                continue
            task_id, attempt, _started, deadline = worker.busy
            if deadline is None or now <= deadline:
                continue
            self._lose(pool, worker, kill=True)
            seconds = self._settle(worker, task_id, now)
            if self._open(task_id):
                self._fail(
                    task_id, attempt, "timeout", seconds, worker.id,
                    f"exceeded {self.policy.timeout:.3g}s", now,
                )
