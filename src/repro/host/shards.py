"""Sharded scan runtime: the cluster *model* made executable.

:mod:`repro.host.cluster` models the paper's multi-board deployment
analytically (shard balance, straggler-bound speedup) but never runs a
scan.  This module promotes that model to an execution path: the packed
database is partitioned into ``S`` contiguous shards and each shard
becomes one :class:`ShardTask` of the task supervisor in
:mod:`repro.host.resilience`.  A shard's runner process opens that shard's
own :class:`repro.host.scan_session.ScanSession` (with its own checkpoint
store) and scans the whole query batch; per-shard results merge
seam-exactly — bit-identical to a single-shard scan, because shards
partition the reference list and results merge in global reference order.

Being ordinary supervised tasks, shards get the supervisor's guarantees
under the same :class:`~repro.host.resilience.RetryPolicy`:

* **health budgets and respawn** — a shard runner that crashes, hangs past
  the task timeout, raises, or returns corrupt results is killed or
  retried with seeded backoff, up to ``max_retries + 1`` attempts;
* **elastic shard resume** — with a checkpoint directory every shard's
  session owns a fingerprinted subdirectory (``shard_00/``, ``shard_01/``,
  …); a retried or hedged attempt resumes from it and replays only the
  tasks its predecessor never finished;
* **hedged re-dispatch** — once nothing is queued, a straggler shard older
  than ``hedge_after`` is re-run on an idle runner; the first sane result
  wins and the twin is discarded;
* **partial results** — a shard that exhausts its attempts is *reported*
  dead, not fatal (unless ``degrade`` is off, which raises
  :class:`~repro.host.errors.ShardFailedError`): the
  :class:`~repro.host.resilience.ScanReport` carries a schema-v3
  ``shards`` section with per-shard status/attempts/resumed-chunk counts
  and the CLI exits 4 ("complete with dead shards").

Every recovery path is deterministically injectable through
:class:`repro.host.faults.ShardFaultPlan` (``shard:{i}`` crash / hang /
raise / corrupt keyed on ``(shard, chunk, attempt)``): the plan reaches the
shard's own session through the supervisor's one fault hook, and any fault
it fires fails the whole shard attempt.  Recovery is observable through the
``fabp_shard_*`` hook family in :mod:`repro.obs.profile`.  Runners are
started on each call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.aligner import AlignmentResult, QueryLike
from repro.core.encoding import EncodedQuery, encode_query
from repro.host.faults import FaultKind, ShardFaultPlan
from repro.host.resilience import (
    RetryPolicy,
    ScanReport,
    ShardStatus,
    Supervisor,
    WorkerPool,
)
from repro.host.scan import SESSION_ENGINE, PackedDatabase, _build_result
from repro.host.scan_session import (
    ScanSession,
    SessionPayload,
    check_records,
    resolve_batch_thresholds,
)
from repro.host.windows import num_positions
from repro.obs import profile as _obs_profile

__all__ = [
    "ShardSpec",
    "ShardTask",
    "ShardedScanRuntime",
    "plan_shards",
    "shard_database",
]


# -- shard planning ------------------------------------------------------------


@dataclass(frozen=True)
class ShardSpec:
    """One contiguous reference range ``[start, stop)`` of the database."""

    shard: int
    start: int
    stop: int
    nucleotides: int

    @property
    def num_references(self) -> int:
        return self.stop - self.start


def plan_shards(lengths: Sequence[int], num_shards: int) -> List[ShardSpec]:
    """Partition references into contiguous, nucleotide-balanced shards.

    The same greedy position-balancing idea as
    :func:`repro.host.windows.plan_windows`, applied at shard granularity:
    walk the reference list accumulating nucleotides toward an adaptive
    target (``remaining / shards_left``), cutting where adding the next
    reference would overshoot more than stopping undershoots.  Shards are
    reference-aligned (a reference never straddles two shards — every
    reference starts at a byte boundary in the packed image, so shard
    slices are exact sub-databases) and ``num_shards`` is clamped to the
    reference count.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    sizes = [int(x) for x in lengths]
    n = len(sizes)
    if n == 0:
        return []
    count = min(num_shards, n)
    specs: List[ShardSpec] = []
    start = 0
    remaining = sum(sizes)
    for shard in range(count):
        shards_left = count - shard
        if shards_left == 1:
            stop = n
            taken = remaining
        else:
            # Later shards need at least one reference each.
            stop_max = n - (shards_left - 1)
            target = remaining / shards_left
            stop = start + 1
            taken = sizes[start]
            while stop < stop_max:
                nxt = sizes[stop]
                if taken + nxt - target > target - taken:
                    break
                taken += nxt
                stop += 1
        specs.append(ShardSpec(shard, start, stop, taken))
        remaining -= taken
        start = stop
    return specs


def shard_database(database: PackedDatabase, spec: ShardSpec) -> PackedDatabase:
    """Slice one shard out of a packed database, exactly.

    Every reference is packed at a byte boundary
    (:meth:`PackedDatabase.from_references` packs per reference, then
    concatenates), so the shard's buffer is a plain byte-range slice and
    its offsets rebase by subtraction — no repacking, no seam effects.
    """
    lo = int(database.byte_offsets[spec.start])
    hi = int(database.byte_offsets[spec.stop])
    return PackedDatabase(
        names=tuple(database.names[spec.start : spec.stop]),
        lengths=np.ascontiguousarray(database.lengths[spec.start : spec.stop]),
        byte_offsets=np.ascontiguousarray(
            database.byte_offsets[spec.start : spec.stop + 1] - lo
        ),
        buffer=np.ascontiguousarray(database.buffer[lo:hi]),
    )


# -- the shard task ------------------------------------------------------------

#: A shard's own session gets one attempt per task: any fault inside it
#: fails the whole shard attempt, which the shard supervisor retries.
_ONE_ATTEMPT = RetryPolicy(max_retries=0, timeout=None, degrade=False)


class _ShardCalls:
    """A shard fault plan as seen from inside one shard attempt.

    ``chunk`` in the plan's ``(shard, chunk, attempt)`` key counts the
    scoring calls of the current attempt — checkpoint-restored tasks are
    never scored, so a resumed attempt counts only the work it replays.
    """

    def __init__(self, plan: ShardFaultPlan, shard: int, attempt: int):
        self.plan = plan
        self.shard = shard
        self.attempt = attempt
        self.hang_seconds = plan.hang_seconds
        self.calls = 0

    def lookup(self, task_id: int, attempt: int) -> Optional[FaultKind]:
        call = self.calls
        self.calls += 1
        return self.plan.lookup(self.shard, call, self.attempt)


@dataclass(frozen=True)
class ShardTask:
    """One shard as a supervised task: scan it with its own session.

    The payload is ``(records, resumed_tasks)``: one whole-reference
    record per (reference, query) in the
    :data:`~repro.host.scan_session.SessionRecord` format, keyed by global
    reference index, plus how many of the session's tasks came from its
    checkpoint.
    """

    spec: ShardSpec
    queries: Tuple[EncodedQuery, ...]
    thresholds: Tuple[int, ...]
    keep_scores: bool
    engine: str
    checkpoint_dir: Optional[str]
    resume: bool
    faults: Optional[ShardFaultPlan]

    def run(self, database: PackedDatabase, attempt: int) -> Tuple[SessionPayload, int]:
        faults = None
        if self.faults is not None and self.faults.affects(self.spec.shard):
            faults = _ShardCalls(self.faults, self.spec.shard, attempt)
        shard = shard_database(database, self.spec)
        with ScanSession(shard, engine=self.engine, workers=1) as session:
            batches, report = session.scan_batch(
                list(self.queries),
                threshold=list(self.thresholds),
                keep_scores=self.keep_scores,
                policy=_ONE_ATTEMPT,
                faults=faults,
                checkpoint_dir=self.checkpoint_dir,
                resume=self.resume or attempt > 0,
                with_report=True,
            )
        records: SessionPayload = []
        for offset in range(self.spec.num_references):
            for slot, batch in enumerate(batches):
                result = batch[offset]
                records.append(
                    (
                        slot,
                        self.spec.start + offset,
                        0,
                        np.asarray([h.position for h in result.hits], dtype=np.int64),
                        np.asarray([h.score for h in result.hits], dtype=np.int64),
                        result.scores,
                    )
                )
        return records, report.chunks_from_checkpoint

    def check(self, database: PackedDatabase, payload: Any) -> Optional[str]:
        if not isinstance(payload, tuple) or len(payload) != 2:
            return "payload is not a (records, resumed) pair"
        spans = [len(query) for query in self.queries]
        windows = [
            (reference, 0, num_positions(int(database.lengths[reference]), min(spans, default=1)))
            for reference in range(self.spec.start, self.spec.stop)
        ]
        return check_records(
            payload[0], windows, spans, self.thresholds,
            database.lengths, self.keep_scores,
        )


# -- the sharded runtime -------------------------------------------------------


class ShardedScanRuntime:
    """Scan one packed database as ``S`` supervised shard tasks.

    ``references`` is anything :class:`PackedDatabase` accepts, or a ready
    database.  Each :meth:`scan_batch` call plans the shards once
    (position-balanced, reference-aligned), runs one runner process per
    shard under the task supervisor, and merges per-shard results in
    global reference order — bit-identical to a single-shard scan.

        runtime = ShardedScanRuntime(references, num_shards=4)
        batches, report = runtime.scan_batch(queries, with_report=True)
        report.exit_code()  # 0 clean / 3 degraded / 4 dead shards

    In restricted environments (no fork, no pipes) shards run in-process,
    in shard order, with the same retry/budget/partial-result semantics.
    """

    def __init__(
        self,
        references: Union[PackedDatabase, Iterable],
        *,
        num_shards: int,
        engine: Optional[str] = None,
        names: Optional[Sequence[str]] = None,
        policy: Optional[RetryPolicy] = None,
        faults: Optional[ShardFaultPlan] = None,
    ):
        self._database = (
            references
            if isinstance(references, PackedDatabase)
            else PackedDatabase.from_references(references, names)
        )
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self._engine = engine or SESSION_ENGINE
        self._policy = policy or RetryPolicy()
        self._faults = faults
        self._specs = plan_shards(self._database.lengths, num_shards)

    @property
    def database(self) -> PackedDatabase:
        return self._database

    @property
    def num_shards(self) -> int:
        """Planned shard count (clamped to the reference count)."""
        return len(self._specs)

    @property
    def shard_specs(self) -> Tuple[ShardSpec, ...]:
        return tuple(self._specs)

    @property
    def engine(self) -> str:
        return self._engine

    def scan_batch(
        self,
        queries: Iterable[QueryLike],
        *,
        threshold: Optional[Union[int, Sequence[Optional[int]]]] = None,
        min_identity: Optional[float] = None,
        keep_scores: bool = False,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        resume: bool = False,
        with_report: bool = False,
    ) -> Union[
        List[List[AlignmentResult]],
        Tuple[List[List[AlignmentResult]], ScanReport],
    ]:
        """Score ``k`` queries across every shard; merge seam-exactly.

        Returns one result list per query, in input order, covering the
        references of every *surviving* shard in global order (all of them
        on a clean run — bit-identical to a single-shard scan).
        ``threshold`` may be a per-query sequence, exactly as in
        :meth:`repro.host.scan_session.ScanSession.scan_batch`.  With
        ``with_report`` the :class:`ScanReport` (``mode="sharded"``,
        schema v3) carries the per-shard ``shards`` section.
        """
        encoded = [
            q if isinstance(q, EncodedQuery) else encode_query(q)
            for q in queries
        ]
        resolved = resolve_batch_thresholds(encoded, threshold, min_identity)
        report = ScanReport(
            mode="sharded",
            workers=len(self._specs),
            chunk_size=0,
            chunks_total=len(self._specs),
            engine=self._engine,
            threshold=min(resolved) if resolved else 0,
        )
        if checkpoint_dir is not None:
            report.checkpoint_dir = str(checkpoint_dir)
            report.resumed = bool(resume)
        tasks = {
            spec.shard: ShardTask(
                spec, tuple(encoded), tuple(resolved), keep_scores, self._engine,
                None if checkpoint_dir is None
                else str(Path(checkpoint_dir) / f"shard_{spec.shard:02d}"),
                resume, self._faults,
            )
            for spec in self._specs
        }
        done: dict = {}
        supervisor = Supervisor(
            self._database, tasks, policy=self._policy, report=report,
            done=done, partial=True,
            keep_idle=self._policy.hedge_after is not None,
        )
        started = time.monotonic()
        if tasks:
            self._run(supervisor, len(tasks))
        report.mode = "sharded"
        report.chunks_completed = len(done)
        report.elapsed_seconds = time.monotonic() - started
        report.shards = [
            ShardStatus(
                shard=spec.shard,
                start=spec.start,
                stop=spec.stop,
                nucleotides=spec.nucleotides,
                status="ok" if spec.shard in done else "dead",
                attempts=supervisor.attempts.get(spec.shard, 0),
                resumed_chunks=done[spec.shard][1] if spec.shard in done else 0,
                hedges=supervisor.hedged.get(spec.shard, 0),
                elapsed_seconds=supervisor.elapsed.get(spec.shard, 0.0),
                detail=supervisor.dead.get(spec.shard, ""),
            )
            for spec in self._specs
        ]
        for status in report.shards:
            if status.resumed_chunks and status.attempts > 1:
                _obs_profile.record_shard_resume(status.resumed_chunks)
            for _ in range(status.hedges):
                _obs_profile.record_shard_hedge()

        with _obs_profile.stage("scan.merge", category="scan") as merge_timer:
            results: List[List[AlignmentResult]] = [[] for _ in encoded]
            for spec in self._specs:
                records = done[spec.shard][0] if spec.shard in done else []
                for slot, reference, _start, hits, hit_scores, scores in records:
                    results[slot].append(
                        _build_result(
                            encoded[slot], self._database.names[reference],
                            int(self._database.lengths[reference]), resolved[slot],
                            hits, hit_scores, scores,
                        )
                    )
        _obs_profile.record_shard_merge(merge_timer.seconds)
        report.metrics["stage_seconds"] = {
            name: round(seconds, 6)
            for name, seconds in {
                **supervisor.stage_seconds, "merge": merge_timer.seconds
            }.items()
        }
        _obs_profile.record_scan_report_counters(
            report.retries, report.hedges, report.respawns, report.degraded
        )
        if with_report:
            return results, report
        return results

    def _run(self, supervisor: Supervisor, num_runners: int) -> None:
        """One runner process per shard, started for this call only."""
        try:
            pool: Optional[WorkerPool] = WorkerPool(self._database, num_runners)
        except (ImportError, OSError):
            # Restricted environments (no fork, no pipes): shards run
            # in-process with the same budgets and partial results.
            pool = None
        _obs_profile.record_shard_active(num_runners if pool is not None else 0)
        try:
            supervisor.run(pool)
        finally:
            if pool is not None:
                pool.close()
            _obs_profile.record_shard_active(0)
