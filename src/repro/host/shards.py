"""Sharded scan runtime: the cluster *model* made executable.

:mod:`repro.host.cluster` models the paper's multi-board deployment
analytically (shard balance, straggler-bound speedup) but never runs a
scan.  This module promotes that model to an execution path: the packed
database is partitioned into ``S`` contiguous, nucleotide-balanced shards
(:func:`plan_shards`), and a shard is a *label* on the scan's own tasks.
Each :meth:`ShardedScanRuntime.scan_batch` call opens one
:class:`repro.host.scan_session.ScanSession` with ``S`` worker threads,
plans the usual position-balanced windows inside every shard's reference
range (task ids shard-major, so a shard owns one contiguous id range) and
runs them all under the one :class:`~repro.host.resilience.Supervisor`.
Results merge in global reference order — bit-identical to an unsharded
scan.

The supervisor's guarantees hold per task, under the same
:class:`~repro.host.resilience.RetryPolicy`, fault plan
(:class:`repro.host.faults.FaultPlan`, keyed on task ids) and checkpoint
store (one file per task) as every other scan:

* **health budgets and respawn** — an attempt that crashes, hangs past
  the task timeout, raises, or returns corrupt results is retried with
  seeded backoff, up to ``max_retries + 1`` attempts; a retried task
  replays only itself;
* **checkpoint resume** — with a checkpoint directory every finished task
  is persisted, and ``resume=True`` restores them and scans only the rest;
* **hedged re-dispatch** — once nothing is queued, a straggler task older
  than ``hedge_after`` is re-run on an idle worker thread; the first sane result
  wins and the twin is discarded;
* **partial results** — a shard with a task that exhausts its attempts is
  *reported* dead, not fatal (unless ``degrade`` is off, which raises
  :class:`~repro.host.errors.ShardFailedError`): its references are left
  out, the :class:`~repro.host.resilience.ScanReport` carries a schema-v3
  ``shards`` section with per-shard status/attempts/resumed-task counts,
  and the CLI exits 4 ("complete with dead shards").

Recovery is observable through the ``fabp_shard_*`` hook family in
:mod:`repro.obs.profile`.  Every call joins its worker threads before
it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.aligner import AlignmentResult, QueryLike
from repro.host.faults import FaultPlan
from repro.host.resilience import RetryPolicy, ScanReport
from repro.host.scan import SESSION_ENGINE, PackedDatabase
from repro.host.scan_session import ScanSession
from repro.obs import profile as _obs_profile

__all__ = [
    "ShardSpec",
    "ShardedScanRuntime",
    "plan_shards",
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
    reference-aligned (a reference never straddles two shards, so a
    shard's windows are planned exactly as a scan of its references alone
    would plan them) and ``num_shards`` is clamped to the reference count.
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


# -- the sharded runtime -------------------------------------------------------


class ShardedScanRuntime:
    """Scan one packed database as ``S`` shards of supervised tasks.

    ``references`` is anything :class:`PackedDatabase` accepts, or a ready
    database.  The shards are planned once (position-balanced,
    reference-aligned); each :meth:`scan_batch` call runs every shard's
    tasks on ``S`` worker threads and merges in global
    reference order — bit-identical to a single-shard scan.

        runtime = ShardedScanRuntime(references, num_shards=4)
        batches, report = runtime.scan_batch(queries, with_report=True)
        report.exit_code()  # 0 clean / 3 degraded / 4 dead shards

    ``faults`` is a :class:`~repro.host.faults.FaultPlan` keyed on the
    call's task ids.
    """

    def __init__(
        self,
        references: Union[PackedDatabase, Iterable],
        *,
        num_shards: int,
        engine: Optional[str] = None,
        names: Optional[Sequence[str]] = None,
        policy: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
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
        chunk_size: Optional[int] = None,
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
        ``threshold``, ``chunk_size``, ``checkpoint_dir`` and ``resume``
        mean what they mean in
        :meth:`repro.host.scan_session.ScanSession.scan_batch`.  With
        ``with_report`` the :class:`ScanReport` (``mode="sharded"``,
        schema v3) carries the per-shard ``shards`` section.
        """
        with ScanSession(
            self._database, engine=self._engine, workers=len(self._specs)
        ) as session:
            results, report = session.scan_batch(
                queries,
                threshold=threshold,
                min_identity=min_identity,
                keep_scores=keep_scores,
                chunk_size=chunk_size,
                policy=self._policy,
                faults=self._faults,
                checkpoint_dir=checkpoint_dir,
                resume=resume,
                shards=self._specs,
                with_report=True,
            )
        _obs_profile.record_shard_active(report.workers)
        for status in report.shards:
            if status.resumed_chunks:
                _obs_profile.record_shard_resume(status.resumed_chunks)
            for _ in range(status.hedges):
                _obs_profile.record_shard_hedge()
        _obs_profile.record_shard_merge(report.metrics["stage_seconds"]["merge"])
        if with_report:
            return results, report
        return results
