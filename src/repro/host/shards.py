"""Shard planning: the cluster *model* made executable.

:mod:`repro.host.cluster` models the paper's multi-board deployment
analytically (shard balance, straggler-bound speedup) but never runs a
scan.  This module plans the partition that makes it run: the packed
database is cut into ``S`` contiguous, nucleotide-balanced shards
(:func:`plan_shards`), and a shard is a *label* on a scan's own tasks.
A sharded scan is a :class:`repro.host.scan_session.ScanSession` opened
with ``shards=S``: the session plans the shards once, runs one slot
thread per shard, plans the usual position-balanced windows inside every
shard's reference range (task ids shard-major, so a shard owns one
contiguous id range) and runs them all under the one
:class:`~repro.host.resilience.Supervisor`.  Results merge in global
reference order — bit-identical to an unsharded scan.

Every task runs under the same
:class:`~repro.host.resilience.RetryPolicy`, fault plan
(:class:`repro.host.faults.FaultPlan`, keyed on task ids) and checkpoint
store (one file per task) as every other scan; the supervisor's
guarantees are listed in :mod:`repro.host.resilience`.  The one that is
particular to shards is *partial results*: a shard with a task that
exhausts its attempts is reported dead, not fatal (unless ``degrade`` is
off, which raises :class:`~repro.host.errors.ShardFailedError`), its
references are left out, the
:class:`~repro.host.resilience.ScanReport` carries a schema-v3 ``shards``
section, and the CLI exits 4 ("complete with dead shards").

Recovery is observable through the ``fabp_shard_*`` hook family in
:mod:`repro.obs.profile`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

__all__ = [
    "ShardSpec",
    "plan_shards",
]


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

    Balanced like :func:`repro.host.windows.plan_windows`, but greedily and
    at shard granularity: walk the reference list accumulating
    nucleotides toward an adaptive target (``remaining / shards_left``),
    cutting where adding the next reference would overshoot more than
    stopping undershoots.  Shards are
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
