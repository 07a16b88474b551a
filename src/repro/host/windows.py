"""Position-balanced reference windows for parallel scans.

The original parallel scan chunked work by *reference count* — chunk ``i``
scores references ``[start, stop)``.  That balances only when references
are uniform: one long reference pins a single worker while the rest idle,
which is exactly why the committed baseline showed 4 workers delivering
only ~1.3x.  This module splits work by *alignment positions* instead:
every reference is cut into windows of roughly equal position count, and
windows — not references — are what gets distributed.

How many chunks a pass gets is set by the work it carries, not only by
the worker count: a chunk is one supervised task, one round trip to a
worker thread and one kernel call, so a pass is cut into at most
``workers * OVERSUBSCRIPTION`` chunks and never into more than hold
:data:`MIN_CHUNK_CELLS` cells each (positions times the sum of the pass's
query spans).  A count of at least ``workers`` is a multiple of it, so no
worker runs a lone extra round; a small scan is a single chunk and runs
on the calling thread.

Correctness of splitting is subtle because the comparator is contextual:
the match bit at position ``p`` reads ``Ref[p]``, ``Ref[p-1]`` and
``Ref[p-2]`` (the ``x_bit_rows`` look-back that resolves R/Y/N wildcard
codes), and a query spanning ``span`` elements reads forward through
``Ref[p + span - 1]``.  A window producing positions ``[a, b)`` is
therefore scored over the nucleotides::

    codes[a - lookback : min(L, b + span - 1)],   lookback = min(2, a)

(:func:`repro.core.bitscore.scan_windows` reads them from the packed
image).  For ``a >= 2`` the two look-back nucleotides are real database
content, so every kept score is computed from exactly the same context as
the full-reference scan; for ``a < 2`` the missing predecessors fall
before the sequence start, which is the identical boundary condition the
full scan sees.  Concatenating the kept slices in window order is
therefore **bit-identical** to scoring the whole reference in one call —
the invariant the regression tests in ``tests/host/test_scan_windows.py``
pin down.  This module only plans the windows and splits a task's rows
back into per-reference results (:func:`split_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "MIN_CHUNK_CELLS",
    "min_chunk_positions",
    "num_chunks",
    "OVERSUBSCRIPTION",
    "Window",
    "num_positions",
    "plan_windows",
    "split_rows",
]

#: Floor on a task's work, in alignment cells: positions times the sum of
#: the spans of the queries its pass folds, which is what one
#: ``fabp_scan_task`` call folds.  Every task costs a round trip between
#: the supervisor and a worker thread, and every seam re-scores a
#: ``span - 1`` halo; a task of less work than this pays more for those
#: than the balance across workers wins back.  Measured on a 2-vCPU host:
#: one 250-aa query over 4 x 256 knt (766 M cells) at two workers took
#: 2.9 ms a call in 8 tasks (the former 2**25 floor) and 2.0 ms in 2
#: (docs/performance.md).
MIN_CHUNK_CELLS = 1 << 28

#: Most tasks per worker.  More than one task per worker lets the
#: workers rebalance when windows finish at different speeds.
OVERSUBSCRIPTION = 4


@dataclass(frozen=True)
class Window:
    """Alignment positions ``[start, stop)`` of reference ``reference``."""

    reference: int
    start: int
    stop: int

    @property
    def positions(self) -> int:
        return self.stop - self.start


def num_positions(length: int, span: int) -> int:
    """Alignment positions a ``span``-element query has on a reference."""
    return max(0, int(length) - int(span) + 1)


def min_chunk_positions(span: int, cells_per_position: Optional[int] = None) -> int:
    """Fewest positions a chunk of a ``span``-element query is planned with.

    :data:`MIN_CHUNK_CELLS` of work at ``cells_per_position`` cells a
    position (default ``span``: a pass of one query), and never less than
    ``4 * (span - 1)`` so the per-seam halo stays a small fraction of it.
    """
    weight = max(1, span if cells_per_position is None else cells_per_position)
    return max(-(-MIN_CHUNK_CELLS // weight), 4 * (span - 1), 1)


def num_chunks(
    total_positions: int,
    span: int,
    num_workers: int,
    cells_per_position: Optional[int] = None,
) -> int:
    """How many chunks a pass of ``total_positions`` positions is cut into.

    ``num_workers * OVERSUBSCRIPTION`` at most, and no more than carry
    :func:`min_chunk_positions` each (the pass's cells over
    :data:`MIN_CHUNK_CELLS`, in whole positions); at least one.  A count
    of at least ``num_workers`` is rounded down to a multiple of it, so
    every worker runs the same number of rounds.
    """
    workers = max(1, int(num_workers))
    floor = min_chunk_positions(span, cells_per_position)
    count = max(1, min(workers * OVERSUBSCRIPTION, int(total_positions) // floor))
    return count - count % workers if count >= workers else count


def plan_windows(
    lengths: Sequence[int],
    span: int,
    num_workers: int,
    *,
    cells_per_position: Optional[int] = None,
    target_positions: Optional[int] = None,
) -> List[List[Window]]:
    """Split a database into chunks of windows balanced by position count.

    The database's alignment positions, reference after reference, are cut
    into :func:`num_chunks` chunks whose sizes differ by at most one
    position, so each carries at least :func:`min_chunk_positions` unless
    the pass is too small for more than one.
    ``cells_per_position`` is the sum of the spans a pass folds (default
    ``span``).  An explicit ``target_positions`` cuts chunks of exactly
    that many positions instead, the last one shorter.  References with
    zero positions (shorter than the query) yield no windows — the merge
    synthesizes their empty results.  Windows within a chunk and chunks
    themselves are emitted in (reference, start) order, so the merge is
    deterministic.
    """
    if span < 1:
        raise ValueError("span must be >= 1")
    total = sum(num_positions(length, span) for length in lengths)
    if total <= 0:
        return []
    if target_positions is None:
        count = num_chunks(total, span, num_workers, cells_per_position)
        sizes = [(c + 1) * total // count - c * total // count for c in range(count)]
    else:
        target = max(1, int(target_positions))
        sizes = [target] * (total // target)
        if total % target:
            sizes.append(total % target)

    chunks: List[List[Window]] = []
    current: List[Window] = []
    pending = iter(sizes)
    room = next(pending)
    for reference, length in enumerate(lengths):
        remaining = num_positions(length, span)
        start = 0
        while remaining > 0:
            take = min(remaining, room)
            current.append(Window(reference, start, start + take))
            start += take
            remaining -= take
            room -= take
            if room == 0:
                chunks.append(current)
                current = []
                room = next(pending, 0)
    return chunks


def split_rows(
    windows: Sequence[Tuple[int, int, int]], counts: np.ndarray, positions: np.ndarray,
    hit_scores: np.ndarray, scores: Optional[np.ndarray], lengths: Sequence[int], span: int,
    references: Sequence[int],
) -> List[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], int]]:
    """Split one query's rows over ``windows`` into per-reference results.

    ``windows`` are ``(reference, start, stop)`` rows in (reference, start)
    order, ``counts`` their hit counts; the rows hold the query's hits
    (positions counted from their window's start) and ``scores | None``
    window after window.  Returns ``(positions, hit_scores, scores | None,
    length)`` for each of ``references`` exactly as a whole-reference scan
    would: positions absolute and, with scores, the full score vector.
    """
    # ranges[reference]: its [first, end) hits and [first, end) scores in the rows.
    ranges: Dict[int, List[int]] = {}
    hit = score = 0
    for (reference, start, stop), count in zip(windows, np.asarray(counts).tolist()):
        kept = max(0, min(stop, num_positions(lengths[reference], span)) - start)
        bounds = ranges.setdefault(reference, [hit, hit, score, score])
        hit, score = hit + count, score + kept
        bounds[1], bounds[3] = hit, score
    if positions.size:
        positions = positions + np.repeat([start for _, start, _ in windows], counts)
    merged: List[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], int]] = []
    for reference in references:
        hit, hit_end, score, score_end = ranges.get(reference, (0, 0, 0, 0))
        length = int(lengths[reference])
        kept_scores: Optional[np.ndarray] = None
        if scores is not None:
            kept_scores = scores[score:score_end]
            total = num_positions(length, span)
            if kept_scores.size != total:
                raise ValueError(
                    f"reference {reference}: merged scores cover "
                    f"{kept_scores.size} of {total} positions"
                )
        merged.append((positions[hit:hit_end], hit_scores[hit:hit_end], kept_scores, length))
    return merged
