"""Position-balanced reference windows for parallel scans.

The original parallel scan chunked work by *reference count* — chunk ``i``
scores references ``[start, stop)``.  That balances only when references
are uniform: one long reference pins a single worker while the rest idle,
which is exactly why the committed baseline showed 4 workers delivering
only ~1.3x.  This module splits work by *alignment positions* instead:
every reference is cut into windows of roughly equal position count, and
windows — not references — are what gets distributed.

Correctness of splitting is subtle because the comparator is contextual:
the match bit at position ``p`` reads ``Ref[p]``, ``Ref[p-1]`` and
``Ref[p-2]`` (the ``x_bit_rows`` look-back that resolves R/Y/N wildcard
codes), and a query spanning ``span`` elements reads forward through
``Ref[p + span - 1]``.  A window producing positions ``[a, b)`` therefore
scores the nucleotide slice::

    codes[a - lookback : min(L, b + span - 1)],   lookback = min(2, a)

and keeps ``scores[lookback : lookback + (b - a)]``.  For ``a >= 2`` the
two look-back nucleotides are real database content, so every kept score
is computed from exactly the same context as the full-reference scan; for
``a < 2`` the missing predecessors fall before the sequence start, which
is the identical boundary condition the full scan sees.  Concatenating
the kept slices in window order is therefore **bit-identical** to scoring
the whole reference in one call — the invariant the regression tests in
``tests/host/test_scan_windows.py`` pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.seq import packing

__all__ = [
    "LOOKBACK",
    "MIN_WINDOW_POSITIONS",
    "OVERSUBSCRIPTION",
    "Window",
    "num_positions",
    "plan_windows",
    "window_codes",
    "merge_window_records",
]

#: Nucleotides of context *behind* a window start the comparator may read
#: (``x_bit_rows`` resolves wildcard codes from the two previous bases).
LOOKBACK = 2

#: Floor on window size: below this the per-call numpy overhead and the
#: ``span - 1`` halo re-scored at every seam outweigh the balance win.
MIN_WINDOW_POSITIONS = 1 << 15

#: Target chunks per worker.  More than one chunk per worker lets the
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


def plan_windows(
    lengths: Sequence[int],
    span: int,
    num_workers: int,
    *,
    target_positions: Optional[int] = None,
) -> List[List[Window]]:
    """Split a database into chunks of windows balanced by position count.

    Returns a list of chunks; each chunk is a list of :class:`Window`
    covering roughly ``total_positions / (num_workers * OVERSUBSCRIPTION)``
    positions (never less than :data:`MIN_WINDOW_POSITIONS`, and never
    less than ``4 * (span - 1)`` so the per-seam halo stays a small
    fraction of the work).  References with zero positions (shorter than
    the query) yield no windows — the driver synthesizes their empty
    results.  Windows within a chunk and chunks themselves are emitted in
    (reference, start) order, so the merge is deterministic.
    """
    if span < 1:
        raise ValueError("span must be >= 1")
    total = sum(num_positions(length, span) for length in lengths)
    if total <= 0:
        return []
    if target_positions is None:
        per_chunk = -(-total // max(1, num_workers * OVERSUBSCRIPTION))
        target_positions = max(MIN_WINDOW_POSITIONS, 4 * (span - 1), per_chunk)
    target = max(1, int(target_positions))

    chunks: List[List[Window]] = []
    current: List[Window] = []
    room = target
    for reference, length in enumerate(lengths):
        remaining = num_positions(length, span)
        start = 0
        while remaining > 0:
            take = min(remaining, room)
            # Absorb a sliver tail rather than leave a tiny trailing window.
            if 0 < remaining - take < max(1, MIN_WINDOW_POSITIONS // 4) <= room:
                take = remaining
            current.append(Window(reference, start, start + take))
            start += take
            remaining -= take
            room -= take
            if room <= 0:
                chunks.append(current)
                current = []
                room = target
    if current:
        chunks.append(current)
    return chunks


def window_codes(
    buffer: np.ndarray,
    byte_base: int,
    length: int,
    start: int,
    stop: int,
    span: int,
) -> Tuple[np.ndarray, int]:
    """Unpack the code slice a window needs; return ``(codes, lookback)``.

    ``buffer`` is the packed database image, ``byte_base`` the byte offset
    of this reference within it.  The slice covers ``[start - lookback,
    min(length, stop + span - 1))`` so scores at every position in
    ``[start, stop)`` see full context; the caller keeps
    ``scores[lookback : lookback + (stop - start)]``.
    """
    lookback = LOOKBACK if start >= LOOKBACK else start
    nt_start = start - lookback
    nt_stop = min(int(length), stop + span - 1)
    byte_start = nt_start // 4
    byte_stop = (nt_stop + 3) // 4
    codes = packing.unpack(
        buffer[byte_base + byte_start : byte_base + byte_stop],
        nt_stop - byte_start * 4,
    )
    offset = nt_start - byte_start * 4
    if offset:
        codes = codes[offset:]
    return codes, lookback


#: One scored window: ``(reference, start, hit_positions_local, hit_scores,
#: scores_slice | None)``.  Hit positions are local to the window; the merge
#: re-bases them by ``start``.
WindowRecord = Tuple[int, int, np.ndarray, np.ndarray, Optional[np.ndarray]]


def merge_window_records(
    records: Sequence[WindowRecord],
    lengths: Sequence[int],
    span: int,
    keep_scores: bool,
    references: Optional[Iterable[int]] = None,
) -> List[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], int]]:
    """Stitch window records back into per-reference scan results.

    Returns, for every reference in input order (or for each index of
    ``references``, in that order), ``(positions, hit_scores,
    scores | None, length)`` exactly as a whole-reference scan would have
    produced them: windows are sorted by start, hit positions re-based to
    absolute coordinates, and (with ``keep_scores``) the score slices
    concatenated into the full per-position vector.
    """
    by_reference: Dict[int, List[WindowRecord]] = {}
    for record in records:
        by_reference.setdefault(record[0], []).append(record)
    merged: List[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], int]] = []
    for reference in range(len(lengths)) if references is None else references:
        length = lengths[reference]
        parts = sorted(by_reference.get(reference, []), key=lambda r: r[1])
        total = num_positions(length, span)
        if parts:
            positions = np.concatenate(
                [r[2].astype(np.int64) + r[1] for r in parts]
            )
            hit_scores = np.concatenate([r[3] for r in parts])
        else:
            positions = np.zeros(0, dtype=np.int64)
            hit_scores = np.zeros(0, dtype=np.int32)
        scores: Optional[np.ndarray] = None
        if keep_scores:
            if parts:
                scores = np.concatenate([r[4] for r in parts])
            else:
                scores = np.zeros(0, dtype=np.int32)
            if scores.size != total:
                raise ValueError(
                    f"reference {reference}: merged scores cover "
                    f"{scores.size} of {total} positions"
                )
        merged.append((positions, hit_scores, scores, int(length)))
    return merged
