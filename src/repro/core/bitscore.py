"""Bit-parallel SWAR scoring engine — the Pop36 datapath, in software.

The FPGA scores 256 nucleotides per beat because each query element owns a
two-LUT comparator producing *one bit*, and a carry-save Pop36 tree counts
the bits (§III-C/D).  The software counterpart of that datapath is SWAR
(SIMD-within-a-register) bit-parallelism over 64-bit words:

1. **Match bitplanes.**  A query of ``L_q`` elements carries at most 64
   *distinct* 6-bit instructions (in practice ~20).  For each distinct
   instruction we evaluate the comparator once over every reference
   position — the match bit depends only on ``(instruction, Ref[p],
   Ref[p-1], Ref[p-2])`` — and pack the resulting 0/1 vector into uint64
   words, LSB-first (bit ``p % 64`` of word ``p // 64`` is position ``p``).
   The Type-III X-bit lanes (:func:`x_bit_rows`) are folded into this pass,
   exactly as the hardware mux LUT feeds the comparison LUT.

2. **Diagonal accumulation with CSA vertical counters.**  The score of
   alignment position ``k`` is ``sum_i match_i[k + i]``, so element ``i``
   contributes its bitplane *shifted right by i bits*.  Rows are summed
   with a carry-save-adder vertical counter: counter plane ``c_l`` holds
   bit ``l`` of every position's running count, and adding a row is
   ``carry = c_l & row; c_l ^= row`` rippled upward — the direct software
   analog of the Pop36 carry-save tree (each 64-bit word is 64 independent
   one-bit adders working in parallel).  Rows are fed pairwise through a
   3:2 compressor step (``ones = a ^ b``, ``twos = a & b``) to halve
   low-plane traffic, mirroring the hardware's 6:3 compression stage.

3. **Threshold comparators.**  The FPGA writes back only the positions
   whose count clears the threshold.  :func:`scan_windows` does the same:
   in the compiled fold the counter planes are compared with the
   threshold bit-sliced, only 16-position groups holding a hit are
   decoded, and the passing ``(position, score)`` pairs are all it
   returns — no int32 score per position is written unless the caller
   keeps the scores.

:func:`scan_windows` is the one thresholded scan, the host's one job for
the kernel: encoded queries, windows of the packed 2-bit database image
and thresholds in, the passing positions out.  It runs the datapath
compiled (``scan_kernel.c``, loaded by :mod:`repro.core.native`) wherever
a C compiler was found, and its NumPy body everywhere else; no caller
chooses.  A scan task hands it its windows; :func:`hits_batch` (what
``align`` thresholds through) packs its reference codes and hands it one
window, and :func:`scores_batch` is ``hits_batch`` without thresholds,
keeping every score.  The ``bitscore`` engine, :func:`scores`, is a batch
of one through :func:`scores_batch`.  Every one of them refuses a query
longer than :data:`~repro.core.contracts.MAX_QUERY_ELEMENTS` (750
elements, the 10-bit envelope of the Pop36 counter) in
:func:`prepare_batch`, so the compiled fold needs at most ten counter
planes.  :func:`packed_scores` is the same datapath one query at a time
in NumPy, kept as the sequential side of the batch-amortization benchmark.

Every path is bit-identical to :func:`repro.core.aligner.alignment_scores_naive`
(enforced by the property-test suite in ``tests/property``).
"""

from __future__ import annotations

import ctypes
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core import comparator as cmp
from repro.core import native
from repro.core.contracts import (
    MAX_QUERY_ELEMENTS,
    check_query_elements,
    engine_contract,
    kernel_summary,
)
from repro.obs import profile as _obs_profile
from repro.seq import packing

#: Bits per SWAR word (the software "beat" width).
WORD_BITS = 64

#: Ceiling on the batched shift-residue table (bytes).  Below it, every
#: (distinct instruction, shift residue) pair is precomputed once and each
#: query element becomes a zero-copy view; above it the batch path shifts
#: rows on the fly from the small packed planes instead of materializing
#: the table.
BATCH_TABLE_MAX_BYTES = 1 << 27

_WORD_DTYPE = np.dtype("<u8")


@kernel_summary(("uint8", 0, 1))
def x_bit_rows(ref_codes: np.ndarray) -> np.ndarray:
    """Per-position X-source bit arrays, indexed by config code.

    Returns an array of shape ``(4, L_r)``: row ``config`` holds the X bit
    at every reference position for that source.  Row 0 (CONFIG_SELF) is a
    placeholder (the caller substitutes the instruction's own b3).  Missing
    look-back positions read as nucleotide ``A`` (code 0), matching the
    hardware stream buffer reset.
    """
    length = ref_codes.size
    prev1 = np.zeros(length, dtype=np.uint8)
    prev2 = np.zeros(length, dtype=np.uint8)
    if length > 1:
        prev1[1:] = ref_codes[:-1]
    if length > 2:
        prev2[2:] = ref_codes[:-2]
    rows = np.zeros((4, length), dtype=np.uint8)
    rows[1] = (prev1 >> 1) & 1  # CONFIG_PREV1_HI
    rows[2] = prev2 & 1  # CONFIG_PREV2_LO
    rows[3] = (prev2 >> 1) & 1  # CONFIG_PREV2_HI
    return rows


@kernel_summary(("uint8", 0, 1), ("intp", 0, 63))
def match_bytes(
    instructions: np.ndarray, ref_codes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Match bit (as uint8 0/1) of every *distinct* instruction at every position.

    Returns ``(rows, element_rows)``: ``rows[j, p]`` is the comparator
    output of distinct instruction ``j`` at reference position ``p``, and
    ``element_rows[i]`` maps query element ``i`` to its row.  Evaluating
    per distinct instruction turns ``L_q`` table gathers into at most 64.
    """
    instructions = np.asarray(instructions, dtype=np.uint8)
    ref_codes = np.asarray(ref_codes, dtype=np.uint8)
    distinct, element_rows = np.unique(instructions, return_inverse=True)
    tables, configs = cmp.instruction_tables(distinct)
    x_rows = x_bit_rows(ref_codes)
    rows = np.empty((distinct.size, ref_codes.size), dtype=np.uint8)
    for j in range(distinct.size):
        config = int(configs[j])
        if config == 0:
            x = (int(distinct[j]) >> 3) & 1
            rows[j] = tables[j, x, ref_codes]
        else:
            rows[j] = tables[j, x_rows[config], ref_codes]
    return rows, np.asarray(element_rows, dtype=np.intp).ravel()


@kernel_summary(("uint64", 0, (1 << 64) - 1))
def pack_row(bits: np.ndarray, pad_words: int = 1) -> np.ndarray:
    """Pack a uint8 0/1 vector into little-endian uint64 words.

    Bit ``p % 64`` of word ``p // 64`` is position ``p``.  ``pad_words``
    zero words are appended so shifted reads never index past the end.
    """
    packed = np.packbits(bits, bitorder="little")
    num_words = (bits.size + WORD_BITS - 1) // WORD_BITS + pad_words
    buffer = np.zeros(num_words * 8, dtype=np.uint8)
    buffer[: packed.size] = packed
    return buffer.view(_WORD_DTYPE)


@kernel_summary(("uint64", 0, (1 << 64) - 1))
def shifted_row(words: np.ndarray, shift: int, num_words: int) -> np.ndarray:
    """``num_words`` words of ``words`` right-shifted by ``shift`` bits.

    Output bit ``k`` equals input bit ``k + shift`` — this aligns element
    ``i``'s match bitplane onto the alignment-position axis.
    """
    offset, remainder = divmod(shift, WORD_BITS)
    low = words[offset : offset + num_words]
    if remainder == 0:
        return low.copy()
    high = words[offset + 1 : offset + 1 + num_words]
    return (low >> np.uint64(remainder)) | (high << np.uint64(WORD_BITS - remainder))


class VerticalCounter:
    """Carry-save vertical counter: per-bit-column counts over packed words.

    Plane ``l`` holds bit ``l`` of each position's running count.  This is
    the software analog of the paper's Pop36 carry-save pop-counter: one
    64-bit AND/XOR pair performs 64 independent single-bit additions.
    """

    def __init__(self, num_words: int) -> None:
        self._num_words = num_words
        self.planes: List[np.ndarray] = []

    def _add_at(self, row: np.ndarray, level: int) -> None:
        """Add ``row * 2**level``; ``row`` is consumed (may be mutated)."""
        carry = row
        while level < len(self.planes):
            plane = self.planes[level]
            carry_out = plane & carry
            np.bitwise_xor(plane, carry, out=plane)
            if not carry_out.any():
                return
            carry = carry_out
            level += 1
        while level > len(self.planes):
            self.planes.append(np.zeros(self._num_words, dtype=_WORD_DTYPE))
        self.planes.append(carry)

    def add(self, row: np.ndarray) -> None:
        """Add one match row (weight 1) to every position's count."""
        self._add_at(row, 0)

    def add_pair(self, first: np.ndarray, second: np.ndarray) -> None:
        """Add two rows via one 3:2 compressor step (``a + b = ones + 2*twos``)."""
        twos = first & second
        ones = first ^ second
        self._add_at(ones, 0)
        if twos.any():
            self._add_at(twos, 1)

    @kernel_summary(("int32", 0, MAX_QUERY_ELEMENTS))
    def decode(self, num_positions: int) -> np.ndarray:
        """Materialize the counts as an int32 array of ``num_positions``."""
        scores = np.zeros(num_positions, dtype=np.int32)
        for level, plane in enumerate(self.planes):
            bits = np.unpackbits(
                plane.view(np.uint8), bitorder="little", count=num_positions
            )
            scores += bits.astype(np.int32) << level
        return scores


@kernel_summary(("int32", 0, MAX_QUERY_ELEMENTS))
def packed_scores(instructions: np.ndarray, ref_codes: np.ndarray) -> np.ndarray:
    """All alignment-position scores via packed bitplanes + CSA popcount."""
    instructions = np.asarray(instructions, dtype=np.uint8)
    ref_codes = np.asarray(ref_codes, dtype=np.uint8)
    num_elements = instructions.size
    num_positions = ref_codes.size - num_elements + 1
    if num_positions <= 0:
        return np.zeros(0, dtype=np.int32)
    if num_elements == 0:
        return np.zeros(num_positions, dtype=np.int32)
    rows, element_rows = match_bytes(instructions, ref_codes)
    # One extra pad word lets shifted_row read its high half at any offset.
    pad = 1 + (num_elements - 1) // WORD_BITS
    planes = [pack_row(rows[j], pad_words=pad) for j in range(rows.shape[0])]
    num_words = (num_positions + WORD_BITS - 1) // WORD_BITS
    counter = VerticalCounter(num_words)
    for i in range(0, num_elements - 1, 2):
        counter.add_pair(
            shifted_row(planes[element_rows[i]], i, num_words),
            shifted_row(planes[element_rows[i + 1]], i + 1, num_words),
        )
    if num_elements % 2:
        i = num_elements - 1
        counter.add(shifted_row(planes[element_rows[i]], i, num_words))
    return counter.decode(num_positions)


# --------------------------------------------------------------------------
# Batched multi-query kernel: one reference sweep scores k queries.
#
# The FPGA's throughput trick is k comparator arrays sharing a single
# streaming pass over the reference (one DRAM sweep, k scores).  The
# software analogue: evaluate the comparator once per *distinct*
# instruction across the whole batch, pack those match rows once, and
# reuse them for every query.  Per query the packed rows are folded with
# an iterative Harley-Seal carry-save tree (8 rows -> 4 counter planes per
# block via seven CSAs) using preallocated scratch, then decoded in one
# unpackbits/einsum pass.
# --------------------------------------------------------------------------


def _csa_into(
    c: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    t: np.ndarray,
    v: np.ndarray,
    carry_out: np.ndarray,
) -> None:
    """Full-adder compress: ``c + a + b -> sum in c, carry in carry_out``.

    All five ufuncs write into preallocated buffers — the batch hot loop
    never allocates.  ``t``/``v`` are scratch; ``a``/``b`` are read-only.
    """
    np.bitwise_xor(a, b, out=t)
    np.bitwise_and(c, t, out=v)
    np.bitwise_xor(c, t, out=c)
    np.bitwise_and(a, b, out=t)
    np.bitwise_or(t, v, out=carry_out)


def _shift_table(planes: np.ndarray) -> np.ndarray:
    """Every (row, shift-residue) combination, precomputed in bulk.

    ``table[j, r, w]`` holds word ``w`` of plane ``j`` right-shifted by
    ``r`` bits, so element ``i`` of any query reads the contiguous view
    ``table[row, i % 64, i // 64 : i // 64 + num_words]`` — exactly
    :func:`shifted_row` with the funnel shift hoisted out of the per-query
    loop and shared by the whole batch.
    """
    count, plane_len = planes.shape
    table = np.empty((count, WORD_BITS, plane_len - 1), dtype=_WORD_DTYPE)
    shifts = np.arange(WORD_BITS, dtype=np.uint64)
    high_shifts = (np.uint64(WORD_BITS) - shifts)[1:, None]
    tmp = np.empty((WORD_BITS - 1, plane_len - 1), dtype=_WORD_DTYPE)
    for j in range(count):
        plane = planes[j]
        table[j, 0] = plane[:-1]
        np.right_shift(plane[None, :-1], shifts[1:, None], out=table[j, 1:])
        np.left_shift(plane[None, 1:], high_shifts, out=tmp)
        np.bitwise_or(table[j, 1:], tmp, out=table[j, 1:])
    return table


def _table_rows(
    table: np.ndarray, element_rows: np.ndarray, num_words: int
) -> Iterator[np.ndarray]:
    """Per-element shifted rows as zero-copy views into the shift table."""
    for i in range(element_rows.size):
        offset, remainder = divmod(i, WORD_BITS)
        yield table[element_rows[i], remainder, offset : offset + num_words]


def _streamed_rows(
    planes: np.ndarray,
    element_rows: np.ndarray,
    num_words: int,
    ring: Sequence[np.ndarray],
    tmp: np.ndarray,
) -> Iterator[np.ndarray]:
    """Per-element shifted rows, funnel-shifted on the fly.

    The fallback when the shift table would exceed
    :data:`BATCH_TABLE_MAX_BYTES`: each row is shifted into one of eight
    rotating buffers (a Harley-Seal block consumes eight rows at once, so
    ``i % 8`` slots never collide within a block).
    """
    for i in range(element_rows.size):
        offset, remainder = divmod(i, WORD_BITS)
        plane = planes[element_rows[i]]
        low = plane[offset : offset + num_words]
        if remainder == 0:
            yield low
            continue
        out = ring[i % 8]
        np.right_shift(low, np.uint64(remainder), out=out)
        np.left_shift(
            plane[offset + 1 : offset + 1 + num_words],
            np.uint64(WORD_BITS - remainder),
            out=tmp,
        )
        np.bitwise_or(out, tmp, out=out)
        yield out


def _fold_level(
    rows: Iterable[np.ndarray],
    counter: VerticalCounter,
    num_words: int,
    scratch: Tuple[np.ndarray, ...],
    *,
    base: int,
    owned: bool,
) -> List[np.ndarray]:
    """One Harley-Seal level: compress 8-row blocks into 4 counter planes.

    Seven CSAs turn eight weight-``2**base`` rows into ``ones``/``twos``/
    ``fours`` accumulators plus one weight-``2**(base+3)`` carry row; the
    carries become the next level's input.  ``owned=False`` marks rows that
    are borrowed views (shift-table slices, ring buffers) — tail rows fed
    straight to the counter are copied first, because
    :meth:`VerticalCounter._add_at` consumes its argument.
    """
    t, v, ta, tb, fa, fb = scratch
    ones = np.zeros(num_words, dtype=_WORD_DTYPE)
    twos = np.zeros(num_words, dtype=_WORD_DTYPE)
    fours = np.zeros(num_words, dtype=_WORD_DTYPE)
    carries: List[np.ndarray] = []
    block: List[np.ndarray] = []
    for row in rows:
        block.append(row)
        if len(block) < 8:
            continue
        _csa_into(ones, block[0], block[1], t, v, ta)
        _csa_into(ones, block[2], block[3], t, v, tb)
        _csa_into(twos, ta, tb, t, v, fa)
        _csa_into(ones, block[4], block[5], t, v, ta)
        _csa_into(ones, block[6], block[7], t, v, tb)
        _csa_into(twos, ta, tb, t, v, fb)
        carry = np.empty(num_words, dtype=_WORD_DTYPE)
        _csa_into(fours, fa, fb, t, v, carry)
        carries.append(carry)
        block.clear()
    counter._add_at(ones, base)
    counter._add_at(twos, base + 1)
    counter._add_at(fours, base + 2)
    for row in block:
        counter._add_at(row if owned else np.array(row), base)
    return carries


def _fold_rows(
    rows: Iterable[np.ndarray],
    counter: VerticalCounter,
    num_words: int,
    scratch: Tuple[np.ndarray, ...],
) -> None:
    """Fold a stream of weight-1 rows into ``counter`` level by level."""
    carries = _fold_level(rows, counter, num_words, scratch, base=0, owned=False)
    base = 3
    while carries:
        carries = _fold_level(
            iter(carries), counter, num_words, scratch, base=base, owned=True
        )
        base += 3


def _decode_planes(planes: List[np.ndarray], num_positions: int) -> np.ndarray:
    """Counter planes -> int32 scores in one unpackbits/einsum pass."""
    if not planes:
        return np.zeros(num_positions, dtype=np.int32)
    stacked = np.stack(planes)
    bits = np.unpackbits(
        stacked.view(np.uint8), axis=1, bitorder="little", count=num_positions
    )
    # Counts are bounded by MAX_QUERY_ELEMENTS (10 planes), so the weighted
    # sum fits int16 — half the reduction bandwidth of an int32 einsum.
    weights16 = (1 << np.arange(len(planes))).astype(np.int16)
    return np.einsum(
        "l,lp->p", weights16, bits, dtype=np.int16, casting="unsafe"
    ).astype(np.int32)


def _numpy_batch(arrays: List[np.ndarray], ref_codes: np.ndarray) -> List[np.ndarray]:
    """The NumPy body: every query's scores at every position of ``ref_codes``."""
    results = [
        np.zeros(max(0, ref_codes.size - array.size + 1), dtype=np.int32)
        for array in arrays
    ]
    active = [
        q for q, array in enumerate(arrays) if array.size and results[q].size
    ]
    if not active:
        return results
    # Shared precompute: one comparator evaluation over the reference for
    # the union of distinct instructions across the whole batch.
    rows, concat_rows = match_bytes(
        np.concatenate([arrays[q] for q in active]), ref_codes
    )
    element_rows: dict = {}
    offset = 0
    for q in active:
        size = arrays[q].size
        element_rows[q] = concat_rows[offset : offset + size]
        offset += size
    max_elements = max(arrays[q].size for q in active)
    pad = 1 + (max_elements - 1) // WORD_BITS
    planes = np.stack(
        [pack_row(rows[j], pad_words=pad) for j in range(rows.shape[0])]
    )
    table_bytes = planes.shape[0] * WORD_BITS * (planes.shape[1] - 1) * 8
    table = _shift_table(planes) if table_bytes <= BATCH_TABLE_MAX_BYTES else None
    max_words = (ref_codes.size - min(
        arrays[q].size for q in active
    ) + 1 + WORD_BITS - 1) // WORD_BITS
    scratch = tuple(np.empty(max_words, dtype=_WORD_DTYPE) for _ in range(6))
    ring = (
        tuple(np.empty(max_words, dtype=_WORD_DTYPE) for _ in range(8))
        if table is None
        else ()
    )
    shift_tmp = np.empty(max_words if table is None else 0, dtype=_WORD_DTYPE)
    for q in active:
        num_positions = ref_codes.size - arrays[q].size + 1
        num_words = (num_positions + WORD_BITS - 1) // WORD_BITS
        counter = VerticalCounter(num_words)
        if table is not None:
            row_stream = _table_rows(table, element_rows[q], num_words)
        else:
            row_stream = _streamed_rows(
                planes,
                element_rows[q],
                num_words,
                tuple(buffer[:num_words] for buffer in ring),
                shift_tmp[:num_words],
            )
        _fold_rows(
            row_stream,
            counter,
            num_words,
            tuple(buffer[:num_words] for buffer in scratch),
        )
        results[q] = _decode_planes(counter.planes, num_positions)
    return results


# --------------------------------------------------------------------------
# Compiled batch kernel (repro/core/scan_kernel.c), built on first use.
#
# The same datapath as the NumPy body with the counters kept in registers,
# one C call per scan task: ``fabp_scan_task`` reads the 2-bit database
# image, builds each window's shared match bitplanes one L2-sized block of
# positions at a time, folds every query of the batch over the block
# through a Harley-Seal block into vertical counter planes, compares them
# with the threshold and writes only the passing positions (and, when
# asked, every int32 score).  ctypes releases the GIL for the call, so
# worker threads fold at once.  When no compiler is found or the build
# fails, ``_NATIVE`` is None and :func:`scan_windows`, the one reader of
# ``_NATIVE``, runs the NumPy body.
# --------------------------------------------------------------------------

_NATIVE: Optional[ctypes.CDLL] = native.load()

#: One query's thresholded scan: hit positions (int64) and their scores
#: (int32), positions counted from the first kept position, plus the kept
#: int32 score slice when one was asked for.
QueryHits = Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]


class ScanRows(NamedTuple):
    """One scan task's output, shaped as the kernel writes it.

    ``counts[j, q]`` (int64) is query ``q``'s hit count in window ``j``.
    Row ``q`` of ``positions`` (int64, from each window's start),
    ``hit_scores`` and kept ``scores`` (int32) runs window after window.
    """

    counts: np.ndarray
    positions: Tuple[np.ndarray, ...]
    hit_scores: Tuple[np.ndarray, ...]
    scores: Optional[Tuple[np.ndarray, ...]]

    @classmethod
    def of_window(cls, hits: Sequence[QueryHits]) -> "ScanRows":
        """One window's :data:`QueryHits`, one per query, as rows."""
        positions, hit_scores, scores = zip(*hits)
        counts = np.array([[row.size for row in positions]], dtype=np.int64)
        return cls(counts, positions, hit_scores, scores)

    @classmethod
    def join(cls, parts: Sequence["ScanRows"], k: int, keep_scores: bool) -> "ScanRows":
        """Rows of ``k`` queries over consecutive windows, as one payload."""

        def rows(field: str, dtype: type) -> Tuple[np.ndarray, ...]:
            return tuple(
                np.concatenate([np.zeros(0, dtype)] + [getattr(p, field)[q] for p in parts])
                for q in range(k)
            )

        return cls(
            np.concatenate([np.zeros((0, k), np.int64)] + [p.counts for p in parts]),
            rows("positions", np.int64), rows("hit_scores", np.int32),
            rows("scores", np.int32) if keep_scores else None,
        )


#: Hit entries each query's row starts with in a task call: two tiles'
#: worth.  A tile writes at most ``64 * TILE_WORDS`` hits; the kernel stops
#: before a tile that might not fit, and the row grows and the call resumes.
HIT_ROOM = 2 * WORD_BITS * native.TILE_WORDS


def batch_kernel() -> str:
    """The body :func:`scan_windows` runs in this process: ``native`` or ``numpy``."""
    return "numpy" if _NATIVE is None else "native"


def _context_masks() -> np.ndarray:
    """Truth mask of every 6-bit instruction over its comparator context.

    Bit ``c`` of ``masks[instruction]`` is the comparator output when the
    context ``code | prev1 << 2 | prev2 << 4`` equals ``c``: the mux LUT
    picks X from the instruction's ``b3`` or a look-back bit, then the
    comparison LUT (:func:`repro.core.comparator.instruction_tables`).
    """
    instructions = np.arange(64, dtype=np.uint8)
    tables, configs = cmp.instruction_tables(instructions)
    context = np.arange(64)
    code, prev1, prev2 = context & 3, (context >> 2) & 3, (context >> 4) & 3
    sources = np.stack([np.zeros_like(context), (prev1 >> 1) & 1, prev2 & 1, (prev2 >> 1) & 1])
    x = sources[configs]
    self_x = configs == 0
    x[self_x] = ((instructions[self_x] >> 3) & 1)[:, None]
    bits = tables[instructions[:, None], x, code]
    return np.packbits(bits, axis=1, bitorder="little").view(_WORD_DTYPE).ravel()


_CONTEXT_MASKS = _context_masks()


class PreparedBatch(NamedTuple):
    """A batch's distinct instruction bytes and each query's plane rows.

    ``rows[q][i]`` is the index in ``distinct`` of query ``q``'s element
    ``i`` (int32); ``masks`` holds each distinct byte's context truth mask,
    ``elements`` every query's rows end to end and ``spans`` the queries'
    element counts, as the kernel reads them.  Every window of a scan pass
    folds the same queries, so :func:`repro.host.scan_session.plan_batch`
    prepares them once per pass and hands the result to every task.
    """

    distinct: np.ndarray
    rows: Tuple[np.ndarray, ...]
    masks: np.ndarray
    elements: np.ndarray
    spans: np.ndarray


def prepare_batch(instruction_batch: Sequence[np.ndarray]) -> PreparedBatch:
    """The :class:`PreparedBatch` of ``instruction_batch`` (at least one query).

    A query longer than :data:`~repro.core.contracts.MAX_QUERY_ELEMENTS`
    raises ``ValueError``: every entry of this module that scores reaches
    :func:`scan_windows` through here, and the kernel has a fold for no
    deeper count.  An empty query passes (it scores 0 at every position).
    """
    arrays = [np.asarray(a, dtype=np.uint8).ravel() for a in instruction_batch]
    spans = np.array([array.size for array in arrays], dtype=np.int64)
    if spans.max() > MAX_QUERY_ELEMENTS:
        check_query_elements(int(spans.max()))
    distinct, concat_rows = np.unique(np.concatenate(arrays), return_inverse=True)
    elements = np.ascontiguousarray(concat_rows, dtype=np.int32).ravel()
    return PreparedBatch(
        distinct,
        tuple(np.split(elements, np.cumsum(spans)[:-1])),
        # Bits 6-7 of an instruction byte select nothing, as in match_bytes.
        np.ascontiguousarray(_CONTEXT_MASKS[distinct & 63]),
        elements,
        spans,
    )


def scan_windows(
    image: np.ndarray,
    windows: Sequence[Tuple[int, int, int, int]],
    prepared: PreparedBatch,
    thresholds: Optional[Sequence[int]],
    keep_scores: bool,
) -> Tuple[ScanRows, int]:
    """Score a batch over windows of a packed 2-bit image and threshold it.

    ``image`` is packed as :func:`repro.seq.packing.pack` packs it, one
    reference after another from byte offsets; each window is ``(byte
    offset, length, start, stop)``, and query ``q`` of span ``s`` is scored
    at its alignment positions ``[start, min(stop, length - s + 1))``.
    Returns the call's :class:`ScanRows` and the number of positions
    scored.  Without ``thresholds`` no hits are written (the score rows
    only, with ``keep_scores``).  The compiled kernel runs the whole call
    where it was built, and the NumPy body window by window elsewhere;
    this is the one place that chooses.  The element rows folded and
    skipped go to observability, when enabled.
    """
    image = np.ascontiguousarray(image, dtype=np.uint8)
    rows = np.ascontiguousarray(windows, dtype=np.int64).reshape(-1, 4)
    # The kernel reads from each byte offset up to the reference's or the
    # image's end, whichever comes first, and from each start onwards.
    if rows.size and rows.min() < 0:
        raise ValueError("scan windows need non-negative offsets, lengths and bounds")
    if _NATIVE is None:
        return _numpy_windows(image, rows, prepared, thresholds, keep_scores)
    return _native_windows(_NATIVE, image, rows, prepared, thresholds, keep_scores)


def _cell_sizes(rows: np.ndarray, spans: np.ndarray) -> np.ndarray:
    """Positions cell ``(j, q)`` keeps: ``[start, min(stop, length - span + 1))``."""
    stops = np.minimum(rows[:, 3:], rows[:, 1:2] - spans + 1)
    return np.maximum(0, stops - rows[:, 2:3])


def _native_windows(
    library: ctypes.CDLL,
    image: np.ndarray,
    rows: np.ndarray,
    prepared: PreparedBatch,
    thresholds: Optional[Sequence[int]],
    keep_scores: bool,
) -> Tuple[ScanRows, int]:
    """:func:`scan_windows` as one ``fabp_scan_task`` call."""
    k, num_windows = int(prepared.spans.size), rows.shape[0]
    if thresholds is None:
        limits, room = prepared.spans + 1, 0
    else:
        limits, room = np.asarray(thresholds, dtype=np.int64), HIT_ROOM
    counts = np.zeros(num_windows * k, dtype=np.int64)
    state = np.zeros(7 + k, dtype=np.int64)
    state[3] = -1
    positions = np.empty((k, room), dtype=np.int64)
    hit_scores = np.empty((k, room), dtype=np.int32)
    scores: Optional[np.ndarray] = None
    if keep_scores:
        sizes = _cell_sizes(rows, prepared.spans)
        score_at = np.concatenate([[0], np.cumsum(sizes)]).tolist()
        scores = np.empty(score_at[-1], dtype=np.int32)
    while True:
        status = library.fabp_scan_task(
            image.ctypes.data, image.size, rows.ctypes.data, num_windows,
            prepared.masks.ctypes.data, prepared.masks.size,
            prepared.elements.ctypes.data, prepared.spans.ctypes.data,
            limits.ctypes.data, k, counts.ctypes.data,
            positions.ctypes.data if room else None,
            hit_scores.ctypes.data if room else None, room,
            None if scores is None else scores.ctypes.data, state.ctypes.data,
        )
        if status == 0:
            break
        if status == -2:
            # A span the kernel has no fold for: past MAX_QUERY_ELEMENTS.
            check_query_elements(int(prepared.spans.max()))
        if status < 0:
            raise MemoryError("scan kernel could not allocate its planes")
        # A hit row is full: grow every row, keep what they hold, resume.
        room *= 4
        positions = _grown(positions, room)
        hit_scores = _grown(hit_scores, room)
    _obs_profile.record_fold_rows(int(state[4]), int(state[5]))
    fills = state[7:].tolist()
    kept: Optional[Tuple[np.ndarray, ...]] = None
    if scores is not None:
        # The kernel writes the scores cell after cell, cell (j, q) being
        # query q's window j: gather each query's cells into its row.
        cells = np.split(scores, score_at[1:-1])
        kept = tuple(np.concatenate([scores[:0], *cells[q::k]]) for q in range(k))
    scan = ScanRows(
        counts.reshape(num_windows, k),
        tuple(positions[q, : fills[q]].copy() for q in range(k)),
        tuple(hit_scores[q, : fills[q]].copy() for q in range(k)),
        kept,
    )
    return scan, int(state[6])


def _grown(rows: np.ndarray, room: int) -> np.ndarray:
    """``rows`` widened to ``room`` columns, its columns kept."""
    grown = np.empty((rows.shape[0], room), dtype=rows.dtype)
    grown[:, : rows.shape[1]] = rows
    return grown


#: Nucleotides of context *behind* a window start the comparator may read
#: (:func:`x_bit_rows` resolves wildcard codes from the two previous bases).
LOOKBACK = 2


def _window_codes(
    image: np.ndarray, offset: int, length: int, start: int, stop: int, span: int
) -> Tuple[np.ndarray, int]:
    """Unpack the codes a window needs; return ``(codes, lookback)``.

    The window's reference sits at byte ``offset`` of ``image``.  The codes
    cover ``[start - lookback, min(length, stop + span - 1))``, so a
    ``span``-element query scored over them sees every position of
    ``[start, stop)`` in full context at ``lookback`` onwards.
    """
    lookback = min(start, LOOKBACK)
    first = start - lookback
    end = min(length, stop + span - 1)
    packed = image[offset + first // 4 : offset + (end + 3) // 4]
    return packing.unpack(packed, end - first // 4 * 4)[first % 4 :], lookback


def _numpy_windows(
    image: np.ndarray,
    rows: np.ndarray,
    prepared: PreparedBatch,
    thresholds: Optional[Sequence[int]],
    keep_scores: bool,
) -> Tuple[ScanRows, int]:
    """:func:`scan_windows` on the NumPy body, one sweep per window.

    Each window is unpacked once with the *longest* query's halo and
    scored for the whole batch; a shorter query's extra trailing positions
    fall outside its cell.  Every element row counts as folded.
    """
    arrays = [prepared.distinct[row] for row in prepared.rows]
    sizes, max_span = _cell_sizes(rows, prepared.spans), int(prepared.spans.max())
    parts = []
    for j, (offset, length, start, stop) in enumerate(rows.tolist()):
        scores = [np.zeros(0, dtype=np.int32)] * len(arrays)
        if sizes[j].any():
            codes, lookback = _window_codes(image, offset, length, start, stop, max_span)
            scores = [
                window[lookback : lookback + size]
                for window, size in zip(_numpy_batch(arrays, codes), sizes[j])
            ]
        cells = []
        for q, kept in enumerate(scores):
            hits = np.zeros(0, dtype=np.int64)
            if thresholds is not None:
                hits = np.flatnonzero(kept >= thresholds[q])
            cells.append((hits, kept[hits], kept if keep_scores else None))
        parts.append(ScanRows.of_window(cells))
    tiles = -(-sizes // (WORD_BITS * native.TILE_WORDS))
    folded = int((tiles * prepared.spans).sum())
    _obs_profile.record_fold_rows(folded, folded)
    return ScanRows.join(parts, len(arrays), keep_scores), int(sizes.sum())


def hits_batch(
    instruction_batch: Sequence[np.ndarray],
    ref_codes: np.ndarray,
    thresholds: Optional[Sequence[int]],
    *,
    keep_scores: bool = False,
) -> List[QueryHits]:
    """Threshold ``k`` queries over every position of a reference, in one sweep.

    Query ``q``'s result lists the alignment positions whose score is at
    least ``thresholds[q]``, their scores, and — with ``keep_scores`` —
    the scores of every position; without ``thresholds`` it lists no hits.
    The reference (codes ``0..3``; any other raises ``ValueError``) is
    packed to 2 bits and scored by one :func:`scan_windows` call, so a
    query longer than :data:`~repro.core.contracts.MAX_QUERY_ELEMENTS`
    raises ``ValueError`` too.  The compiled fold writes no per-position
    score unless asked, and abandons each 512-position tile once no
    position in it can still reach the threshold.
    """
    if not instruction_batch:
        return []
    ref_codes = np.asarray(ref_codes)
    # Stop past the last position: every query keeps all of its own.
    window = (0, ref_codes.size, 0, ref_codes.size + 1)
    rows, _ = scan_windows(
        packing.pack(ref_codes), [window], prepare_batch(instruction_batch),
        thresholds, keep_scores,
    )
    scores = rows.scores or (None,) * len(instruction_batch)
    return list(zip(rows.positions, rows.hit_scores, scores))


@kernel_summary(("int32", 0, MAX_QUERY_ELEMENTS))
def scores_batch(
    instruction_batch: Sequence[np.ndarray], ref_codes: np.ndarray
) -> List[np.ndarray]:
    """Score ``k`` queries against one reference in a single sweep.

    The software analogue of ``k`` comparator arrays on one reference
    stream (§III-C): the comparator tables, match bitplanes and packed
    rows are computed **once** for the union of the batch's distinct
    instructions, then every query folds its rows over them.  Each result
    is bit-identical to :func:`packed_scores(instruction_batch[q],
    ref_codes)`; queries may have ragged lengths.  The kept scores of
    :func:`hits_batch` without thresholds.
    """
    return [
        scores
        for _, _, scores in hits_batch(instruction_batch, ref_codes, None, keep_scores=True)
    ]


@engine_contract("bitscore")
@engine_contract("bitscore_batch")
def scores(instructions: np.ndarray, ref_codes: np.ndarray) -> np.ndarray:
    """Bit-parallel scores of one query: a batch of one through :func:`scores_batch`.

    Both engine names resolve here.  ``bitscore_batch`` is the name the scan
    runtimes record; ``bitscore`` is the default of the single-query API.
    """
    return scores_batch([instructions], ref_codes)[0]
