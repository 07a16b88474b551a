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
   whose count clears the threshold.  :func:`hits_batch` does the same in
   the compiled fold: the counter planes are compared with the threshold
   bit-sliced, only 16-position groups holding a hit are decoded, and the
   passing ``(position, score)`` pairs are all it returns — no int32
   score per position is written unless the caller keeps the scores.

The batched sweep :func:`scores_batch` runs this datapath compiled
(``scan_kernel.c``, loaded by :mod:`repro.core.native`) wherever a C
compiler was found, and its NumPy body everywhere else.  The ``bitscore``
engine, :func:`scores`, is a batch of one through it: every caller, one
query or many, scores on the same path.  The compiled path has one entry
point, :func:`scan_windows`: a scan task hands it windows of the packed
2-bit database image, and :func:`hits_batch` and :func:`scores_batch`
pack their reference codes and hand it one window.  ``align`` thresholds
through :func:`repro.core.aligner.hits_batch_from_codes`, which calls
:func:`hits_batch` where the kernel was built and thresholds
:func:`scores_batch` output itself elsewhere.  :func:`packed_scores` is
the same datapath one query at a time in NumPy, kept as the sequential
side of the batch-amortization benchmark.

Every path is bit-identical to :func:`repro.core.aligner.alignment_scores_naive`
(enforced by the property-test suite in ``tests/property``).
"""

from __future__ import annotations

import ctypes
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core import comparator as cmp
from repro.core import native
from repro.core.contracts import MAX_QUERY_ELEMENTS, engine_contract, kernel_summary
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
    if len(planes) <= 14:
        # Counts are bounded by MAX_QUERY_ELEMENTS, so the weighted sum
        # fits int16 — half the reduction bandwidth of an int32 einsum.
        weights16 = (1 << np.arange(len(planes))).astype(np.int16)
        return np.einsum(
            "l,lp->p", weights16, bits, dtype=np.int16, casting="unsafe"
        ).astype(np.int32)
    weights = (1 << np.arange(len(planes))).astype(np.int64)
    return np.einsum(
        "l,lp->p", weights, bits, dtype=np.int64, casting="unsafe"
    ).astype(np.int32)


def _numpy_batch(
    arrays: List[np.ndarray],
    active: List[int],
    ref_codes: np.ndarray,
    results: List[Optional[np.ndarray]],
) -> None:
    """The NumPy body of :func:`scores_batch`: fills ``results[q]`` for ``active``."""
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
# fails, ``_NATIVE`` is None and the NumPy body runs.
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


#: Hit entries each query's row starts with in a task call: two tiles'
#: worth.  A tile writes at most ``64 * TILE_WORDS`` hits; the kernel stops
#: before a tile that might not fit, and the row grows and the call resumes.
HIT_ROOM = 2 * WORD_BITS * native.TILE_WORDS


def batch_kernel() -> str:
    """The body :func:`scores_batch` runs in this process: ``native`` or ``numpy``."""
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
    """The :class:`PreparedBatch` of ``instruction_batch`` (at least one query)."""
    arrays = [np.asarray(a, dtype=np.uint8).ravel() for a in instruction_batch]
    distinct, concat_rows = np.unique(np.concatenate(arrays), return_inverse=True)
    elements = np.ascontiguousarray(concat_rows, dtype=np.int32).ravel()
    spans = np.array([array.size for array in arrays], dtype=np.int64)
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
    """Score a batch over windows of a packed 2-bit image in one kernel call.

    ``image`` is packed as :func:`repro.seq.packing.pack` packs it, one
    reference after another from byte offsets; each window is ``(byte
    offset, length, start, stop)``, and query ``q`` of span ``s`` is scored
    at its alignment positions ``[start, min(stop, length - s + 1))``.
    Returns the call's :class:`ScanRows` and the number of positions
    scored.  Without ``thresholds`` no hits are written (the score rows
    only, with ``keep_scores``).  The compiled kernel must be loaded.  Its
    element rows folded and skipped go to observability, when enabled.
    """
    library = _NATIVE
    if library is None:
        raise RuntimeError("scan_windows needs the compiled kernel")
    k = int(prepared.spans.size)
    image = np.ascontiguousarray(image, dtype=np.uint8)
    rows = np.ascontiguousarray(windows, dtype=np.int64).reshape(-1, 4)
    num_windows = rows.shape[0]
    # The kernel reads from each byte offset up to the reference's or the
    # image's end, whichever comes first, and from each start onwards.
    if num_windows and rows.min() < 0:
        raise ValueError("scan windows need non-negative offsets, lengths and bounds")
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
        # Cell (j, q) keeps [start, min(stop, length - span + 1)).
        stops = np.minimum(rows[:, 3:], rows[:, 1:2] - prepared.spans + 1)
        sizes = np.maximum(0, stops - rows[:, 2:3]).ravel()
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
    rows = ScanRows(
        counts.reshape(num_windows, k),
        tuple(positions[q, : fills[q]].copy() for q in range(k)),
        tuple(hit_scores[q, : fills[q]].copy() for q in range(k)),
        kept,
    )
    return rows, int(state[6])


def _grown(rows: np.ndarray, room: int) -> np.ndarray:
    """``rows`` widened to ``room`` columns, its columns kept."""
    grown = np.empty((rows.shape[0], room), dtype=rows.dtype)
    grown[:, : rows.shape[1]] = rows
    return grown


def hits_batch(
    instruction_batch: Sequence[np.ndarray],
    ref_codes: np.ndarray,
    thresholds: Sequence[int],
    bounds: Sequence[Tuple[int, int]],
    *,
    keep_scores: bool = False,
) -> Optional[List[QueryHits]]:
    """Threshold ``k`` queries inside the compiled fold, in one sweep.

    Query ``q`` is scored at alignment positions ``bounds[q] = (lo, hi)``
    (``0 <= lo <= hi <= L_r - L_q + 1``); its result lists the positions
    ``p`` whose score is at least ``thresholds[q]`` as ``p - lo``, their
    scores, and — with ``keep_scores`` — the scores of all of
    ``[lo, hi)``.  No per-position score is written otherwise, and the
    fold abandons each 512-position tile once no position in it can still
    reach the threshold.  The reference is packed to 2 bits and scored
    through :func:`scan_windows`, one call per distinct bound (one call
    when every query keeps the positions it has from a common start).
    ``None`` when the compiled kernel cannot run here (it was not built,
    or a code is outside ``0..3``): the caller scores with
    :func:`scores_batch` and thresholds the scores itself
    (:func:`repro.core.aligner.hits_batch_from_codes`).
    """
    ref_codes = np.asarray(ref_codes, dtype=np.uint8)
    if _NATIVE is None or (ref_codes.size and ref_codes.max() > 3):
        return None
    arrays = [
        np.asarray(instructions, dtype=np.uint8).ravel()
        for instructions in instruction_batch
    ]
    length = ref_codes.size
    for array, (lo, hi) in zip(arrays, bounds):
        # A negative lo would score before the reference, a hi past the
        # last position would score past it.
        if not 0 <= lo <= hi <= max(0, length - array.size + 1):
            raise ValueError(
                f"bounds [{lo}, {hi}) outside the {array.size}-element "
                f"query's positions on {length} nt"
            )
    if not arrays:
        return []
    return _scan_codes(arrays, ref_codes, thresholds, bounds, keep_scores)


def _scan_codes(
    arrays: List[np.ndarray],
    ref_codes: np.ndarray,
    thresholds: Optional[Sequence[int]],
    bounds: Sequence[Tuple[int, int]],
    keep_scores: bool,
) -> List[QueryHits]:
    """:func:`hits_batch` over valid bounds (no hits without ``thresholds``)."""
    length = ref_codes.size
    results: List[Optional[QueryHits]] = [None] * len(arrays)
    # A window (0, length, lo, stop) keeps [lo, min(stop, positions)): one
    # window serves every query whose bound it reproduces.
    groups: dict = {}
    for q, (array, (lo, hi)) in enumerate(zip(arrays, bounds)):
        if lo >= hi:
            empty = np.zeros(0, dtype=np.int32)
            results[q] = (
                np.zeros(0, dtype=np.int64), empty, empty.copy() if keep_scores else None
            )
            continue
        stop = hi if hi < length - array.size + 1 else length + 1
        groups.setdefault((lo, stop), []).append(q)
    image = packing.pack(ref_codes)
    for (lo, stop), members in groups.items():
        rows, _ = scan_windows(
            image, [(0, length, lo, stop)],
            prepare_batch([arrays[q] for q in members]),
            None if thresholds is None else [thresholds[q] for q in members],
            keep_scores,
        )
        scores = rows.scores or (None,) * len(members)
        for q, cell in zip(members, zip(rows.positions, rows.hit_scores, scores)):
            results[q] = cell
    return results  # type: ignore[return-value]


@kernel_summary(("int32", 0, MAX_QUERY_ELEMENTS))
def scores_batch(
    instruction_batch: Sequence[np.ndarray], ref_codes: np.ndarray
) -> List[np.ndarray]:
    """Score ``k`` queries against one reference in a single sweep.

    The software analogue of ``k`` comparator arrays on one reference
    stream (§III-C): the comparator tables, match bitplanes and packed
    rows are computed **once** for the union of the batch's distinct
    instructions, then every query folds zero-copy views of the shared
    rows.  Each result is bit-identical to
    :func:`packed_scores(instruction_batch[q], ref_codes)`; queries may
    have ragged lengths.  The compiled kernel runs when it was built;
    otherwise, or for codes outside ``0..3``, the NumPy body does.
    """
    ref_codes = np.asarray(ref_codes, dtype=np.uint8)
    arrays = [
        np.asarray(instructions, dtype=np.uint8).ravel()
        for instructions in instruction_batch
    ]
    results: List[Optional[np.ndarray]] = [None] * len(arrays)
    active: List[int] = []
    for q, instructions in enumerate(arrays):
        num_positions = ref_codes.size - instructions.size + 1
        if num_positions <= 0:
            results[q] = np.zeros(0, dtype=np.int32)
        elif instructions.size == 0:
            results[q] = np.zeros(num_positions, dtype=np.int32)
        else:
            active.append(q)
    if active:
        if _NATIVE is not None and ref_codes.max() <= 3:
            folded = _scan_codes(
                [arrays[q] for q in active], ref_codes, None,
                [(0, ref_codes.size - arrays[q].size + 1) for q in active],
                True,
            )
            for q, (_, _, scores) in zip(active, folded):
                results[q] = scores
        else:
            _numpy_batch(arrays, active, ref_codes, results)
    return [result for result in results if result is not None]


@engine_contract("bitscore")
@engine_contract("bitscore_batch")
def scores(instructions: np.ndarray, ref_codes: np.ndarray) -> np.ndarray:
    """Bit-parallel scores of one query: a batch of one through :func:`scores_batch`.

    Both engine names resolve here.  ``bitscore_batch`` is the name the scan
    runtimes record; ``bitscore`` is the default of the single-query API.
    """
    return scores_batch([instructions], ref_codes)[0]
