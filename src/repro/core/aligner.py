"""Software golden model of FabP alignment (§III-C).

FabP slides the encoded query over the reference and, for each of the
``L_r - L_q + 1`` alignment positions, counts how many query elements match
(substitution-only scoring; no indels).  This module computes exactly the
scores the hardware produces, through several interchangeable engines:

* ``engine="bitscore"`` (default) and its alias ``"bitscore_batch"`` —
  the bit-parallel SWAR engine of :mod:`repro.core.bitscore`: packed match
  bitplanes summed by a carry-save vertical-counter popcount, the software
  analog of the hardware's Pop36 tree.  Its scores are
  :func:`repro.core.bitscore.scores`; ``align`` thresholds through
  :func:`repro.core.bitscore.hits_batch`, so the threshold stays inside
  the fold.  Both are one :func:`~repro.core.bitscore.scan_windows` call
  (compiled where a C compiler was found, NumPy elsewhere), which scan
  tasks call directly;
* ``engine="vectorized"`` — per-element numpy table gathers (the previous
  default, kept as an independent mid-speed implementation);
* ``engine="naive"`` — straight-line Python, used as a cross-check oracle
  in tests (and the easiest version to read against the paper).

Each entry here is one call to its engine.  Reference code arrays are
checked once, where they come in (:func:`repro.seq.packing.codes_from_array`).
A query longer than :data:`~repro.core.contracts.MAX_QUERY_ELEMENTS`, the
10-bit Pop36 envelope, raises ``ValueError`` on every engine, as the scans
do.  All engines are bit-identical (enforced by the property-test suite);
the LUT-level netlist model in :mod:`repro.accel` is verified against this
module on randomized inputs, so every representation agrees.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.core import backtranslate as bt
from repro.core import bitscore
from repro.core import comparator as cmp
from repro.core.contracts import MAX_QUERY_ELEMENTS, check_query_elements, engine_contract
from repro.core.encoding import EncodedQuery, encode_pattern, encode_query
from repro.obs import profile as _obs_profile
from repro.obs import state as _obs_state
from repro.seq import packing
from repro.seq.sequence import (
    DnaSequence,
    ProteinSequence,
    RnaSequence,
    as_protein,
    as_rna,
)

#: Anything the aligner accepts as a query: pre-encoded, protein, or letters.
QueryLike = Union[EncodedQuery, ProteinSequence, str]
#: Anything accepted as a reference: letters, sequence objects, or 2-bit codes.
ReferenceLike = Union[str, DnaSequence, RnaSequence, np.ndarray]


def _slotted(cls: type) -> type:
    """Dataclass ``cls`` rebuilt with ``__slots__`` and no ``__dict__``.

    What ``dataclass(slots=True)`` does from Python 3.10, written out for
    3.9: the class is recreated with one slot per field (the field
    defaults already live in the generated ``__init__``).  Pickling and
    copying set the slots through ``object.__setattr__``, past a frozen
    class's refusing ``__setattr__``.  Equality, hashing and ``str()`` are
    the dataclass's own.  Scans build one result per query and reference,
    one hit per passing position and one report per call, and callers
    keep them.
    """
    names = tuple(f.name for f in fields(cls))
    body = {
        key: value
        for key, value in cls.__dict__.items()
        if key not in names and key not in ("__dict__", "__weakref__")
    }
    body["__slots__"] = names

    def __getstate__(self):
        return tuple(getattr(self, name) for name in names)

    def __setstate__(self, state):
        for name, value in zip(names, state):
            object.__setattr__(self, name, value)

    body["__getstate__"] = __getstate__
    body["__setstate__"] = __setstate__
    return type(cls)(cls.__name__, cls.__bases__, body)


@_slotted
@dataclass(frozen=True)
class Hit:
    """One alignment position whose score cleared the threshold."""

    position: int
    score: int

    def __str__(self) -> str:
        return f"pos={self.position} score={self.score}"


@_slotted
@dataclass(frozen=True)
class AlignmentResult:
    """Result of aligning one encoded query against one reference."""

    query: EncodedQuery
    reference_name: str
    reference_length: int
    threshold: int
    hits: Tuple[Hit, ...]
    scores: Optional[np.ndarray] = field(default=None, compare=False)

    @property
    def max_score(self) -> int:
        """Best score over all positions (0 when the query does not fit)."""
        if self.scores is not None and self.scores.size:
            return int(self.scores.max())
        if self.hits:
            return max(h.score for h in self.hits)
        return 0

    @property
    def best_hit(self) -> Optional[Hit]:
        return max(self.hits, key=lambda h: (h.score, -h.position), default=None)

    @property
    def perfect_score(self) -> int:
        """The maximum achievable score, one per encoded element."""
        return len(self.query)

    def __str__(self) -> str:
        return (
            f"AlignmentResult({self.reference_name or '<ref>'}: "
            f"{len(self.hits)} hits >= {self.threshold}, max={self.max_score}/"
            f"{self.perfect_score})"
        )


def _coerce_query(query: QueryLike) -> EncodedQuery:
    if isinstance(query, EncodedQuery):
        return query
    return encode_query(query)


def _reference_codes(reference: ReferenceLike) -> Tuple[np.ndarray, str]:
    """``(codes, name)`` of a reference; bad code arrays raise ``ValueError``
    (:func:`repro.seq.packing.codes_from_array`)."""
    if isinstance(reference, np.ndarray):
        return packing.codes_from_array(reference), ""
    if isinstance(reference, str):
        return packing.codes_from_text(reference), ""
    rna = as_rna(reference)
    return packing.codes_from_text(rna.letters), rna.name


def resolve_threshold(
    query: EncodedQuery,
    threshold: Optional[int] = None,
    min_identity: Optional[float] = None,
) -> int:
    """Turn a user threshold spec into an absolute score.

    Exactly one of ``threshold`` (absolute element count) or ``min_identity``
    (fraction of the perfect score, 0..1) may be given; with neither, the
    default asks for 90 % identity, a sensible "high similarity" cut for the
    paper's use case.
    """
    if threshold is not None and min_identity is not None:
        raise ValueError("give either threshold or min_identity, not both")
    perfect = len(query)
    if threshold is not None:
        if not 0 <= threshold <= perfect:
            raise ValueError(
                f"threshold {threshold} outside [0, {perfect}] for this query"
            )
        return int(threshold)
    identity = 0.9 if min_identity is None else min_identity
    if not 0.0 <= identity <= 1.0:
        raise ValueError("min_identity must be within [0, 1]")
    return int(np.ceil(identity * perfect))


#: Per-position X-source bit arrays (shared with the SWAR engine).
_x_bit_arrays = bitscore.x_bit_rows

#: Engine names accepted by :func:`alignment_scores` and friends.
ENGINES = (
    "bitscore",
    "bitscore_batch",
    "vectorized",
    "naive",
)

#: The default scoring engine (the mandatory fast path).
DEFAULT_ENGINE = "bitscore"


@engine_contract("vectorized")
def _vectorized_scores(instructions: np.ndarray, ref_codes: np.ndarray) -> np.ndarray:
    """Per-element table-gather scoring (the pre-SWAR vectorized engine)."""
    num_elements = instructions.size
    num_positions = ref_codes.size - num_elements + 1
    if num_positions <= 0:
        return np.zeros(0, dtype=np.int32)
    tables, configs = cmp.instruction_tables(instructions)
    x_rows = _x_bit_arrays(ref_codes)
    scores = np.zeros(num_positions, dtype=np.int32)
    for i in range(num_elements):
        window = ref_codes[i : i + num_positions]
        config = int(configs[i])
        if config == 0:
            x = (instructions[i] >> 3) & 1
            scores += tables[i, x, window]
        else:
            x_bits = x_rows[config, i : i + num_positions]
            scores += tables[i, x_bits, window]
    return scores


@engine_contract("naive")
def _naive_scores(instructions: np.ndarray, ref_codes: np.ndarray) -> np.ndarray:
    """Straight-line Python scoring (the test oracle)."""
    instruction_list = [int(i) for i in instructions]
    num_positions = ref_codes.size - len(instruction_list) + 1
    if num_positions <= 0:
        return np.zeros(0, dtype=np.int32)
    scores = np.zeros(num_positions, dtype=np.int32)
    codes = [int(c) for c in ref_codes]
    for k in range(num_positions):
        total = 0
        for i, instruction in enumerate(instruction_list):
            pos = k + i
            prev1 = codes[pos - 1] if pos >= 1 else 0
            prev2 = codes[pos - 2] if pos >= 2 else 0
            if cmp.instruction_matches(instruction, codes[pos], prev1, prev2):
                total += 1
        scores[k] = total
    return scores


def _check_span(num_elements: int) -> None:
    """Refuse a query past :data:`~repro.core.contracts.MAX_QUERY_ELEMENTS`,
    as the scans do; an empty query scores as it always has."""
    if num_elements > MAX_QUERY_ELEMENTS:
        check_query_elements(num_elements)


def scores_from_codes(
    instructions: np.ndarray, ref_codes: np.ndarray, engine: str = DEFAULT_ENGINE
) -> np.ndarray:
    """Dispatch scoring of a raw instruction array over a code array.

    The one score dispatch every engine routes through.  A query longer
    than :data:`~repro.core.contracts.MAX_QUERY_ELEMENTS` raises
    ``ValueError`` on every engine.  With observability enabled
    (:mod:`repro.obs`) each dispatch records its engine, wall time, and
    positions scored; disabled, the guard is a single boolean check.
    """
    if not _obs_state.enabled():
        return _dispatch_scores(instructions, ref_codes, engine)
    start = time.perf_counter()
    scores = _dispatch_scores(instructions, ref_codes, engine)
    _obs_profile.record_score_call(
        engine, time.perf_counter() - start, int(scores.size)
    )
    return scores


def _dispatch_scores(
    instructions: np.ndarray, ref_codes: np.ndarray, engine: str
) -> np.ndarray:
    _check_span(np.size(instructions))
    if engine == "bitscore" or engine == "bitscore_batch":
        return bitscore.scores(instructions, ref_codes)
    if engine == "vectorized":
        return _vectorized_scores(instructions, ref_codes)
    if engine == "naive":
        return _naive_scores(instructions, ref_codes)
    raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")


def alignment_scores(
    query: QueryLike, reference: ReferenceLike, *, engine: str = DEFAULT_ENGINE
) -> np.ndarray:
    """Scores of all ``L_r - L_q + 1`` alignment positions.

    ``query`` is an :class:`EncodedQuery`, protein sequence or string;
    ``reference`` is an RNA/DNA sequence, string, or a 2-bit code array.
    Returns an empty array when the query is longer than the reference.
    ``engine`` selects the implementation (:data:`ENGINES`); the default
    bit-parallel engine is bit-identical to every other.
    """
    encoded = _coerce_query(query)
    ref_codes, _ = _reference_codes(reference)
    return scores_from_codes(encoded.as_array(), ref_codes, engine)


def alignment_scores_naive(query: QueryLike, reference: ReferenceLike) -> np.ndarray:
    """Reference implementation with explicit loops (test oracle)."""
    encoded = _coerce_query(query)
    ref_codes, _ = _reference_codes(reference)
    return _dispatch_scores(encoded.as_array(), ref_codes, "naive")


# The extended alphabet has 21 letters, so 32 entries hold every residue a
# long-lived service can ever ask for while keeping the cache *bounded*
# (maxsize=None would grow without limit if keys ever diversified).
# Effectiveness is observable via the fabp_encoding_cache_* gauges.
@lru_cache(maxsize=32)
def _extended_residue_tables(
    residue: str,
) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Per-amino-acid extended-mode tables, computed once per process.

    For each of the residue's patterns: ``(instructions, tables, configs)``
    as produced by :func:`repro.core.encoding.encode_pattern` and
    :func:`repro.core.comparator.instruction_tables`.  Extended mode used to
    re-encode and re-tabulate every pattern per residue *per call*; the
    cache removes that constant work.
    """
    patterns = bt.EXTENDED_TABLE[residue]
    entries = []
    for pattern in patterns:
        instrs = np.asarray(encode_pattern(pattern), dtype=np.uint8)
        tables, configs = cmp.instruction_tables(instrs)
        instrs.setflags(write=False)
        tables.setflags(write=False)
        configs.setflags(write=False)
        entries.append((instrs, tables, configs))
    return tuple(entries)


def alignment_scores_extended(
    protein: Union[ProteinSequence, str], reference: ReferenceLike
) -> np.ndarray:
    """Extended-mode scores: per residue, the best of *all* its patterns.

    This removes the paper's Serine approximation (see DESIGN.md).  It is a
    software-only extension: per residue the score contribution is the
    maximum over that residue's patterns, so six-codon amino acids get full
    sensitivity.  Hardware cost of this mode is estimated in
    :mod:`repro.accel.resources`.
    """
    ref_codes, _ = _reference_codes(reference)
    sequence = as_protein(protein)
    num_elements = 3 * len(sequence)
    _check_span(num_elements)
    num_positions = ref_codes.size - num_elements + 1
    if num_positions <= 0:
        return np.zeros(0, dtype=np.int32)
    x_rows = _x_bit_arrays(ref_codes)
    scores = np.zeros(num_positions, dtype=np.int32)
    for residue_index, residue in enumerate(sequence.letters):
        best = np.zeros(num_positions, dtype=np.int32)
        for instrs, tables, configs in _extended_residue_tables(residue):
            partial = np.zeros(num_positions, dtype=np.int32)
            for j in range(3):
                i = 3 * residue_index + j
                window = ref_codes[i : i + num_positions]
                config = int(configs[j])
                if config == 0:
                    x = (int(instrs[j]) >> 3) & 1
                    partial += tables[j, x, window]
                else:
                    x_bits = x_rows[config, i : i + num_positions]
                    partial += tables[j, x_bits, window]
            np.maximum(best, partial, out=best)
        scores += best
    if _obs_state.enabled():
        info = _extended_residue_tables.cache_info()
        _obs_profile.record_encoding_cache(info.hits, info.misses, info.currsize)
    return scores


def align(
    query: QueryLike,
    reference: ReferenceLike,
    *,
    threshold: Optional[int] = None,
    min_identity: Optional[float] = None,
    keep_scores: bool = False,
    engine: str = DEFAULT_ENGINE,
) -> AlignmentResult:
    """Align a protein query against one reference; return thresholded hits.

    This is the library's primary one-call API — back-translation, encoding,
    scoring and thresholding in one step, mirroring the accelerator's
    end-to-end behaviour (the hardware writes back exactly the positions
    whose score clears the threshold).  ``engine`` selects the scoring
    implementation (:data:`ENGINES`); all of them are bit-identical.  The
    call is one engine call: :func:`repro.core.bitscore.hits_batch` for the
    bitscore names, the engine's scores and ``np.flatnonzero`` for the
    others.  A query longer than
    :data:`~repro.core.contracts.MAX_QUERY_ELEMENTS` raises ``ValueError``.
    """
    encoded = _coerce_query(query)
    ref_codes, ref_name = _reference_codes(reference)
    resolved = resolve_threshold(encoded, threshold, min_identity)
    instructions = encoded.as_array()
    began = time.perf_counter()
    if engine in ("bitscore", "bitscore_batch"):
        # The threshold stays inside the fold: no score is written unless kept.
        ((positions, hit_scores, scores),) = bitscore.hits_batch(
            [instructions], ref_codes, [resolved], keep_scores=keep_scores
        )
    else:
        all_scores = _dispatch_scores(instructions, ref_codes, engine)
        positions = np.flatnonzero(all_scores >= resolved)
        hit_scores = all_scores[positions]
        scores = all_scores if keep_scores else None
    if _obs_state.enabled():
        _obs_profile.record_score_call(
            engine,
            time.perf_counter() - began,
            max(0, ref_codes.size - instructions.size + 1),
        )
    return AlignmentResult(
        query=encoded,
        reference_name=ref_name,
        reference_length=int(ref_codes.size),
        threshold=resolved,
        hits=tuple(Hit(int(p), int(h)) for p, h in zip(positions, hit_scores)),
        scores=scores,
    )


def iter_reference_codes(
    references: Iterable[ReferenceLike],
) -> Iterator[Tuple[np.ndarray, str]]:
    """Coerce references to ``(codes, name)`` pairs, parsing each only once.

    Pre-packed 2-bit code arrays pass through without any re-parsing.
    """
    for reference in references:
        yield _reference_codes(reference)


def search_database(
    query: QueryLike,
    references: Iterable[ReferenceLike],
    *,
    threshold: Optional[int] = None,
    min_identity: Optional[float] = None,
    keep_scores: bool = False,
    workers: int = 1,
    chunk_size: Optional[int] = None,
) -> List[AlignmentResult]:
    """Align one query against many references; results in input order.

    This is :func:`repro.host.scan.scan_database`: the references are
    packed into one 2-bit image (pre-packed code arrays are taken without
    re-parsing; a code outside 0..3 raises ``ValueError``) and scanned on
    ``workers`` threads, ``chunk_size`` references per work item if given.
    A query that is empty or longer than
    :data:`~repro.core.contracts.MAX_QUERY_ELEMENTS` raises ``ValueError``.
    """
    # Local import: repro.host sits above repro.core in the layering.
    from repro.host.scan import scan_database

    return scan_database(  # type: ignore[return-value]
        query,
        references,
        threshold=threshold,
        min_identity=min_identity,
        keep_scores=keep_scores,
        workers=workers,
        chunk_size=chunk_size,
    )
