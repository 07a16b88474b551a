"""Every scoring entry keeps the scans' envelope, on both bodies.

FabP's Pop36 counter holds a 10-bit score, so a query of more than
``MAX_QUERY_ELEMENTS`` = 750 elements is refused with the message of
``contracts.check_query_elements``, by ``align``, the ``alignment_scores*``
functions, ``scores_from_codes`` on every engine and the ``bitscore``
entries (through ``prepare_batch``), on the compiled kernel and on its NumPy
body alike.  Raw instruction arrays are refused at 751 elements; an encoded
protein grows three elements a residue, so the aligner's entries are shown
251 residues (753 elements).  A query of exactly 750 elements equals
``naive`` at every position, with tiles abandoned (a high threshold) and
without (threshold 0, kept scores).  An empty query keeps its result: every
position scores 0.  ``encode_query`` still encodes past the envelope, for
the cycle model's segment plans.  The scans' own rows are in
``tests/host/test_query_envelope.py``.
"""

import functools

import numpy as np
import pytest
from tests.core.test_scan_kernel import BATCH_KERNELS, batch_kernel

from repro import obs
from repro.core import bitscore
from repro.core.aligner import (
    ENGINES,
    align,
    alignment_scores,
    alignment_scores_extended,
    alignment_scores_naive,
    scores_from_codes,
)
from repro.core.contracts import MAX_QUERY_ELEMENTS
from repro.core.encoding import encode_query
from repro.obs import REGISTRY
from repro.seq import packing
from repro.seq.generate import random_protein
from repro.seq.packing import codes_from_text
from repro.workloads.builder import encode_protein_as_rna

_rng = np.random.default_rng(35)
#: 250 residues: exactly MAX_QUERY_ELEMENTS elements.
PROTEIN = random_protein(250, rng=_rng)
#: Three tiles and a bit of positions, with a copy of PROTEIN's
#: back-translation planted at 1,300.
CODES = _rng.integers(0, 4, 3 * 512 + 40 + 749).astype(np.uint8)
CODES[1300 : 1300 + 750] = codes_from_text(encode_protein_as_rna(PROTEIN, rng=_rng).letters)
#: 751 raw instructions of every weight, look-back ones included.
RAW = _rng.integers(0, 64, MAX_QUERY_ELEMENTS + 1).astype(np.uint8)
LONG = "M" * 251


def _scan_windows(instructions):
    return bitscore.scan_windows(
        packing.pack(CODES), [(0, CODES.size, 0, CODES.size)],
        bitscore.prepare_batch([instructions]), [0], False,
    )


#: Every scoring entry, with the element count its query has.
ENTRIES = {
    **{f"align-{e}": (lambda e=e: align(LONG, CODES, engine=e), 753) for e in ENGINES},
    **{
        f"alignment_scores-{e}": (lambda e=e: alignment_scores(LONG, CODES, engine=e), 753)
        for e in ENGINES
    },
    "alignment_scores_naive": (lambda: alignment_scores_naive(LONG, CODES), 753),
    "alignment_scores_extended": (lambda: alignment_scores_extended(LONG, CODES), 753),
    **{
        f"scores_from_codes-{e}": (lambda e=e: scores_from_codes(RAW, CODES, e), 751)
        for e in ENGINES
    },
    "bitscore.scores": (lambda: bitscore.scores(RAW, CODES), 751),
    "scores_batch": (lambda: bitscore.scores_batch([RAW[:9], RAW], CODES), 751),
    "hits_batch": (lambda: bitscore.hits_batch([RAW[:9], RAW], CODES, [0, 700]), 751),
    "scan_windows": (lambda: _scan_windows(RAW), 751),
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("kernel", BATCH_KERNELS)
def test_past_the_envelope_is_refused(kernel, entry):
    call, elements = ENTRIES[entry]
    with batch_kernel(kernel), pytest.raises(
        ValueError, match=f"{elements} elements.*MAX_QUERY_ELEMENTS = 750"
    ):
        call()


def _fold_rows(call):
    """``call()`` with observability on: its result and its folded and
    nominal element rows (none on the engines that do not fold)."""
    obs.reset()
    obs.enable()
    try:
        result = call()
        for family in REGISTRY.families():
            if family.name == "fabp_fold_rows_total":
                folded = family.labels(outcome="folded").value
                return result, folded, folded + family.labels(outcome="skipped").value
        return result, 0, 0
    finally:
        obs.disable()
        obs.reset()


@functools.lru_cache(maxsize=None)
def _naive_scores():
    """``naive`` scores of PROTEIN and of the first 750 raw instructions."""
    return (
        alignment_scores_naive(PROTEIN, CODES),
        scores_from_codes(RAW[:MAX_QUERY_ELEMENTS], CODES, "naive"),
    )


@pytest.mark.parametrize("kernel", BATCH_KERNELS)
def test_750_elements_match_naive(kernel):
    encoded = encode_query(PROTEIN)
    assert len(encoded) == MAX_QUERY_ELEMENTS
    want, raw_want = _naive_scores()
    high = int(want.max())
    assert want[1300] == high > 675
    # The naive engine runs no body of scan_windows: once is enough.
    engines = [e for e in ENGINES if e != "naive" or kernel == BATCH_KERNELS[0]]
    with batch_kernel(kernel):
        for engine in engines:
            assert np.array_equal(alignment_scores(encoded, CODES, engine=engine), want)
            assert np.array_equal(scores_from_codes(RAW[:750], CODES, engine), raw_want)
            # Tiles without the planted copy are abandoned on the compiled kernel.
            result, folded, nominal = _fold_rows(
                lambda: align(encoded, CODES, threshold=high, engine=engine)
            )
            assert [(h.position, h.score) for h in result.hits] == [
                (int(p), int(want[p])) for p in np.flatnonzero(want >= high)
            ]
            if engine.startswith("bitscore") and bitscore.batch_kernel() == "native":
                assert folded < nominal
            # Threshold 0 with kept scores folds every row.
            result, folded, nominal = _fold_rows(
                lambda: align(encoded, CODES, threshold=0, keep_scores=True, engine=engine)
            )
            assert np.array_equal(result.scores, want)
            assert [h.position for h in result.hits] == list(range(want.size))
            assert folded == nominal
        hits = bitscore.hits_batch([encoded.as_array()] * 2, CODES, [high, 0], keep_scores=True)
        for threshold, (positions, hit_scores, kept) in zip((high, 0), hits):
            assert np.array_equal(positions, np.flatnonzero(want >= threshold))
            assert np.array_equal(hit_scores, want[positions])
            assert np.array_equal(kept, want)


@pytest.mark.parametrize("kernel", BATCH_KERNELS)
def test_empty_query_keeps_its_result(kernel):
    """Every position of a 40-nt reference, 41 of them, scores 0."""
    codes = CODES[:40]
    with batch_kernel(kernel):
        for engine in ENGINES:
            assert alignment_scores("", codes, engine=engine).tolist() == [0] * 41
            empty = np.zeros(0, dtype=np.uint8)
            assert scores_from_codes(empty, codes, engine).tolist() == [0] * 41
            result = align("", codes, threshold=0, keep_scores=True, engine=engine)
            assert [h.position for h in result.hits] == list(range(41))
            assert result.scores.tolist() == [0] * 41
        assert alignment_scores_naive("", codes).tolist() == [0] * 41
        assert alignment_scores_extended("", codes).tolist() == [0] * 41
        ((positions, hit_scores, _),) = bitscore.hits_batch([empty], codes, [0])
        assert positions.tolist() == list(range(41)) and not hit_scores.any()


def test_encode_query_still_encodes_past_the_envelope():
    assert len(encode_query("M" * 400)) == 1200
