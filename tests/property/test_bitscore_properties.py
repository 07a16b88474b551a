"""Property tests: the SWAR engine is bit-identical to every other engine.

The acceptance bar for the bit-parallel fast path is exact equivalence with
the straight-line Python oracle on arbitrary inputs — including the edges
the hardware cares about: queries longer than the reference, all-Type-III
instruction streams (Leu/Arg/Ser/Stop), and references shorter than the
3-nt look-back window.
"""

import contextlib
import functools
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tests.core.test_scan_kernel import (
    BLOCK,
    CODE_ONLY,
    PALETTE,
    _assert_task_is_naive,
    _Reference,
)

from repro.core import bitscore
from repro.core.aligner import (
    alignment_scores,
    alignment_scores_naive,
    hits_batch_from_codes,
    scores_from_codes,
    search_database,
)
from repro.core.encoding import encode_query
from repro.seq import alphabet
from repro.seq.generate import random_protein
from repro.seq.packing import codes_from_text
from repro.workloads.builder import encode_protein_as_rna

proteins = st.text(
    alphabet=sorted(alphabet.AMINO_ACIDS_WITH_STOP), min_size=1, max_size=12
)
#: Queries drawn only from residues whose patterns carry Type III elements
#: (dependent look-back matches): Leu, Arg, Ser, Stop.
type_iii_proteins = st.text(alphabet=sorted("LRS*"), min_size=1, max_size=10)
rna_strings = st.text(
    alphabet=sorted(alphabet.RNA_NUCLEOTIDES), min_size=1, max_size=300
)
#: References shorter than the 3-nt look-back window (the boundary reads
#: nucleotide A, matching the hardware stream-buffer reset).
tiny_rna = st.text(alphabet=sorted(alphabet.RNA_NUCLEOTIDES), min_size=1, max_size=2)


#: The bodies of ``bitscore.scores_batch``: the compiled kernel (where it
#: was built) and the NumPy body every host without a compiler runs.
BATCH_KERNELS = ("native", "numpy")


@contextlib.contextmanager
def batch_kernel(kernel):
    """Run the block on one body of ``scores_batch``."""
    with pytest.MonkeyPatch.context() as patch:
        if kernel == "numpy":
            patch.setattr(bitscore, "_NATIVE", None)
        yield


def _assert_all_engines_agree(protein, reference):
    encoded = encode_query(protein)
    codes = codes_from_text(reference)
    oracle = alignment_scores_naive(encoded, codes)
    packed = bitscore.packed_scores(encoded.as_array(), codes)
    vectorized = alignment_scores(encoded, codes, engine="vectorized")
    assert np.array_equal(packed, oracle)
    assert np.array_equal(vectorized, oracle)
    for kernel in BATCH_KERNELS:
        with batch_kernel(kernel):
            auto = alignment_scores(encoded, codes)  # default = bitscore
        assert np.array_equal(auto, oracle), kernel


class TestEngineEquivalence:
    """Every engine equals ``naive``.

    The default engine runs on each body of ``scores_batch`` in turn.
    """

    @given(protein=proteins, reference=rna_strings)
    @settings(max_examples=40, deadline=None)
    def test_random_queries_and_references(self, protein, reference):
        _assert_all_engines_agree(protein, reference)

    @given(protein=type_iii_proteins, reference=rna_strings)
    @settings(max_examples=40, deadline=None)
    def test_all_type_iii_queries(self, protein, reference):
        """Leu/Arg/Ser/Stop-only queries: every element exercises the mux."""
        _assert_all_engines_agree(protein, reference)

    @given(protein=proteins, reference=tiny_rna)
    @settings(max_examples=30, deadline=None)
    def test_reference_shorter_than_lookback(self, protein, reference):
        """L_r < 3 exercises the missing look-back edge; usually L_q > L_r."""
        _assert_all_engines_agree(protein, reference)

    @given(
        protein=st.text(
            alphabet=sorted(alphabet.AMINO_ACIDS_WITH_STOP), min_size=4, max_size=12
        ),
        reference=st.text(
            alphabet=sorted(alphabet.RNA_NUCLEOTIDES), min_size=1, max_size=11
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_query_longer_than_reference(self, protein, reference):
        """L_q (elements) >= 12 > L_r: all engines return the empty array."""
        encoded = encode_query(protein)
        codes = codes_from_text(reference)
        assert alignment_scores_naive(encoded, codes).size == 0
        assert bitscore.packed_scores(encoded.as_array(), codes).size == 0
        for kernel in BATCH_KERNELS:
            with batch_kernel(kernel):
                assert alignment_scores(encoded, codes).size == 0, kernel

    @given(protein=proteins, reference=rna_strings)
    @settings(max_examples=20, deadline=None)
    def test_search_database_engine_consistency(self, protein, reference):
        """Hits are identical whichever engine the search routes through."""
        naive = search_database(
            protein, [reference], min_identity=0.3, engine="naive"
        )
        for kernel in BATCH_KERNELS:
            with batch_kernel(kernel):
                default = search_database(protein, [reference], min_identity=0.3)
            assert [r.hits for r in default] == [r.hits for r in naive], kernel


class TestBatchEquivalence:
    """One shared sweep over k queries == k independent sweeps, bit for bit.

    Every example runs on each body of ``scores_batch`` in turn.
    """

    @given(
        batch=st.lists(proteins, min_size=1, max_size=6),
        reference=rna_strings,
    )
    @settings(max_examples=30, deadline=None)
    def test_ragged_batch_matches_per_query_sweeps(self, batch, reference):
        from repro.core.aligner import scores_batch_from_codes

        arrays = [encode_query(p).as_array() for p in batch]
        codes = codes_from_text(reference)
        # One query at a time, outside scores_batch.
        solo = [bitscore.packed_scores(a, codes) for a in arrays]
        for kernel in BATCH_KERNELS:
            with batch_kernel(kernel):
                for engine in ("bitscore_batch", "bitscore", "vectorized"):
                    shared = scores_batch_from_codes(arrays, codes, engine)
                    assert len(shared) == len(solo)
                    for got, want in zip(shared, solo):
                        assert got.dtype == want.dtype
                        assert np.array_equal(got, want), (kernel, engine)

    @given(protein=type_iii_proteins, reference=rna_strings)
    @settings(max_examples=25, deadline=None)
    def test_batch_of_one_is_the_plain_sweep(self, protein, reference):
        from repro.core.aligner import scores_batch_from_codes

        array = encode_query(protein).as_array()
        codes = codes_from_text(reference)
        want = bitscore.packed_scores(array, codes)
        for kernel in BATCH_KERNELS:
            with batch_kernel(kernel):
                (got,) = scores_batch_from_codes([array], codes, "bitscore_batch")
            assert np.array_equal(got, want), kernel

    @given(
        protein=proteins,
        reference=rna_strings,
        copies=st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=20, deadline=None)
    def test_duplicate_queries_score_identically(self, protein, reference, copies):
        """The shared planes must not cross-talk between identical lanes."""
        from repro.core.aligner import scores_batch_from_codes

        arrays = [encode_query(protein).as_array() for _ in range(copies)]
        codes = codes_from_text(reference)
        for kernel in BATCH_KERNELS:
            with batch_kernel(kernel):
                shared = scores_batch_from_codes(arrays, codes, "bitscore_batch")
            for got in shared[1:]:
                assert np.array_equal(got, shared[0]), kernel


#: Thresholds relative to a query's span: every position a hit (the hit
#: buffers fill up), the lowest non-trivial cut, a middle cut, only perfect
#: matches, and none at all.
THRESHOLD_KINDS = ("zero", "one", "middle", "span", "past-span")


def _threshold(kind, span):
    return {
        "zero": 0, "one": 1, "middle": span // 2, "span": span, "past-span": span + 1
    }[kind]


def _assert_hits_are_naive(arrays, codes, thresholds, start, stop, keep_scores):
    """``hits_batch_from_codes`` == ``np.nonzero(naive >= t)`` over ``[lo, hi)``."""
    for kernel in BATCH_KERNELS:
        with batch_kernel(kernel):
            got = hits_batch_from_codes(
                arrays, codes, thresholds, "bitscore_batch",
                start=start, stop=stop, keep_scores=keep_scores,
            )
        assert len(got) == len(arrays)
        for array, threshold, (positions, hit_scores, scores) in zip(
            arrays, thresholds, got
        ):
            naive = scores_from_codes(array, codes, "naive")
            hi = max(0, min(stop, naive.size))
            lo = min(start, hi)
            kept = naive[lo:hi]
            want = np.nonzero(kept >= threshold)[0]
            where = (kernel, array.size, threshold, lo, hi)
            assert positions.dtype == np.int64 and hit_scores.dtype == np.int32, where
            assert np.array_equal(positions, want), where
            assert np.array_equal(hit_scores, kept[want]), where
            if threshold <= 0:
                assert positions.size == hi - lo, where
            if keep_scores:
                assert scores.dtype == np.int32, where
                assert np.array_equal(scores, kept), where
            else:
                assert scores is None, where


class TestFusedThreshold:
    """The thresholded scan keeps exactly the naive oracle's hits in its window.

    Every example runs on each body of ``scores_batch`` in turn: the
    compiled kernel thresholds inside its fold, the NumPy body scores and
    thresholds in ``hits_batch_from_codes``.
    """

    @given(
        batch=st.lists(proteins, min_size=1, max_size=4),
        reference=st.text(
            alphabet=sorted(alphabet.RNA_NUCLEOTIDES), min_size=1, max_size=1200
        ),
        kinds=st.lists(st.sampled_from(THRESHOLD_KINDS), min_size=4, max_size=4),
        lookback=st.integers(min_value=0, max_value=2),
        count=st.integers(min_value=0, max_value=1200),
        keep_scores=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_windows_and_thresholds(
        self, batch, reference, kinds, lookback, count, keep_scores
    ):
        arrays = [encode_query(p).as_array() for p in batch]
        thresholds = [_threshold(k, a.size) for k, a in zip(kinds, arrays)]
        _assert_hits_are_naive(
            arrays, codes_from_text(reference), thresholds,
            lookback, lookback + count, keep_scores,
        )

    @pytest.mark.parametrize("lookback", [0, 1, 2])
    @pytest.mark.parametrize("kind", THRESHOLD_KINDS)
    def test_ragged_window_clips_shorter_queries(self, rng, lookback, kind):
        """A window sized for the longest query: shorter ones keep ``count``."""
        proteins = [random_protein(aa, rng=rng) for aa in (120, 41, 10, 1)]
        # No Ser: its back-translation can miss a pattern, and the "span"
        # threshold needs one perfect hit to keep.
        proteins[1] = "".join(rng.choice(list("ACDEFGHIKLMNPQRTVWY"), 41))
        arrays = [encode_query(protein).as_array() for protein in proteins]
        count = 700  # spans a 512-position tile edge
        max_span = max(a.size for a in arrays)
        codes = rng.integers(0, 4, lookback + count + max_span - 1).astype(np.uint8)
        # Plant one query so the "span" threshold has hits to keep.
        planted = encode_protein_as_rna(proteins[1], rng=rng).letters
        codes[lookback + 600 : lookback + 600 + len(planted)] = codes_from_text(planted)
        assert scores_from_codes(arrays[1], codes, "naive")[lookback + 600] == arrays[1].size
        thresholds = [_threshold(kind, a.size) for a in arrays]
        for keep_scores in (False, True):
            _assert_hits_are_naive(
                arrays, codes, thresholds, lookback, lookback + count, keep_scores
            )


def _naive_by_element(instructions, codes):
    """``naive`` scores summed from one-element ``naive`` runs, one per element."""
    rows = {
        v: scores_from_codes(np.array([v], dtype=np.uint8), codes, "naive")
        for v in set(instructions.tolist())
    }
    count = codes.size - instructions.size + 1
    total = np.zeros(count, dtype=np.int32)
    for i, v in enumerate(instructions.tolist()):
        total += rows[v][i : i + count]
    return total


@pytest.mark.skipif(bitscore._NATIVE is None, reason="the compiled kernel is not available")
class TestAbandonedTiles:
    """A hits-only fold abandons the tiles no position of which can pass;
    its hits still equal ``naive`` at every threshold near the top scores.

    Queries of 1-1,100 elements cover every counter depth, over up to six
    512-position tiles.  Most elements
    match one nucleotide exactly and a few are drawn from a small random
    palette of instructions; up to three copies of the query, some with
    mismatches, are planted in ``[lo, hi)`` so the top of its score
    distribution is high and the tiles without a copy fall out of reach.
    Thresholds sit at the 50, 90, 99 and 100 % quantiles of the scores in
    ``[lo, hi)``, and one either side.
    """

    EXACT = np.array([0, 8, 4, 12], dtype=np.uint8)

    @given(
        seed=st.integers(0, 2**32 - 1),
        plants=st.integers(0, 3),
    )
    @settings(max_examples=30, deadline=None)
    def test_quantile_thresholds_match_naive(self, seed, plants):
        rng = np.random.default_rng(seed)
        # As many draws at each counter depth (log-uniform), up to 6 tiles.
        elements = int(2 ** rng.uniform(0, np.log2(1101)))
        positions = int(rng.integers(1, 3001))
        query = rng.integers(0, 4, elements).astype(np.uint8)
        instructions = self.EXACT[query]
        palette = rng.integers(0, 64, 3).astype(np.uint8)
        mixed = rng.random(elements) < 0.1
        instructions[mixed] = rng.choice(palette, int(mixed.sum()))
        codes = rng.integers(0, 4, positions + elements - 1).astype(np.uint8)
        lo, hi = sorted(int(bound) for bound in rng.integers(0, positions + 1, 2))
        for _ in range(plants if hi > lo else 0):
            at = int(rng.integers(lo, hi))
            stretch = codes[at : at + elements]
            stretch[:] = query
            flips = rng.integers(0, elements, int(rng.integers(0, 4)))
            stretch[flips] = (stretch[flips] + 1) % 4
        want = _naive_by_element(instructions, codes)
        window = want[lo:hi] if hi > lo else want
        thresholds = [
            max(0, int(np.quantile(window, q)) + step)
            for q in (0.5, 0.9, 0.99, 1.0)
            for step in (-1, 0, 1)
        ]
        results = bitscore.hits_batch(
            [instructions] * len(thresholds), codes, thresholds,
            [(lo, hi)] * len(thresholds),
        )
        for threshold, (got, got_scores, kept) in zip(thresholds, results):
            (expected,) = np.nonzero(want[lo:hi] >= threshold)
            where = (elements, positions, lo, hi, threshold)
            assert np.array_equal(got, expected), where
            assert np.array_equal(got_scores, want[lo:hi][expected]), where
            assert kept is None


@pytest.mark.skipif(bitscore._NATIVE is None, reason="the compiled kernel is not available")
class TestFoldOrder:
    """Hits-only folds of queries of mixed selectivity equal ``naive``.

    The fold runs each residue class of a query's elements mod 64 lightest
    first (fewest contexts matched), so these queries mix instructions of
    every weight, 16 to 64, look-back ones included, in random proportions:
    their fold order is not the query order.  1-1,100 elements, up to six
    512-position tiles, ragged bounds, up to three near-copies planted in
    them (code-only elements match, the others take a random code), and
    thresholds at the 50, 90, 99 and 100 % quantiles of the scores in the
    bounds and one either side; one threshold also keeps every score.
    """

    @given(
        seed=st.integers(0, 2**32 - 1),
        plants=st.integers(0, 3),
    )
    @settings(max_examples=30, deadline=None)
    def test_quantile_thresholds_match_naive(self, seed, plants):
        rng = np.random.default_rng(seed)
        elements = int(2 ** rng.uniform(0, np.log2(1101)))
        positions = int(rng.integers(1, 3001))
        # Code-only instructions (weights 16-64) and all 64, mixed.
        code_only = np.array(sorted(CODE_ONLY), dtype=np.uint8)
        instructions = rng.choice(code_only, elements).astype(np.uint8)
        anything = rng.random(elements) < rng.uniform(0, 1)
        instructions[anything] = rng.integers(0, 64, int(anything.sum()))
        codes = rng.integers(0, 4, positions + elements - 1).astype(np.uint8)
        copy = np.array([
            min(c for c in range(4) if CODE_ONLY[v] >> c & 1) if v in CODE_ONLY
            else int(rng.integers(0, 4))
            for v in instructions.tolist()
        ], dtype=np.uint8)
        lo, hi = sorted(int(bound) for bound in rng.integers(0, positions + 1, 2))
        for _ in range(plants if hi > lo else 0):
            at = int(rng.integers(lo, hi))
            stretch = codes[at : at + elements]
            stretch[:] = copy
            flips = rng.integers(0, elements, int(rng.integers(0, 4)))
            stretch[flips] = (stretch[flips] + 1) % 4
        want = _naive_by_element(instructions, codes)
        window = want[lo:hi] if hi > lo else want
        thresholds = [
            max(0, int(np.quantile(window, q)) + step)
            for q in (0.5, 0.9, 0.99, 1.0)
            for step in (-1, 0, 1)
        ]
        results = bitscore.hits_batch(
            [instructions] * len(thresholds), codes, thresholds,
            [(lo, hi)] * len(thresholds),
        )
        for threshold, (got, got_scores, kept) in zip(thresholds, results):
            (expected,) = np.nonzero(want[lo:hi] >= threshold)
            where = (elements, positions, lo, hi, threshold)
            assert np.array_equal(got, expected), where
            assert np.array_equal(got_scores, want[lo:hi][expected]), where
            assert kept is None
        threshold = thresholds[int(rng.integers(0, len(thresholds)))]
        ((got, got_scores, kept),) = bitscore.hits_batch(
            [instructions], codes, [threshold], [(lo, hi)], keep_scores=True
        )
        (expected,) = np.nonzero(want[lo:hi] >= threshold)
        assert np.array_equal(got, expected) and np.array_equal(kept, want[lo:hi])
        assert np.array_equal(got_scores, want[lo:hi][expected])


@functools.lru_cache(maxsize=1)
def _long_reference():
    """A reference two block seams long, with its palette rows from ``naive``."""
    rng = np.random.default_rng(2027)
    return _Reference(rng.integers(0, 4, 2 * BLOCK + 300).astype(np.uint8))


@pytest.mark.skipif(bitscore._NATIVE is None, reason="the compiled kernel is not available")
class TestScanTask:
    """One task call over many windows of many references equals ``naive``.

    Up to sixteen ragged queries drawn from a palette that reads every
    look-back source; references from empty to a few hundred nt, plus (in
    some examples) one with two block seams; windows at random starts and
    stops, some within a few positions of a seam; thresholds of 0 and 1
    (hits everywhere, so the hit rows grow) or near the scores' top.
    """

    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 16),
        with_long=st.booleans(),
        keep_scores=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_windows_match_naive(self, seed, k, with_long, keep_scores):
        rng = np.random.default_rng(seed)
        references = [
            _Reference(rng.integers(0, 4, int(rng.integers(0, 400))).astype(np.uint8))
            for _ in range(int(rng.integers(1, 6)))
        ]
        if with_long:
            references.insert(int(rng.integers(0, len(references) + 1)), _long_reference())
        batch = [
            rng.choice(PALETTE, int(2 ** rng.uniform(0, np.log2(200)))).astype(np.uint8)
            for _ in range(k)
        ]
        windows = []
        for r, reference in enumerate(references):
            length = reference.codes.size
            for _ in range(int(rng.integers(1, 4))):
                if length > BLOCK and rng.random() < 0.5:
                    seam = BLOCK * int(rng.integers(1, 3))
                    start = max(0, seam - int(rng.integers(0, 300)))
                else:
                    start = int(rng.integers(0, length + 1))
                windows.append((r, start, start + int(rng.integers(1, length + 2))))
        thresholds = []
        for instructions in batch:
            kind = rng.integers(0, 3)
            if kind == 2:
                top = max(
                    (int(ref.scores(instructions).max(initial=0)) for ref in references),
                    default=0,
                )
                thresholds.append(max(0, top + int(rng.integers(-2, 2))))
            else:
                thresholds.append(int(kind))
        _assert_task_is_naive(references, windows, batch, thresholds, keep_scores)


class TestConcurrentBatches:
    """Scan worker threads call ``scores_batch`` at the same time."""

    #: Calls each thread makes once both have started.
    ROUNDS = 20

    @pytest.mark.parametrize("kernel", BATCH_KERNELS)
    def test_two_threads_match_serial_calls(self, kernel):
        rng = np.random.default_rng(2021)
        jobs = [
            (
                [encode_query(random_protein(aa, rng=rng)).as_array() for aa in sizes],
                rng.integers(0, 4, length).astype(np.uint8),
            )
            for sizes, length in (((250, 80, 17), 40_000), ((120, 33), 25_000))
        ]
        results = [None] * len(jobs)
        with batch_kernel(kernel):
            serial = [bitscore.scores_batch(batch, codes) for batch, codes in jobs]
            barrier = threading.Barrier(len(jobs))

            def work(index):
                batch, codes = jobs[index]
                barrier.wait(timeout=30)
                results[index] = [
                    bitscore.scores_batch(batch, codes) for _ in range(self.ROUNDS)
                ]

            threads = [
                threading.Thread(target=work, args=(index,))
                for index in range(len(jobs))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        for rounds, want in zip(results, serial):
            assert rounds is not None, "a scoring thread raised"
            for got in rounds:
                assert len(got) == len(want)
                for scores, expected in zip(got, want):
                    assert np.array_equal(scores, expected), kernel
