"""Property tests: the SWAR engine is bit-identical to every other engine.

The acceptance bar for the bit-parallel fast path is exact equivalence with
the straight-line Python oracle on arbitrary inputs — including the edges
the hardware cares about: queries longer than the reference, all-Type-III
instruction streams (Leu/Arg/Ser/Stop), and references shorter than the
3-nt look-back window.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bitscore
from repro.core.aligner import (
    alignment_scores,
    alignment_scores_naive,
    search_database,
)
from repro.core.encoding import encode_query
from repro.seq import alphabet
from repro.seq.packing import codes_from_text

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
    diagonal = bitscore.diagonal_scores(encoded.as_array(), codes)
    vectorized = alignment_scores(encoded, codes, engine="vectorized")
    auto = alignment_scores(encoded, codes)  # default = bitscore
    assert np.array_equal(packed, oracle)
    assert np.array_equal(diagonal, oracle)
    assert np.array_equal(vectorized, oracle)
    assert np.array_equal(auto, oracle)


class TestEngineEquivalence:
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
        assert bitscore.diagonal_scores(encoded.as_array(), codes).size == 0
        assert alignment_scores(encoded, codes).size == 0

    @given(protein=proteins, reference=rna_strings)
    @settings(max_examples=20, deadline=None)
    def test_search_database_engine_consistency(self, protein, reference):
        """Hits are identical whichever engine the search routes through."""
        default = search_database(protein, [reference], min_identity=0.3)
        naive = search_database(
            protein, [reference], min_identity=0.3, engine="naive"
        )
        assert [r.hits for r in default] == [r.hits for r in naive]


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
        from repro.core.aligner import scores_batch_from_codes, scores_from_codes

        arrays = [encode_query(p).as_array() for p in batch]
        codes = codes_from_text(reference)
        solo = [scores_from_codes(a, codes, "bitscore") for a in arrays]
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
        from repro.core.aligner import scores_batch_from_codes, scores_from_codes

        array = encode_query(protein).as_array()
        codes = codes_from_text(reference)
        want = scores_from_codes(array, codes, "bitscore")
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
