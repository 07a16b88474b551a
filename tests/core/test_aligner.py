"""Tests for the golden FabP aligner."""

import numpy as np
import pytest

from repro.core.aligner import (
    AlignmentResult,
    Hit,
    align,
    alignment_scores,
    alignment_scores_extended,
    alignment_scores_naive,
    resolve_threshold,
    search_database,
)
from repro.core.codons import CODONS_FOR
from repro.core.encoding import encode_query
from repro.seq.generate import random_protein, random_rna
from repro.workloads.builder import encode_protein_as_rna


class TestVectorizedVsNaive:
    def test_randomized_agreement(self, rng):
        for _ in range(8):
            query = random_protein(int(rng.integers(2, 12)), rng=rng)
            reference = random_rna(int(rng.integers(50, 400)), rng=rng)
            fast = alignment_scores(query, reference)
            slow = alignment_scores_naive(query, reference)
            assert np.array_equal(fast, slow)

    def test_with_dependent_heavy_query(self, rng):
        # Leu/Arg/Ser/Stop exercise every Type III function.
        query = "LRSLRS*"
        reference = random_rna(300, rng=rng)
        assert np.array_equal(
            alignment_scores(query, reference),
            alignment_scores_naive(query, reference),
        )


class TestScores:
    def test_score_bounds(self, rng):
        query = random_protein(10, rng=rng)
        reference = random_rna(500, rng=rng)
        scores = alignment_scores(query, reference)
        assert scores.min() >= 0
        assert scores.max() <= 30  # 3 * residues

    def test_planted_exact_hit_scores_perfect(self, rng):
        query = random_protein(15, rng=rng)
        region = encode_protein_as_rna(query, rng=rng, codon_usage="paper").letters
        background = random_rna(400, rng=rng).letters
        reference = background[:100] + region + background[100:]
        scores = alignment_scores(query, reference)
        assert scores[100] == 45  # all 45 elements match

    def test_any_synonymous_codon_scores_perfect(self, rng):
        """Back-translation non-uniqueness: every codon choice matches."""
        query = "LVRS"
        for _ in range(10):
            region = encode_protein_as_rna(query, rng=rng, codon_usage="paper").letters
            scores = alignment_scores(query, region)
            assert scores[0] == 12

    def test_serine_agy_codons_missed_in_paper_mode(self):
        """The paper-mode Ser pattern does not admit AGU/AGC."""
        scores = alignment_scores("S", "AGU")
        assert scores[0] < 3
        scores_ucx = alignment_scores("S", "UCU")
        assert scores_ucx[0] == 3

    def test_extended_mode_recovers_agy_serine(self):
        scores = alignment_scores_extended("S", "AGU")
        assert scores[0] == 3

    def test_extended_mode_matches_paper_mode_without_serine(self, rng):
        query = "MFLVRW"
        reference = random_rna(200, rng=rng)
        assert np.array_equal(
            alignment_scores(query, reference),
            alignment_scores_extended(query, reference.letters),
        )

    def test_query_longer_than_reference(self):
        assert alignment_scores("MFWMFW", "ACGU").size == 0

    def test_number_of_positions(self, rng):
        query = random_protein(5, rng=rng)  # 15 elements
        reference = random_rna(100, rng=rng)
        scores = alignment_scores(query, reference)
        assert scores.size == 100 - 15 + 1  # L_r - L_q + 1 (§III-C)

    def test_accepts_code_array_reference(self, rng):
        query = random_protein(4, rng=rng)
        reference = random_rna(60, rng=rng)
        from repro.seq.packing import codes_from_text

        codes = codes_from_text(reference.letters)
        assert np.array_equal(
            alignment_scores(query, reference), alignment_scores(query, codes)
        )

    def test_dna_reference_accepted(self):
        scores_rna = alignment_scores("MF", "AUGUUU")
        scores_dna = alignment_scores("MF", "ATGTTT")
        assert np.array_equal(scores_rna, scores_dna)


class TestThreshold:
    def test_absolute_threshold(self):
        encoded = encode_query("MFW")
        assert resolve_threshold(encoded, threshold=5) == 5

    def test_identity_threshold(self):
        encoded = encode_query("MFW")  # 9 elements
        assert resolve_threshold(encoded, min_identity=0.5) == 5  # ceil(4.5)

    def test_default_is_90_percent(self):
        encoded = encode_query("MFW")
        assert resolve_threshold(encoded) == 9  # ceil(8.1)

    def test_both_specs_rejected(self):
        encoded = encode_query("MFW")
        with pytest.raises(ValueError):
            resolve_threshold(encoded, threshold=5, min_identity=0.5)

    def test_out_of_range_rejected(self):
        encoded = encode_query("MFW")
        with pytest.raises(ValueError):
            resolve_threshold(encoded, threshold=10)
        with pytest.raises(ValueError):
            resolve_threshold(encoded, min_identity=1.5)


class TestResultObjects:
    """Scans keep one result per query and reference: no per-instance dict."""

    def test_slotted_results_behave_as_frozen_dataclasses(self):
        import copy
        import dataclasses
        import pickle

        result = align("MKV", "AUGAAAGUU" * 3, threshold=6)
        hit = result.hits[0]
        for obj in (hit, result):
            assert not hasattr(obj, "__dict__")
            assert pickle.loads(pickle.dumps(obj)) == obj
            assert copy.copy(obj) == obj
            assert dataclasses.is_dataclass(obj)
        assert hash(hit) == hash(Hit(hit.position, hit.score))
        assert str(hit) == f"pos={hit.position} score={hit.score}"
        assert dataclasses.replace(hit, score=1) == Hit(hit.position, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            hit.score = 0


class TestAlign:
    def test_planted_hit_found(self, rng):
        query = random_protein(12, rng=rng)
        region = encode_protein_as_rna(query, rng=rng, codon_usage="paper").letters
        background = random_rna(500, rng=rng).letters
        reference = background[:250] + region + background[250:]
        result = align(query, reference, min_identity=0.95)
        assert any(h.position == 250 for h in result.hits)

    def test_hits_sorted_by_position(self, rng):
        query = random_protein(3, rng=rng)
        reference = random_rna(400, rng=rng)
        result = align(query, reference, threshold=3)
        positions = [h.position for h in result.hits]
        assert positions == sorted(positions)

    def test_keep_scores(self, rng):
        query = random_protein(4, rng=rng)
        reference = random_rna(100, rng=rng)
        with_scores = align(query, reference, threshold=6, keep_scores=True)
        without = align(query, reference, threshold=6)
        assert with_scores.scores is not None
        assert without.scores is None
        assert with_scores.hits == without.hits

    def test_result_properties(self, rng):
        query = random_protein(4, rng=rng)
        reference = random_rna(100, rng=rng)
        result = align(query, reference, threshold=0, keep_scores=True)
        assert result.perfect_score == 12
        assert result.max_score == int(result.scores.max())
        assert result.best_hit is not None
        assert result.best_hit.score == result.max_score

    def test_empty_result(self):
        result = align("MFWMFW", "ACGU", threshold=0)
        assert result.hits == ()
        assert result.max_score == 0
        assert result.best_hit is None

    def test_search_database(self, rng):
        query = random_protein(5, rng=rng)
        references = [random_rna(200, rng=rng) for _ in range(3)]
        results = search_database(query, references, threshold=5)
        assert len(results) == 3
        assert all(isinstance(r, AlignmentResult) for r in results)

    def test_search_database_keep_scores(self, rng):
        query = random_protein(5, rng=rng)
        references = [random_rna(200, rng=rng) for _ in range(2)]
        results = search_database(query, references, threshold=5, keep_scores=True)
        assert all(r.scores is not None and r.scores.size == 200 - 15 + 1 for r in results)

    def test_search_database_prepacked_codes(self, rng):
        from repro.seq.packing import codes_from_text

        query = random_protein(5, rng=rng)
        references = [random_rna(200, rng=rng) for _ in range(2)]
        codes = [codes_from_text(r.letters) for r in references]
        from_text = search_database(query, references, threshold=5)
        from_codes = search_database(query, codes, threshold=5)
        assert [r.hits for r in from_text] == [r.hits for r in from_codes]

    def test_align_engine_escape_hatch(self, rng):
        query = random_protein(5, rng=rng)
        reference = random_rna(300, rng=rng)
        default = align(query, reference, threshold=5)
        for engine in ("vectorized", "naive", "bitscore_batch"):
            assert align(query, reference, threshold=5, engine=engine).hits == default.hits

    def test_str_representations(self, rng):
        result = align("MFW", random_rna(50, rng=rng), threshold=0)
        assert "hits" in str(result)
        assert str(Hit(3, 5)) == "pos=3 score=5"


class TestResidueTableCache:
    def test_cache_is_bounded(self):
        from repro.core.aligner import _extended_residue_tables

        assert _extended_residue_tables.cache_info().maxsize == 32

    def test_repeat_residues_hit_the_cache(self):
        from repro.core.aligner import _extended_residue_tables

        _extended_residue_tables.cache_clear()
        alignment_scores_extended("SS", "AGUAGU")
        info = _extended_residue_tables.cache_info()
        assert info.misses >= 1
        assert info.hits >= 1
        assert info.currsize <= 32
