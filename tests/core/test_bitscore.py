"""Unit tests for the bit-parallel SWAR scoring engine."""

import numpy as np
import pytest

from repro.core import bitscore
from repro.core.aligner import alignment_scores, alignment_scores_naive
from repro.core.encoding import encode_query, pad_instruction
from repro.seq.generate import random_protein, random_rna
from repro.seq.packing import codes_from_text


def _codes(rng, length):
    return codes_from_text(random_rna(length, rng=rng).letters)


class TestPacking:
    def test_pack_row_is_lsb_first(self):
        bits = np.zeros(70, dtype=np.uint8)
        bits[0] = bits[65] = 1
        words = bitscore.pack_row(bits)
        assert int(words[0]) == 1
        assert int(words[1]) == 2
        assert words.size == 3  # ceil(70/64) + 1 pad word

    def test_shifted_row_crosses_word_boundaries(self):
        bits = np.zeros(130, dtype=np.uint8)
        positions = [0, 63, 64, 100, 129]
        bits[positions] = 1
        words = bitscore.pack_row(bits, pad_words=3)
        for shift in (0, 1, 63, 64, 65, 100, 129):
            out = bitscore.shifted_row(words, shift, 2)
            expected = np.zeros(128, dtype=np.uint8)
            for p in positions:
                if 0 <= p - shift < 128:
                    expected[p - shift] = 1
            got = np.unpackbits(out.view(np.uint8), bitorder="little", count=128)
            assert np.array_equal(got, expected), shift


class TestVerticalCounter:
    def test_counts_match_column_sums(self, rng):
        rows = rng.integers(0, 2, size=(13, 100)).astype(np.uint8)
        counter = bitscore.VerticalCounter(2)
        for row in rows:
            counter.add(bitscore.pack_row(row, pad_words=0)[:2])
        assert np.array_equal(counter.decode(100), rows.sum(axis=0))

    def test_add_pair_equals_two_adds(self, rng):
        rows = rng.integers(0, 2, size=(8, 64)).astype(np.uint8)
        paired = bitscore.VerticalCounter(1)
        single = bitscore.VerticalCounter(1)
        for i in range(0, 8, 2):
            paired.add_pair(
                bitscore.pack_row(rows[i], pad_words=0),
                bitscore.pack_row(rows[i + 1], pad_words=0),
            )
        for row in rows:
            single.add(bitscore.pack_row(row, pad_words=0))
        assert np.array_equal(paired.decode(64), single.decode(64))


class TestMatchBytes:
    def test_rows_cover_distinct_instructions_only(self, rng):
        encoded = encode_query("MMMM")  # heavy instruction reuse
        rows, element_rows = bitscore.match_bytes(
            encoded.as_array(), _codes(rng, 50)
        )
        assert rows.shape[0] == len(set(encoded.instructions))
        assert element_rows.shape == (12,)

    def test_rows_agree_with_comparator(self, rng):
        from repro.core import comparator as cmp

        encoded = encode_query("LRS*")
        codes = _codes(rng, 40)
        rows, element_rows = bitscore.match_bytes(encoded.as_array(), codes)
        for i, instruction in enumerate(encoded.instructions):
            for p in range(codes.size):
                prev1 = int(codes[p - 1]) if p >= 1 else 0
                prev2 = int(codes[p - 2]) if p >= 2 else 0
                expected = cmp.instruction_matches(
                    instruction, int(codes[p]), prev1, prev2
                )
                assert bool(rows[element_rows[i], p]) == expected


#: The NumPy sequential path and the engine (a batch of one through
#: ``scores_batch``).
SCORERS = {
    "packed": bitscore.packed_scores,
    None: bitscore.scores,
}


class TestEngines:
    @pytest.mark.parametrize("method", ["packed", None])
    def test_matches_naive_on_random_workloads(self, rng, method):
        for _ in range(6):
            query = random_protein(int(rng.integers(1, 10)), rng=rng)
            codes = _codes(rng, int(rng.integers(30, 300)))
            encoded = encode_query(query)
            expected = alignment_scores_naive(encoded, codes)
            got = SCORERS[method](encoded.as_array(), codes)
            assert got.dtype == np.int32
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("method", ["packed", None])
    def test_type_iii_heavy_queries(self, rng, method):
        for letters in ("LRSLRS*", "LLLLLLLL", "RRRR", "***"):
            encoded = encode_query(letters)
            codes = _codes(rng, 250)
            assert np.array_equal(
                SCORERS[method](encoded.as_array(), codes),
                alignment_scores_naive(encoded, codes),
            )

    def test_query_longer_than_reference(self):
        encoded = encode_query("MFWMFW")
        codes = codes_from_text("ACGU")
        assert bitscore.scores(encoded.as_array(), codes).size == 0
        assert bitscore.packed_scores(encoded.as_array(), codes).size == 0

    def test_reference_shorter_than_lookback(self):
        # 1- and 2-nt references exercise the missing-lookback edge.
        pad = np.asarray([pad_instruction()], dtype=np.uint8)
        for text in ("A", "GU"):
            codes = codes_from_text(text)
            got = bitscore.packed_scores(pad, codes)
            assert np.array_equal(got, np.ones(codes.size, dtype=np.int32))

    def test_empty_instruction_stream(self):
        codes = codes_from_text("ACGUA")
        empty = np.zeros(0, dtype=np.uint8)
        assert np.array_equal(
            bitscore.packed_scores(empty, codes), np.zeros(6, dtype=np.int32)
        )
        assert np.array_equal(
            bitscore.scores(empty, codes), np.zeros(6, dtype=np.int32)
        )

    def test_unknown_method_rejected(self):
        # There is one path; no method can be forced.
        with pytest.raises(TypeError):
            bitscore.scores(
                encode_query("M").as_array(), codes_from_text("ACGU"), method="packed"
            )

    def test_long_query_crosses_shift_words(self, rng):
        # > 64 elements forces multi-word shifts in the packed path.
        query = random_protein(30, rng=rng)  # 90 elements
        codes = _codes(rng, 400)
        encoded = encode_query(query)
        assert np.array_equal(
            bitscore.packed_scores(encoded.as_array(), codes),
            alignment_scores_naive(encoded, codes),
        )


class TestAlignerDispatch:
    @pytest.mark.parametrize(
        "engine", ["bitscore", "vectorized", "naive"]
    )
    def test_all_engines_agree(self, rng, engine):
        query = random_protein(6, rng=rng)
        reference = random_rna(200, rng=rng)
        assert np.array_equal(
            alignment_scores(query, reference, engine=engine),
            alignment_scores_naive(query, reference),
        )

    def test_unknown_engine_rejected(self, rng):
        with pytest.raises(ValueError):
            alignment_scores("MF", random_rna(30, rng=rng), engine="fpga")
