"""Tests for 2-bit packing and AXI beat accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seq import packing
from repro.seq.sequence import DnaSequence, RnaSequence


class TestCodesFromArray:
    """One check for every code array that comes in: dtype, shape, range."""

    def test_uint8_passes_without_a_copy(self):
        codes = np.array([0, 1, 2, 3, 3], dtype=np.uint8)
        assert packing.codes_from_array(codes) is codes

    def test_other_integer_widths_are_cast_after_the_check(self):
        for dtype in (np.int8, np.int16, np.uint32, np.int64):
            got = packing.codes_from_array(np.array([3, 0, 2], dtype=dtype))
            assert got.dtype == np.uint8 and got.tolist() == [3, 0, 2]

    @pytest.mark.parametrize(
        "codes, message",
        [
            (np.array([0, 1, 259], dtype=np.int64), "code 259 at position 2"),
            (np.array([0, -1, 2], dtype=np.int16), "code -1 at position 1"),
            (np.array([0, 3, 4], dtype=np.uint8), "code 4 at position 2"),
            (np.array([0.0, 2.9]), "integers, not float64"),
            (np.array([True, False]), "integers, not bool"),
            (np.zeros((2, 2), dtype=np.uint8), "1-D, not 2-D"),
            (np.uint8(2), "1-D, not 0-D"),
        ],
    )
    def test_bad_arrays_are_refused(self, codes, message):
        with pytest.raises(ValueError, match=message):
            packing.codes_from_array(codes)
        with pytest.raises(ValueError, match=message):
            packing.pack(codes)

    def test_empty_integer_array_passes(self):
        assert packing.codes_from_array(np.zeros(0, dtype=np.int64)).size == 0
        assert packing.pack(np.zeros(0, dtype=np.uint8)).size == 0


class TestCodeConversion:
    def test_codes_from_text(self):
        assert list(packing.codes_from_text("ACGU")) == [0, 1, 2, 3]

    def test_codes_accept_dna(self):
        assert list(packing.codes_from_text("ACGT")) == [0, 1, 2, 3]

    def test_codes_reject_invalid(self):
        with pytest.raises(ValueError, match="non-nucleotide"):
            packing.codes_from_text("ACGX")

    def test_text_from_codes_renders_rna(self):
        assert packing.text_from_codes(np.array([0, 1, 2, 3])) == "ACGU"

    def test_roundtrip(self):
        text = "ACGUUGCAACGU"
        assert packing.text_from_codes(packing.codes_from_text(text)) == text

    def test_empty(self):
        assert packing.codes_from_text("").size == 0


class TestPacking:
    def test_four_codes_per_byte(self):
        packed = packing.pack(np.array([0, 1, 2, 3], dtype=np.uint8))
        assert packed.size == 1
        # LSB-first: 0 | 1<<2 | 2<<4 | 3<<6 = 0b11100100.
        assert packed[0] == 0b11100100

    def test_pack_pads_with_zero(self):
        packed = packing.pack(np.array([3], dtype=np.uint8))
        assert packed.size == 1
        assert packed[0] == 3

    def test_pack_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            packing.pack(np.array([4], dtype=np.uint8))

    def test_unpack_inverse(self):
        codes = np.array([0, 3, 1, 2, 2, 1], dtype=np.uint8)
        packed = packing.pack(codes)
        assert np.array_equal(packing.unpack(packed, 6), codes)

    def test_unpack_rejects_overrun(self):
        with pytest.raises(ValueError):
            packing.unpack(np.zeros(1, dtype=np.uint8), 5)

    @given(st.lists(st.integers(0, 3), min_size=0, max_size=600))
    @settings(max_examples=50, deadline=None)
    def test_pack_unpack_roundtrip_property(self, values):
        codes = np.array(values, dtype=np.uint8)
        packed = packing.pack(codes)
        assert np.array_equal(packing.unpack(packed, codes.size), codes)
        assert packed.size == -(-max(codes.size, 0) // 4) if codes.size else packed.size == 0

    def test_pack_sequence_from_types(self):
        rna = RnaSequence("ACGU")
        dna = DnaSequence("ACGT")
        assert np.array_equal(packing.pack_sequence(rna), packing.pack_sequence(dna))
        assert np.array_equal(packing.pack_sequence("ACGU"), packing.pack_sequence(rna))


class TestBeatAccounting:
    def test_beats_exact(self):
        assert packing.beats_required(256) == 1
        assert packing.beats_required(512) == 2

    def test_beats_round_up(self):
        assert packing.beats_required(1) == 1
        assert packing.beats_required(257) == 2

    def test_beats_zero(self):
        assert packing.beats_required(0) == 0

    def test_beats_negative_rejected(self):
        with pytest.raises(ValueError):
            packing.beats_required(-1)

    def test_packed_size(self):
        assert packing.packed_size_bytes(4) == 1
        assert packing.packed_size_bytes(5) == 2
        # 1 GByte of reference = 4 Gnt, the paper's workload.
        assert packing.packed_size_bytes(4_000_000_000) == 1_000_000_000

    def test_nucleotides_per_beat_matches_paper(self):
        # §III-C: 512-bit AXI reads 256 2-bit elements per beat.
        assert packing.NUCLEOTIDES_PER_BEAT == 256
        assert packing.BYTES_PER_BEAT == 64
