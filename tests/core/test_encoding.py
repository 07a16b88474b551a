"""Tests for the 6-bit instruction encoding (§III-B)."""

import numpy as np
import pytest

from repro.core import backtranslate as bt
from repro.core import encoding as enc
from repro.seq import alphabet
from repro.seq.generate import random_protein


class TestElementEncoding:
    def test_type_i_layout(self):
        # Exact 'G' (code 10): opcode 00, bits2-3 = hi,lo, config 00.
        instruction = enc.encode_element(bt.ExactElement("G"))
        assert enc.instruction_bit_string(instruction) == "001000"

    def test_type_ii_layout(self):
        # Condition A/G has code 01.
        element = bt.ConditionalElement(frozenset({"A", "G"}))
        instruction = enc.encode_element(element)
        assert enc.instruction_bit_string(instruction) == "010100"

    def test_type_iii_opcode_first_bit(self):
        for function in bt.FUNCTIONS_BY_CODE:
            instruction = enc.encode_element(bt.DependentElement(function))
            assert instruction & 1 == 1

    def test_type_iii_bit3_zero(self):
        # §III-B: "FabP sets the fourth bit to zero for Type III".
        for function in bt.FUNCTIONS_BY_CODE:
            instruction = enc.encode_element(bt.DependentElement(function))
            assert (instruction >> 3) & 1 == 0

    def test_types_i_ii_config_zero(self):
        # §III-B: config bits are 00 for Types I and II.
        for letter in alphabet.RNA_NUCLEOTIDES:
            instruction = enc.encode_element(bt.ExactElement(letter))
            assert (instruction >> 4) == 0
        for letters in bt.CONDITION_CODES:
            instruction = enc.encode_element(bt.ConditionalElement(letters))
            assert (instruction >> 4) == 0

    def test_dependent_configs_differ_by_source(self):
        stop = enc.encode_element(bt.DependentElement(bt.FUNCTION_STOP)) >> 4
        leu = enc.encode_element(bt.DependentElement(bt.FUNCTION_LEU)) >> 4
        arg = enc.encode_element(bt.DependentElement(bt.FUNCTION_ARG)) >> 4
        any_ = enc.encode_element(bt.DependentElement(bt.FUNCTION_ANY)) >> 4
        assert len({stop, leu, arg}) == 3  # three distinct mux sources
        assert any_ == 0  # D needs no dependency


class TestRoundTrip:
    @pytest.mark.parametrize("amino", alphabet.AMINO_ACIDS_WITH_STOP)
    def test_pattern_roundtrip(self, amino):
        pattern = bt.BACK_TRANSLATION_TABLE[amino]
        for element in pattern.elements:
            decoded = enc.decode_element(enc.encode_element(element))
            assert decoded == element

    def test_query_roundtrip(self, rng):
        protein = random_protein(30, rng=rng)
        encoded = enc.encode_query(protein)
        decoded = encoded.decode()
        expected = tuple(
            element
            for pattern in bt.back_translate(protein)
            for element in pattern.elements
        )
        assert decoded == expected


class TestDecodeValidation:
    def test_rejects_out_of_range(self):
        with pytest.raises(enc.EncodingError):
            enc.decode_element(64)
        with pytest.raises(enc.EncodingError):
            enc.decode_element(-1)

    def test_rejects_type_i_with_config(self):
        # Type I with nonzero config bits encodes nothing valid.
        bad = 0b010000  # bits: b0..b5 = 0,0,0,0,1,0 -> config 01 on Type I
        with pytest.raises(enc.EncodingError, match="config"):
            enc.decode_element(bad)

    def test_rejects_type_iii_with_set_bit3(self):
        # b0=1 (Type III), F=11 (D), b3=1 -> invalid.
        bad = 0b001111
        with pytest.raises(enc.EncodingError, match="b3"):
            enc.decode_element(bad)

    def test_rejects_wrong_function_config(self):
        good = enc.encode_element(bt.DependentElement(bt.FUNCTION_STOP))
        bad = good ^ (1 << 5)  # flip a config bit
        with pytest.raises(enc.EncodingError, match="config"):
            enc.decode_element(bad)

    def test_every_valid_instruction_decodes(self):
        valid = set()
        for letter in alphabet.RNA_NUCLEOTIDES:
            valid.add(enc.encode_element(bt.ExactElement(letter)))
        for letters in bt.CONDITION_CODES:
            valid.add(enc.encode_element(bt.ConditionalElement(letters)))
        for function in bt.FUNCTIONS_BY_CODE:
            valid.add(enc.encode_element(bt.DependentElement(function)))
        assert len(valid) == 12  # 4 exact + 4 conditional + 4 dependent
        for instruction in valid:
            enc.decode_element(instruction)  # must not raise


class TestEncodedQuery:
    def test_three_instructions_per_residue(self):
        encoded = enc.encode_query("MFW")
        assert len(encoded) == 9
        assert encoded.num_residues == 3

    def test_storage_bits(self):
        # §III-B: 6 bits per element.
        encoded = enc.encode_query("MFW")
        assert encoded.storage_bits() == 54

    def test_as_array_dtype(self):
        arr = enc.encode_query("MFW").as_array()
        assert arr.dtype == np.uint8
        assert arr.shape == (9,)
        assert arr.max() < 64

    def test_length_mismatch_rejected(self):
        from repro.seq.sequence import ProteinSequence

        with pytest.raises(enc.EncodingError):
            enc.EncodedQuery(ProteinSequence("MF"), (0, 0, 0))

    def test_repeated_text_shares_one_encoding(self):
        from repro.seq.sequence import ProteinSequence

        assert enc.encode_query("MKVLAW") is enc.encode_query("MKVLAW")
        named = enc.encode_query(ProteinSequence("MKVLAW", name="q1"))
        assert named.protein.name == "q1"
        assert named == enc.encode_query("MKVLAW")
        with pytest.raises(KeyError, match="no back-translation pattern"):
            enc._encode(ProteinSequence._unchecked("MJ"))

    def test_instructions_are_stored_as_bytes(self):
        from repro.seq.sequence import ProteinSequence

        encoded = enc.encode_query("MFW")
        for given in (tuple(encoded.instructions), encoded.as_array().astype(np.int64)):
            rebuilt = enc.EncodedQuery(ProteinSequence("MFW"), given)
            assert isinstance(rebuilt.instructions, bytes)
            assert rebuilt == encoded
        assert len(encoded.instructions) == 9
        view = encoded.as_array()
        assert not view.flags.writeable
        assert view.tobytes() == encoded.instructions

    @pytest.mark.parametrize("residue", sorted(bt.BACK_TRANSLATION_TABLE))
    def test_every_residue_encodes_to_its_pattern(self, residue):
        encoded = enc.encode_query(residue)
        assert tuple(encoded.instructions) == enc.encode_pattern(bt.back_translate(residue)[0])

    def test_residue_without_a_pattern_raises_key_error(self):
        from repro.seq.sequence import ProteinSequence

        # The alphabet check rejects 'Z'; an unchecked sequence reaches the table.
        with pytest.raises(KeyError, match="no back-translation pattern for residue 'Z'"):
            enc.encode_query(ProteinSequence._unchecked("MZK"))

    def test_paper_met_encoding(self):
        # Met = AUG: three Type I instructions.
        encoded = enc.encode_query("M")
        strings = [enc.instruction_bit_string(i) for i in encoded.instructions]
        # A=00, U=11, G=10 in bits 2-3 (hi, lo).
        assert strings == ["000000", "001100", "001000"]

    def test_bit_string_validates(self):
        with pytest.raises(enc.EncodingError):
            enc.instruction_bit_string(100)
