"""The one-pass alphabet checks agree with a per-character oracle.

The oracle is the generator-expression form the checks replaced; every
case must agree on accept or reject, on the error type, on the letters the
error names, and on the codes.
"""

import re
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aligner import alignment_scores
from repro.seq import alphabet
from repro.seq.packing import codes_from_text
from repro.seq.sequence import (
    DnaSequence,
    ProteinSequence,
    RnaSequence,
    SequenceError,
    as_rna,
)

RNA = frozenset("ACGU")
DNA = frozenset("ACGT")
PROTEIN = frozenset("ACDEFGHIKLMNPQRSTVWY*")
CODE = {"A": 0, "C": 1, "G": 2, "T": 3, "U": 3}


def every(text, letters):
    return all(ch in letters for ch in text)


def oracle_nucleotide_rejection(text):
    """The letters a nucleotide check must name, or None to accept."""
    bad = sorted({ch for ch in text if ch not in "ACGTU"})
    if bad:
        return bad
    if any(ch == "T" for ch in text) and any(ch == "U" for ch in text):
        return ["T", "U"]
    return None


characters = st.one_of(
    st.sampled_from("ACGTU"),
    st.sampled_from(string.ascii_lowercase),
    st.sampled_from(sorted(PROTEIN)),
    st.characters(min_codepoint=0x80, max_codepoint=0x2FFF),
)
texts = st.one_of(
    st.just(""),
    st.text(alphabet="ACGU", max_size=64),
    st.text(alphabet="ACGT", max_size=64),
    st.text(alphabet=sorted(PROTEIN), max_size=64),
    st.text(alphabet=characters, max_size=64),
    # Mostly valid, with one stray letter somewhere.
    st.tuples(st.text(alphabet="ACGU", max_size=32), characters).map("".join),
)


@settings(max_examples=400, deadline=None)
@given(text=texts)
def test_alphabet_checks_match_oracle(text):
    assert alphabet.is_rna(text) == every(text, RNA)
    assert alphabet.is_dna(text) == every(text, DNA)
    assert alphabet.is_protein(text) == every(text, PROTEIN)
    assert alphabet.is_rna_or_dna(text) == (
        every(text, RNA) or every(text, DNA)
    )


@settings(max_examples=400, deadline=None)
@given(text=texts)
def test_as_rna_and_strict_encode_match_oracle(text):
    rejected = oracle_nucleotide_rejection(text)
    if rejected is None:
        rna = as_rna(text)
        expected = "".join("U" if ch == "T" else ch for ch in text)
        assert rna == RnaSequence(expected) and hash(rna) == hash(RnaSequence(expected))
        codes = codes_from_text(text)
        assert codes.dtype == np.uint8
        assert codes.tolist() == [CODE[ch] for ch in text]
        return
    for convert in (as_rna, codes_from_text):
        with pytest.raises(SequenceError) as info:
            convert(text)
        assert repr(rejected) in str(info.value), (convert, text)


@settings(max_examples=200, deadline=None)
@given(text=texts)
def test_sequence_types_match_oracle(text):
    for kind, letters in (
        (RnaSequence, RNA),
        (DnaSequence, DNA),
        (ProteinSequence, PROTEIN),
    ):
        if every(text, letters):
            assert kind(text).letters == text
            continue
        with pytest.raises(SequenceError) as info:
            kind(text)
        assert repr(sorted({ch for ch in text if ch not in letters})) in str(
            info.value
        )


@pytest.mark.parametrize(
    "reference, bad",
    [
        ("ACGTU", ["T", "U"]),
        ("ACGN", ["N"]),
        ("acgu", ["a", "c", "g", "u"]),
        ("ACG\u00dc", ["\u00dc"]),
    ],
)
def test_reference_strings_are_refused_with_their_bad_letters(reference, bad):
    with pytest.raises(SequenceError, match=re.escape(repr(bad))):
        alignment_scores("M", reference)


def test_derived_sequences_equal_checked_ones():
    dna = DnaSequence("AACGTT", name="r")
    assert dna.to_rna() == RnaSequence("AACGUU")
    assert dna.to_rna().to_dna() == dna
    assert dna.reverse_complement() == DnaSequence("AACGTT")
    assert RnaSequence("ACGUU").reverse_complement() == RnaSequence("AACGU")
    assert dna[1:4] == DnaSequence("ACG") and dna[1:4].name == "r"
