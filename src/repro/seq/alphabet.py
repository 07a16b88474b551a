"""Alphabets for nucleotide and amino-acid sequences.

FabP (the paper this library reproduces) fixes a 2-bit encoding for the four
RNA nucleotides::

    A = 00, C = 01, G = 10, U = 11

This module is the single source of truth for that encoding and for the
amino-acid alphabet.  Everything else in the library (packing, instruction
encoding, LUT truth tables) derives its bit values from here so the encoding
can never drift between modules.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

#: RNA nucleotide letters in FabP bit order (index == 2-bit code).
RNA_NUCLEOTIDES: Tuple[str, ...] = ("A", "C", "G", "U")

#: DNA nucleotide letters in the same bit order (T replaces U).
DNA_NUCLEOTIDES: Tuple[str, ...] = ("A", "C", "G", "T")

#: Mapping from RNA letter to its 2-bit FabP code.
RNA_CODE = {letter: code for code, letter in enumerate(RNA_NUCLEOTIDES)}

#: Mapping from DNA letter to its 2-bit FabP code.
DNA_CODE = {letter: code for code, letter in enumerate(DNA_NUCLEOTIDES)}

#: The twenty standard amino acids, one-letter codes, alphabetical.
AMINO_ACIDS: Tuple[str, ...] = tuple("ACDEFGHIKLMNPQRSTVWY")

#: The translation-stop symbol used throughout the library.
STOP_SYMBOL = "*"

#: Amino-acid alphabet including the stop symbol (FabP aligns stops too).
AMINO_ACIDS_WITH_STOP: Tuple[str, ...] = AMINO_ACIDS + (STOP_SYMBOL,)

#: Three-letter names, for pretty-printing (matches the paper's notation).
THREE_LETTER = {
    "A": "Ala", "C": "Cys", "D": "Asp", "E": "Glu", "F": "Phe",
    "G": "Gly", "H": "His", "I": "Ile", "K": "Lys", "L": "Leu",
    "M": "Met", "N": "Asn", "P": "Pro", "Q": "Gln", "R": "Arg",
    "S": "Ser", "T": "Thr", "V": "Val", "W": "Trp", "Y": "Tyr",
    STOP_SYMBOL: "Stop",
}

ONE_LETTER = {three: one for one, three in THREE_LETTER.items()}

#: Letters a nucleotide string may hold: RNA's four plus DNA's ``T``.
NUCLEOTIDE_LETTERS = "".join(sorted(set(RNA_NUCLEOTIDES + DNA_NUCLEOTIDES)))


def _deleting(letters: Iterable[str]) -> Dict[int, None]:
    """A ``str.translate`` table that deletes exactly ``letters``."""
    return str.maketrans("", "", "".join(letters))


# Each check is one C-level ``str.translate`` pass: deleting the alphabet
# leaves exactly the characters outside it.
_RNA_DELETE = _deleting(RNA_NUCLEOTIDES)
_DNA_DELETE = _deleting(DNA_NUCLEOTIDES)
_AA_DELETE = _deleting(AMINO_ACIDS_WITH_STOP)
_NUCLEOTIDE_DELETE = _deleting(NUCLEOTIDE_LETTERS)


def is_rna(text: str) -> bool:
    """Return True if every character of ``text`` is an RNA nucleotide."""
    return not text.translate(_RNA_DELETE)


def is_dna(text: str) -> bool:
    """Return True if every character of ``text`` is a DNA nucleotide."""
    return not text.translate(_DNA_DELETE)


def is_protein(text: str) -> bool:
    """Return True if every character is an amino acid or the stop symbol."""
    return not text.translate(_AA_DELETE)


def is_rna_or_dna(text: str) -> bool:
    """``is_rna(text) or is_dna(text)`` in one pass (plus two ``T``/``U`` finds)."""
    return not text.translate(_NUCLEOTIDE_DELETE) and not (
        "T" in text and "U" in text
    )


def dna_to_rna(text: str) -> str:
    """Transcribe DNA letters to RNA letters (T -> U)."""
    return text.replace("T", "U")


def rna_to_dna(text: str) -> str:
    """Reverse-transcribe RNA letters to DNA letters (U -> T)."""
    return text.replace("U", "T")


def complement_dna(text: str) -> str:
    """Return the complement of a DNA string (not reversed)."""
    return text.translate(_DNA_COMPLEMENT)


def reverse_complement_dna(text: str) -> str:
    """Return the reverse complement of a DNA string."""
    return complement_dna(text)[::-1]


def complement_rna(text: str) -> str:
    """Return the complement of an RNA string (not reversed)."""
    return text.translate(_RNA_COMPLEMENT)


def reverse_complement_rna(text: str) -> str:
    """Return the reverse complement of an RNA string."""
    return complement_rna(text)[::-1]


_DNA_COMPLEMENT = str.maketrans("ACGT", "TGCA")
_RNA_COMPLEMENT = str.maketrans("ACGU", "UGCA")


def encode_rna(text: str) -> Iterable[int]:
    """Yield the 2-bit FabP code of each RNA nucleotide in ``text``.

    Raises ``KeyError`` on a non-RNA character, which is deliberate: silent
    coercion of bad reference data would corrupt alignment scores downstream.
    """
    return (RNA_CODE[ch] for ch in text)


def decode_rna(codes: Iterable[int]) -> str:
    """Inverse of :func:`encode_rna`."""
    return "".join(RNA_NUCLEOTIDES[c] for c in codes)


def nucleotide_bits(letter: str) -> Tuple[int, int]:
    """Return ``(hi, lo)`` bits of an RNA nucleotide's 2-bit code.

    The paper's Type III dependency functions select single bits of earlier
    reference nucleotides; this helper names them unambiguously:
    ``hi`` is bit 1 (A,C -> 0; G,U -> 1), ``lo`` is bit 0 (A,G -> 0; C,U -> 1).
    """
    code = RNA_CODE[letter]
    return (code >> 1) & 1, code & 1
