"""Immutable sequence value types: DNA, RNA, and protein.

These are thin, validated wrappers around strings.  They exist so that the
rest of the library can state in signatures *which kind* of sequence a
function consumes — the FabP pipeline moves between all three kinds (protein
query -> back-translated RNA pattern -> 2-bit packed reference), and passing
the wrong one is the classic source of silent bioinformatics bugs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.seq import alphabet


class SequenceError(ValueError):
    """Raised when sequence content does not match its declared alphabet."""


@dataclass(frozen=True)
class _BaseSequence:
    """Common behaviour for the three sequence kinds."""

    letters: str
    name: str = field(default="", compare=False)

    #: Overridden by subclasses with the alphabet validator.
    _validator = staticmethod(lambda text: True)
    _kind = "sequence"

    def __post_init__(self) -> None:
        if not self._validator(self.letters):
            bad = sorted(ch for ch in set(self.letters) if not self._validator(ch))
            raise SequenceError(
                f"invalid {self._kind} letters {bad!r} in sequence "
                f"{self.name or '<unnamed>'}"
            )

    @classmethod
    def _unchecked(cls, letters: str, name: str = ""):
        """Wrap letters already known to be in the alphabet, skipping the check."""
        sequence = object.__new__(cls)
        object.__setattr__(sequence, "letters", letters)
        object.__setattr__(sequence, "name", name)
        return sequence

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    def __getitem__(self, index):
        piece = self.letters[index]
        if isinstance(index, slice):
            return self._unchecked(piece, self.name)
        return piece

    def __str__(self) -> str:
        return self.letters

    def __repr__(self) -> str:
        shown = self.letters if len(self.letters) <= 40 else self.letters[:37] + "..."
        label = f" name={self.name!r}" if self.name else ""
        return f"{type(self).__name__}({shown!r}{label}, len={len(self.letters)})"


@dataclass(frozen=True, repr=False)
class DnaSequence(_BaseSequence):
    """A DNA sequence over ``A, C, G, T``."""

    _validator = staticmethod(alphabet.is_dna)
    _kind = "DNA"

    def to_rna(self) -> "RnaSequence":
        """Transcribe to RNA (T -> U)."""
        return RnaSequence._unchecked(alphabet.dna_to_rna(self.letters), self.name)

    def reverse_complement(self) -> "DnaSequence":
        """Return the reverse-complement strand."""
        return self._unchecked(
            alphabet.reverse_complement_dna(self.letters), self.name
        )


@dataclass(frozen=True, repr=False)
class RnaSequence(_BaseSequence):
    """An RNA sequence over ``A, C, G, U`` — FabP's reference alphabet."""

    _validator = staticmethod(alphabet.is_rna)
    _kind = "RNA"

    def to_dna(self) -> DnaSequence:
        """Reverse-transcribe to DNA (U -> T)."""
        return DnaSequence._unchecked(alphabet.rna_to_dna(self.letters), self.name)

    def reverse_complement(self) -> "RnaSequence":
        """Return the reverse-complement strand."""
        return self._unchecked(
            alphabet.reverse_complement_rna(self.letters), self.name
        )

    def codes(self):
        """Return the FabP 2-bit code of every nucleotide as a list."""
        return list(alphabet.encode_rna(self.letters))


@dataclass(frozen=True, repr=False)
class ProteinSequence(_BaseSequence):
    """A protein sequence over the 20 amino acids plus ``*`` (stop)."""

    _validator = staticmethod(alphabet.is_protein)
    _kind = "protein"

    def three_letter(self) -> str:
        """Render with three-letter residue names, paper style."""
        return "-".join(alphabet.THREE_LETTER[aa] for aa in self.letters)


def as_rna(sequence) -> RnaSequence:
    """Coerce a DNA/RNA sequence or plain string into :class:`RnaSequence`.

    DNA input is transcribed.  A string is checked once: it must be all RNA
    or all DNA letters, else :func:`nucleotide_error` is raised.
    """
    if isinstance(sequence, RnaSequence):
        return sequence
    if isinstance(sequence, DnaSequence):
        return sequence.to_rna()
    if isinstance(sequence, str):
        if not alphabet.is_rna_or_dna(sequence):
            raise nucleotide_error(sequence)
        return RnaSequence._unchecked(alphabet.dna_to_rna(sequence))
    raise TypeError(f"cannot interpret {type(sequence).__name__} as RNA")


def nucleotide_error(text: str) -> SequenceError:
    """The error for ``text`` that is neither all RNA nor all DNA letters.

    It names the characters outside ``ACGTU`` or, when there are none, the
    ``T`` and ``U`` the string mixes.
    """
    bad = sorted(set(text) - set(alphabet.NUCLEOTIDE_LETTERS))
    if bad:
        return SequenceError(f"non-nucleotide characters in sequence: {bad!r}")
    return SequenceError("sequence mixes DNA and RNA letters: ['T', 'U']")


def as_protein(sequence) -> ProteinSequence:
    """Coerce a protein sequence or plain string into :class:`ProteinSequence`."""
    if isinstance(sequence, ProteinSequence):
        return sequence
    if isinstance(sequence, str):
        return ProteinSequence(sequence)
    raise TypeError(f"cannot interpret {type(sequence).__name__} as protein")
