"""FabP 6-bit instruction encoding (§III-B of the paper).

Every back-translated query element becomes one 6-bit instruction with three
fields: a variable-length opcode, a matching condition, and two configuration
bits that steer the dependency multiplexer.  We write an instruction as the
bit string ``b0 b1 b2 b3 b4 b5`` in *transmission order* (``b0`` is the
paper's "first bit"); in the integer representation bit ``i`` of the int is
``b_i``, so ``instr & 1`` is the first opcode bit.

Layout (normative for this reproduction):

======  ==========================  =============================  ==========
Type    b0 b1                       b2 b3                          b4 b5
======  ==========================  =============================  ==========
I       ``0 0``                     nucleotide code (hi, lo)       ``0 0``
II      ``0 1``                     condition code (hi, lo)        ``0 0``
III     ``1`` + b1 = F-code hi      b2 = F-code lo, b3 = ``0``     mux select
======  ==========================  =============================  ==========

The two configuration bits select the comparison LUT's fourth input ``X``:

====== =========================================================
config  X source
====== =========================================================
``00``  the instruction's own bit ``b3`` (Types I/II and the D function)
``01``  hi bit of the previous reference nucleotide (Stop, F:00)
``10``  lo bit of the reference nucleotide two back (Arg, F:10)
``11``  hi bit of the reference nucleotide two back (Leu, F:01)
====== =========================================================

The paper fixes the opcodes, the condition codes, the F-codes and the fact
that the config bits drive a mux over earlier reference bits (Fig. 5a), but
its worked example is internally inconsistent about the exact mux ordering
(see DESIGN.md), so the ordering above is this library's normative choice;
every consumer derives from this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

from repro.core import backtranslate as bt
from repro.seq import alphabet
from repro.seq.sequence import ProteinSequence, as_protein

#: Number of bits per encoded query element.
INSTRUCTION_BITS = 6

#: Config values (b4 + 2*b5) for each X source.
CONFIG_SELF = 0b00  # X = instruction bit b3
CONFIG_PREV1_HI = 0b01  # X = hi bit of Ref[i-1]
CONFIG_PREV2_LO = 0b10  # X = lo bit of Ref[i-2]
CONFIG_PREV2_HI = 0b11  # X = hi bit of Ref[i-2]

_CONFIG_FOR_FUNCTION = {
    ("STOP"): CONFIG_PREV1_HI,
    ("LEU"): CONFIG_PREV2_HI,
    ("ARG"): CONFIG_PREV2_LO,
    ("ANY"): CONFIG_SELF,
}


class EncodingError(ValueError):
    """Raised on malformed instructions or unencodable elements."""


def _bits_to_int(bits: Sequence[int]) -> int:
    value = 0
    for index, bit in enumerate(bits):
        if bit not in (0, 1):
            raise EncodingError(f"bit values must be 0/1, got {bit!r}")
        value |= bit << index
    return value


def encode_element(element: bt.PatternElement) -> int:
    """Encode one pattern element into its 6-bit instruction."""
    if isinstance(element, bt.ExactElement):
        hi, lo = alphabet.nucleotide_bits(element.nucleotide)
        return _bits_to_int((0, 0, hi, lo, 0, 0))
    if isinstance(element, bt.ConditionalElement):
        code = bt.CONDITION_CODES[element.letters]
        return _bits_to_int((0, 1, (code >> 1) & 1, code & 1, 0, 0))
    if isinstance(element, bt.DependentElement):
        function = element.function
        config = _CONFIG_FOR_FUNCTION[function.name]
        return _bits_to_int(
            (
                1,
                (function.code >> 1) & 1,
                function.code & 1,
                0,
                config & 1,
                (config >> 1) & 1,
            )
        )
    raise EncodingError(f"unknown element type {type(element).__name__}")


def decode_element(instruction: int) -> bt.PatternElement:
    """Decode a 6-bit instruction back into a pattern element.

    Raises :class:`EncodingError` for encodings that no valid element
    produces (e.g. a Type I instruction with nonzero config bits); the
    hardware would silently misbehave on those, so the software model
    rejects them loudly.
    """
    if not 0 <= instruction < 64:
        raise EncodingError(f"instruction {instruction!r} is not a 6-bit value")
    b = [(instruction >> i) & 1 for i in range(6)]
    config = b[4] | (b[5] << 1)
    if b[0] == 0:
        if config != CONFIG_SELF:
            raise EncodingError(
                f"Type {'II' if b[1] else 'I'} instruction {instruction:#04x} "
                "must have config bits 00"
            )
        code = (b[2] << 1) | b[3]
        if b[1] == 0:
            return bt.ExactElement(alphabet.RNA_NUCLEOTIDES[code])
        return bt.ConditionalElement(bt.CONDITIONS_BY_CODE[code])
    f_code = (b[1] << 1) | b[2]
    function = bt.FUNCTIONS_BY_CODE[f_code]
    if b[3] != 0:
        raise EncodingError(
            f"Type III instruction {instruction:#04x} must have bit b3 = 0"
        )
    expected_config = _CONFIG_FOR_FUNCTION[function.name]
    if config != expected_config:
        raise EncodingError(
            f"function {function.name} requires config {expected_config:02b}, "
            f"instruction {instruction:#04x} carries {config:02b}"
        )
    return bt.DependentElement(function)


@dataclass(frozen=True)
class EncodedQuery:
    """A back-translated, encoded protein query ready for alignment.

    ``instructions`` holds one 6-bit value per back-translated nucleotide
    position (three per residue), in query order, one byte each.  This is
    exactly the bit stream the paper stores in the FPGA's distributed
    memory.  The constructor takes any iterable of ints and stores it as
    ``bytes``.
    """

    protein: ProteinSequence
    instructions: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.instructions, bytes):
            # map(int, ...) so that a NumPy array of any dtype is read by
            # value, not through its buffer.
            object.__setattr__(self, "instructions", bytes(map(int, self.instructions)))
        if len(self.instructions) != 3 * len(self.protein):
            raise EncodingError(
                f"query of {len(self.protein)} residues must encode to "
                f"{3 * len(self.protein)} instructions, got {len(self.instructions)}"
            )

    def __len__(self) -> int:
        """Number of encoded elements (nucleotide positions), ``3 * residues``."""
        return len(self.instructions)

    @property
    def num_residues(self) -> int:
        return len(self.protein)

    def as_array(self) -> np.ndarray:
        """Instructions as a read-only uint8 view (for the vectorized aligner)."""
        return np.frombuffer(self.instructions, dtype=np.uint8)

    def storage_bits(self) -> int:
        """Bits of FPGA distributed memory the encoded query occupies."""
        return INSTRUCTION_BITS * len(self.instructions)

    def decode(self) -> Tuple[bt.PatternElement, ...]:
        """Decode back to pattern elements (round-trip check helper)."""
        return tuple(decode_element(i) for i in self.instructions)


def encode_pattern(pattern: bt.CodonPattern) -> Tuple[int, int, int]:
    """Encode a single codon pattern into its three instructions."""
    first, second, third = pattern.elements
    return (encode_element(first), encode_element(second), encode_element(third))


#: Each residue's three instructions, from its paper-mode codon pattern.
_RESIDUE_INSTRUCTIONS = {
    residue: bytes(encode_pattern(pattern))
    for residue, pattern in bt.BACK_TRANSLATION_TABLE.items()
}


def encode_query(protein: Union[ProteinSequence, str]) -> EncodedQuery:
    """Back-translate and encode a protein query (paper mode).

    This is the host-side preprocessing step of the paper's pipeline: the
    result is what gets DMA-ed into the FPGA's flip-flop-based query memory.
    Each residue is one lookup of its instruction triple, which
    :func:`encode_pattern` derived from ``BACK_TRANSLATION_TABLE``.  A
    query given as text is encoded once per distinct text while it stays
    among the :data:`ENCODE_CACHE_SIZE` most recent: a session asked for
    the same query again shares one immutable :class:`EncodedQuery`.
    """
    if isinstance(protein, str):
        return _encode_text(protein)
    return _encode(as_protein(protein))


#: Distinct query texts :func:`encode_query` keeps encoded.  Bounded, so a
#: long-lived service asked for ever new queries holds at most this many
#: (under 2 KB each at the 250-residue budget).
ENCODE_CACHE_SIZE = 64


@lru_cache(maxsize=ENCODE_CACHE_SIZE)
def _encode_text(text: str) -> EncodedQuery:
    return _encode(ProteinSequence(text))


def _encode(sequence: ProteinSequence) -> EncodedQuery:
    try:
        instructions = b"".join(map(_RESIDUE_INSTRUCTIONS.__getitem__, sequence.letters))
    except KeyError as exc:
        raise KeyError(f"no back-translation pattern for residue {exc}") from None
    return EncodedQuery(sequence, instructions)


def encode_patterns(patterns: Iterable[bt.CodonPattern]) -> Tuple[int, ...]:
    """Encode an arbitrary pattern stream (used by tests and the RTL model)."""
    out: List[int] = []
    for pattern in patterns:
        out.extend(encode_pattern(pattern))
    return tuple(out)


def pad_instruction() -> int:
    """The padding instruction for under-length queries.

    §IV-A: "the length refers to the maximum sequence length, and FabP can
    work with any sequence smaller than that".  A shorter query fills the
    remaining hardware columns with always-match (``D``) instructions: each
    pad element adds exactly +1 to every position's score, so the kernel
    offsets the threshold by the pad count and subtracts it from reported
    scores — bit-identical results to a right-sized array.
    """
    from repro.core import backtranslate as bt

    return encode_element(bt.DependentElement(bt.FUNCTION_ANY))


def instruction_bit_string(instruction: int) -> str:
    """Render an instruction as its transmission-order bit string."""
    if not 0 <= instruction < 64:
        raise EncodingError(f"instruction {instruction!r} is not a 6-bit value")
    return "".join(str((instruction >> i) & 1) for i in range(6))
