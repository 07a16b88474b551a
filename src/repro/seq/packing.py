"""2-bit packing of nucleotide sequences, matching the FabP memory layout.

The FPGA stores the reference database in DRAM as a dense 2-bit-per-nucleotide
array and streams it over a 512-bit AXI interface, i.e. **256 nucleotides per
beat per channel**.  This module implements the same layout in numpy so that
the accelerator model and the performance model agree byte-for-byte on how
much memory a reference occupies and how many beats it takes to stream.

Layout: nucleotide ``i`` occupies bits ``[2*i, 2*i+1]`` of the packed bit
stream, least-significant-bit first within each byte.  Four nucleotides per
byte; codes are the FabP codes from :mod:`repro.seq.alphabet` (A=0, C=1, G=2,
U/T=3).
"""

from __future__ import annotations

import numpy as np

from repro.seq import alphabet
from repro.seq.sequence import RnaSequence, nucleotide_error

#: Nucleotides carried by one 512-bit AXI beat (one memory channel).
NUCLEOTIDES_PER_BEAT = 256

#: Bytes per AXI beat (512 bits).
BYTES_PER_BEAT = 64

# Byte -> FabP code, a ``bytes.translate`` table; 255 marks a byte that is
# not a nucleotide letter.
_CODES = {**alphabet.DNA_CODE, **alphabet.RNA_CODE}
_CODE_TABLE = bytes(_CODES.get(chr(byte), 255) for byte in range(256))

_RNA_LETTERS = np.frombuffer("".join(alphabet.RNA_NUCLEOTIDES).encode(), dtype=np.uint8)


def codes_from_text(text: str) -> np.ndarray:
    """Check and encode an RNA or DNA string in one lookup-table pass.

    Returns the uint8 code array.  Text that is not all RNA or all DNA
    letters (a character outside ``ACGTU``, non-ASCII text, or both ``T``
    and ``U``) raises :class:`~repro.seq.sequence.SequenceError` naming the
    bad letters.
    """
    if not text.isascii():
        raise nucleotide_error(text)
    # One C pass over one byte per letter; a bytearray keeps codes writable.
    codes = np.frombuffer(
        bytearray(text, "ascii").translate(_CODE_TABLE), dtype=np.uint8
    )
    if codes.max(initial=0) == 255 or ("T" in text and "U" in text):
        raise nucleotide_error(text)
    return codes


def text_from_codes(codes: np.ndarray) -> str:
    """Inverse of :func:`codes_from_text` (always renders RNA letters)."""
    return _RNA_LETTERS[np.asarray(codes, dtype=np.uint8)].tobytes().decode("ascii")


def codes_from_array(codes: np.ndarray) -> np.ndarray:
    """Check a reference code array and return it as uint8, in one pass for uint8.

    A 1-D array of an integer dtype (not ``bool``) whose values all lie in
    0..3 passes; anything else raises ``ValueError``, naming the first bad
    value and its position.  Values are checked before the cast, so a code
    of 259 or -1 is refused, not wrapped into range.
    """
    codes = np.asarray(codes)
    if codes.dtype.kind not in "iu":
        raise ValueError(f"reference codes must be integers, not {codes.dtype}")
    if codes.ndim != 1:
        raise ValueError(f"reference codes must be 1-D, not {codes.ndim}-D")
    if codes.dtype == np.uint8:
        bad = codes.size and codes.max() > 3
    else:
        bad = codes.size and (codes.min() < 0 or codes.max() > 3)
    if bad:
        at = int(np.argmax((codes < 0) | (codes > 3)))
        raise ValueError(f"reference code {codes[at]} at position {at} is outside 0..3")
    return codes.astype(np.uint8, copy=False)


def pack(codes: np.ndarray) -> np.ndarray:
    """Pack a code array (values 0..3) into a 2-bit-per-element byte array.

    The codes are checked by :func:`codes_from_array`.  The result is
    padded with ``A`` (code 0) to a whole number of bytes.
    """
    codes = codes_from_array(codes)
    padded_len = -(-codes.size // 4) * 4
    padded = np.zeros(padded_len, dtype=np.uint8)
    padded[: codes.size] = codes
    quads = padded.reshape(-1, 4)
    return (
        quads[:, 0]
        | (quads[:, 1] << 2)
        | (quads[:, 2] << 4)
        | (quads[:, 3] << 6)
    ).astype(np.uint8)


def unpack(packed: np.ndarray, count: int) -> np.ndarray:
    """Unpack ``count`` 2-bit codes from a packed byte array."""
    packed = np.asarray(packed, dtype=np.uint8)
    if count > packed.size * 4:
        raise ValueError(
            f"requested {count} codes but packed buffer holds only {packed.size * 4}"
        )
    quads = np.empty((packed.size, 4), dtype=np.uint8)
    quads[:, 0] = packed & 0x03
    quads[:, 1] = (packed >> 2) & 0x03
    quads[:, 2] = (packed >> 4) & 0x03
    quads[:, 3] = (packed >> 6) & 0x03
    return quads.reshape(-1)[:count]


def pack_sequence(sequence) -> np.ndarray:
    """Pack an :class:`RnaSequence` / DNA / string into the DRAM byte layout."""
    if isinstance(sequence, str):
        codes = codes_from_text(sequence)
    elif isinstance(sequence, RnaSequence):
        codes = codes_from_text(sequence.letters)
    else:  # DnaSequence or anything with .letters
        codes = codes_from_text(sequence.letters)
    return pack(codes)


def beats_required(num_nucleotides: int) -> int:
    """Number of 512-bit AXI beats needed to stream a reference of this length."""
    if num_nucleotides < 0:
        raise ValueError("sequence length cannot be negative")
    return -(-num_nucleotides // NUCLEOTIDES_PER_BEAT)


def packed_size_bytes(num_nucleotides: int) -> int:
    """DRAM footprint in bytes of a packed reference of this length."""
    if num_nucleotides < 0:
        raise ValueError("sequence length cannot be negative")
    return -(-num_nucleotides // 4)
