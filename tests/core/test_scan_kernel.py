"""The compiled batch scan kernel against the ``naive`` oracle, and its fallback.

``bitscore.scores_batch`` runs ``scan_kernel.c`` when the library was built
and its NumPy body otherwise.  The edge cases here sit where the C code
could go wrong: word and tile edges (a tile is 8 words, 512 positions),
references shorter than the look-back window, dependent-only queries,
ragged batches that size the shared planes, and counters wider than the
750-element budget.
"""

import numpy as np
import pytest

from repro.core import bitscore, native
from repro.core.aligner import scores_batch_from_codes, scores_from_codes
from repro.core.encoding import encode_query
from repro.seq.generate import random_protein
from repro.seq.packing import codes_from_text
from repro.workloads.builder import encode_protein_as_rna

requires_native = pytest.mark.skipif(
    bitscore._NATIVE is None, reason="the compiled kernel is not available"
)


def _naive(instructions, codes):
    return scores_from_codes(instructions, codes, "naive")


def _assert_batch_is_naive(batch, codes):
    got = bitscore.scores_batch(batch, codes)
    assert len(got) == len(batch)
    for scores, instructions in zip(got, batch):
        assert scores.dtype == np.int32
        assert np.array_equal(scores, _naive(instructions, codes))


@requires_native
class TestNativeKernel:
    @pytest.mark.parametrize("positions", [1, 63, 64, 65, 511, 512, 513])
    def test_word_and_tile_edges(self, rng, positions):
        batch = [encode_query(random_protein(aa, rng=rng)).as_array() for aa in (1, 9, 30)]
        for instructions in batch:
            codes = rng.integers(0, 4, instructions.size + positions - 1).astype(np.uint8)
            scores = bitscore.scores_batch([instructions], codes)[0]
            assert scores.size == positions
            assert np.array_equal(scores, _naive(instructions, codes))

    @pytest.mark.parametrize("length", [1, 2])
    def test_reference_shorter_than_lookback(self, rng, length):
        """Raw instructions of every config read look-back past the start as A."""
        codes = rng.integers(0, 4, length).astype(np.uint8)
        batch = [np.arange(64, dtype=np.uint8)[i : i + length] for i in range(0, 64, 2)]
        batch += [np.array([i], dtype=np.uint8) for i in range(64)]
        _assert_batch_is_naive(batch, codes)

    def test_every_instruction_over_every_context(self, rng):
        codes = rng.integers(0, 4, 3000).astype(np.uint8)
        batch = [rng.permutation(64).astype(np.uint8) for _ in range(3)]
        _assert_batch_is_naive(batch, codes)

    def test_every_plane_is_match_bytes(self):
        """All 256 instruction bytes over all 64 contexts, bit for bit.

        Position ``3c + 2`` of the reference sees context ``c = code |
        prev1 << 2 | prev2 << 4``; every other position (the first two read
        look-back as A) is checked too.  This pins ``_CONTEXT_MASKS`` to
        ``comparator.instruction_tables`` through ``match_bytes``.
        """
        contexts = np.arange(64)
        codes = np.stack(
            [(contexts >> 4) & 3, (contexts >> 2) & 3, contexts & 3], axis=1
        ).ravel().astype(np.uint8)
        instructions = np.arange(256, dtype=np.uint8)
        plane_words = -(-codes.size // bitscore.WORD_BITS)
        planes = bitscore._native_planes(
            bitscore._NATIVE, instructions, codes, plane_words
        )
        bits = np.unpackbits(
            planes.view(np.uint8), axis=1, bitorder="little", count=codes.size
        )
        rows, element_rows = bitscore.match_bytes(instructions, codes)
        assert np.array_equal(element_rows, np.arange(256))
        assert np.array_equal(bits, rows)

    def test_instruction_bits_above_six_select_nothing(self, rng, monkeypatch):
        """Raw bytes past 63 score as their low six bits, as in the NumPy body."""
        codes = rng.integers(0, 4, 700).astype(np.uint8)
        batch = [rng.permutation(256).astype(np.uint8)[:90] for _ in range(3)]
        native_scores = bitscore.scores_batch(batch, codes)
        monkeypatch.setattr(bitscore, "_NATIVE", None)
        for got, want in zip(native_scores, bitscore.scores_batch(batch, codes)):
            assert np.array_equal(got, want)

    def test_all_type_iii_queries(self, rng):
        batch = [encode_query("".join(rng.choice(list("LRS*"), 40))).as_array()
                 for _ in range(4)]
        codes = rng.integers(0, 4, 2000).astype(np.uint8)
        _assert_batch_is_naive(batch, codes)

    def test_ragged_batch_sizes_planes_for_every_member(self, rng):
        """The longest member keeps one position; the shortest has the most."""
        codes = rng.integers(0, 4, 1100).astype(np.uint8)
        lengths = (1, 37, 170, 366)  # 366 aa = 1098 elements: 3 positions
        batch = [encode_query(random_protein(aa, rng=rng)).as_array() for aa in lengths]
        batch.append(rng.integers(0, 64, codes.size).astype(np.uint8))  # 1 position
        _assert_batch_is_naive(batch, codes)

    def test_query_past_the_lane_budget_is_exact(self, rng):
        """1,200 elements need 11 counter planes, not the 10 of 750."""
        protein = random_protein(400, rng=rng)
        instructions = encode_query(protein).as_array()
        assert instructions.size == 1200
        codes = rng.integers(0, 4, 2500).astype(np.uint8)
        # A planted back-translation scores past 10 bits at position 100.
        codes[100:1300] = codes_from_text(encode_protein_as_rna(protein, rng=rng).letters)
        got = scores_from_codes(instructions, codes, "bitscore_batch")
        assert got[100] >= 1 << 10
        assert np.array_equal(got, _naive(instructions, codes))

    def test_matches_numpy_body_on_a_long_reference(self, rng, monkeypatch):
        batch = [encode_query(random_protein(aa, rng=rng)).as_array() for aa in (250, 80)]
        codes = rng.integers(0, 4, 60_000).astype(np.uint8)
        native_scores = bitscore.scores_batch(batch, codes)
        monkeypatch.setattr(bitscore, "_NATIVE", None)
        for got, want in zip(native_scores, bitscore.scores_batch(batch, codes)):
            assert np.array_equal(got, want)


@requires_native
@pytest.mark.parametrize("bounds", [(-1, 10), (5, 4), (0, 52)])
def test_hits_batch_refuses_bounds_outside_the_positions(bounds):
    """The kernel reads planes sized from the bounds: bad ones never reach it."""
    instructions = encode_query("MK").as_array()  # 6 elements: 51 positions
    codes = np.zeros(56, dtype=np.uint8)
    with pytest.raises(ValueError, match="outside"):
        bitscore.hits_batch([instructions], codes, [1], [bounds])


def test_codes_outside_the_alphabet_take_the_numpy_body():
    """The NumPy body's IndexError, never a read outside the truth masks."""
    instructions = encode_query("MK").as_array()
    with pytest.raises(IndexError):
        bitscore.scores_batch([instructions], np.full(20, 7, dtype=np.uint8))


class TestFallback:
    def test_missing_compiler_leaves_numpy_working(self, tmp_path, monkeypatch, rng):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setenv("PATH", str(tmp_path))  # no cc on it
        library = native.load()
        assert library is None
        monkeypatch.setattr(bitscore, "_NATIVE", library)
        instructions = encode_query(random_protein(20, rng=rng)).as_array()
        codes = rng.integers(0, 4, 700).astype(np.uint8)
        (got,) = scores_batch_from_codes([instructions], codes, "bitscore_batch")
        assert np.array_equal(got, _naive(instructions, codes))

    def test_failed_build_leaves_no_files(self, tmp_path, monkeypatch):
        failing = tmp_path / "bin" / "cc"
        failing.parent.mkdir()
        failing.write_text("#!/bin/sh\nexit 1\n")
        failing.chmod(0o755)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setenv("PATH", str(failing.parent))
        assert native.load() is None
        assert list(native.cache_dir().iterdir()) == []

    @requires_native
    def test_build_is_cached_by_source_flags_and_cpu(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert native.load() is not None
        (built,) = native.cache_dir().iterdir()
        assert built == native.library_path(native.SOURCE.read_bytes())
        assert native.library_path(b"/* edited */") != built
        monkeypatch.setattr(native, "_cpu_flags", lambda: "another cpu")
        assert native.library_path(native.SOURCE.read_bytes()) != built
