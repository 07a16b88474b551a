"""Position-balanced windows: planning, halo context, bit-exact merge.

Pins the invariant the module docstring promises: concatenating the kept
slices of windowed scans in window order is bit-identical to scoring the
whole reference in one call — including the ``x_bit_rows`` look-back
context at every seam and the ``keep_scores`` reconstruction.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aligner import scores_from_codes
from repro.core.encoding import encode_query
from repro.host import windows
from repro.host.scan import PackedDatabase
from repro.seq.generate import random_protein, random_rna
from repro.seq.packing import codes_from_text


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(20210521)


class TestPlanWindows:
    def test_windows_partition_every_position(self, rng):
        lengths = [9_000, 40, 70_000, 0, 12_345]
        span = 90
        chunks = windows.plan_windows(lengths, span, 3, target_positions=1_000)
        seen = {}
        for chunk in chunks:
            for w in chunk:
                seen.setdefault(w.reference, []).append((w.start, w.stop))
        for reference, length in enumerate(lengths):
            total = windows.num_positions(length, span)
            spans_ = sorted(seen.get(reference, []))
            if total == 0:
                assert spans_ == []
                continue
            # Contiguous, non-overlapping, covering [0, total).
            assert spans_[0][0] == 0
            assert spans_[-1][1] == total
            for (_, stop), (start, _) in zip(spans_, spans_[1:]):
                assert stop == start

    def test_short_references_yield_no_windows(self):
        assert windows.plan_windows([10, 5], 90, 4) == []

    def test_invalid_span_rejected(self):
        with pytest.raises(ValueError):
            windows.plan_windows([100], 0, 1)

    def test_balance_beats_reference_chunking(self, monkeypatch):
        # The motivating workload: one long reference among short ones,
        # with enough work (387 M cells over a 32 M-cell floor) that
        # splitting it pays.
        monkeypatch.setattr(windows, "MIN_CHUNK_CELLS", 1 << 25)
        lengths = [4_000_000, 100_000, 100_000, 100_000]
        chunks = windows.plan_windows(lengths, 90, 4)
        loads = sorted(
            sum(w.positions for w in chunk) for chunk in chunks
        )
        assert len(chunks) > len(lengths) - 1
        assert loads[-1] < windows.num_positions(lengths[0], 90)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_small_scans_keep_a_floor_of_work_per_chunk(self, workers):
        """4 x 80 knt with a 150-element query is 48 M cells, under
        MIN_CHUNK_CELLS: one chunk at any worker count, which runs on the
        calling thread."""
        chunks = windows.plan_windows([80_000] * 4, 150, workers)
        assert len(chunks) == 1
        assert [(w.start, w.stop) for w in chunks[0]] == [(0, 79_851)] * 4

    def test_large_scans_plan_by_workers_not_the_floor(self):
        """16 x 256 knt with a 750-element query: the floor (357,914
        positions) is below a worker's share, so each of 2 workers gets
        OVERSUBSCRIPTION chunks of whole references."""
        assert windows.min_chunk_positions(750) == 357_914
        chunks = windows.plan_windows([256_000] * 16, 750, 2)
        assert len(chunks) == 2 * windows.OVERSUBSCRIPTION
        assert all(len(chunk) == 2 for chunk in chunks)
        assert all(w.start == 0 for chunk in chunks for w in chunk)

    @pytest.mark.parametrize(
        "total, workers, expected",
        [(0, 2, 1), (1, 2, 1), (2, 2, 2), (3, 2, 2), (5, 4, 4), (7, 4, 4),
         (9, 4, 8), (100, 2, 8), (100, 3, 12), (3, 1, 3)],
    )
    def test_chunk_count_rounds_down_to_whole_rounds(
        self, monkeypatch, total, workers, expected
    ):
        """Counted in floors of 10 positions: at most workers x
        OVERSUBSCRIPTION, a multiple of workers once it reaches them."""
        monkeypatch.setattr(windows, "MIN_CHUNK_CELLS", 100)
        assert windows.num_chunks(10 * total, 2, workers, cells_per_position=10) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        lengths=st.lists(st.integers(0, 5_000), min_size=1, max_size=8),
        span=st.integers(1, 60),
        members=st.integers(1, 4),
        workers=st.integers(1, 6),
        min_cells=st.integers(1, 200_000),
    )
    def test_plan_properties(self, lengths, span, members, workers, min_cells):
        """Windows cover every position once, in (reference, start) order;
        the chunk count is a multiple of the workers once it reaches them;
        every chunk but the last carries MIN_CHUNK_CELLS of pass cells."""
        weight = span * members
        with mock.patch.object(windows, "MIN_CHUNK_CELLS", min_cells):
            chunks = windows.plan_windows(
                lengths, span, workers, cells_per_position=weight
            )
        flat = [(w.reference, w.start, w.stop) for chunk in chunks for w in chunk]
        want = []
        for reference, length in enumerate(lengths):
            positions = windows.num_positions(length, span)
            if positions:
                want.append((reference, 0, positions))
        # Merging the windows of each reference gives back its positions.
        merged = []
        for reference, start, stop in flat:
            assert start < stop
            if merged and merged[-1][0] == reference:
                assert merged[-1][2] == start
                merged[-1] = (reference, merged[-1][1], stop)
            else:
                merged.append((reference, start, stop))
        assert merged == want
        if not want:
            assert chunks == []
            return
        assert all(chunk for chunk in chunks)
        if len(chunks) >= workers:
            assert len(chunks) % workers == 0
        assert len(chunks) <= workers * windows.OVERSUBSCRIPTION
        cells = [weight * sum(w.positions for w in chunk) for chunk in chunks]
        assert all(c >= min_cells for c in cells[:-1])


class TestWindowedScanBitIdentity:
    """Windowed scores == whole-reference scores, slice for slice."""

    @pytest.mark.parametrize("residues", [5, 30, 250])
    def test_long_reference_merges_bit_identical(self, rng, residues):
        query = random_protein(residues, rng=rng)
        encoded = encode_query(query).as_array()
        span = int(encoded.size)
        reference = random_rna(20_000, rng=rng).letters
        database = PackedDatabase.from_references([reference])
        length = int(database.lengths[0])
        full = scores_from_codes(encoded, codes_from_text(reference))

        chunks = windows.plan_windows([length], span, 2, target_positions=777)
        all_windows = [w for chunk in chunks for w in chunk]
        assert len(all_windows) > 10  # the seam case, many times over
        cells = []
        for w in all_windows:
            codes, lookback = windows.window_codes(
                database.buffer, int(database.byte_offsets[0]), length,
                w.start, w.stop, span,
            )
            scores = scores_from_codes(encoded, codes)
            kept = scores[lookback : lookback + w.positions]
            hits = np.nonzero(kept >= span)[0]
            cells.append((hits.astype(np.int64), kept[hits], kept))
        # One query's rows over the windows, window after window, as a
        # scan task returns them and the session merge joins them.
        merged = windows.split_rows(
            [(w.reference, w.start, w.stop) for w in all_windows],
            [hits.size for hits, _, _ in cells],
            *(np.concatenate(row) for row in zip(*cells)),
            [length], span, [0],
        )
        positions, hit_scores, scores, merged_length = merged[0]
        assert merged_length == length
        assert np.array_equal(scores, full)
        assert np.array_equal(positions, np.nonzero(full >= span)[0])
        assert np.array_equal(hit_scores, full[positions])

    def test_many_references_split_bit_identical(self, rng):
        """Windows of several references, some shorter than the query, in
        one row; any subset of the references comes back whole."""
        encoded = encode_query(random_protein(12, rng=rng)).as_array()
        span = int(encoded.size)
        texts = [random_rna(n, rng=rng).letters for n in (900, 20, 1500, 36, 700)]
        database = PackedDatabase.from_references(texts)
        lengths = database.length_list
        plan = windows.plan_windows(lengths, span, 2, target_positions=311)
        spans = [(w.reference, w.start, w.stop) for chunk in plan for w in chunk]
        threshold = span // 2
        cells = []
        for reference, start, stop in spans:
            codes, lookback = windows.window_codes(
                database.buffer, int(database.byte_offsets[reference]),
                lengths[reference], start, stop, span,
            )
            kept = scores_from_codes(encoded, codes)[lookback : lookback + stop - start]
            hits = np.nonzero(kept >= threshold)[0]
            cells.append((hits.astype(np.int64), kept[hits], kept))
        rows = [np.concatenate(row) for row in zip(*cells)]
        counts = [hits.size for hits, _, _ in cells]
        for references in ([0, 1, 2, 3, 4], [0, 2, 3], [4], []):
            merged = windows.split_rows(spans, counts, *rows, lengths, span, references)
            assert len(merged) == len(references)
            for reference, (positions, hit_scores, scores, length) in zip(
                references, merged
            ):
                full = scores_from_codes(encoded, codes_from_text(texts[reference]))
                assert length == lengths[reference]
                assert np.array_equal(scores, full)
                assert np.array_equal(positions, np.nonzero(full >= threshold)[0])
                assert np.array_equal(hit_scores, full[positions])

    def test_window_start_before_lookback(self, rng):
        # start in {0, 1} has fewer than LOOKBACK real predecessors; the
        # kept slice must still match the full scan's boundary behaviour.
        query = random_protein(4, rng=rng)
        encoded = encode_query(query).as_array()
        span = int(encoded.size)
        reference = random_rna(64, rng=rng).letters
        database = PackedDatabase.from_references([reference])
        length = int(database.lengths[0])
        full = scores_from_codes(encoded, codes_from_text(reference))
        for start in (0, 1, 2, 3):
            stop = min(windows.num_positions(length, span), start + 7)
            codes, lookback = windows.window_codes(
                database.buffer, 0, length, start, stop, span
            )
            kept = scores_from_codes(encoded, codes)[
                lookback : lookback + (stop - start)
            ]
            assert np.array_equal(kept, full[start:stop]), start


class TestSplitRows:
    def test_missing_window_is_detected(self):
        with pytest.raises(ValueError, match="merged scores cover 50 of 100"):
            windows.split_rows(
                [(0, 0, 50)], [0], np.zeros(0, np.int64), np.zeros(0, np.int32),
                np.zeros(50, np.int32), [199], 100, [0],
            )

    def test_empty_reference_synthesizes_empty_result(self):
        empty = np.zeros(0, np.int64)
        merged = windows.split_rows(
            np.zeros((0, 3), np.int64), empty, empty, empty.astype(np.int32),
            empty.astype(np.int32), [10], 90, [0],
        )
        positions, hit_scores, scores, length = merged[0]
        assert positions.size == 0 and hit_scores.size == 0
        assert scores is not None and scores.size == 0
        assert length == 10
