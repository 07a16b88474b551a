"""Tests for the packed database image and the one-shot scan."""

import numpy as np
import pytest

from repro.core.aligner import align, search_database
from repro.host.scan import (
    PackedDatabase,
    chunk_bounds,
    resolve_workers,
    scan_database,
)
from repro.seq.generate import random_protein, random_rna
from repro.seq.packing import codes_from_text


@pytest.fixture
def database_refs(rng):
    return [random_rna(3_000, rng=rng) for _ in range(5)]


class TestPackedDatabase:
    def test_roundtrip(self, rng, database_refs):
        db = PackedDatabase.from_references(database_refs)
        assert db.num_references == 5
        assert db.total_nucleotides == 15_000
        assert db.packed_bytes == 5 * 750  # 2 bits/nt
        for i, ref in enumerate(database_refs):
            assert np.array_equal(
                db.reference_codes(i), codes_from_text(ref.letters)
            )

    def test_accepts_prepacked_code_arrays_with_names(self, rng):
        codes = [codes_from_text(random_rna(100, rng=rng).letters) for _ in range(2)]
        db = PackedDatabase.from_references(codes, names=["a", "b"])
        assert db.names == ("a", "b")
        assert np.array_equal(db.reference_codes(1), codes[1])

    def test_empty_database(self):
        db = PackedDatabase.from_references([])
        assert db.num_references == 0
        assert db.total_nucleotides == 0


class TestChunking:
    def test_chunk_bounds_cover_all_indices(self):
        bounds = chunk_bounds(10, 3)
        assert bounds == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            chunk_bounds(10, 0)

    def test_resolve_workers(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        with pytest.raises(ValueError):
            resolve_workers(-1)


class TestScan:
    def test_serial_scan_matches_search_database(self, rng, database_refs):
        query = random_protein(8, rng=rng)
        naive = [
            align(query, ref, min_identity=0.4, engine="naive")
            for ref in database_refs
        ]
        searched = search_database(query, database_refs, min_identity=0.4)
        scanned = scan_database(query, database_refs, min_identity=0.4, workers=1)
        for results in (searched, scanned):
            assert len(results) == len(naive)
            for a, b in zip(naive, results):
                assert a.hits == b.hits
                assert a.reference_name == b.reference_name
                assert a.reference_length == b.reference_length
                assert a.threshold == b.threshold

    def test_parallel_scan_matches_serial(self, rng):
        # Large enough to clear the serial-fallback size gate.
        refs = [random_rna(70_000, rng=rng) for _ in range(4)]
        query = random_protein(10, rng=rng)
        serial = [align(query, ref, min_identity=0.4) for ref in refs]
        parallel = scan_database(
            query, refs, min_identity=0.4, workers=2, chunk_size=1
        )
        assert [r.hits for r in parallel] == [r.hits for r in serial]

    def test_keep_scores_plumbed_through(self, rng, database_refs):
        query = random_protein(8, rng=rng)
        results = scan_database(
            query, database_refs, min_identity=0.4, workers=1, keep_scores=True
        )
        for result in results:
            assert result.scores is not None
            assert result.scores.size == 3_000 - 24 + 1

    def test_prepacked_database_reused(self, rng, database_refs):
        query = random_protein(8, rng=rng)
        db = PackedDatabase.from_references(database_refs)
        first = scan_database(query, db, min_identity=0.4)
        second = scan_database(query, db, min_identity=0.4)
        assert [r.hits for r in first] == [r.hits for r in second]

    def test_results_in_input_order(self, rng):
        refs = [random_rna(70_000, rng=rng) for _ in range(6)]
        query = random_protein(10, rng=rng)
        results = scan_database(
            query, refs, min_identity=0.4, workers=3, chunk_size=2
        )
        assert [r.reference_length for r in results] == [70_000] * 6


class TestSearchDatabaseIntegration:
    def test_workers_knob_routes_through_scan(self, rng):
        refs = [random_rna(70_000, rng=rng) for _ in range(4)]
        query = random_protein(10, rng=rng)
        serial = [align(query, ref, min_identity=0.4) for ref in refs]
        routed = search_database(query, refs, min_identity=0.4, workers=2)
        assert [r.hits for r in routed] == [r.hits for r in serial]

    def test_code_outside_two_bits_is_refused(self):
        codes = np.array([0, 1, 2, 3, 4] * 10, dtype=np.uint8)
        with pytest.raises(ValueError):
            search_database("MKV", [codes], threshold=1)

    def test_prepacked_code_arrays_accepted(self, rng):
        codes = [
            codes_from_text(random_rna(2_000, rng=rng).letters) for _ in range(3)
        ]
        query = random_protein(8, rng=rng)
        results = search_database(query, codes, min_identity=0.4, keep_scores=True)
        assert len(results) == 3
        assert all(r.scores is not None for r in results)


class TestFabPHostScan:
    def test_scan_matches_search_hits(self, rng):
        from repro.host.session import FabPHost

        query = random_protein(10, rng=rng)
        refs = [random_rna(4_000, rng=rng) for _ in range(3)]
        host = FabPHost()
        host.add_references(refs)
        scan_results = host.scan(query, min_identity=0.5)
        search_result = host.search(query, min_identity=0.5)
        scan_hits = {
            (r.reference_name, h.position, h.score)
            for r in scan_results
            for h in r.hits
        }
        search_hits = {
            (h.reference, h.position, h.score) for h in search_result.hits
        }
        assert scan_hits == search_hits

    def test_empty_database_rejected(self):
        from repro.host.session import FabPHost

        with pytest.raises(ValueError):
            FabPHost().scan("MFW")
