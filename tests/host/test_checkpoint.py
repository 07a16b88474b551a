"""Tests for the durable scan checkpoint store."""

import numpy as np
import pytest

from repro.core.encoding import encode_query
from repro.host.checkpoint import SCHEMA_VERSION, CheckpointStore, scan_fingerprint
from repro.host.errors import CheckpointMismatchError
from repro.host.scan import PackedDatabase
from repro.host.scan_session import plan_batch


@pytest.fixture
def database(rng):
    refs = [rng.integers(0, 4, size=n, dtype=np.uint8) for n in (200, 300, 250)]
    return PackedDatabase.from_references(refs)


def fingerprint(database, query="MKV", threshold=5, engine="bitscore",
                keep_scores=False, chunk_size=4):
    """The checkpoint fingerprint of a one-query scan of ``database``."""
    _passes, tasks = plan_batch(
        database.lengths, [encode_query(query)], [threshold], 1,
        chunk_size=chunk_size, engine=engine, keep_scores=keep_scores,
    )
    return scan_fingerprint(database, tasks, engine, keep_scores)


def make_payload(with_scores=False):
    scores = np.arange(5, dtype=np.int64) if with_scores else None
    return [
        (0, 0, 0, np.array([3, 9], dtype=np.int64), np.array([7, 8], dtype=np.int64),
         scores),
        (0, 1, 0, np.array([], dtype=np.int64), np.array([], dtype=np.int64),
         None),
    ]


class TestFingerprint:
    def test_stable_for_identical_inputs(self, database):
        assert fingerprint(database) == fingerprint(database)

    def test_sensitive_to_every_parameter(self, database):
        base = fingerprint(database)
        assert fingerprint(database, threshold=6) != base
        assert fingerprint(database, engine="naive") != base
        assert fingerprint(database, keep_scores=True) != base
        # The task layout is hashed, so a different chunking is a different
        # scan even though its results would be identical.
        assert fingerprint(database, chunk_size=1) != base
        assert fingerprint(database, query="MKW") != base

    def test_sensitive_to_database_contents(self, rng, database):
        base = fingerprint(database)
        refs = [rng.integers(0, 4, size=n, dtype=np.uint8) for n in (200, 300, 250)]
        other = PackedDatabase.from_references(refs)
        assert fingerprint(other) != base

    def test_pinned_digest(self):
        """A change to how queries are stored must not move the digest:
        existing checkpoint directories stay resumable."""
        database = PackedDatabase.from_references(
            [(np.arange(n) * 7 % 4).astype(np.uint8) for n in (200, 300)]
        )
        _passes, tasks = plan_batch(
            database.lengths, [encode_query("MKVLAWRS*")], [20], 1,
            chunk_size=1, engine="bitscore_batch", keep_scores=False,
        )
        assert scan_fingerprint(database, tasks, "bitscore_batch", False) == (
            "bdeabd7ffce90aa11e8cadd7f7d836584848e068903bb65c47f6ee12e4e24959"
        )


class TestChunkFiles:
    def test_save_load_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        payload = make_payload(with_scores=True)
        store.save_chunk(2, payload)
        loaded = store.load_chunk(2)
        assert loaded is not None
        assert len(loaded) == 2
        for original, restored in zip(payload, loaded):
            assert restored[:3] == original[:3]
            np.testing.assert_array_equal(restored[3], original[3])
            np.testing.assert_array_equal(restored[4], original[4])
            if original[5] is None:
                assert restored[5] is None
            else:
                np.testing.assert_array_equal(restored[5], original[5])

    def test_missing_chunk_is_none(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        assert store.load_chunk(0) is None

    def test_truncated_chunk_is_rescanned(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.save_chunk(0, make_payload())
        path = store.chunk_path(0)
        path.write_bytes(path.read_bytes()[:20])
        assert store.load_chunk(0) is None

    def test_garbage_chunk_is_rescanned(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.directory.mkdir(parents=True)
        store.chunk_path(1).write_bytes(b"not an npz file")
        assert store.load_chunk(1) is None


class TestPrepare:
    FP = "a" * 64

    def test_fresh_start_writes_manifest(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        assert store.prepare(self.FP, 4, 2, resume=False) == {}
        manifest = store.read_manifest()
        assert manifest["version"] == SCHEMA_VERSION
        assert manifest["fingerprint"] == self.FP
        assert manifest["num_chunks"] == 4

    def test_fresh_start_discards_stale_chunks(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.prepare(self.FP, 4, 2, resume=False)
        store.save_chunk(0, make_payload())
        # A non-resume run with the same directory must not reuse them.
        assert store.prepare(self.FP, 4, 2, resume=False) == {}
        assert not store.chunk_path(0).exists()

    def test_resume_returns_completed_chunks(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.prepare(self.FP, 4, 2, resume=False)
        store.save_chunk(1, make_payload())
        done = store.prepare(self.FP, 4, 2, resume=True)
        assert set(done) == {1}

    def test_resume_without_manifest_starts_fresh(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        assert store.prepare(self.FP, 4, 2, resume=True) == {}

    def test_resume_refuses_fingerprint_mismatch(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.prepare(self.FP, 4, 2, resume=False)
        with pytest.raises(CheckpointMismatchError):
            store.prepare("b" * 64, 4, 2, resume=True)

    def test_resume_refuses_chunk_count_mismatch(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.prepare(self.FP, 4, 2, resume=False)
        with pytest.raises(CheckpointMismatchError):
            store.prepare(self.FP, 8, 1, resume=True)
