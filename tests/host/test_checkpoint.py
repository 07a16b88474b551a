"""Tests for the durable scan checkpoint store."""

import numpy as np
import pytest

from repro.core.aligner import scores_from_codes
from repro.core.encoding import encode_query
from repro.host.checkpoint import SCHEMA_VERSION, CheckpointStore, scan_fingerprint
from repro.host.errors import CheckpointMismatchError
from repro.host.faults import ALWAYS, FaultKind, FaultPlan, FaultSpec
from repro.host.scan import PackedDatabase
from repro.host.scan_session import ScanSession, plan_batch


@pytest.fixture
def database(rng):
    refs = [rng.integers(0, 4, size=n, dtype=np.uint8) for n in (200, 300, 250)]
    return PackedDatabase.from_references(refs)


def fingerprint(database, query="MKV", threshold=5, keep_scores=False, chunk_size=4):
    """The checkpoint fingerprint of a one-query scan of ``database``."""
    _passes, tasks = plan_batch(
        database.lengths, [encode_query(query)], [threshold], 1,
        chunk_size=chunk_size, keep_scores=keep_scores,
    )
    return scan_fingerprint(database, tasks, keep_scores)


def make_payload(with_scores=False):
    """A two-cell chunk file's arrays, in the schema-2 layout."""
    arrays = {
        "meta": np.array([[0, 0, 0, int(with_scores)], [0, 1, 0, 0]], dtype=np.int64),
        "pos_0": np.array([3, 9], dtype=np.int64),
        "hs_0": np.array([7, 8], dtype=np.int64),
        "pos_1": np.array([], dtype=np.int64),
        "hs_1": np.array([], dtype=np.int64),
    }
    if with_scores:
        arrays["sc_0"] = np.arange(5, dtype=np.int64)
    return arrays


class TestFingerprint:
    def test_stable_for_identical_inputs(self, database):
        assert fingerprint(database) == fingerprint(database)

    def test_sensitive_to_every_parameter(self, database):
        base = fingerprint(database)
        assert fingerprint(database, threshold=6) != base
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
            chunk_size=1, keep_scores=False,
        )
        assert scan_fingerprint(database, tasks, False) == (
            "bdeabd7ffce90aa11e8cadd7f7d836584848e068903bb65c47f6ee12e4e24959"
        )


class TestChunkFiles:
    def test_save_load_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        payload = make_payload(with_scores=True)
        store.save_chunk(2, payload)
        loaded = store.load_chunk(2)
        assert loaded is not None
        assert sorted(loaded) == sorted(payload)
        for name, array in payload.items():
            assert loaded[name].dtype == array.dtype
            np.testing.assert_array_equal(loaded[name], array)

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


class TestSchemaTwoFiles:
    """Chunk files in the schema-2 layout, written without the scan code:
    a ``meta`` table of ``(slot, reference, window start, has scores)`` rows,
    one per (window, query slot) cell ``i = window * k + slot``, and the
    cell's window-local hit positions ``pos_i``, hit scores ``hs_i`` and kept
    scores ``sc_i``."""

    QUERIES = ("MKVLA", "WRSTC")
    THRESHOLD = 9

    def scan(self, database, directory, **kwargs):
        with ScanSession(database, workers=1) as session:
            return session.scan_batch(
                list(self.QUERIES), threshold=self.THRESHOLD, keep_scores=True,
                chunk_size=1, checkpoint_dir=directory, with_report=True, **kwargs
            )

    def write_by_hand(self, database, store, task_id, task):
        k = len(task.arrays)
        arrays = {"meta": []}
        for j, (reference, start, stop) in enumerate(task.windows):
            codes = database.reference_codes(reference)
            for slot, array in enumerate(task.arrays):
                scores = scores_from_codes(array, codes, "naive")[start:stop]
                (hits,) = np.nonzero(scores >= self.THRESHOLD)
                i = j * k + slot
                arrays["meta"].append([slot, reference, start, 1])
                arrays[f"pos_{i}"] = hits.astype(np.int64)
                arrays[f"hs_{i}"] = scores[hits].astype(np.int32)
                arrays[f"sc_{i}"] = scores.astype(np.int32)
        arrays["meta"] = np.array(arrays["meta"], dtype=np.int64)
        store.chunk_path(task_id).unlink()
        with open(store.chunk_path(task_id), "wb") as handle:
            np.savez(handle, **arrays)

    def assert_same(self, got, want):
        for ours, theirs in zip(got, want):
            for a, b in zip(ours, theirs):
                assert a.hits == b.hits
                assert np.array_equal(a.scores, b.scores)

    def test_hand_written_files_resume_bit_identically(self, database, tmp_path):
        directory = tmp_path / "ckpt"
        want, _ = self.scan(database, directory)
        store = CheckpointStore(directory)
        with ScanSession(database, workers=1) as session:
            # The windows and slots of the scan's tasks (their thresholds
            # are the default one, not the scan's).
            tasks = session.plan_tasks(list(self.QUERIES), chunk_size=1)
        assert len(tasks) == 3 and all(len(task.arrays) == 2 for task in tasks)
        for task_id, task in enumerate(tasks):
            self.write_by_hand(database, store, task_id, task)
        # Every attempt crashes: only the files can produce a result.
        poison = FaultPlan(
            specs=tuple(FaultSpec(i, FaultKind.CRASH, attempts=ALWAYS) for i in range(3))
        )
        got, report = self.scan(database, directory, resume=True, faults=poison)
        assert report.chunks_from_checkpoint == 3 and report.attempts == []
        self.assert_same(got, want)

    def test_file_of_other_windows_is_rescanned(self, database, tmp_path):
        directory = tmp_path / "ckpt"
        want, _ = self.scan(database, directory)
        store = CheckpointStore(directory)
        arrays = store.load_chunk(1)
        # The same cells, keyed on window start 1: not this task's windows.
        arrays["meta"][:, 2] = 1
        store.save_chunk(1, arrays)
        got, report = self.scan(database, directory, resume=True)
        assert report.chunks_from_checkpoint == 2
        assert {attempt.chunk for attempt in report.attempts} == {1}
        self.assert_same(got, want)

    def test_schema_stays_two(self):
        assert SCHEMA_VERSION == 2
