"""Durable checkpointing for long database scans.

A multi-hour scan must survive process death.  The supervisor
(:mod:`repro.host.resilience`) writes each completed task's results into a
checkpoint directory as soon as the task passes its sanity check:

* ``manifest.json`` — schema version plus a SHA-256 **fingerprint** of
  everything that determines the results (packed database image, reference
  names/lengths, every pass's encoded queries and thresholds,
  ``keep_scores``, task/window layout).  ``--resume`` refuses to reuse
  checkpoints whose fingerprint or schema does not match the current scan
  (:class:`repro.host.errors.CheckpointMismatchError`).
* ``chunk_NNNNNN.npz`` — one file per completed task holding the named
  arrays its task serializes its payload to
  (:meth:`repro.host.scan_session.WindowTask.to_arrays`; the store does
  not interpret them).  Files are written to a temp name, fsynced and
  ``os.replace``\\ d so a kill mid-write can never leave a half-task that
  resumes wrong — unreadable files are simply rescanned.

Resuming loads every valid task file, skips those tasks entirely (no
rescoring), and scans only what is missing.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Union

import numpy as np

from repro.host.errors import CheckpointError, CheckpointMismatchError
from repro.host.scan import SESSION_ENGINE
from repro.obs import profile as _obs_profile

#: Bump when the on-disk layout changes; old checkpoints are refused.
#: Version 2: one chunk layout for every runtime (the meta-table layout).
SCHEMA_VERSION = 2

MANIFEST_NAME = "manifest.json"

#: One task's chunk file: named arrays, as its task serialized them.
ChunkArrays = Dict[str, np.ndarray]


def scan_fingerprint(database: Any, tasks: Sequence[Any], keep_scores: bool) -> str:
    """SHA-256 over everything that determines one scan call's results.

    ``database`` is a :class:`repro.host.scan.PackedDatabase` and ``tasks``
    the call's :class:`repro.host.scan_session.WindowTask` list (both
    duck-typed to avoid a circular import).  Covers the database image,
    every pass's queries and thresholds, ``keep_scores`` *and* the
    task/window layout — task files are keyed by task id, so resuming
    against a different plan must be refused, not silently mixed.
    """
    digest = hashlib.sha256()
    digest.update(f"fabp-scan-v{SCHEMA_VERSION}".encode())
    # Every scan runs the one engine; its name stays in the digest, so
    # checkpoints of earlier default-engine scans still resume.
    digest.update(f"|e={SESSION_ENGINE}|k={int(keep_scores)}".encode())
    digest.update(f"|n={database.num_references}".encode())
    digest.update("\x00".join(database.names).encode())
    digest.update(np.ascontiguousarray(database.lengths).tobytes())
    digest.update(np.ascontiguousarray(database.buffer).tobytes())
    hashed_passes = set()
    for task_id, task in enumerate(tasks):
        digest.update(f"|c={task_id}:{task.pass_id}".encode())
        if task.pass_id not in hashed_passes:
            hashed_passes.add(task.pass_id)
            for array, threshold in zip(task.arrays, task.thresholds):
                digest.update(np.ascontiguousarray(array, dtype=np.uint8).tobytes())
                digest.update(f"|t={threshold}".encode())
        for reference, start, stop in task.windows:
            digest.update(f"|w={reference},{start},{stop}".encode())
    return digest.hexdigest()


class CheckpointStore:
    """Directory-backed store of completed chunk results."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        #: Volume written by this store instance (folded into ScanReport v2).
        self.chunks_written = 0
        self.bytes_written = 0

    # -- paths ----------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def chunk_path(self, chunk: int) -> Path:
        return self.directory / f"chunk_{chunk:06d}.npz"

    # -- manifest -------------------------------------------------------------

    def read_manifest(self) -> Optional[dict]:
        try:
            return json.loads(self.manifest_path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"unreadable checkpoint manifest {self.manifest_path}: {exc}"
            ) from exc

    def write_manifest(self, fingerprint: str, num_chunks: int, chunk_size: int) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "num_chunks": num_chunks,
            "chunk_size": chunk_size,
        }
        tmp = self.manifest_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, indent=2) + "\n")
        os.replace(tmp, self.manifest_path)

    def prepare(
        self, fingerprint: str, num_chunks: int, chunk_size: int, resume: bool
    ) -> Dict[int, ChunkArrays]:
        """Initialize the store; return already-completed chunks when resuming.

        * ``resume=True`` with a matching manifest loads every valid chunk
          file; a fingerprint (or schema) mismatch raises
          :class:`CheckpointMismatchError` rather than silently mixing
          results from a different scan.
        * ``resume=True`` with no manifest starts fresh (nothing to resume).
        * ``resume=False`` always starts fresh, discarding any stale chunk
          files so they cannot leak into this scan's results.
        """
        manifest = self.read_manifest()
        if resume and manifest is not None:
            found = str(manifest.get("fingerprint", ""))
            if (
                manifest.get("version") != SCHEMA_VERSION
                or found != fingerprint
                or int(manifest.get("num_chunks", -1)) != num_chunks
            ):
                raise CheckpointMismatchError(fingerprint, found)
            return self.load_chunks(num_chunks)
        # Fresh start: drop stale chunk files from any previous run.
        if self.directory.exists():
            for path in self.directory.glob("chunk_*.npz"):
                try:
                    path.unlink()
                except OSError:
                    pass
        self.write_manifest(fingerprint, num_chunks, chunk_size)
        return {}

    # -- chunk files ----------------------------------------------------------

    def save_chunk(self, chunk: int, arrays: ChunkArrays) -> None:
        """Atomically persist one completed task's arrays."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.chunk_path(chunk)
        tmp = path.with_suffix(".npz.tmp")
        with open(tmp, "wb") as handle:
            np.savez(handle, **arrays)
            # os.replace is atomic against crashes of *this* process, but
            # only an fsync before the rename makes the contents durable
            # against the machine dying right after the replace.
            handle.flush()
            os.fsync(handle.fileno())
        num_bytes = tmp.stat().st_size
        os.replace(tmp, path)
        self.chunks_written += 1
        self.bytes_written += num_bytes
        _obs_profile.record_checkpoint_chunk(num_bytes)

    def load_chunk(self, chunk: int) -> Optional[ChunkArrays]:
        """Load one task file; ``None`` if missing or unreadable."""
        path = self.chunk_path(chunk)
        if not path.exists():
            return None
        try:
            with np.load(path) as data:
                return {name: data[name] for name in data.files}
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
            # A kill mid-write or disk corruption: rescan this task.
            return None

    def load_chunks(self, num_chunks: int) -> Dict[int, ChunkArrays]:
        loaded = {chunk: self.load_chunk(chunk) for chunk in range(num_chunks)}
        return {chunk: arrays for chunk, arrays in loaded.items() if arrays is not None}
