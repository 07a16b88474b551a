"""Packed database image, its shared-memory lifecycle, and the one-shot scan.

The paper's host program keeps the database resident in FPGA DRAM as a dense
2-bit array and streams it through parallel kernel instances; the software
counterpart is one packed in-process buffer read by every worker thread:

* :class:`PackedDatabase` packs every reference once (2 bits/nt, the FabP
  DRAM layout from :mod:`repro.seq.packing`) into a single byte buffer with
  an offset table — the in-memory database image;
* :func:`publish_segment` / :func:`retire_segment` copy that image into
  ``/dev/shm`` for a caller that needs it in another process, with
  ``atexit`` and SIGTERM sweeps so a crashed caller never leaks a segment
  (no scan path publishes one);
* :func:`scan_database` is a one-shot
  :class:`repro.host.scan_session.ScanSession`: it opens a session over
  the references, scans one query under the task supervisor of
  :mod:`repro.host.resilience`, and closes it.  Results come back in input
  order as plain :class:`repro.core.aligner.AlignmentResult` objects;
  :func:`repro.core.aligner.search_database` is this call.
"""

from __future__ import annotations

import atexit
import os
import signal
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.aligner import (
    AlignmentResult,
    Hit,
    QueryLike,
    ReferenceLike,
    iter_reference_codes,
)
from repro.core.encoding import EncodedQuery
from repro.obs import profile as _obs_profile
from repro.seq import packing

#: The engine every scan runs on, as reports, metrics and checkpoint
#: fingerprints name it: the batched kernel shares the reference stream
#: *and* the comparator bitplanes across every co-resident query
#: (bit-identical scores to the ``naive`` oracle).
SESSION_ENGINE = "bitscore_batch"


@dataclass(frozen=True)
class PackedDatabase:
    """Many references packed into one contiguous 2-bit buffer.

    ``buffer[byte_offsets[i] : byte_offsets[i + 1]]`` is reference ``i``
    packed at 2 bits per nucleotide; ``lengths[i]`` its nucleotide count.
    This is the image every scan worker thread reads.
    """

    names: Tuple[str, ...]
    lengths: np.ndarray
    byte_offsets: np.ndarray
    buffer: np.ndarray

    @classmethod
    def from_references(
        cls,
        references: Iterable[ReferenceLike],
        names: Optional[Sequence[str]] = None,
    ) -> "PackedDatabase":
        """Pack references (strings, sequences, or code arrays) once.

        ``names`` overrides the per-reference names (useful for pre-packed
        code arrays, which carry none of their own).  Names are otherwise
        kept exactly as coerced — possibly empty, as for a bare string or
        code array.
        """
        resolved_names: List[str] = []
        lengths: List[int] = []
        chunks: List[np.ndarray] = []
        with _obs_profile.stage("scan.pack", category="scan"):
            for index, (codes, name) in enumerate(iter_reference_codes(references)):
                if names is not None:
                    name = names[index]
                resolved_names.append(name)
                lengths.append(int(codes.size))
                chunks.append(packing.pack(codes))
        byte_offsets = np.zeros(len(chunks) + 1, dtype=np.int64)
        if chunks:
            np.cumsum([c.size for c in chunks], out=byte_offsets[1:])
        buffer = (
            np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.uint8)
        )
        return cls(
            names=tuple(resolved_names),
            lengths=np.asarray(lengths, dtype=np.int64),
            byte_offsets=byte_offsets,
            buffer=buffer,
        )

    @cached_property
    def length_list(self) -> List[int]:
        """``lengths`` as Python ints, built once per database: every
        session over it, and every result they build, shares them."""
        return self.lengths.tolist()

    @property
    def num_references(self) -> int:
        return len(self.names)

    @property
    def total_nucleotides(self) -> int:
        return int(self.lengths.sum()) if self.lengths.size else 0

    @property
    def packed_bytes(self) -> int:
        return int(self.buffer.size)

    def reference_codes(self, index: int) -> np.ndarray:
        """Unpack reference ``index`` back to a 2-bit code array."""
        start = int(self.byte_offsets[index])
        stop = int(self.byte_offsets[index + 1])
        return packing.unpack(self.buffer[start:stop], int(self.lengths[index]))


# -- shared-memory lifecycle ---------------------------------------------------


@dataclass(frozen=True)
class _SegmentLease:
    """One created segment plus the pid that owns its unlink."""

    segment: object
    owner_pid: int


# Every segment this process created, by name.  ``publish_segment`` registers,
# ``retire_segment`` releases; the ``atexit`` guard (and the lazy SIGTERM
# sweep) retire whatever survives an exception, Ctrl-C, or a supervisor kill
# mid-scan, so a crashed scan can never leak ``/dev/shm`` segments.  Worker
# processes only *attach* and never own a registration; forked children that
# inherit this dict by copy-on-write are excluded by the lease's owner pid.
_LIVE_SEGMENTS: Dict[str, _SegmentLease] = {}

# Names already retired by this process.  Retirement can race — explicit
# ``finally`` blocks, the atexit sweep, and the SIGTERM sweep may all reach
# the same segment — and unlinking a name twice is an error the kernel
# reports to whichever caller loses, so the set (under the lock) guarantees
# exactly one close/unlink per segment no matter how many paths fire.
_RETIRED: set = set()

_SEGMENTS_LOCK = threading.Lock()

_SIGTERM_SWEEP_INSTALLED = False


def _cleanup_segments() -> None:
    for lease in list(_LIVE_SEGMENTS.values()):
        retire_segment(lease.segment)


atexit.register(_cleanup_segments)


def _sweep_on_sigterm(signum, frame) -> None:
    """Retire live segments, then die with the default SIGTERM status.

    ``atexit`` never runs on a signal death, so a supervisor that SIGTERMs
    a scan mid-chunk would otherwise strand the published image in
    ``/dev/shm``.  After the sweep the default handler is restored and the
    signal re-raised so the exit status still says "killed by SIGTERM".
    """
    _cleanup_segments()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    os.kill(os.getpid(), signal.SIGTERM)


def _install_sigterm_sweep() -> None:
    """Install the sweep lazily, and only where it is safe to do so.

    Only the main thread may set signal handlers, and an application that
    installed its own SIGTERM handler keeps it — the sweep only ever
    replaces ``SIG_DFL``.
    """
    global _SIGTERM_SWEEP_INSTALLED
    if _SIGTERM_SWEEP_INSTALLED:
        return
    if threading.current_thread() is not threading.main_thread():
        return
    try:
        if signal.getsignal(signal.SIGTERM) is not signal.SIG_DFL:
            _SIGTERM_SWEEP_INSTALLED = True  # somebody owns SIGTERM; stand down
            return
        signal.signal(signal.SIGTERM, _sweep_on_sigterm)
        _SIGTERM_SWEEP_INSTALLED = True
    except (ValueError, OSError):
        # Restricted environments (no signals, embedded interpreters) just
        # keep the atexit guard.
        return


def publish_segment(buffer: np.ndarray):
    """Create a shared-memory segment holding ``buffer``; track it for cleanup.

    The returned segment is registered so that even if the caller dies
    before its ``finally`` runs, the :mod:`atexit` guard — or, on a
    supervisor kill, the SIGTERM sweep — unlinks it.  Pair with
    :func:`retire_segment` (idempotent) in a ``try/finally``.
    """
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(create=True, size=max(1, buffer.size))
    with _SEGMENTS_LOCK:
        _LIVE_SEGMENTS[segment.name] = _SegmentLease(segment, os.getpid())
    _install_sigterm_sweep()
    np.frombuffer(segment.buf, dtype=np.uint8, count=buffer.size)[:] = buffer
    _obs_profile.record_shm_bytes(segment.size)
    return segment


def retire_segment(segment) -> bool:
    """Close and unlink a published segment exactly once.

    Idempotent and race-safe: no matter how many of the explicit
    ``finally``, atexit, and SIGTERM paths reach the same segment — even
    concurrently from different threads — exactly one caller performs the
    close/unlink and returns ``True``; every other caller returns
    ``False``.  A forked child that inherited the registry returns
    ``False`` without touching the segment: the owner pid recorded at
    publish time keeps children from unlinking their parent's image.
    """
    if segment is None:
        return False
    name = segment.name
    with _SEGMENTS_LOCK:
        lease = _LIVE_SEGMENTS.get(name)
        if lease is not None and lease.owner_pid != os.getpid():
            return False
        _LIVE_SEGMENTS.pop(name, None)
        if name in _RETIRED:
            return False
        _RETIRED.add(name)
    try:
        segment.close()
    except (OSError, BufferError):
        pass
    try:
        segment.unlink()
    except (FileNotFoundError, OSError):
        pass
    return True


# -- driver side ---------------------------------------------------------------


def resolve_workers(workers: Optional[int]) -> int:
    """``None`` means one worker per CPU; always at least 1."""
    if workers is None:
        return max(1, os.cpu_count() or 1)
    if workers < 0:
        raise ValueError("workers must be >= 0")
    return max(1, workers)


def chunk_bounds(num_references: int, chunk_size: int) -> List[Tuple[int, int]]:
    """Split ``range(num_references)`` into ``[start, stop)`` chunks."""
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    return [
        (start, min(start + chunk_size, num_references))
        for start in range(0, num_references, chunk_size)
    ]


def _build_result(
    encoded: EncodedQuery,
    name: str,
    length: int,
    threshold: int,
    positions: np.ndarray,
    hit_scores: np.ndarray,
    scores: Optional[np.ndarray],
) -> AlignmentResult:
    hits = tuple(
        Hit(int(p), int(s)) for p, s in zip(positions.tolist(), hit_scores.tolist())
    )
    return AlignmentResult(
        query=encoded,
        reference_name=name,
        reference_length=length,
        threshold=threshold,
        hits=hits,
        scores=scores,
    )


def scan_database(
    query: QueryLike,
    references: object,
    *,
    threshold: Optional[int] = None,
    min_identity: Optional[float] = None,
    workers: Optional[int] = 1,
    chunk_size: Optional[int] = None,
    keep_scores: bool = False,
    policy: object = None,
    faults: object = None,
    checkpoint_dir: object = None,
    resume: bool = False,
    with_report: bool = False,
) -> Union[List[AlignmentResult], Tuple[List[AlignmentResult], object]]:
    """Scan one query over a database under the task supervisor.

    ``references`` is any iterable the aligner accepts (strings, sequence
    objects, pre-packed 2-bit code arrays) or a ready
    :class:`PackedDatabase`.  Results come back in input order regardless
    of which worker finished first.  ``workers=None`` scores on one thread
    per CPU; ``workers <= 1``, or a plan with a single task, scans on the
    calling thread.

    Tasks are position-balanced reference *windows*
    (:mod:`repro.host.windows`), so a single long reference parallelizes
    as well as many uniform ones; with an explicit ``chunk_size`` they are
    whole-reference chunks instead (task *i* = references ``[i *
    chunk_size, (i + 1) * chunk_size)``), the granule fault plans and
    checkpoints are keyed on.  Either way the merged results — hits and
    ``keep_scores`` vectors alike — are bit-identical to scoring each
    reference alone.

    Robustness (see :mod:`repro.host.resilience` and
    ``docs/robustness.md``): ``policy`` (a
    :class:`~repro.host.resilience.RetryPolicy`), ``faults`` (a
    :class:`~repro.host.faults.FaultPlan`), ``checkpoint_dir`` and
    ``resume`` configure per-task timeouts and retries, lost-worker
    accounting and durable checkpointing.  With ``with_report=True`` the
    return value is ``(results, ScanReport)``.
    """
    from repro.host.scan_session import ScanSession

    with ScanSession(references, workers=workers) as session:  # type: ignore[arg-type]
        return session.scan(
            query,
            threshold=threshold,
            min_identity=min_identity,
            keep_scores=keep_scores,
            chunk_size=chunk_size,
            policy=policy,
            faults=faults,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            with_report=with_report,
        )
