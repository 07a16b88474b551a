"""Warm scan runtime: one resident database image, many supervised scans.

The paper's host keeps the database resident in FPGA DRAM across
searches; :class:`ScanSession` is the software counterpart, and the one
runtime every scan path goes through (:func:`repro.host.scan.scan_database`
is a session opened for a single call, and a sharded scan is a session
opened with ``shards=``):

* the database is packed once, at session open, into one in-process
  buffer that stays resident until :meth:`ScanSession.close`;
* every :meth:`ScanSession.scan` / :meth:`ScanSession.scan_batch` call
  scores against that buffer on ``workers`` threads — no fork, no image
  copy, no re-pack;
* a batch of *k* queries is grouped into shared passes (the software
  analogue of the paper's multi-channel extension — unlike the FPGA lane
  budget of :mod:`repro.accel.multi_query`, the software kernel lets any
  queries share a sweep, so passes are bounded only by a working-set cap
  and a span-spread bound) and each database window is swept **once per
  pass**, scoring all co-resident queries against the same unpacked slice
  (the default ``bitscore_batch`` engine additionally shares the
  comparator bitplanes across the batch, and its compiled kernel
  thresholds inside the fold: a task yields one row of hits per query,
  and a score per position only under ``keep_scores``);
* each pass becomes :class:`WindowTask` work items run by the
  :class:`repro.host.resilience.Supervisor` (its guarantees are listed
  in :mod:`repro.host.resilience`), and each batch returns a
  :class:`repro.host.resilience.ScanReport` on request;
* the worker threads outlive the call: a session keeps one thread per
  slot (a :class:`repro.host.resilience.SlotThreads`) across its calls, so
  a warm call starts none, and :meth:`ScanSession.close` joins them.  A
  crashed or timed-out attempt's thread is still retired and replaced,
  and every call joins the threads it retired before it returns.

Work is split into the position-balanced windows of
:mod:`repro.host.windows` (or, with an explicit ``chunk_size``, into
whole-reference chunks from :func:`repro.host.scan.chunk_bounds`); a
pass's windows are planned with the *shortest* member's span (every
co-resident query has at least those positions) and scored with the
*longest* member's halo, then clipped per query, so the merged hits and
``keep_scores`` vectors are bit-identical to scanning each query alone.
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.core import bitscore
from repro.core.aligner import (
    AlignmentResult,
    QueryLike,
    ReferenceLike,
    hits_batch_from_codes,
    resolve_threshold,
)
from repro.core.contracts import check_query_elements
from repro.core.encoding import EncodedQuery, encode_query
from repro.host import windows as _windows
from repro.host.checkpoint import CheckpointStore, scan_fingerprint
from repro.host.errors import ScanError
from repro.host.resilience import (
    RetryPolicy,
    ScanReport,
    ShardStatus,
    SlotThreads,
    Supervisor,
)
from repro.host.scan import (
    SESSION_ENGINE,
    PackedDatabase,
    _build_result,
    chunk_bounds,
    resolve_workers,
)
from repro.host.shards import ShardSpec, plan_shards
from repro.obs import profile as _obs_profile
from repro.obs import state as _obs_state

#: Most queries sharing one software pass.  Bounds the per-window working
#: set (k score vectors plus the shared shift table) and the size of a
#: task's result payload.
MAX_QUERIES_PER_PASS = 16

#: Largest ``longest / shortest`` span spread tolerated in one pass.
#: Windows are planned with the shortest member's span and unpacked with
#: the longest member's halo; a wide spread would waste halo work and pad
#: the batch kernel's planes, so mixed batches split instead.
MAX_PASS_SPAN_RATIO = 2.0

#: Engines whose tasks run in one call of the compiled kernel, when built.
_NATIVE_ENGINES = ("bitscore", "bitscore_batch")

__all__ = [
    "SESSION_ENGINE",
    "ScanSession",
    "ShardedScanRuntime",
    "WindowTask",
    "plan_batch",
    "resolve_batch_thresholds",
]


def resolve_batch_thresholds(
    encoded: Sequence[EncodedQuery],
    threshold: Optional[Union[int, Sequence[Optional[int]]]],
    min_identity: Optional[float],
) -> List[int]:
    """Resolve one absolute threshold per query of a batch.

    ``threshold`` is either a single value applied to every query (the
    classic :func:`repro.core.aligner.resolve_threshold` convention) or a
    sequence with exactly one entry per query; a ``None`` entry falls back
    to ``min_identity`` for that query.  The sequence form lets callers —
    the front-door service batcher in particular — share one pass between
    jobs submitted with heterogeneous thresholds.
    """
    if isinstance(threshold, (list, tuple)):
        if len(threshold) != len(encoded):
            raise ValueError(
                f"threshold sequence has {len(threshold)} entries "
                f"for {len(encoded)} queries"
            )
        return [
            resolve_threshold(e, t, min_identity if t is None else None)
            for e, t in zip(encoded, threshold)
        ]
    return [resolve_threshold(e, threshold, min_identity) for e in encoded]


#: ``(reference, start, stop)``: alignment positions ``[start, stop)``.
WindowSpan = Tuple[int, int, int]


@dataclass(frozen=True)
class _PassSpec:
    """One shared pass: co-resident queries scored against every window."""

    pass_id: int
    query_indices: Tuple[int, ...]  # global (input-order) query indices
    arrays: Tuple[np.ndarray, ...]
    spans: Tuple[int, ...]
    thresholds: Tuple[int, ...]
    min_span: int
    max_span: int


@dataclass(frozen=True)
class WindowTask:
    """One supervised work item: a chunk of windows of one pass.

    Self-contained — it carries its pass's queries, thresholds and engine
    — so any worker thread can run it with nothing installed per call.
    Only the task reads its payload, a :class:`repro.core.bitscore.ScanRows`.
    """

    pass_id: int
    windows: Tuple[WindowSpan, ...]
    arrays: Tuple[np.ndarray, ...]
    thresholds: Tuple[int, ...]
    engine: str
    keep_scores: bool
    #: The shard whose reference range holds these windows (0 unsharded).
    shard: int = 0
    #: ``bitscore.prepare_batch(arrays)``, shared by every task of the pass.
    prepared: Optional[bitscore.PreparedBatch] = field(default=None, compare=False)

    def run(self, database: PackedDatabase, attempt: int) -> bitscore.ScanRows:
        """Score every (window, query) cell.

        On the bitscore engines with the compiled kernel this is one
        GIL-free call, :func:`repro.core.bitscore.scan_windows`, reading
        the 2-bit image directly.  Elsewhere each window is unpacked once
        with the *longest* query's forward halo and swept once for the
        whole pass; shorter queries' extra trailing positions are clipped
        to their own position count, so every kept slice matches a solo
        scan of that query bit for bit.
        """
        if self.engine in _NATIVE_ENGINES and bitscore.batch_kernel() == "native":
            return self._run_native(database)
        max_span = max(int(a.size) for a in self.arrays)
        parts = []
        for reference, start, stop in self.windows:
            codes, lookback = _windows.window_codes(
                database.buffer, int(database.byte_offsets[reference]),
                int(database.lengths[reference]), start, stop, max_span,
            )
            # Code position lookback is alignment position start; each
            # query's positions end at stop or at its own last position.
            parts.append(_window_rows(hits_batch_from_codes(
                self.arrays, codes, self.thresholds, self.engine,
                start=lookback, stop=lookback + stop - start,
                keep_scores=self.keep_scores,
            )))
        return _join(parts, len(self.arrays), self.keep_scores)

    def _run_native(self, database: PackedDatabase) -> bitscore.ScanRows:
        offsets, lengths = database.byte_offsets, database.lengths
        began = time.perf_counter()
        rows, positions = bitscore.scan_windows(
            database.buffer,
            [(offsets[r], lengths[r], start, stop) for r, start, stop in self.windows],
            self.prepared or bitscore.prepare_batch(self.arrays),
            self.thresholds, self.keep_scores,
        )
        _obs_profile.record_score_call(
            self.engine, time.perf_counter() - began, positions
        )
        return rows

    def _sizes(self, database: PackedDatabase) -> np.ndarray:
        """Positions each query keeps in each window: ``(k, windows)``."""
        lengths = database.length_list
        sizes = [
            max(0, min(stop, _windows.num_positions(lengths[reference], a.size)) - start)
            for a in self.arrays
            for reference, start, stop in self.windows
        ]
        return np.array(sizes, dtype=np.int64).reshape(len(self.arrays), -1)

    def check(self, database: PackedDatabase, payload: Any) -> Optional[str]:
        """Why ``payload`` is not a sane result of this task, or ``None``.

        This turns a corrupt worker result (or a torn checkpoint file) into
        a retry instead of silently wrong output: every invariant checked
        is one the honest scoring code upholds by construction.
        """
        if not isinstance(payload, bitscore.ScanRows):
            return f"payload is {type(payload).__name__}, expected ScanRows"
        windows, k = len(self.windows), len(self.arrays)
        counts = payload.counts
        if getattr(counts, "shape", None) != (windows, k) or counts.dtype.kind not in "iu":
            return f"hit counts are not a {windows} x {k} integer matrix"
        if len(payload.positions) != k or len(payload.hit_scores) != k:
            return f"expected hit rows for {k} queries"
        if not self.keep_scores:
            if payload.scores is not None:
                return "unexpected score rows"
        elif payload.scores is None or len(payload.scores) != k:
            return f"missing score rows for {k} queries"
        totals = counts.sum(axis=0).tolist()
        rows = zip(payload.positions, payload.hit_scores, self.thresholds, self.arrays)
        for q, (row, row_scores, threshold, array) in enumerate(rows):
            if not isinstance(row, np.ndarray) or row.ndim != 1:
                return f"query slot {q}: hit positions is not a 1-D array"
            if not isinstance(row_scores, np.ndarray) or row_scores.shape != row.shape:
                return f"query slot {q}: hit_scores shape mismatch"
            if totals[q] != row.size:
                return f"query slot {q}: hit counts sum to {totals[q]}, the row holds {row.size}"
            if not row.size:
                continue
            if row.dtype.kind not in "iu" or row_scores.dtype.kind not in "iu":
                return f"query slot {q}: non-integer hit arrays"
            if row_scores.min() < threshold or row_scores.max() > array.size:
                return f"query slot {q}: hit score outside [{threshold}, {array.size}]"
        if counts.size and counts.min() < 0:
            return "negative hit count"
        if not (sum(totals) or self.keep_scores):
            return None
        # Every query's rows end to end: cell (q, j) is query q's window j,
        # and its positions are [ends - sizes, ends) of the joined score rows.
        sizes = self._sizes(database)
        cells, ends = counts.T.ravel(), sizes.cumsum()
        hits = np.concatenate(payload.positions).astype(np.int64, copy=False)
        at = hits + (ends - sizes.ravel()).repeat(cells)
        if hits.size:
            if hits.min() < 0 or (at >= ends.repeat(cells)).any():
                return "hit position out of range"
            # Cells follow one another, so hits rise within each cell iff
            # their joined positions rise.
            if (at[1:] <= at[:-1]).any():
                return "hit positions not strictly increasing"
        if not self.keep_scores:
            return None
        kept = sizes.sum(axis=1).tolist()
        for q, (row, array) in enumerate(zip(payload.scores, self.arrays)):
            if not isinstance(row, np.ndarray) or row.ndim != 1:
                return f"query slot {q}: missing score row"
            if row.size != kept[q]:
                return f"query slot {q}: score row size {row.size} != {kept[q]}"
            if row.size and (row.min() < 0 or row.max() > array.size):
                return f"query slot {q}: score outside [0, {array.size}]"
        scores = np.concatenate(payload.scores)
        if not np.array_equal(np.flatnonzero(scores >= np.repeat(self.thresholds, kept)), at):
            return "hits disagree with score rows"
        if not np.array_equal(scores[at], np.concatenate(payload.hit_scores)):
            return "hit scores disagree with score rows"
        return None

    def corrupt(self, payload: bitscore.ScanRows) -> bitscore.ScanRows:
        """``payload`` damaged so that :meth:`check` must reject it: every
        window counts one hit more than the rows hold, which shows even
        on a task without a hit."""
        return payload._replace(counts=payload.counts + 1)

    def _meta(self) -> np.ndarray:
        """A chunk file's ``meta`` table: one row per (window, query) cell."""
        k = len(self.arrays)
        cells = np.repeat(np.asarray(self.windows, np.int64).reshape(-1, 3), k, axis=0)
        cells[:, 2] = int(self.keep_scores)
        return np.column_stack([np.tile(np.arange(k), len(self.windows)), cells])

    def to_arrays(
        self, database: PackedDatabase, payload: bitscore.ScanRows
    ) -> Dict[str, np.ndarray]:
        """The payload as the arrays of a schema-2 checkpoint chunk file.

        Cell ``i = j * k + slot`` is window ``j`` of query ``slot``: row ``i``
        of the ``meta`` table is ``(slot, reference, start, has scores)``,
        and ``pos_i``, ``hs_i`` and ``sc_i`` its hits, hit scores and kept
        scores.
        """
        k, counts = len(self.arrays), payload.counts
        arrays = {"meta": self._meta()}
        rows = [("pos", payload.positions, counts), ("hs", payload.hit_scores, counts)]
        if payload.scores is not None:
            rows.append(("sc", payload.scores, self._sizes(database).T))
        for name, per_slot, sizes in rows:
            for slot, row in enumerate(per_slot):
                for j, cell in enumerate(np.split(row, np.cumsum(sizes[:-1, slot]))):
                    arrays[f"{name}_{j * k + slot}"] = cell
        return arrays

    def from_arrays(self, arrays: Dict[str, np.ndarray]) -> Optional[bitscore.ScanRows]:
        """The payload :meth:`to_arrays` wrote; ``None`` if the arrays are
        not a chunk file of this task's windows."""
        k = len(self.arrays)
        try:
            if not np.array_equal(arrays["meta"], self._meta()):
                return None
            cells = [
                (arrays[f"pos_{i}"], arrays[f"hs_{i}"], arrays.get(f"sc_{i}"))
                for i in range(len(self.windows) * k)
            ]
            parts = [_window_rows(cells[j : j + k]) for j in range(0, len(cells), k)]
            return _join(parts, k, self.keep_scores)
        except (KeyError, ValueError):
            return None


def _window_rows(hits: Sequence[bitscore.QueryHits]) -> bitscore.ScanRows:
    """One window's per-query hit lists as rows."""
    positions, hit_scores, scores = zip(*hits)
    counts = np.array([[row.size for row in positions]], dtype=np.int64)
    return bitscore.ScanRows(counts, positions, hit_scores, scores)


def _join(
    parts: Sequence[bitscore.ScanRows], k: int, keep_scores: bool
) -> bitscore.ScanRows:
    """Rows of ``k`` queries over consecutive windows, as one payload."""

    def rows(field: str, dtype: type) -> Tuple[np.ndarray, ...]:
        return tuple(
            np.concatenate([np.zeros(0, dtype)] + [getattr(p, field)[q] for p in parts])
            for q in range(k)
        )

    return bitscore.ScanRows(
        np.concatenate([np.zeros((0, k), np.int64)] + [p.counts for p in parts]),
        rows("positions", np.int64), rows("hit_scores", np.int32),
        rows("scores", np.int32) if keep_scores else None,
    )


def plan_batch(
    lengths: Iterable[int],
    encoded: Sequence[EncodedQuery],
    thresholds: Sequence[int],
    num_workers: int,
    *,
    chunk_size: Optional[int] = None,
    engine: str = SESSION_ENGINE,
    keep_scores: bool = False,
    shards: Optional[Sequence[ShardSpec]] = None,
) -> Tuple[List[_PassSpec], List[WindowTask]]:
    """Group queries into shared passes; split each pass into tasks.

    Grouping follows the *software* batch kernel's economics, not the
    FPGA lane budget (which admits one long query per pass): any queries
    can share a sweep, so sort by span descending and first-fit until a
    pass holds :data:`MAX_QUERIES_PER_PASS` queries or its span spread
    would exceed :data:`MAX_PASS_SPAN_RATIO`.  Each pass then splits into
    position-balanced window chunks, as many as its cells pay for
    (:func:`repro.host.windows.num_chunks`), or — with an explicit
    ``chunk_size`` — into whole-reference chunks, task *i* of a pass being
    references ``[i * chunk_size, (i + 1) * chunk_size)``.

    ``shards`` (from :func:`repro.host.shards.plan_shards`) cuts the
    database into contiguous reference ranges first: every range is
    planned on its own, with its share of ``num_workers``, and its tasks
    carry its shard label.  Task ids are list positions, shard-major, so
    each shard owns one contiguous id range.
    """
    order = sorted(range(len(encoded)), key=lambda i: -len(encoded[i]))
    groups: List[List[int]] = []
    for index in order:
        span = len(encoded[index])
        for group in groups:
            if (
                len(group) < MAX_QUERIES_PER_PASS
                and len(encoded[group[0]]) <= span * MAX_PASS_SPAN_RATIO
            ):
                group.append(index)
                break
        else:
            groups.append([index])
    lengths = [int(length) for length in lengths]
    passes: List[_PassSpec] = []
    for pass_id, group in enumerate(groups):
        indices = tuple(group)
        arrays = tuple(encoded[i].as_array() for i in indices)
        spans = tuple(int(a.size) for a in arrays)
        passes.append(
            _PassSpec(
                pass_id, indices, arrays, spans,
                tuple(int(thresholds[i]) for i in indices),
                min(spans), max(spans),
            )
        )
    ranges = (
        [(0, 0, len(lengths))] if shards is None
        else [(spec.shard, spec.start, spec.stop) for spec in shards]
    )
    range_workers = max(1, -(-num_workers // max(1, len(ranges))))
    tasks: List[WindowTask] = []
    # Every window of a pass folds the same queries: prepare them once.
    prepared = [bitscore.prepare_batch(spec.arrays) for spec in passes]
    for shard, first, last in ranges:
        for spec in passes:
            for windows in _range_chunks(
                lengths, first, last, spec, range_workers, chunk_size
            ):
                tasks.append(
                    WindowTask(
                        spec.pass_id, tuple(windows), spec.arrays,
                        spec.thresholds, engine, keep_scores, shard,
                        prepared[spec.pass_id],
                    )
                )
    return passes, tasks


def _range_chunks(
    lengths: List[int],
    first: int,
    last: int,
    spec: _PassSpec,
    num_workers: int,
    chunk_size: Optional[int],
) -> List[List[WindowSpan]]:
    """One pass's task windows over references ``[first, last)``.

    Windows are planned on the shortest member's positions and sized by
    the pass's cells: each position is folded once per member.
    """
    span = spec.min_span
    if chunk_size is None:
        return [
            [(w.reference + first, w.start, w.stop) for w in chunk]
            for chunk in _windows.plan_windows(
                lengths[first:last], span, num_workers,
                cells_per_position=sum(spec.spans),
            )
        ]
    return [
        [
            (reference, 0, _windows.num_positions(lengths[reference], span))
            for reference in range(first + start, first + stop)
            if _windows.num_positions(lengths[reference], span) > 0
        ]
        for start, stop in chunk_bounds(last - first, chunk_size)
    ]


def _shard_statuses(
    shards: Sequence[ShardSpec],
    tasks: Sequence[WindowTask],
    supervisor: Supervisor,
    restored: Set[int],
) -> List[ShardStatus]:
    """Fold per-task supervision into one schema-v3 row per shard.

    A shard is dead when any of its tasks died; attempts are summed over
    its tasks, ``resumed_chunks`` counts its tasks restored
    from the checkpoint and ``elapsed_seconds`` is its slowest task's.
    """
    by_shard: Dict[int, List[int]] = {}
    for task_id, task in enumerate(tasks):
        by_shard.setdefault(task.shard, []).append(task_id)
    statuses: List[ShardStatus] = []
    for spec in shards:
        ids = by_shard.get(spec.shard, [])
        dead = [
            f"task {task_id}: {supervisor.dead[task_id]}"
            for task_id in ids
            if task_id in supervisor.dead
        ]
        statuses.append(
            ShardStatus(
                shard=spec.shard,
                start=spec.start,
                stop=spec.stop,
                nucleotides=spec.nucleotides,
                status="dead" if dead else "ok",
                attempts=sum(supervisor.attempts.get(i, 0) for i in ids),
                resumed_chunks=sum(1 for i in ids if i in restored),
                elapsed_seconds=max(
                    (supervisor.elapsed.get(i, 0.0) for i in ids), default=0.0
                ),
                detail="; ".join(dead),
            )
        )
    return statuses


# -- the session ---------------------------------------------------------------


class ScanSession:
    """A warm scan runtime over one packed database.

    ``references`` is anything :class:`repro.host.scan.PackedDatabase`
    accepts, or a ready database.  ``workers=None`` scores on one thread
    per CPU; ``workers <= 1`` runs every call on the calling thread, with
    the same batching, supervision, checkpointing and report semantics.
    A call whose plan has a single open task also runs on the calling
    thread.  The worker threads start on the first call that needs them
    and serve every later one; a call made while another is running on
    the same session gets threads of its own for its duration.

    ``shards=S`` makes it a sharded session: :func:`repro.host.shards.plan_shards`
    cuts the database into ``S`` contiguous, nucleotide-balanced reference
    ranges once, at open, and every call plans each range on its own, runs
    on one thread per shard (``workers`` is ignored) and supervises its
    tasks in *partial* mode: a shard with a task that exhausts its budget
    is reported dead (``mode="sharded"``, one ``shards`` report row each,
    exit code 4) and its references are left out of the results.

    Use as a context manager, or call :meth:`close`, which joins the
    worker threads; a closed session refuses further scans::

        with ScanSession(references, workers=4) as session:
            for batch in query_stream:
                results = session.scan_batch(batch)
    """

    def __init__(
        self,
        references: Union[PackedDatabase, Iterable[ReferenceLike]],
        *,
        engine: Optional[str] = None,
        workers: Optional[int] = None,
        names: Optional[Sequence[str]] = None,
        shards: Optional[int] = None,
    ):
        self._database = (
            references
            if isinstance(references, PackedDatabase)
            else PackedDatabase.from_references(references, names)
        )
        self._lengths = self._database.length_list
        self._engine = engine or SESSION_ENGINE
        self._shards: Optional[Tuple[ShardSpec, ...]] = (
            None if shards is None else tuple(plan_shards(self._lengths, shards))
        )
        self._num_workers = (
            resolve_workers(workers) if self._shards is None
            else max(1, len(self._shards))
        )
        self._closed = False
        self._threads = SlotThreads()
        self._threads_busy = threading.Lock()
        # A session dropped unclosed still lets its idle threads go.
        self._release = weakref.finalize(self, self._threads.close, False)
        self._respawns = 0
        #: Batch calls completed by this session.
        self.scans_completed = 0
        #: Batch calls that found the session already warm.
        self.pool_reuses = 0
        _obs_profile.record_scan_session_open(self._database.packed_bytes)

    # -- lifecycle ------------------------------------------------------------

    def __enter__(self) -> "ScanSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Refuse further scans and join the worker threads (idempotent)."""
        self._closed = True
        with self._threads_busy:
            self._threads.close()
        self._release.detach()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def database(self) -> PackedDatabase:
        return self._database

    @property
    def engine(self) -> str:
        return self._engine

    @property
    def num_workers(self) -> int:
        return self._num_workers

    @property
    def num_shards(self) -> Optional[int]:
        """Planned shards (at most one per reference); ``None`` unsharded."""
        return None if self._shards is None else len(self._shards)

    @property
    def shard_specs(self) -> Optional[Tuple[ShardSpec, ...]]:
        return self._shards

    @property
    def resident_bytes(self) -> int:
        """Bytes of packed database image this session keeps resident."""
        return self._database.packed_bytes

    @property
    def respawns_total(self) -> int:
        """Lost workers (crashed or timed-out attempts) over the session's lifetime."""
        return self._respawns

    def _encode(
        self,
        queries: Iterable[QueryLike],
        threshold: Optional[Union[int, Sequence[Optional[int]]]],
        min_identity: Optional[float],
    ) -> Tuple[List[EncodedQuery], List[int]]:
        """Encode and check ``queries``; resolve one threshold each."""
        encoded = [
            q if isinstance(q, EncodedQuery) else encode_query(q)
            for q in queries
        ]
        for query in encoded:
            check_query_elements(len(query))
        return encoded, resolve_batch_thresholds(encoded, threshold, min_identity)

    def _plan(
        self,
        encoded: List[EncodedQuery],
        resolved: List[int],
        *,
        chunk_size: Optional[int] = None,
        keep_scores: bool = False,
    ) -> Tuple[List[_PassSpec], List[WindowTask]]:
        """This session's :func:`plan_batch` over the resident database."""
        return plan_batch(
            self._lengths, encoded, resolved, self._num_workers,
            chunk_size=chunk_size, engine=self._engine, keep_scores=keep_scores,
            shards=self._shards,
        )

    # -- public API -----------------------------------------------------------

    def plan_tasks(
        self, queries: Iterable[QueryLike], *, chunk_size: Optional[int] = None
    ) -> List[WindowTask]:
        """The tasks a :meth:`scan_batch` call over ``queries`` runs, by task id.

        Thresholds and ``keep_scores`` do not change the windows, ids or
        shard labels, which are what fault plans and checkpoints are keyed
        on; the tasks carry the default threshold.  Nothing is scored.
        """
        encoded, resolved = self._encode(queries, None, None)
        return self._plan(encoded, resolved, chunk_size=chunk_size)[1]

    def scan(
        self, query: QueryLike, **kwargs
    ) -> Union[List[AlignmentResult], Tuple[List[AlignmentResult], ScanReport]]:
        """Score one query over the resident database (a batch of one)."""
        outcome = self.scan_batch([query], **kwargs)
        if kwargs.get("with_report"):
            batches, report = outcome
            return batches[0], report
        return outcome[0]

    def scan_batch(
        self,
        queries: Iterable[QueryLike],
        *,
        threshold: Optional[Union[int, Sequence[Optional[int]]]] = None,
        min_identity: Optional[float] = None,
        keep_scores: bool = False,
        chunk_size: Optional[int] = None,
        policy: Optional[RetryPolicy] = None,
        faults: Any = None,
        checkpoint_dir: object = None,
        resume: bool = False,
        with_report: bool = False,
    ) -> Union[
        List[List[AlignmentResult]],
        Tuple[List[List[AlignmentResult]], ScanReport],
    ]:
        """Score ``k`` queries over the resident database in shared passes.

        Returns one result list per query, in input order, each bit-identical
        to scanning that query alone.  ``threshold`` / ``min_identity``
        follow the aligner's convention and are resolved per query;
        ``threshold`` may also be a sequence with one entry per query
        (``None`` entries fall back to ``min_identity``), so heterogeneous
        jobs can share one pass — the shape the front-door service batcher
        uses.  ``chunk_size`` switches the task plan from position-balanced
        windows to whole-reference chunks.  ``policy`` (a
        :class:`~repro.host.resilience.RetryPolicy`), ``faults`` (a
        :class:`~repro.host.faults.FaultPlan` keyed on task ids),
        ``checkpoint_dir`` and ``resume`` configure the supervisor; with
        ``with_report`` the call also returns its
        :class:`~repro.host.resilience.ScanReport`.  On a sharded session
        the report also has one ``shards`` row per shard.

        A query that is empty or encodes to more than
        :data:`~repro.core.contracts.MAX_QUERY_ELEMENTS` elements raises
        ``ValueError`` before anything is scored.
        """
        if self._closed:
            raise ScanError("scan session is closed")
        policy = policy or RetryPolicy()
        encoded, resolved = self._encode(queries, threshold, min_identity)
        passes, tasks = self._plan(
            encoded, resolved, chunk_size=chunk_size, keep_scores=keep_scores
        )
        for spec in passes:
            _obs_profile.record_scan_session_pass(len(spec.query_indices))
        reused = self.scans_completed > 0
        report = ScanReport(
            mode="serial",
            workers=1,
            chunk_size=chunk_size or 0,
            chunks_total=len(tasks),
            engine=self._engine,
            threshold=min(resolved) if resolved else 0,
        )

        stage_seconds: Dict[str, float] = {}
        store: Optional[CheckpointStore] = None
        done: Dict[int, bitscore.ScanRows] = {}
        if checkpoint_dir is not None:
            store = CheckpointStore(checkpoint_dir)
            report.checkpoint_dir = str(store.directory)
            report.resumed = bool(resume)
            with _obs_profile.stage(
                "scan.checkpoint_load", category="scan"
            ) as load_timer:
                fingerprint = scan_fingerprint(
                    self._database, tasks, self._engine, keep_scores
                )
                loaded = store.prepare(fingerprint, len(tasks), chunk_size or 0, resume)
                # Never trust disk blindly: checkpointed tasks must pass the
                # same sanity check a worker result does.
                for task_id, arrays in loaded.items():
                    payload = tasks[task_id].from_arrays(arrays)
                    if (
                        payload is not None
                        and tasks[task_id].check(self._database, payload) is None
                    ):
                        done[task_id] = payload
            stage_seconds["checkpoint_load"] = load_timer.seconds
            report.chunks_from_checkpoint = len(done)
        restored = set(done)

        started = time.monotonic()
        supervisor = Supervisor(
            self._database, dict(enumerate(tasks)), policy=policy,
            report=report, done=done, faults=faults, store=store,
            partial=self._shards is not None,
        )
        if len(done) < len(tasks):
            with _obs_profile.stage("scan.execute", category="scan") as timer:
                workers = self._num_workers if len(tasks) - len(done) > 1 else 1
                report.workers = workers
                warm = self._threads_busy.acquire(blocking=False)
                try:
                    supervisor.run(workers, self._threads if warm else None)
                finally:
                    if warm:
                        self._threads_busy.release()
                    self._respawns += report.respawns
            stage_seconds["execute"] = timer.seconds
            stage_seconds.update(supervisor.stage_seconds)
        report.chunks_completed = len(done)
        report.elapsed_seconds = time.monotonic() - started
        live: Optional[List[int]] = None
        if self._shards is not None:
            report.mode = "sharded"
            report.shards = _shard_statuses(
                self._shards, tasks, supervisor, restored
            )
            live = [
                reference
                for status in report.shards
                if status.status == "ok"
                for reference in range(status.start, status.stop)
            ]

        with _obs_profile.stage("scan.merge", category="scan") as merge_timer:
            results = self._merge(encoded, passes, tasks, done, keep_scores, live)
        stage_seconds["merge"] = merge_timer.seconds
        if self._shards is not None:
            _obs_profile.record_shard_active(report.workers)
            for status in report.shards:
                if status.resumed_chunks:
                    _obs_profile.record_shard_resume(status.resumed_chunks)
        report.metrics["stage_seconds"] = {
            name: round(seconds, 6) for name, seconds in stage_seconds.items()
        }
        if store is not None:
            report.metrics["checkpoint"] = {
                "chunks_written": store.chunks_written,
                "bytes_written": store.bytes_written,
            }
        self.scans_completed += 1
        if reused:
            self.pool_reuses += 1
        _obs_profile.record_scan_session_batch(len(encoded), reused)
        _obs_profile.record_scan_report_counters(
            report.retries, report.respawns, report.degraded
        )
        if with_report:
            return results, report
        return results

    # -- merge ----------------------------------------------------------------

    def _merge(
        self,
        encoded: List[EncodedQuery],
        passes: Sequence[_PassSpec],
        tasks: Sequence[WindowTask],
        done: Dict[int, bitscore.ScanRows],
        keep_scores: bool,
        live: Optional[Sequence[int]] = None,
    ) -> List[List[AlignmentResult]]:
        """Stitch task payloads into per-query, input-ordered results.

        A pass's task ids run in (reference, start) order, so its payloads
        join in that order.  ``live`` lists the references to report
        (default: all of them); a dead shard's references are left out.
        """
        lengths = self._lengths
        references = range(len(lengths)) if live is None else live
        results: List[Optional[List[AlignmentResult]]] = [None] * len(encoded)
        for spec in passes:
            ids = [task_id for task_id in sorted(done) if tasks[task_id].pass_id == spec.pass_id]
            windows = [window for task_id in ids for window in tasks[task_id].windows]
            rows = _join([done[task_id] for task_id in ids], len(spec.spans), keep_scores)
            for slot, query_index in enumerate(spec.query_indices):
                per_reference = _windows.split_rows(
                    windows, rows.counts[:, slot], rows.positions[slot],
                    rows.hit_scores[slot], rows.scores[slot] if rows.scores else None,
                    lengths, spec.spans[slot], references,
                )
                results[query_index] = [
                    _build_result(
                        encoded[query_index], self._database.names[index], length,
                        spec.thresholds[slot], positions, hit_scores, scores,
                    )
                    for index, (positions, hit_scores, scores, length) in zip(
                        references, per_reference
                    )
                ]
                if _obs_state.enabled():
                    _obs_profile.record_scan_merge(
                        len(per_reference),
                        sum(positions.size for positions, *_ in per_reference),
                    )
        return [batch for batch in results if batch is not None]


class ShardedScanRuntime(ScanSession):
    """``ScanSession(references, shards=num_shards)`` under its former name.

    It exists only because perfbench's ``sharded-batch`` probe opens it by
    this name; everything else opens a sharded ``ScanSession``.
    """

    def __init__(
        self, references: Any, *, num_shards: int,
        engine: Optional[str] = None, names: Optional[Sequence[str]] = None,
    ):
        super().__init__(references, engine=engine, names=names, shards=num_shards)
