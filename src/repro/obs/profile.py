"""The instrumentation hook catalogue: every metric the codebase emits.

Hot paths never talk to the registry directly — they call one of these
helpers, each of which early-returns while observability is disabled
(:mod:`repro.obs.state`), so the cost of an *off* hook is one function call
and one branch.  Centralizing the hooks here keeps the metric namespace in
one reviewable place; the catalogue is documented for users in
``docs/observability.md``.

Metric families (all prefixed ``fabp_``):

======================================  =========  ==========================
name                                    kind       labels
======================================  =========  ==========================
``fabp_score_calls_total``              counter    ``engine``
``fabp_score_seconds``                  histogram  ``engine``
``fabp_score_positions_total``          counter    ``engine``
``fabp_fold_rows_total``                counter    ``outcome``
``fabp_stage_seconds``                  histogram  ``stage``
``fabp_scan_references_total``          counter    —
``fabp_scan_hits_total``                counter    —
``fabp_scan_chunk_attempts_total``      counter    ``outcome``
``fabp_chunk_attempt_seconds``          histogram  ``outcome``
``fabp_scan_retries_total``             counter    —
``fabp_scan_respawns_total``            counter    —
``fabp_scan_degraded_total``            counter    —
``fabp_checkpoint_chunks_total``        counter    —
``fabp_checkpoint_bytes_total``         counter    —
``fabp_shm_bytes``                      gauge      — (high-water mark)
``fabp_scan_session_resident_bytes``    gauge      — (high-water mark)
``fabp_scan_session_reuses_total``      counter    —
``fabp_scan_session_batch_size``        histogram  —
``fabp_scan_session_pass_queries``      histogram  —
``fabp_shard_active``                   gauge      — (high-water mark)
``fabp_shard_resumes_total``            counter    —
``fabp_encoding_cache_hits``            gauge      —
``fabp_encoding_cache_misses``          gauge      —
``fabp_encoding_cache_entries``         gauge      —
``fabp_kernel_runs_total``              counter    ``device``
``fabp_kernel_beats_total``             counter    ``device``
``fabp_kernel_cycles_total``            counter    ``device``, ``kind``
``fabp_schedule_plans_total``           counter    ``segments``
``fabp_bench_positions_per_s``          gauge      ``engine``, ``workers``
``fabp_service_requests_total``         counter    ``endpoint``, ``code``
``fabp_service_request_seconds``        histogram  ``endpoint``
``fabp_service_queue_depth``            gauge      —
``fabp_service_jobs_total``             counter    ``outcome``
``fabp_service_cache_hits_total``       counter    —
``fabp_service_cache_misses_total``     counter    —
``fabp_service_batch_jobs``             histogram  —
======================================  =========  ==========================
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from repro.obs import state
from repro.obs.metrics import REGISTRY
from repro.obs.trace import RECORDER

__all__ = [
    "HOOK_CATALOGUE",
    "STAGE_NAMES",
    "StageTimer",
    "stage",
    "record_score_call",
    "record_fold_rows",
    "record_scan_merge",
    "record_scan_attempt",
    "record_scan_report_counters",
    "record_checkpoint_chunk",
    "record_encoding_cache",
    "record_shm_bytes",
    "record_scan_session_open",
    "record_scan_session_batch",
    "record_scan_session_pass",
    "record_shard_active",
    "record_shard_resume",
    "record_kernel_run",
    "record_schedule_plan",
    "record_bench_record",
    "record_service_request",
    "record_service_queue_depth",
    "record_service_job",
    "record_service_cache",
    "record_service_batch",
]


#: Every metric name a hook in this module may register.  The docstring
#: table above is the human-facing view of the same catalogue; rule OB002
#: (``repro.statics.observability``) enforces that the two never drift and
#: that no hook invents a name outside this set.
HOOK_CATALOGUE = frozenset(
    {
        "fabp_score_calls_total",
        "fabp_score_seconds",
        "fabp_score_positions_total",
        "fabp_fold_rows_total",
        "fabp_stage_seconds",
        "fabp_scan_references_total",
        "fabp_scan_hits_total",
        "fabp_scan_chunk_attempts_total",
        "fabp_chunk_attempt_seconds",
        "fabp_scan_retries_total",
        "fabp_scan_respawns_total",
        "fabp_scan_degraded_total",
        "fabp_checkpoint_chunks_total",
        "fabp_checkpoint_bytes_total",
        "fabp_shm_bytes",
        "fabp_scan_session_resident_bytes",
        "fabp_scan_session_reuses_total",
        "fabp_scan_session_batch_size",
        "fabp_scan_session_pass_queries",
        "fabp_shard_active",
        "fabp_shard_resumes_total",
        "fabp_encoding_cache_hits",
        "fabp_encoding_cache_misses",
        "fabp_encoding_cache_entries",
        "fabp_kernel_runs_total",
        "fabp_kernel_beats_total",
        "fabp_kernel_cycles_total",
        "fabp_schedule_plans_total",
        "fabp_bench_positions_per_s",
        "fabp_service_requests_total",
        "fabp_service_request_seconds",
        "fabp_service_queue_depth",
        "fabp_service_jobs_total",
        "fabp_service_cache_hits_total",
        "fabp_service_cache_misses_total",
        "fabp_service_batch_jobs",
    }
)

#: Every pipeline stage name the host runtime may time via :func:`stage`.
#: Also enforced by rule OB002: stage names are a fixed vocabulary so
#: dashboards and the trace viewer never see ad-hoc spellings.
STAGE_NAMES = frozenset(
    {
        "scan.pack",
        "scan.score",
        "scan.merge",
        "scan.checkpoint_load",
        "scan.execute",
        "scan.degraded",
    }
)


class StageTimer:
    """Mutable elapsed-seconds holder :func:`stage` yields to its caller."""

    __slots__ = ("seconds",)

    def __init__(self) -> None:
        self.seconds = 0.0


@contextmanager
def stage(
    name: str, category: str = "stage", **args: Any
) -> Iterator[StageTimer]:
    """Time a named pipeline stage; emit a span and a histogram sample.

    Always yields a :class:`StageTimer` whose ``seconds`` is valid after
    exit (callers like the supervised runtime fold it into their own
    reports even with observability off); the metric/span emission itself
    is skipped while disabled.
    """
    timer = StageTimer()
    start = time.perf_counter()
    try:
        yield timer
    finally:
        timer.seconds = time.perf_counter() - start
        if state.enabled():
            REGISTRY.histogram(
                "fabp_stage_seconds",
                "Wall time per pipeline stage.",
                ("stage",),
            ).labels(stage=name).observe(timer.seconds)
            RECORDER.record(
                name=name,
                category=category,
                start=start,
                duration=timer.seconds,
                args=dict(args) if args else None,
            )


def record_score_call(engine: str, seconds: float, positions: int) -> None:
    """One scoring call: engine, wall time, alignment positions scored.

    Recorded once per ``scores_from_codes`` dispatch, once per ``align``
    call (its one engine call; positions, not hits) and once per scan task
    (``WindowTask.run``).
    """
    if not state.enabled():
        return
    REGISTRY.counter(
        "fabp_score_calls_total", "Scoring-engine dispatches.", ("engine",)
    ).labels(engine=engine).inc()
    REGISTRY.histogram(
        "fabp_score_seconds", "Wall time per scoring call.", ("engine",)
    ).labels(engine=engine).observe(seconds)
    REGISTRY.counter(
        "fabp_score_positions_total",
        "Alignment positions scored.",
        ("engine",),
    ).labels(engine=engine).inc(positions)


def record_fold_rows(folded: int, nominal: int) -> None:
    """One compiled fold call: element rows folded out of ``nominal``.

    A row is one query element over one 512-position tile; a hits-only
    fold skips the rows after the point where no position of the tile can
    reach the threshold, so ``folded / nominal`` is the share of the
    nominal cells the kernel really scored.
    """
    if not state.enabled():
        return
    family = REGISTRY.counter(
        "fabp_fold_rows_total",
        "Compiled-fold element rows (one element over one tile), by outcome.",
        ("outcome",),
    )
    family.labels(outcome="folded").inc(folded)
    family.labels(outcome="skipped").inc(nominal - folded)


def record_scan_merge(references: int, hits: int) -> None:
    """Post-merge totals of one database scan."""
    if not state.enabled():
        return
    REGISTRY.counter(
        "fabp_scan_references_total", "References scanned."
    ).default.inc(references)
    REGISTRY.counter("fabp_scan_hits_total", "Hits above threshold.").default.inc(
        hits
    )


def record_scan_attempt(
    chunk: int,
    attempt: int,
    outcome: str,
    seconds: float,
    worker: Optional[int] = None,
) -> None:
    """One supervised chunk attempt (also emits a timeline span)."""
    if not state.enabled():
        return
    REGISTRY.counter(
        "fabp_scan_chunk_attempts_total",
        "Chunk attempts by outcome.",
        ("outcome",),
    ).labels(outcome=outcome).inc()
    REGISTRY.histogram(
        "fabp_chunk_attempt_seconds",
        "Wall time per chunk attempt.",
        ("outcome",),
    ).labels(outcome=outcome).observe(seconds)
    args: Dict[str, Any] = {"chunk": chunk, "attempt": attempt, "outcome": outcome}
    if worker is not None:
        args["worker"] = worker
    RECORDER.record(
        name=f"chunk {chunk}",
        category="scan.chunk",
        start=time.perf_counter() - seconds,
        duration=seconds,
        args=args,
    )


def record_scan_report_counters(
    retries: int, respawns: int, degraded: bool
) -> None:
    """Fold one finished scan's resilience counters into the registry."""
    if not state.enabled():
        return
    REGISTRY.counter("fabp_scan_retries_total", "Chunk retries.").default.inc(
        retries
    )
    REGISTRY.counter(
        "fabp_scan_respawns_total", "Dead workers replaced."
    ).default.inc(respawns)
    if degraded:
        REGISTRY.counter(
            "fabp_scan_degraded_total", "Scans finished degraded."
        ).default.inc()


def record_checkpoint_chunk(num_bytes: int) -> None:
    """One chunk file durably persisted by the checkpoint store."""
    if not state.enabled():
        return
    REGISTRY.counter(
        "fabp_checkpoint_chunks_total", "Checkpoint chunk files written."
    ).default.inc()
    REGISTRY.counter(
        "fabp_checkpoint_bytes_total", "Checkpoint bytes written."
    ).default.inc(num_bytes)


def record_shm_bytes(num_bytes: int) -> None:
    """Ratchet the shared-memory high-water mark gauge."""
    if not state.enabled():
        return
    gauge = REGISTRY.gauge(
        "fabp_shm_bytes", "Largest shared-memory segment published (bytes)."
    ).default
    gauge.track_max(num_bytes)  # type: ignore[union-attr]


def record_scan_session_open(resident_bytes: int) -> None:
    """One warm scan session opened; ratchet its resident-image gauge."""
    if not state.enabled():
        return
    gauge = REGISTRY.gauge(
        "fabp_scan_session_resident_bytes",
        "Largest packed database image held by a warm scan session (bytes).",
    ).default
    gauge.track_max(resident_bytes)  # type: ignore[union-attr]


def record_scan_session_batch(batch_size: int, reused: bool) -> None:
    """One ``scan``/``scan_batch`` call served by a session.

    ``reused`` is true when the session's packed image and worker threads
    were already warm from a previous call — the amortization the session exists
    to provide.
    """
    if not state.enabled():
        return
    REGISTRY.histogram(
        "fabp_scan_session_batch_size",
        "Queries per scan-session batch call.",
    ).default.observe(batch_size)
    if reused:
        REGISTRY.counter(
            "fabp_scan_session_reuses_total",
            "Batch calls served by an already-warm scan session.",
        ).default.inc()


def record_scan_session_pass(pass_queries: int) -> None:
    """One shared database pass: how many queries rode the same sweep."""
    if not state.enabled():
        return
    REGISTRY.histogram(
        "fabp_scan_session_pass_queries",
        "Queries sharing one database pass.",
    ).default.observe(pass_queries)


def record_shard_active(count: int) -> None:
    """Ratchet the high-water mark of a sharded scan's worker threads."""
    if not state.enabled():
        return
    gauge = REGISTRY.gauge(
        "fabp_shard_active",
        "Most worker threads of a sharded scan.",
    ).default
    gauge.track_max(count)  # type: ignore[union-attr]


def record_shard_resume(chunks: int) -> None:
    """One shard resumed; count its tasks restored from the checkpoint."""
    if not state.enabled():
        return
    REGISTRY.counter(
        "fabp_shard_resumes_total",
        "Shard tasks restored from the checkpoint.",
    ).default.inc(chunks)


def record_encoding_cache(hits: int, misses: int, entries: int) -> None:
    """Snapshot the extended-mode residue-table cache effectiveness."""
    if not state.enabled():
        return
    REGISTRY.gauge(
        "fabp_encoding_cache_hits", "Residue-table cache hits."
    ).default.set(hits)
    REGISTRY.gauge(
        "fabp_encoding_cache_misses", "Residue-table cache misses."
    ).default.set(misses)
    REGISTRY.gauge(
        "fabp_encoding_cache_entries", "Residue-table cache entries."
    ).default.set(entries)


def record_kernel_run(run: Any) -> None:
    """Beat/cycle accounting of one accelerator-model kernel invocation.

    ``run`` is a :class:`repro.accel.kernel.KernelRun` (duck-typed: the
    observability layer stays import-free of the accelerator stack).
    """
    if not state.enabled():
        return
    device = run.plan.device.name
    REGISTRY.counter(
        "fabp_kernel_runs_total", "Kernel invocations.", ("device",)
    ).labels(device=device).inc()
    REGISTRY.counter(
        "fabp_kernel_beats_total", "Valid AXI beats streamed.", ("device",)
    ).labels(device=device).inc(run.beats)
    cycles = REGISTRY.counter(
        "fabp_kernel_cycles_total",
        "Modeled kernel cycles by kind.",
        ("device", "kind"),
    )
    for kind, value in (
        ("compute", run.compute_cycles),
        ("stall", run.stall_cycles),
        ("load", run.load_cycles),
        ("writeback", run.writeback_cycles),
        ("drain", run.drain_cycles),
    ):
        cycles.labels(device=device, kind=kind).inc(value)
    RECORDER.record(
        name="accel.kernel.run",
        category="accel",
        start=time.perf_counter() - run.elapsed_seconds,
        duration=run.elapsed_seconds,
        args={
            "reference_length": run.reference_length,
            "beats": run.beats,
            "hits": len(run.hits),
            "segments": run.plan.segments,
        },
    )


def record_schedule_plan(segments: int) -> None:
    """One segmentation decision by the scheduler."""
    if not state.enabled():
        return
    REGISTRY.counter(
        "fabp_schedule_plans_total",
        "Schedule plans by segment count.",
        ("segments",),
    ).labels(segments=str(segments)).inc()


def record_service_request(endpoint: str, code: int, seconds: float) -> None:
    """One HTTP request served by the front-door scan service.

    ``endpoint`` is the normalized route name (``scan``, ``jobs``,
    ``results``, ``healthz``, ``metrics``, ``other``), never the raw path —
    label cardinality stays bounded.
    """
    if not state.enabled():
        return
    REGISTRY.counter(
        "fabp_service_requests_total",
        "Service HTTP requests by endpoint and status code.",
        ("endpoint", "code"),
    ).labels(endpoint=endpoint, code=str(code)).inc()
    REGISTRY.histogram(
        "fabp_service_request_seconds",
        "Wall time per service HTTP request.",
        ("endpoint",),
    ).labels(endpoint=endpoint).observe(seconds)


def record_service_queue_depth(depth: int) -> None:
    """Snapshot the admission queue depth after an enqueue/dequeue."""
    if not state.enabled():
        return
    REGISTRY.gauge(
        "fabp_service_queue_depth",
        "Scan jobs waiting in the service admission queue.",
    ).default.set(depth)


def record_service_job(outcome: str) -> None:
    """One scan job reaching a terminal state (``done``/``failed``/``cached``)."""
    if not state.enabled():
        return
    REGISTRY.counter(
        "fabp_service_jobs_total",
        "Scan jobs finished, by outcome.",
        ("outcome",),
    ).labels(outcome=outcome).inc()


def record_service_cache(hit: bool) -> None:
    """One result-cache lookup by the service front door."""
    if not state.enabled():
        return
    if hit:
        REGISTRY.counter(
            "fabp_service_cache_hits_total", "Service result-cache hits."
        ).default.inc()
    else:
        REGISTRY.counter(
            "fabp_service_cache_misses_total", "Service result-cache misses."
        ).default.inc()


def record_service_batch(jobs: int, seconds: float) -> None:
    """One batched pass dispatched by the service: occupancy + span."""
    if not state.enabled():
        return
    REGISTRY.histogram(
        "fabp_service_batch_jobs",
        "Jobs sharing one service scan batch.",
    ).default.observe(jobs)
    RECORDER.record(
        name="service.batch",
        category="service",
        start=time.perf_counter() - seconds,
        duration=seconds,
        args={"jobs": jobs},
    )


def record_bench_record(
    engine: str, workers: int, positions_per_s: float, wall_s: float
) -> None:
    """One benchmark measurement (gauge + span for the bench timeline)."""
    if not state.enabled():
        return
    REGISTRY.gauge(
        "fabp_bench_positions_per_s",
        "Benchmark throughput (alignment positions/s).",
        ("engine", "workers"),
    ).labels(engine=engine, workers=str(workers)).set(positions_per_s)
    RECORDER.record(
        name=f"bench.{engine}",
        category="bench",
        start=time.perf_counter() - wall_s,
        duration=wall_s,
        args={"engine": engine, "workers": workers},
    )
