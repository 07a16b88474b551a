"""The workloads, one per scan runtime.

Each workload function takes a :class:`Context` and returns an
:class:`Outcome`: operations attempted and failed, the end-to-end
metrics, the per-layer metrics of the layer group it owns (traced runs
only) and the details behind every timing.  A workload never reads the
program's internals: it times calls into public entry points and reads
the program's public reports (``ScanReport``, session counters, job
timestamps over HTTP and the ``/metrics`` families).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from gate import Gate, hits_from_json, hits_from_results
from inputs import Inputs, make_inputs, random_protein, stratified_lengths
from loadgen import OpenLoopClient, arrival_schedule, job_order
from measure import Tracer, median, summarize
from procfs import LeakCheck, descendants, tree_pss_mb
from server_proc import ServerProcess

#: Set-ups per run; the reported ``setup_s`` is their median.
SETUPS = 5

#: Reference length of every generated database (long references keep the
#: kernel, not per-reference bookkeeping, on the critical path).
REFERENCE_NT = 256_000

#: Residues per query in the closed-loop workloads (750 elements, the
#: paper's query bound).
QUERY_AA = 250

#: Offered load of ``service-open`` in jobs per second: a fixed rate near
#: 45 % of the knee measured on a 2-CPU host (p50 turns up past ~16 jobs/s).
SERVICE_RATE = 8.0

#: Calls of the warm-session reference run behind ``shards.overhead_vs_session``.
SESSION_REFERENCE_CALLS = 8

#: Share of ``service-open`` jobs that repeat an earlier query.
SERVICE_REPEAT_SHARE = 0.2

#: ``service-open`` latency limit: a job answered correctly within this
#: many milliseconds of its due time meets the objective.  It sits near the
#: measured tail (p90 of 320-460 ms across seeds on a 2-CPU host, maxima of
#: 450-650 ms), so some runs miss it and most do not.
SERVICE_SLO_MS = 500.0


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float
    workers: int
    tracer: Tracer
    setups: int = SETUPS

    @property
    def trace(self) -> bool:
        return self.tracer.enabled


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    detail: Dict[str, object] = field(default_factory=dict)
    gate: Gate = None  # type: ignore[assignment]
    inputs: Inputs = None  # type: ignore[assignment]


def cells(inputs: Inputs, query_lengths: Sequence[int]) -> int:
    """Alignment cells of one call: (L_r - L_q + 1) * L_q elements per query."""
    total = 0
    for aa in query_lengths:
        span = 3 * aa
        total += sum(max(0, n - span + 1) * span for n in inputs.lengths)
    return total


def _timed_setups(ctx: Context, open_fn: Callable, close_fn: Callable):
    """Run ``ctx.setups`` set-ups; return their times and the last runtime.

    ``open_fn`` returns ``(runtime, seconds)``: the time from the first call
    into the program's entry point to the first warm-up result.
    """
    times: List[float] = []
    runtime = None
    for _ in range(ctx.setups):
        if runtime is not None:
            close_fn(runtime)
        with ctx.tracer.span("setup"):
            runtime, seconds = open_fn()
        times.append(seconds)
    return times, runtime


def _closed_loop(
    ctx: Context, batches: Sequence[Sequence[int]], call: Callable
) -> List[Tuple[float, int, object, bool]]:
    """Call ``call(batch)`` back to back for ``ctx.seconds``.

    Returns ``(seconds, batch index, output, traced)`` per call.  In a traced
    run every other call is wrapped in a span, so traced and untraced
    latencies come from the same conditions.
    """
    samples = []
    deadline = time.monotonic() + ctx.seconds
    index = 0
    while time.monotonic() < deadline or index == 0:
        batch = batches[index % len(batches)]
        traced = ctx.trace and index % 2 == 1
        start = time.perf_counter()
        if traced:
            with ctx.tracer.span("call", request=f"call-{index}"):
                output = call(batch)
        else:
            output = call(batch)
        samples.append((time.perf_counter() - start, index % len(batches), output, traced))
        index += 1
    return samples


def _closed_loop_metrics(
    outcome: Outcome, samples, setup_times: Sequence[float], cells_per_call: Sequence[int]
) -> None:
    untraced = [s[0] for s in samples if not s[3]]
    rates = [cells_per_call[s[1]] / s[0] / 1e9 for s in samples if not s[3]]
    outcome.metrics.update(
        setup_s=median(setup_times),
        latency_p50_ms=1e3 * median(untraced),
        throughput_gcups=median(rates),
    )
    outcome.detail["setup_s"] = {"samples": list(setup_times)}
    outcome.detail["latency_ms"] = summarize([1e3 * w for w in untraced])
    outcome.detail["calls"] = len(samples)
    traced = [s[0] for s in samples if s[3]]
    if traced:
        outcome.layers["trace.overhead_ratio"] = median(traced) / median(untraced)


def _gate_batches(gate: Gate, batches, samples) -> int:
    failed = 0
    for _, batch_index, output, _ in samples:
        per_query = output[0]
        ok = all(
            gate.check(q, *hits_from_results(results))
            for q, results in zip(batches[batch_index], per_query)
        )
        failed += not ok
    return failed


def _gate_warmup(outcome: Outcome, results) -> None:
    """The warm-up result of query 0 is an output too: check it."""
    outcome.attempted += 1
    outcome.failed += not outcome.gate.check(0, *hits_from_results(results))


def _finish(outcome: Outcome, leak: LeakCheck) -> None:
    leaks = leak.leaks()
    outcome.detail["leaks"] = leaks
    outcome.failed += len(leaks)
    outcome.detail["gate"] = {
        "outputs_checked": outcome.gate.checked,
        "failures": outcome.gate.failures[:20],
    }


# -- session-batch ------------------------------------------------------------


def session_batch(ctx: Context) -> Outcome:
    """A warm ``ScanSession`` scoring batches of eight 250-aa queries."""
    from repro.host import ScanSession

    k, num_batches = 8, 4
    inputs = make_inputs(ctx.seed, 16, REFERENCE_NT, [QUERY_AA] * (k * num_batches))
    batches = [list(range(b * k, (b + 1) * k)) for b in range(num_batches)]
    gate = Gate(inputs)
    outcome = Outcome(gate=gate, inputs=inputs)
    leak = LeakCheck()
    queries = inputs.queries

    def open_session():
        start = time.monotonic()
        session = ScanSession(inputs.references, workers=ctx.workers, names=inputs.names)
        warm = session.scan_batch([queries[0]])
        seconds = time.monotonic() - start
        _gate_warmup(outcome, warm[0])
        return session, seconds

    setup_times, session = _timed_setups(ctx, open_session, lambda s: s.close())
    try:
        samples = _closed_loop(
            ctx, batches,
            lambda batch: session.scan_batch([queries[q] for q in batch], with_report=True),
        )
        leak.track(descendants(os.getpid()))
        outcome.metrics["memory_pss_mb"] = tree_pss_mb(os.getpid())
        reuse = session.pool_reuses / max(1, session.scans_completed)
        respawns = session.respawns_total
    finally:
        session.close()
    per_call = [cells(inputs, [QUERY_AA] * k)] * num_batches
    _closed_loop_metrics(outcome, samples, setup_times, per_call)
    reports = [s[2][1] for s in samples]
    outcome.detail["session"] = {"respawns_total": respawns}
    outcome.layers.update(
        {
            "session.pass_ms": 1e3 * median(
                [r.metrics["stage_seconds"]["execute"] for r in reports]
            ),
            "session.chunks_per_batch": median([r.chunks_total for r in reports]),
            "session.pool_reuse_ratio": reuse,
        }
    )
    outcome.detail["kernel_equivalent"] = {
        "cells_per_call": per_call[0],
        "call_seconds_p50": median([s[0] for s in samples]),
        "workers": ctx.workers,
    }
    outcome.attempted += len(samples)
    outcome.failed += _gate_batches(gate, batches, samples)
    _finish(outcome, leak)
    return outcome


# -- oneshot-scan -------------------------------------------------------------


def oneshot_scan(ctx: Context) -> Outcome:
    """``scan_database(..., with_report=True)``: a fresh pool on every call."""
    from repro.host import PackedDatabase, scan_database

    inputs = make_inputs(ctx.seed, 4, REFERENCE_NT, [QUERY_AA] * 8)
    batches = [[q] for q in range(len(inputs.queries))]
    gate = Gate(inputs)
    outcome = Outcome(gate=gate, inputs=inputs)
    leak = LeakCheck()
    queries = inputs.queries

    def scan(database, query):
        results, report = scan_database(
            queries[query], database, workers=ctx.workers, with_report=True
        )
        return [results], report

    def open_database():
        start = time.monotonic()
        database = PackedDatabase.from_references(inputs.references, names=inputs.names)
        warm, _ = scan(database, 0)
        seconds = time.monotonic() - start
        _gate_warmup(outcome, warm[0])
        return database, seconds

    setup_times, database = _timed_setups(ctx, open_database, lambda d: None)
    samples = _closed_loop(ctx, batches, lambda batch: scan(database, batch[0]))
    outcome.metrics["memory_pss_mb"] = tree_pss_mb(os.getpid())
    _closed_loop_metrics(outcome, samples, setup_times, [cells(inputs, [QUERY_AA])] * 8)
    outcome.layers.update(resilience_layers([s[2][1] for s in samples]))
    outcome.attempted += len(samples)
    outcome.failed += _gate_batches(gate, batches, samples)
    _finish(outcome, leak)
    return outcome


def resilience_layers(reports) -> Dict[str, float]:
    """Supervisor stage times, busy ratio and waste from ``ScanReport``s."""
    execute = [r.metrics["stage_seconds"]["execute"] for r in reports]
    busy = [
        sum(a.seconds for a in r.attempts) / (r.metrics["stage_seconds"]["execute"] * r.workers)
        for r in reports
    ]
    return {
        "resilience.execute_ms": 1e3 * median(execute),
        "resilience.merge_ms": 1e3 * median([r.metrics["stage_seconds"]["merge"] for r in reports]),
        "resilience.worker_busy_ratio": median(busy),
        "resilience.retries": float(sum(r.retries for r in reports)),
        "resilience.respawns": float(sum(r.respawns for r in reports)),
    }


# -- sharded-batch ------------------------------------------------------------


def sharded_batch(ctx: Context) -> Outcome:
    """``ShardedScanRuntime`` with one shard per CPU, batches of two queries."""
    from repro.host import ScanSession, ShardedScanRuntime

    k, num_batches = 2, 4
    inputs = make_inputs(ctx.seed, 8, REFERENCE_NT, [QUERY_AA] * (k * num_batches))
    batches = [list(range(b * k, (b + 1) * k)) for b in range(num_batches)]
    gate = Gate(inputs)
    outcome = Outcome(gate=gate, inputs=inputs)
    leak = LeakCheck()
    queries = inputs.queries

    def open_runtime():
        start = time.monotonic()
        runtime = ShardedScanRuntime(
            inputs.references, num_shards=ctx.workers, names=inputs.names
        )
        warm = runtime.scan_batch([queries[0]])
        seconds = time.monotonic() - start
        _gate_warmup(outcome, warm[0])
        return runtime, seconds

    setup_times, runtime = _timed_setups(ctx, open_runtime, lambda r: None)
    call = lambda batch: runtime.scan_batch([queries[q] for q in batch], with_report=True)  # noqa: E731
    samples = _closed_loop(ctx, batches, call)
    outcome.metrics["memory_pss_mb"] = tree_pss_mb(os.getpid())
    _closed_loop_metrics(outcome, samples, setup_times, [cells(inputs, [QUERY_AA] * k)] * num_batches)
    reports = [s[2][1] for s in samples]
    outcome.layers.update(
        {
            "shards.call_ms": 1e3 * median([s[0] for s in samples]),
            "shards.merge_s": median([r.metrics["stage_seconds"]["merge"] for r in reports]),
            "shards.resumes": float(sum(s.resumed_chunks for r in reports for s in r.shards)),
            "shards.hedges": float(sum(s.hedges for r in reports for s in r.shards)),
        }
    )
    outcome.attempted += len(samples)
    outcome.failed += _gate_batches(gate, batches, samples)
    if ctx.trace:
        # The same batches on a warm session: what sharding adds per call.
        with ScanSession(runtime.database, workers=ctx.workers) as session:
            session.scan_batch([queries[0]])
            session_walls = []
            for index in range(SESSION_REFERENCE_CALLS):
                batch = [queries[q] for q in batches[index % num_batches]]
                start = time.perf_counter()
                with ctx.tracer.span("session-reference"):
                    session.scan_batch(batch)
                session_walls.append(time.perf_counter() - start)
        outcome.layers["shards.overhead_vs_session"] = (
            median([s[0] for s in samples]) / median(session_walls)
        )
    _finish(outcome, leak)
    return outcome


# -- service-open -------------------------------------------------------------


def service_open(ctx: Context) -> Outcome:
    """``fabp-repro serve`` under seeded open-loop Poisson arrivals."""
    count = max(1, round(SERVICE_RATE * ctx.seconds))
    distinct, order = job_order(ctx.seed, count, SERVICE_REPEAT_SHARE)
    inputs = make_inputs(ctx.seed, 4, REFERENCE_NT, stratified_lengths(distinct, 50, QUERY_AA))
    warm_query = random_protein(np.random.default_rng([ctx.seed, 7]), QUERY_AA)
    database = ctx.work / "service-db.fa"
    database.write_text(inputs.fasta())
    gate = Gate(inputs)
    outcome = Outcome(gate=gate, inputs=inputs)
    leak = LeakCheck()
    servers: List[ServerProcess] = []

    def open_server():
        server = ServerProcess(ctx.root, ctx.work, database, ctx.workers, str(len(servers)))
        servers.append(server)
        imported = server.wait_ready()
        server.scan(warm_query, poll=0.005)
        seconds = time.monotonic() - imported
        leak.track([server.pid] + descendants(server.pid))
        return server, seconds

    def close_server(server):
        leak.track(descendants(server.pid))
        server.stop()

    try:
        setup_times, server = _timed_setups(ctx, open_server, close_server)
        before = server.metrics()
        due = arrival_schedule(ctx.seed, count, ctx.seconds)
        jobs = [(d, q, inputs.queries[q]) for d, q in zip(due, order)]
        with ctx.tracer.span("open-loop"):
            client = OpenLoopClient(server.host, server.port, ctx.workers, ctx.tracer)
            records = client.run(jobs, time.monotonic() + 0.05)
        after = server.metrics()
        leak.track(descendants(server.pid))
        outcome.metrics["memory_pss_mb"] = tree_pss_mb(server.pid)
    finally:
        exit_codes = [s.stop() for s in servers]
    outcome.detail["server_exit_codes"] = exit_codes
    outcome.failed += sum(1 for code in exit_codes if code != 0)
    _service_metrics(ctx, outcome, records, setup_times, before, after)
    _finish(outcome, leak)
    return outcome


def _service_metrics(ctx, outcome, records, setup_times, before, after) -> None:
    inputs, gate = outcome.inputs, outcome.gate
    counts = {"sent": len(records), "succeeded": 0, "failed": 0, "refused": 0}
    good_cells = 0
    met = 0
    latencies = []
    for record in records:
        correct = record.status == "ok" and gate.check(
            record.query, *hits_from_json(record.view["results"])
        )
        if record.status == "refused":
            counts["refused"] += 1
        elif correct:
            counts["succeeded"] += 1
        else:
            counts["failed"] += 1
        if record.status == "ok":
            latencies.append(1e3 * record.latency)
        if correct and 1e3 * record.latency <= SERVICE_SLO_MS:
            met += 1
            good_cells += cells(inputs, [len(inputs.queries[record.query])])
    outcome.attempted += len(records)
    outcome.failed += counts["failed"] + counts["refused"]
    latency = summarize(latencies)
    outcome.metrics.update(
        setup_s=median(setup_times),
        latency_p50_ms=latency["p50"],
        throughput_gcups=good_cells / ctx.seconds / 1e9,
    )
    outcome.detail.update(
        setup_s={"samples": list(setup_times)},
        latency_ms=latency,
        # A failed warm-up job raises, so reaching here means all succeeded.
        jobs={"warmup": {"sent": len(setup_times), "succeeded": len(setup_times),
                         "failed": 0, "refused": 0},
              "measured": counts},
        offered_rate=SERVICE_RATE,
        slo_ms=SERVICE_SLO_MS,
        slo_attainment=met / max(1, len(records)),
    )
    if "tail" in latency:
        outcome.detail["latency_tail_ms"] = latency["tail"]

    def delta(name):
        return after.get(name, 0.0) - before.get(name, 0.0)

    ok = [r for r in records if r.status == "ok"]
    computed = [r.view for r in ok if not r.view.get("cached")]
    hits, misses = delta("fabp_service_cache_hits_total"), delta("fabp_service_cache_misses_total")
    batch_jobs = delta("fabp_service_batch_jobs_count")
    outcome.layers.update(
        {
            "daemon.queue_wait_ms": 1e3 * median([v["started_at"] - v["submitted_at"] for v in computed]),
            "daemon.service_ms": 1e3 * median([v["finished_at"] - v["started_at"] for v in computed]),
            "daemon.batch_occupancy": delta("fabp_service_batch_jobs_sum") / max(1.0, batch_jobs),
            "cache.hit_ratio": hits / max(1.0, hits + misses),
            "server.post_ms": 1e3 * median([r.post_seconds for r in ok]),
            "server.results_ms": 1e3 * median([r.results_seconds for r in ok]),
            "server.polls_per_job": float(np.mean([r.polls for r in ok])),
            "server.http_overhead_ms": 1e3 * median(
                [r.latency - (r.view["finished_at"] - r.view["submitted_at"]) for r in ok]
            ),
            "loadgen.late_ms_max": 1e3 * max(r.sent - r.due for r in records),
        }
    )
    traced = [1e3 * r.latency for r in ok if r.index % 2 == 1]
    if ctx.trace and traced:
        outcome.layers["trace.overhead_ratio"] = median(traced) / median(
            [1e3 * r.latency for r in ok if r.index % 2 == 0]
        )


#: Workloads the benchmark runs end to end.
WORKLOADS: Dict[str, Callable[[Context], Outcome]] = {
    "session-batch": session_batch,
    "service-open": service_open,
    "oneshot-scan": oneshot_scan,
}

#: What a traced run may probe for a layer group it does not reach.
#: ``sharded-batch`` is only a probe: as an end-to-end workload its medians moved by 27-33 %
#: between two sets of ten runs of the same code on a shared 2-CPU host
#: (it forks runners and pools on every call), beyond any allowed bound.
PROBES: Dict[str, Callable[[Context], Outcome]] = {
    **WORKLOADS,
    "sharded-batch": sharded_batch,
}
