"""Per-layer metrics of a traced run.

Layer groups owned by a scan runtime come from that runtime's workload:
the traced workload itself, or a short run of the owning workload (a
*probe*, same code, fewer seconds, one set-up, same gate and leak check;
see ``workloads.PROBES``).
The kernel, encoding, packing, shared-memory and window-planning layers
are timed directly through their public functions on the traced
workload's own inputs.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from inputs import Inputs, random_protein
from measure import median

#: The sharded runtime has no end-to-end workload of its own (see
#: ``workloads.PROBES``); its layer metrics come from a probe run.
SHARDED = "sharded-batch (probe only; no end-to-end workload)"

#: Every per-layer metric: unit, the end-to-end metric it should move and
#: the workload it should move it on.
LAYER_METRICS: Dict[str, Tuple[str, str, str]] = {
    "bitscore.gcups_k1": ("Gcell/s", "latency_p50_ms", "oneshot-scan"),
    "bitscore.gcups_k8": ("Gcell/s", "throughput_gcups", "session-batch"),
    "bitscore.bytes_per_cell": ("B/cell", "throughput_gcups", "session-batch"),
    "bitscore.roof_fraction": ("ratio", "throughput_gcups", "session-batch"),
    "membw.copy_gbs": ("GB/s", "throughput_gcups", "session-batch"),
    "encoding.encode_us": ("us", "latency_p50_ms", "service-open"),
    "scan.pack_s": ("s", "setup_s", "all"),
    "scan.publish_ms": ("ms", "latency_p50_ms", "oneshot-scan"),
    "windows.plan_ms": ("ms", "latency_p50_ms", "oneshot-scan"),
    "resilience.execute_ms": ("ms", "latency_p50_ms", "oneshot-scan"),
    "resilience.merge_ms": ("ms", "latency_p50_ms", "oneshot-scan"),
    "resilience.worker_busy_ratio": ("ratio", "throughput_gcups", "oneshot-scan"),
    "resilience.retries": ("count", "latency_p50_ms", "oneshot-scan"),
    "resilience.respawns": ("count", "latency_p50_ms", "oneshot-scan"),
    "session.pass_ms": ("ms", "throughput_gcups", "session-batch"),
    "session.chunks_per_batch": ("count", "throughput_gcups", "session-batch"),
    "session.parallel_efficiency": ("ratio", "throughput_gcups", "session-batch"),
    "session.pool_reuse_ratio": ("ratio", "latency_p50_ms", "service-open"),
    "shards.call_ms": ("ms", "throughput_gcups", SHARDED),
    "shards.overhead_vs_session": ("ratio", "throughput_gcups", SHARDED),
    "shards.merge_s": ("s", "throughput_gcups", SHARDED),
    "shards.resumes": ("count", "throughput_gcups", SHARDED),
    "shards.hedges": ("count", "throughput_gcups", SHARDED),
    "daemon.queue_wait_ms": ("ms", "latency_p50_ms", "service-open"),
    "daemon.service_ms": ("ms", "latency_p50_ms", "service-open"),
    "daemon.batch_occupancy": ("jobs", "latency_p50_ms", "service-open"),
    "cache.hit_ratio": ("ratio", "latency_p50_ms", "service-open"),
    "server.post_ms": ("ms", "latency_p50_ms", "service-open"),
    "server.results_ms": ("ms", "latency_p50_ms", "service-open"),
    "server.polls_per_job": ("count", "latency_p50_ms", "service-open"),
    "server.http_overhead_ms": ("ms", "latency_p50_ms", "service-open"),
    "loadgen.late_ms_max": ("ms", "latency_p50_ms", "service-open"),
    "trace.overhead_ratio": ("ratio", "latency_p50_ms", "traced workload"),
}

#: Which workload's run yields each layer group.
GROUP_OWNER = {
    "resilience.": "oneshot-scan",
    "session.": "session-batch",
    "shards.": "sharded-batch",
    "daemon.": "service-open",
    "cache.": "service-open",
    "server.": "service-open",
    "loadgen.": "service-open",
}

#: Seconds a probe run of another workload measures.
PROBE_SECONDS = 3.0

#: Repetitions of each direct layer timing (the median is reported).
REPEATS = 5


def _timed(fn: Callable[[], object], repeats: int = REPEATS) -> float:
    """Median wall seconds of ``fn()``."""
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - start)
    return median(walls)


def last_level_cache_bytes() -> int:
    """Size of the largest CPU cache, from sysfs (32 MiB when unknown)."""
    best = 0
    for path in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        text = path.read_text().strip()
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
        best = max(best, int(text.rstrip("KMG")) * scale)
    return best or 32 << 20


def copy_bandwidth() -> Tuple[float, Dict[str, int]]:
    """Streaming-copy GB/s (bytes read + written) over arrays >= 4x the LLC."""
    llc = last_level_cache_bytes()
    size = max(4 * llc, 64 << 20)
    src = np.ones(size, dtype=np.uint8)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault the pages in before timing
    seconds = _timed(lambda: np.copyto(dst, src), repeats=3)
    del src, dst
    return 2 * size / seconds / 1e9, {"llc_bytes": llc, "array_bytes": size}


def direct_layers(inputs: Inputs, workers: int, seed: int) -> Tuple[Dict[str, float], Dict]:
    """Kernel, encoding, packing, publishing and planning, timed directly."""
    from repro.core import bitscore
    from repro.core.encoding import encode_query
    from repro.host import PackedDatabase
    from repro.host.scan import publish_segment, retire_segment
    from repro.host.windows import plan_windows

    rng = np.random.default_rng([seed, 11])
    kernel_queries = [encode_query(random_protein(rng, 250)).as_array() for _ in range(8)]
    database = PackedDatabase.from_references(inputs.references[:1])
    codes = database.reference_codes(0)
    span = kernel_queries[0].size
    positions = codes.size - span + 1
    layers: Dict[str, float] = {}
    detail: Dict[str, object] = {}
    for k in (1, 8):
        seconds = _timed(lambda: bitscore.scores_batch(kernel_queries[:k], codes))
        layers[f"bitscore.gcups_k{k}"] = k * positions * span / seconds / 1e9
    # Computed, not measured: the bytes one k=8 call must stream per cell —
    # the reference codes read, one packed match row (one bit per position)
    # read per query element, and the int32 scores written.
    words = -(-positions // bitscore.WORD_BITS)
    streamed = codes.size + 8 * (span * words * 8 + positions * 4)
    layers["bitscore.bytes_per_cell"] = streamed / (8 * positions * span)
    copy_gbs, sizes = copy_bandwidth()
    layers["membw.copy_gbs"] = copy_gbs
    layers["bitscore.roof_fraction"] = (
        layers["bitscore.gcups_k8"] * layers["bitscore.bytes_per_cell"] / copy_gbs
    )
    detail["kernel"] = {
        "reference_nt": int(codes.size), "query_elements": int(span),
        "bytes_per_cell": "computed from array sizes", **sizes,
    }
    layers["encoding.encode_us"] = 1e6 * median(
        [_timed(lambda q=q: encode_query(q), repeats=3) for q in inputs.queries[:16]]
    )
    layers["scan.pack_s"] = _timed(
        lambda: PackedDatabase.from_references(inputs.references), repeats=3
    )
    full = PackedDatabase.from_references(inputs.references)
    layers["scan.publish_ms"] = 1e3 * _timed(
        lambda: retire_segment(publish_segment(full.buffer))
    )
    lengths: List[int] = inputs.lengths
    layers["windows.plan_ms"] = 1e3 * _timed(lambda: plan_windows(lengths, span, workers), 20)
    return layers, detail
