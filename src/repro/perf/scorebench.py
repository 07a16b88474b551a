"""Score-engine benchmark harness (``fabp-repro bench``).

Times the software scoring engines — naive Python, the per-element
vectorized path, the bit-parallel SWAR engine — on a synthetic planted
workload, plus the chunked multi-process database scan at several worker
counts, and writes a ``BENCH_scoring.json`` artifact so the repo carries a
recorded perf trajectory (schema below; one record per measurement):

.. code-block:: json

    {"engine": "bitscore", "L_q": 750, "L_r": 1000000, "n_refs": 1,
     "wall_s": 0.19, "positions_per_s": 5.2e6, "workers": 1}

``L_q`` counts encoded *elements* (3 per residue) to match the paper's
notation; ``positions_per_s`` is alignment positions scored per second —
the size-normalized figure of merit that makes runs at different scales
comparable.  The naive engine is measured on a truncated reference (it is
pure Python, ~10^3x slower) and normalized the same way; its record's
``L_r`` is the truncated length actually timed.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.aligner import DEFAULT_ENGINE, scores_from_codes
from repro.core.bitscore import batch_kernel
from repro.core.encoding import EncodedQuery, encode_query
from repro.obs import profile as _obs_profile
from repro.seq.packing import codes_from_text

#: Engines timed on the single-reference workload, in report order.
SINGLE_REFERENCE_ENGINES = ("naive", "vectorized", "bitscore")

#: Positions the naive engine is allowed to score (it is pure Python).
NAIVE_POSITION_CAP = 2_000

#: Artifact schema version (bump on incompatible field changes).
#: v2 adds the ``batch`` field (queries scored per call) and the batched /
#: warm-session record families.
SCHEMA_VERSION = 2


@dataclass(frozen=True)
class BenchRecord:
    """One timed measurement (one row of the artifact)."""

    engine: str
    L_q: int
    L_r: int
    n_refs: int
    wall_s: float
    positions_per_s: float
    workers: int = 1
    repeats: int = 1
    #: Queries scored per call; ``positions_per_s`` aggregates the batch.
    batch: int = 1


@dataclass
class BenchReport:
    """The full artifact: metadata, records, derived speedups."""

    records: List[BenchRecord] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)
    speedups: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": SCHEMA_VERSION,
            "meta": self.meta,
            "records": [asdict(r) for r in self.records],
            "speedups": self.speedups,
        }

    def write(self, path: os.PathLike) -> pathlib.Path:
        out = pathlib.Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return out

    def record_for(self, engine: str, workers: int = 1) -> Optional[BenchRecord]:
        for record in self.records:
            if record.engine == engine and record.workers == workers:
                return record
        return None


def _planted_reference(
    query, length: int, rng: np.random.Generator
) -> np.ndarray:
    """A random reference with one perfectly matching planted region."""
    from repro.seq.generate import random_rna
    from repro.workloads.builder import encode_protein_as_rna, plant_homolog

    region = encode_protein_as_rna(query, rng=rng, codon_usage="paper").letters
    background = random_rna(length, rng=rng).letters
    position = int(rng.integers(0, max(1, length - len(region))))
    return codes_from_text(plant_homolog(background, region, position))


def _time(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time (min is the standard noise filter)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _time_engine(
    encoded: EncodedQuery, ref_codes: np.ndarray, engine: str, repeats: int
) -> BenchRecord:
    instructions = encoded.as_array()
    num_positions = ref_codes.size - instructions.size + 1
    wall = _time(lambda: scores_from_codes(instructions, ref_codes, engine), repeats)
    record = BenchRecord(
        engine=engine,
        L_q=int(instructions.size),
        L_r=int(ref_codes.size),
        n_refs=1,
        wall_s=wall,
        positions_per_s=num_positions / wall if wall > 0 else float("inf"),
        repeats=repeats,
    )
    _obs_profile.record_bench_record(
        engine, 1, record.positions_per_s, record.wall_s
    )
    return record


def run_score_benchmark(
    *,
    residues: int = 250,
    reference_length: int = 1_000_000,
    scan_references: int = 8,
    scan_reference_length: int = 250_000,
    workers_sweep: Sequence[int] = (1, 2, 4),
    engines: Sequence[str] = SINGLE_REFERENCE_ENGINES,
    repeats: int = 3,
    seed: int = 2021,
    naive_position_cap: int = NAIVE_POSITION_CAP,
) -> BenchReport:
    """Run the full benchmark; return the report (callers write/print it).

    Single-reference timings isolate engine throughput at ``L_q = 3 *
    residues`` elements over ``reference_length`` nucleotides; the scan
    sweep then times the end-to-end database scan (session engine)
    at each worker count over ``scan_references x scan_reference_length``.
    Worker counts above 1 start a pool whenever the plan has more than one
    task, so the records measure true pool cost.
    """
    from repro.host.scan import PackedDatabase, scan_database
    from repro.seq.generate import random_protein

    rng = np.random.default_rng(seed)
    query = random_protein(residues, rng=rng)
    encoded = encode_query(query)
    num_elements = len(encoded)
    report = BenchReport(
        meta={
            "residues": residues,
            "reference_length": reference_length,
            "scan_references": scan_references,
            "scan_reference_length": scan_reference_length,
            "seed": seed,
            "repeats": repeats,
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "numpy": np.__version__,
            "batch_kernel": batch_kernel(),
        }
    )

    ref_codes = _planted_reference(query, reference_length, rng)
    position_caps = {
        # The pure-Python oracle gets a truncated slice; positions/s stays
        # the comparable metric and L_r records the truth.
        "naive": naive_position_cap,
    }
    for engine in engines:
        cap = position_caps.get(engine)
        timed_codes = (
            ref_codes if cap is None else ref_codes[: num_elements + cap - 1]
        )
        engine_repeats = 1 if engine == "naive" else repeats
        report.records.append(
            _time_engine(encoded, timed_codes, engine, engine_repeats)
        )

    database = PackedDatabase.from_references(
        [
            _planted_reference(query, scan_reference_length, rng)
            for _ in range(scan_references)
        ]
    )
    scan_positions = sum(
        max(0, int(length) - num_elements + 1) for length in database.lengths
    )
    for workers in workers_sweep:
        wall = _time(
            lambda workers=workers: scan_database(
                encoded, database, min_identity=0.9, workers=workers
            ),
            repeats,
        )
        scan_record = BenchRecord(
            engine="parallel-scan",
            L_q=num_elements,
            L_r=int(database.lengths.sum()),
            n_refs=database.num_references,
            wall_s=wall,
            positions_per_s=scan_positions / wall if wall > 0 else float("inf"),
            workers=workers,
            repeats=repeats,
        )
        report.records.append(scan_record)
        _obs_profile.record_bench_record(
            "parallel-scan", workers, scan_record.positions_per_s,
            scan_record.wall_s,
        )

    _derive_speedups(report)
    return report


def _derive_speedups(report: BenchReport) -> None:
    """Headline ratios: every engine vs naive/vectorized, scan scaling."""
    baseline = {
        r.engine: r.positions_per_s for r in report.records if r.workers == 1
    }
    bitscore = baseline.get("bitscore")
    if bitscore:
        for reference_engine in ("naive", "vectorized"):
            if baseline.get(reference_engine):
                report.speedups[f"bitscore_vs_{reference_engine}"] = (
                    bitscore / baseline[reference_engine]
                )
    scan_records = [r for r in report.records if r.engine == "parallel-scan"]
    one_worker = next((r for r in scan_records if r.workers == 1), None)
    if one_worker and one_worker.positions_per_s:
        for record in scan_records:
            if record.workers != 1:
                report.speedups[f"scan_scaling_w{record.workers}"] = (
                    record.positions_per_s / one_worker.positions_per_s
                )


def run_batch_benchmark(
    *,
    residues: int = 250,
    reference_length: int = 1_000_000,
    batch_sizes: Sequence[int] = (1, 4, 8),
    session_references: int = 4,
    session_reference_length: int = 150_000,
    session_workers: int = 2,
    repeats: int = 3,
    seed: int = 2021,
) -> BenchReport:
    """Benchmark the batched kernel and the warm scan session.

    Two record families, same schema as :func:`run_score_benchmark`:

    * ``bitscore-sequential`` vs ``bitscore_batch`` at each ``k`` in
      ``batch_sizes`` — k independent bitscore sweeps against one shared
      sweep that scores all k queries per reference pass.  Both sides
      report *aggregate* positions/s (``k x positions / wall``), so the
      ratio is the amortization factor of sharing the database stream.
    * ``scan-session-cold`` vs ``scan-session-warm`` — a full
      pack + session-open + scan + close cycle per call, against repeated
      ``scan_batch`` calls on an already-warm :class:`ScanSession` whose
      worker pool and shared database image persist across calls.

    Derived speedups: ``batch_amortization_k{k}`` per batch size and
    ``session_warm_speedup``.
    """
    from repro.core.aligner import scores_batch_from_codes
    from repro.host.scan_session import ScanSession
    from repro.seq.generate import random_protein, random_rna

    rng = np.random.default_rng(seed)
    max_k = max(batch_sizes)
    queries = [random_protein(residues, rng=rng) for _ in range(max_k)]
    encoded = [encode_query(query) for query in queries]
    arrays = [e.as_array() for e in encoded]
    num_elements = int(arrays[0].size)
    ref_codes = _planted_reference(queries[0], reference_length, rng)
    positions = ref_codes.size - num_elements + 1
    report = BenchReport(
        meta={
            "residues": residues,
            "reference_length": reference_length,
            "batch_sizes": list(batch_sizes),
            "session_references": session_references,
            "session_reference_length": session_reference_length,
            "session_workers": session_workers,
            "seed": seed,
            "repeats": repeats,
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "numpy": np.__version__,
            "batch_kernel": batch_kernel(),
        }
    )

    for k in batch_sizes:
        subset = arrays[:k]
        wall_seq = _time(
            lambda subset=subset: [
                scores_from_codes(a, ref_codes, "bitscore") for a in subset
            ],
            repeats,
        )
        wall_batch = _time(
            lambda subset=subset: scores_batch_from_codes(
                subset, ref_codes, "bitscore_batch"
            ),
            repeats,
        )
        for engine, wall in (
            ("bitscore-sequential", wall_seq),
            ("bitscore_batch", wall_batch),
        ):
            record = BenchRecord(
                engine=engine,
                L_q=num_elements,
                L_r=int(ref_codes.size),
                n_refs=1,
                wall_s=wall,
                positions_per_s=(
                    k * positions / wall if wall > 0 else float("inf")
                ),
                repeats=repeats,
                batch=k,
            )
            report.records.append(record)
            _obs_profile.record_bench_record(
                engine, 1, record.positions_per_s, record.wall_s
            )

    references = [
        random_rna(session_reference_length, rng=rng).letters
        for _ in range(session_references)
    ]
    session_positions = max_k * session_references * max(
        0, session_reference_length - num_elements + 1
    )

    def _cold_cycle() -> None:
        with ScanSession(references, workers=session_workers) as session:
            session.scan_batch(encoded, min_identity=0.9)

    wall_cold = _time(_cold_cycle, repeats)
    session = ScanSession(references, workers=session_workers)
    try:
        session.scan_batch(encoded, min_identity=0.9)  # warm the pool
        wall_warm = _time(
            lambda: session.scan_batch(encoded, min_identity=0.9), repeats
        )
    finally:
        session.close()
    for engine, wall in (
        ("scan-session-cold", wall_cold),
        ("scan-session-warm", wall_warm),
    ):
        record = BenchRecord(
            engine=engine,
            L_q=num_elements,
            L_r=session_references * session_reference_length,
            n_refs=session_references,
            wall_s=wall,
            positions_per_s=(
                session_positions / wall if wall > 0 else float("inf")
            ),
            workers=session_workers,
            repeats=repeats,
            batch=max_k,
        )
        report.records.append(record)
        _obs_profile.record_bench_record(
            engine, session_workers, record.positions_per_s, record.wall_s
        )

    _derive_batch_speedups(report)
    return report


def _derive_batch_speedups(report: BenchReport) -> None:
    """Amortization per batch size plus the warm-session ratio."""
    sequential = {
        r.batch: r.positions_per_s
        for r in report.records
        if r.engine == "bitscore-sequential"
    }
    for record in report.records:
        if record.engine != "bitscore_batch":
            continue
        baseline = sequential.get(record.batch)
        if baseline:
            report.speedups[f"batch_amortization_k{record.batch}"] = (
                record.positions_per_s / baseline
            )
    cold = next(
        (r for r in report.records if r.engine == "scan-session-cold"), None
    )
    warm = next(
        (r for r in report.records if r.engine == "scan-session-warm"), None
    )
    if cold and warm and cold.positions_per_s:
        report.speedups["session_warm_speedup"] = (
            warm.positions_per_s / cold.positions_per_s
        )


def quick_benchmark(seed: int = 2021) -> BenchReport:
    """The CI-sized benchmark: seconds, not minutes, same schema."""
    return run_score_benchmark(
        residues=50,
        reference_length=200_000,
        scan_references=4,
        scan_reference_length=80_000,
        workers_sweep=(1, 2),
        repeats=2,
        seed=seed,
        naive_position_cap=500,
    )


def quick_batch_benchmark(seed: int = 2021) -> BenchReport:
    """The CI-sized batch benchmark: seconds, not minutes, same schema."""
    return run_batch_benchmark(
        reference_length=300_000,
        session_references=2,
        session_reference_length=60_000,
        repeats=2,
        seed=seed,
    )


def format_report(report: BenchReport) -> str:
    """Monospace table of the records plus the headline speedups."""
    from repro.analysis.report import text_table

    rows = []
    for r in report.records:
        rows.append(
            [
                r.engine,
                r.L_q,
                f"{r.L_r:,}",
                r.n_refs,
                r.workers,
                r.batch,
                f"{r.wall_s:.4f}",
                f"{r.positions_per_s:,.0f}",
            ]
        )
    table = text_table(
        ["engine", "L_q", "L_r", "refs", "workers", "batch", "wall_s",
         "positions/s"],
        rows,
        title="Score-engine benchmark",
    )
    lines = [table]
    if "batch_kernel" in report.meta:
        lines.append(f"batch kernel: {report.meta['batch_kernel']}")
    if report.speedups:
        lines.append("")
        for key, value in sorted(report.speedups.items()):
            lines.append(f"{key}: {value:.2f}x")
    return "\n".join(lines)
