"""Benchmark-regression guard for the bit-parallel scoring engine.

Runs the CI-sized (``--quick``) score benchmark, re-checks the headline
claim — the SWAR fast path must stay at least 5x the naive reference on
the same machine, same run — and compares against the committed baseline
artifact with generous tolerance (machine-to-machine wall-clock varies;
catastrophic regressions do not hide inside a 50x band).

The fresh report is written to a temporary directory, never over the
committed ``benchmarks/out/BENCH_scoring.json``: that file is the
``fabp-repro bench --quick --batch`` artifact, batch section included.
"""

import json
import pathlib

import pytest

from repro.perf.scorebench import (
    SCHEMA_VERSION,
    format_report,
    quick_batch_benchmark,
    quick_benchmark,
)

BASELINE_PATH = pathlib.Path(__file__).parent / "baselines" / "BENCH_scoring.json"

#: Required same-run advantage of bitscore over the naive Python path.
MIN_NAIVE_SPEEDUP = 5.0

#: Least two-worker scan throughput, as a share of one worker's, on the
#: quick report (4 x 80 knt x 50 aa: about 2-3 ms of scoring per call).
#: Forking a worker pool and publishing the image on every call read 0.106
#: here; two scoring threads in one process read 0.62-0.68 on a 2-CPU host.
#: Scaling past 1 needs more work per call than the quick size gives, so
#: this gate catches fork-per-call coming back, not a scaling target.
MIN_SCAN_SCALING_W2 = 0.5

#: Allowed slowdown vs the committed baseline before the guard trips.
#: Wide on purpose: CI machines differ; this catches order-of-magnitude
#: regressions (e.g. the packed path silently falling back to Python).
BASELINE_SLOWDOWN_LIMIT = 50.0


@pytest.fixture(scope="module")
def quick_report(tmp_path_factory):
    report = quick_benchmark()
    path = report.write(tmp_path_factory.mktemp("bench") / "BENCH_scoring.json")
    print(f"\n{format_report(report)}\n[written to {path}]")
    return report


def test_artifact_schema(quick_report):
    payload = quick_report.to_dict()
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["records"], "benchmark produced no records"
    for record in payload["records"]:
        for field in ("engine", "L_q", "L_r", "n_refs", "wall_s", "positions_per_s"):
            assert field in record, field
        assert record["wall_s"] > 0
        assert record["positions_per_s"] > 0


def test_bitscore_beats_naive_by_5x(quick_report):
    speedup = quick_report.speedups.get("bitscore_vs_naive", 0.0)
    assert speedup >= MIN_NAIVE_SPEEDUP, (
        f"bitscore is only {speedup:.2f}x the naive path "
        f"(required >= {MIN_NAIVE_SPEEDUP}x)"
    )


def test_bitscore_beats_vectorized(quick_report):
    """The fast path must actually be the fast path on its home workload."""
    speedup = quick_report.speedups.get("bitscore_vs_vectorized", 0.0)
    assert speedup > 1.0, f"bitscore slower than vectorized ({speedup:.2f}x)"


def test_two_workers_do_not_pay_a_pool_per_call(quick_report):
    scaling = quick_report.speedups.get("scan_scaling_w2", 0.0)
    assert scaling >= MIN_SCAN_SCALING_W2, (
        f"a two-worker scan runs at {scaling:.3f}x one worker "
        f"(required >= {MIN_SCAN_SCALING_W2}x)"
    )


def test_against_committed_baseline(quick_report):
    baseline = json.loads(BASELINE_PATH.read_text())
    assert baseline["schema_version"] == SCHEMA_VERSION
    baseline_bitscore = next(
        r for r in baseline["records"] if r["engine"] == "bitscore"
    )
    current = quick_report.record_for("bitscore")
    assert current is not None
    floor = baseline_bitscore["positions_per_s"] / BASELINE_SLOWDOWN_LIMIT
    assert current.positions_per_s >= floor, (
        f"bitscore throughput {current.positions_per_s:,.0f} positions/s is "
        f">{BASELINE_SLOWDOWN_LIMIT}x below the committed baseline "
        f"({baseline_bitscore['positions_per_s']:,.0f})"
    )


def test_baseline_records_the_acceptance_workload():
    """The committed artifact must carry the L_q=750 / L_r=1e6 headline."""
    baseline = json.loads(BASELINE_PATH.read_text())
    bitscore = next(r for r in baseline["records"] if r["engine"] == "bitscore")
    vectorized = next(r for r in baseline["records"] if r["engine"] == "vectorized")
    assert bitscore["L_q"] == 750
    assert bitscore["L_r"] == 1_000_000
    assert baseline["speedups"]["bitscore_vs_vectorized"] >= 5.0
    assert baseline["speedups"]["bitscore_vs_naive"] >= 5.0
    scan_workers = [
        r["workers"] for r in baseline["records"] if r["engine"] == "parallel-scan"
    ]
    assert scan_workers == [1, 2, 4]
    assert vectorized["L_r"] == 1_000_000


def test_baseline_records_the_batch_workload():
    """The committed artifact must carry the batched-kernel headline.

    One shared sweep scoring 8 queries must have amortized the reference
    stream at least 3x over 8 sequential sweeps on the recording machine,
    and the warm-session records must be present so the docs have data to
    stand on.
    """
    baseline = json.loads(BASELINE_PATH.read_text())
    batch_records = [
        r for r in baseline["records"] if r["engine"] == "bitscore_batch"
    ]
    assert [r["batch"] for r in batch_records] == [1, 4, 8]
    sequential = [
        r for r in baseline["records"] if r["engine"] == "bitscore-sequential"
    ]
    assert [r["batch"] for r in sequential] == [1, 4, 8]
    assert baseline["speedups"]["batch_amortization_k8"] >= 3.0
    assert baseline["speedups"]["batch_amortization_k4"] >= 2.0
    assert baseline["speedups"]["session_warm_speedup"] > 0
    for engine in ("scan-session-cold", "scan-session-warm"):
        assert any(r["engine"] == engine for r in baseline["records"]), engine


def test_quick_batch_benchmark_amortizes():
    """Same-run gate: the shared sweep must beat k sequential sweeps.

    The hard 3x CI gate lives in ``fabp-repro bench --batch
    --min-batch-amortization 3``; this in-suite bound is looser so noisy
    shared runners do not flake, while still catching the batch path
    silently degenerating into the sequential loop.
    """
    report = quick_batch_benchmark()
    k8 = report.speedups.get("batch_amortization_k8", 0.0)
    assert k8 >= 1.5, f"k=8 amortization only {k8:.2f}x"
    assert report.speedups.get("session_warm_speedup", 0.0) > 0
