#!/usr/bin/env python
"""Observability tour: metrics, traces, and stage breakdowns of a scan.

Runs a small supervised database scan (`scan_database` with a report,
the one-shot session on the task supervisor) twice — once with the `repro.obs`
layer off (the default) and once with it on — then shows everything the
layer captured: the Prometheus-style metric families, the Chrome trace
timeline, the ScanReport v2 stage breakdown, and the `obs summarize`
tables.  Along the way it demonstrates the core guarantee: enabling
observability never changes a single hit.

Run:  python examples/observability_tour.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import obs
from repro.core.encoding import encode_query
from repro.host.resilience import RetryPolicy
from repro.host.scan import PackedDatabase, scan_database
from repro.seq.generate import random_protein, random_rna

NUM_REFERENCES = 6
REFERENCE_LENGTH = 20_000


def build_workload():
    rng = np.random.default_rng(2021)
    query = random_protein(25, rng=rng)
    references = [random_rna(REFERENCE_LENGTH, rng=rng) for _ in range(NUM_REFERENCES)]
    names = [f"ref_{i}" for i in range(NUM_REFERENCES)]
    return encode_query(query), PackedDatabase.from_references(references, names=names)


def run_scan(encoded, database):
    return scan_database(
        encoded,
        database,
        threshold=int(0.6 * len(encoded)),
        workers=2,
        chunk_size=2,
        policy=RetryPolicy(),
        with_report=True,
    )


def hits_of(outcome):
    results, _report = outcome
    return [[(hit.position, hit.score) for hit in result.hits] for result in results]


def main() -> None:
    encoded, database = build_workload()

    # 1. Baseline: observability off (the default) costs nothing.
    baseline = run_scan(encoded, database)
    print(f"baseline scan: {baseline[1].summary()}")

    # 2. Same scan, instrumented.  One switch, no other code changes.
    obs.reset()
    obs.enable()
    instrumented = run_scan(encoded, database)
    obs.disable()
    identical = hits_of(baseline) == hits_of(instrumented)
    print(f"results identical with observability on: {identical}")
    assert identical, "observability must never change results"

    # 3. The metrics registry: counters, gauges, histograms.
    print("\n--- Prometheus text exposition (excerpt) ---")
    lines = obs.to_prometheus().splitlines()
    for line in lines:
        if line.startswith(("# TYPE", "fabp_scan", "fabp_shm")) and "_bucket" not in line:
            print(f"  {line}")

    # 4. The span timeline: hierarchical stages, chunk attempts.
    print("\n--- recorded spans ---")
    for span in obs.RECORDER.spans():
        indent = "    " if span.parent else "  "
        print(f"{indent}{span.name:<22} {span.duration * 1e3:8.2f} ms "
              f"[{span.category}]")

    # 5. The ScanReport v2 carries its own stage breakdown — even with
    #    observability off, the supervisor times its stages.
    print("\n--- ScanReport v2 metrics section ---")
    for key, value in instrumented[1].to_dict()["metrics"].items():
        print(f"  {key}: {value}")

    # 6. Artifacts + the summarize view the CLI exposes as
    #    `fabp-repro obs summarize PATH`.
    with tempfile.TemporaryDirectory() as tmp:
        metrics_path = Path(tmp) / "metrics.json"
        trace_path = Path(tmp) / "trace.json"
        obs.write_metrics_json(metrics_path)
        obs.write_trace_json(trace_path)
        print("\n--- obs summarize metrics.json ---")
        print(obs.summarize(metrics_path))
        print("\n--- obs summarize trace.json ---")
        print(obs.summarize(trace_path))

    obs.reset()
    print("\nTour complete: enable() -> run -> write_*() -> summarize().")


if __name__ == "__main__":
    main()
