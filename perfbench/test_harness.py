"""Self-tests of the benchmark harness.

Run from the repository root: ``python3 -m pytest perfbench/test_harness.py``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from gate import Gate, hits_from_results  # noqa: E402
from inputs import make_inputs  # noqa: E402
from loadgen import arrival_schedule, job_order  # noqa: E402
from measure import summarize, tail_percentile  # noqa: E402


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(99) is None
    assert tail_percentile(100) == 90.0
    assert tail_percentile(199) == 90.0
    assert tail_percentile(200) == 95.0
    assert tail_percentile(999) == 95.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10_000) == 99.9


def test_summary_reports_tail_only_with_enough_samples():
    assert "tail" not in summarize(range(99))
    summary = summarize(range(100))
    assert summary["n"] == 100 and summary["tail_pct"] == 90.0
    assert summary["p50"] == 49.5


def test_arrival_schedule_is_deterministic_per_seed():
    first = arrival_schedule(3, 50, 10.0)
    assert first == arrival_schedule(3, 50, 10.0)
    assert first != arrival_schedule(4, 50, 10.0)
    assert first == sorted(first) and len(first) == 50
    assert all(0.0 <= t < 10.0 for t in first)


def test_job_order_fixes_repeat_share_and_query_multiset():
    distinct, order = job_order(5, 40, 0.2)
    assert (distinct, order) == job_order(5, 40, 0.2)
    assert distinct == 32 and len(order) == 40
    assert sorted(set(order)) == list(range(distinct))
    other = job_order(6, 40, 0.2)[1]
    assert sorted(order) == sorted(other) and order != other


def _gate_and_hits():
    from repro.host import PackedDatabase, scan_database

    inputs = make_inputs(9, 2, 3000, [50, 60, 70])
    database = PackedDatabase.from_references(inputs.references, names=inputs.names)
    outputs = [
        hits_from_results(scan_database(query, database, workers=1))
        for query in inputs.queries
    ]
    return Gate(inputs), outputs


def test_gate_accepts_program_output():
    gate, outputs = _gate_and_hits()
    assert all(gate.check(q, hits, shape) for q, (hits, shape) in enumerate(outputs))
    assert gate.failures == []


def test_gate_rejects_corrupted_hit():
    gate, outputs = _gate_and_hits()
    hits, _ = outputs[0]
    reference, position, score = hits[0]
    corrupted = [(reference, position, score - 1)] + hits[1:]
    assert not gate.check(0, corrupted)
    assert "oracle" in gate.failures[-1]


def test_gate_rejects_missing_planted_hit():
    gate, outputs = _gate_and_hits()
    plant = gate.inputs.plants_of(1)[0]
    hits = [h for h in outputs[1][0] if (h[0], h[1]) != (plant.reference, plant.position)]
    assert not gate.check(1, hits)
    assert "missing" in gate.failures[-1]


def test_gate_rejects_hit_list_that_differs_from_vectorized():
    gate, outputs = _gate_and_hits()
    hits, shape = outputs[0]
    assert 0 in gate.sample
    # A duplicated hit passes the planted and oracle checks but not this one.
    assert not gate.check(0, hits + hits[-1:], shape)
    assert "vectorized" in gate.failures[-1]
