"""Property tests: enabling observability never changes scan results.

The observability layer's core guarantee — instrumented runs are
bit-identical to uninstrumented ones — is checked over random workloads,
both bodies of the batch kernel and thresholds.  A second property pins the no-op contract: with
the layer disabled (the default), nothing is ever recorded.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import bitscore
from repro.core.encoding import encode_query
from repro.host.resilience import RetryPolicy
from repro.host.scan import PackedDatabase, scan_database

_RNG = np.random.default_rng(0x0B5)
_REFS = [
    _RNG.integers(0, 4, size=int(n), dtype=np.uint8)
    for n in _RNG.integers(150, 500, size=7)
]
_DATABASE = PackedDatabase.from_references(_REFS)

_POLICY = RetryPolicy(max_retries=2, timeout=None)

AMINO = "ACDEFGHIKLMNPQRSTVWY"


def hits_of(results):
    return [(r.reference_name, tuple(r.hits)) for r in results]


@settings(max_examples=25, deadline=None)
@given(
    query=st.text(alphabet=AMINO, min_size=2, max_size=8),
    body=st.sampled_from(["native", "numpy"]),
    threshold=st.integers(min_value=1, max_value=8),
)
def test_observability_never_changes_scan_results(query, body, threshold):
    encoded = encode_query(query)
    threshold = min(threshold, len(encoded))
    obs.disable()
    obs.reset()
    with pytest.MonkeyPatch.context() as patch:
        if body == "numpy":
            patch.setattr(bitscore, "_NATIVE", None)
        baseline = scan_database(encoded, _DATABASE, threshold=threshold, workers=1)
        obs.reset()
        obs.enable()
        try:
            instrumented = scan_database(
                encoded, _DATABASE, threshold=threshold, workers=1
            )
        finally:
            obs.disable()
    assert hits_of(instrumented) == hits_of(baseline)
    obs.reset()


@settings(max_examples=10, deadline=None)
@given(
    query=st.text(alphabet=AMINO, min_size=2, max_size=6),
    threshold=st.integers(min_value=1, max_value=6),
)
def test_observability_never_changes_supervised_results(query, threshold):
    encoded = encode_query(query)
    obs.disable()
    obs.reset()
    baseline = scan_database(
        encoded, _DATABASE, threshold=threshold,
        workers=1, chunk_size=2, policy=_POLICY, with_report=True,
    )
    obs.reset()
    obs.enable()
    try:
        instrumented = scan_database(
            encoded, _DATABASE, threshold=threshold,
            workers=1, chunk_size=2, policy=_POLICY, with_report=True,
        )
        # The instrumented run actually recorded something...
        assert {f.name for f in obs.REGISTRY.families()} >= {
            "fabp_stage_seconds",
            "fabp_scan_chunk_attempts_total",
            "fabp_scan_retries_total",
        }
    finally:
        obs.disable()
    # ...and it changed nothing.
    assert hits_of(instrumented[0]) == hits_of(baseline[0])
    assert instrumented[1].clean == baseline[1].clean
    obs.reset()


@settings(max_examples=15, deadline=None)
@given(
    query=st.text(alphabet=AMINO, min_size=2, max_size=6),
    threshold=st.integers(min_value=1, max_value=6),
)
def test_disabled_layer_records_nothing(query, threshold):
    obs.disable()
    obs.reset()
    scan_database(
        encode_query(query), _DATABASE, threshold=threshold,
        workers=1, chunk_size=3, policy=_POLICY, with_report=True,
    )
    assert obs.REGISTRY.families() == []
    assert len(obs.RECORDER) == 0
