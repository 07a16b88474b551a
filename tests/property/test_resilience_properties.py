"""Property tests: fault injection never changes scan results.

The task supervisor's core guarantee is that retries, corrupt-result
rejection and checkpoint reuse are invisible in the output — any seeded
FaultPlan made of recoverable faults must yield results bit-identical to a
fault-free serial scan.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoding import encode_query
from repro.host.faults import FaultKind, FaultPlan, FaultSpec
from repro.host.resilience import RetryPolicy
from repro.host.scan import PackedDatabase, scan_database

#: In-process recoverable kinds (an in-process hang really waits, so it is
#: left out; raise and corrupt exercise the full retry + sanity-check
#: machinery in-process, fast).
SERIAL_KINDS = (FaultKind.RAISE, FaultKind.CORRUPT)

_RNG = np.random.default_rng(0xFAB9)
_REFS = [
    _RNG.integers(0, 4, size=int(n), dtype=np.uint8)
    for n in _RNG.integers(120, 600, size=9)
]
_DATABASE = PackedDatabase.from_references(_REFS)
_QUERY = encode_query("MKV")
_THRESHOLD = 4
_BASELINE = scan_database(_QUERY, _DATABASE, threshold=_THRESHOLD, workers=1)

_POLICY = RetryPolicy(max_retries=3, timeout=None)


@st.composite
def fault_plans(draw):
    num_chunks = 5  # ceil(9 refs / chunk_size 2)
    chunks = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_chunks - 1),
            unique=True,
            max_size=num_chunks,
        )
    )
    specs = tuple(
        FaultSpec(
            chunk,
            draw(st.sampled_from(SERIAL_KINDS)),
            attempts=draw(st.integers(min_value=1, max_value=3)),
        )
        for chunk in chunks
    )
    return FaultPlan(specs=specs)


@settings(max_examples=40, deadline=None)
@given(plan=fault_plans())
def test_recoverable_faults_are_invisible(plan):
    results, report = scan_database(
        _QUERY, _DATABASE, threshold=_THRESHOLD, engine="bitscore",
        workers=1, chunk_size=2, policy=_POLICY, faults=plan, with_report=True,
    )
    assert report.clean
    # Every injected faulty attempt costs exactly one retry, no more.
    assert report.retries == sum(s.attempts for s in plan.specs)
    assert len(results) == len(_BASELINE)
    for ours, expected in zip(results, _BASELINE):
        assert ours.reference_name == expected.reference_name
        assert ours.hits == expected.hits


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_seeded_plans_are_reproducible_and_recoverable(seed):
    plan = FaultPlan.from_seed(
        seed, 5, rate=0.4, kinds=SERIAL_KINDS, max_attempts=2
    )
    assert plan.specs == FaultPlan.from_seed(
        seed, 5, rate=0.4, kinds=SERIAL_KINDS, max_attempts=2
    ).specs
    results, report = scan_database(
        _QUERY, _DATABASE, threshold=_THRESHOLD, engine="bitscore",
        workers=1, chunk_size=2, policy=_POLICY, faults=plan, with_report=True,
    )
    assert report.clean
    for ours, expected in zip(results, _BASELINE):
        assert ours.hits == expected.hits
