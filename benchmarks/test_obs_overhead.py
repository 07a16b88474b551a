"""Overhead of the observability layer on the scoring hot path.

The acceptance bound for PR 5 is <= 5 % throughput change on the quick
benchmark with the full layer enabled.  This bench measures the bitscore
engine over a realistic reference with observability off vs on (metrics +
spans recording on every ``scores_from_codes`` call — the worst case,
since that hook fires far more often than any other) and asserts the
bound with headroom for timer noise on shared CI machines.
"""

import time

import numpy as np

from repro import obs
from repro.core.aligner import _reference_codes, scores_from_codes
from repro.core.encoding import encode_query
from repro.seq.generate import random_protein, random_rna

REPEATS = 9
CALLS_PER_REPEAT = 30
#: Acceptance bound is 5 %; assert with noise margin on top (CI machines).
MAX_OVERHEAD = 0.15


def _workload(rng):
    instructions = encode_query(random_protein(25, rng=rng)).as_array()
    ref_codes, _ = _reference_codes(random_rna(60_000, rng=rng))
    return instructions, ref_codes


def _best_rates(query, reference):
    """Positions/second with observability off and on, best of REPEATS each.

    Min wall time filters scheduler noise.  The off and on repeats
    alternate, so a drift in host speed during the run lands on both sides
    instead of reading as overhead (a call here takes well under a
    millisecond).  Returns ``(rate_off, rate_on)``.
    """
    positions = (len(reference) - len(query) + 1) * CALLS_PER_REPEAT
    best = {False: float("inf"), True: float("inf")}
    try:
        for _ in range(REPEATS):
            for enabled in (False, True):
                if enabled:
                    obs.enable()
                else:
                    obs.disable()
                start = time.perf_counter()
                for _ in range(CALLS_PER_REPEAT):
                    scores_from_codes(query, reference, engine="bitscore")
                best[enabled] = min(best[enabled], time.perf_counter() - start)
    finally:
        obs.disable()
    return positions / best[False], positions / best[True]


def test_observability_overhead_within_bound(rng, save_artifact):
    query, reference = _workload(rng)
    scores_from_codes(query, reference, engine="bitscore")  # warm caches

    obs.disable()
    obs.reset()
    rate_off, rate_on = _best_rates(query, reference)
    calls = obs.REGISTRY.families()

    overhead = max(0.0, 1.0 - rate_on / rate_off)
    lines = [
        f"observability off: {rate_off / 1e6:10.1f} Mpos/s",
        f"observability on:  {rate_on / 1e6:10.1f} Mpos/s",
        f"overhead:          {overhead:10.2%}  (bound {MAX_OVERHEAD:.0%})",
        f"instrumented families: {sorted(f.name for f in calls)}",
    ]
    save_artifact("obs_overhead", "\n".join(lines))

    # The hooks actually fired during the instrumented pass...
    assert {f.name for f in calls} >= {
        "fabp_score_calls_total",
        "fabp_score_seconds",
        "fabp_score_positions_total",
    }
    # ...and cost less than the bound.
    assert overhead <= MAX_OVERHEAD, (
        f"observability overhead {overhead:.1%} exceeds {MAX_OVERHEAD:.0%}"
    )
    obs.reset()
