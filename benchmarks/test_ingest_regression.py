"""Same-run gate on reference ingestion speed.

``PackedDatabase.from_references`` on plain strings must stay within 3x of
the same references given as uint8 code arrays.  Both pack the same codes,
so the gap is the strings' check-and-encode pass alone; a ratio taken in one
run does not depend on how fast the machine is.  A per-character check in
Python puts the ratio near 100x; the one lookup-table pass of
``codes_from_text`` puts it near 2x.
"""

import time

import numpy as np

from repro.host.scan import PackedDatabase
from repro.seq.generate import random_rna
from repro.seq.packing import codes_from_text

#: Largest allowed (strings time) / (code arrays time).
MAX_TEXT_OVER_CODES = 3.0


def _best_seconds(fn, repeats=7):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_string_references_pack_within_3x_of_code_arrays():
    rng = np.random.default_rng(0xFAB9)
    texts = [random_rna(256_000, rng=rng).letters for _ in range(16)]
    codes = [codes_from_text(text) for text in texts]
    assert np.array_equal(
        PackedDatabase.from_references(texts).buffer,
        PackedDatabase.from_references(codes).buffer,
    )
    from_texts = _best_seconds(lambda: PackedDatabase.from_references(texts))
    from_codes = _best_seconds(lambda: PackedDatabase.from_references(codes))
    ratio = from_texts / from_codes
    print(
        f"\nfrom_references 16 x 256 knt: strings {from_texts * 1e3:.1f} ms, "
        f"code arrays {from_codes * 1e3:.1f} ms, ratio {ratio:.2f}x"
    )
    assert ratio <= MAX_TEXT_OVER_CODES, (
        f"packing strings takes {ratio:.1f}x the time of packing code arrays "
        f"(allowed {MAX_TEXT_OVER_CODES}x)"
    )
