"""Every database scan refuses a query outside [1, MAX_QUERY_ELEMENTS].

``encode_query("M" * 251)`` is 753 elements, past the 750 for which the
kernels' lane budgets are proven; 250 residues is exactly the limit.  The
service's own rows live in ``tests/service`` and the CLI's in
``tests/test_cli.py``.
"""

import numpy as np
import pytest

from repro.core.aligner import search_database
from repro.core.contracts import MAX_QUERY_ELEMENTS
from repro.core.encoding import encode_query
from repro.host.scan import PackedDatabase, scan_database
from repro.host.scan_session import ScanSession
from repro.seq.generate import random_rna

rng = np.random.default_rng(19)
REFERENCES = [random_rna(1_000, rng=rng) for _ in range(2)]
DB = PackedDatabase.from_references(REFERENCES)


def _session(query):
    with ScanSession(DB, workers=1) as session:
        return session.scan_batch([query], min_identity=0.9)[0]


def _oneshot(query):
    return scan_database(query, DB, workers=1, min_identity=0.9)


def _sharded(query):
    with ScanSession(DB, shards=2) as session:
        return session.scan_batch([query], min_identity=0.9)[0]


def _serial(query):
    return search_database(query, REFERENCES, min_identity=0.9)


ENTRY_POINTS = {
    "session": _session,
    "scan_database": _oneshot,
    "sharded": _sharded,
    "search_database": _serial,
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_250_residues_are_scanned(entry):
    assert len(encode_query("M" * 250)) == MAX_QUERY_ELEMENTS
    results = ENTRY_POINTS[entry]("M" * 250)
    assert [r.reference_length for r in results] == [1_000, 1_000]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize(
    "query, message",
    [("M" * 251, "753 elements.*MAX_QUERY_ELEMENTS = 750"), ("", "empty")],
    ids=["251-residues", "empty"],
)
def test_queries_outside_the_envelope_are_refused(entry, query, message):
    with pytest.raises(ValueError, match=message):
        ENTRY_POINTS[entry](query)
