"""Fuzz ``POST /scan`` bodies: every one gets 202 or a 400 with an error.

A malformed body must never cost a 500, a dropped connection or a hang:
the handler answers usage errors itself, whatever the JSON holds.  A 400
admits nothing, even when some queries of a batched body were valid.
"""

import http.client
import json
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.host.scan import PackedDatabase
from repro.service import ScanServer, ScanService, wait_until_listening
from repro.workloads import build_database, sample_queries

_DB = build_database(
    sample_queries(2, length=10, seed=5),
    num_references=2,
    reference_length=400,
    seed=5,
)

PROTEIN = "ACDEFGHIKLMNPQRSTVWY*"

#: Any JSON value, nested a few levels (NaN and infinities included: the
#: stdlib decoder accepts them).
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats()
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

#: Protein text around the 750-element envelope, valid and not.
queries = (
    st.text(alphabet=PROTEIN, max_size=12)
    | st.integers(min_value=248, max_value=253).map(lambda n: "M" * n)
    | st.text(max_size=12)
)

specs = st.fixed_dictionaries(
    {},
    optional={
        "query": queries | json_values,
        "threshold": st.integers(min_value=-(10**30), max_value=10**30)
        | json_values,
        "min_identity": st.floats() | json_values,
        "name": st.text(max_size=8) | json_values,
    },
)

bodies = st.one_of(
    specs.map(lambda spec: json.dumps(spec).encode()),
    st.lists(specs | queries | json_values, max_size=4).map(
        lambda items: json.dumps({"queries": items}).encode()
    ),
    st.fixed_dictionaries({"queries": json_values}).map(
        lambda body: json.dumps(body).encode()
    ),
    json_values.map(lambda value: json.dumps(value).encode()),
    st.binary(max_size=40),
    st.binary(min_size=1, max_size=20).map(
        lambda raw: b'{"query": "' + raw + b'\xff"}'
    ),
)


@pytest.fixture(scope="module")
def server():
    # A queue deep enough that admitted fuzz jobs never meet back-pressure.
    service = ScanService(
        PackedDatabase.from_references(_DB.references),
        workers=1,
        max_queue=4096,
    )
    srv = ScanServer.ephemeral(service)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    assert wait_until_listening(*srv.address)
    try:
        yield srv
    finally:
        srv.shutdown(drain=False)
        thread.join(timeout=10)


@settings(
    max_examples=100,
    deadline=5000,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(body=bodies)
def test_post_scan_is_202_or_400(server, body):
    host, port = server.address
    submitted = server.service.stats()["submitted"]
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request(
            "POST",
            "/scan",
            body=body,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        reply = json.loads(response.read())
    finally:
        conn.close()
    assert response.status in (202, 400), (body, response.status, reply)
    if response.status == 400:
        assert isinstance(reply.get("error"), str), reply
        assert server.service.stats()["submitted"] == submitted, (body, reply)
    else:
        assert reply["jobs"], reply


def test_deeply_nested_body_is_400(server):
    """A body nested past the decoder's recursion limit is a usage error."""
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("POST", "/scan", body=b"[" * 100_000 + b"]" * 100_000)
        response = conn.getresponse()
        reply = json.loads(response.read())
    finally:
        conn.close()
    assert response.status == 400 and "nested" in reply["error"]
