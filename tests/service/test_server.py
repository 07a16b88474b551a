"""HTTP surface tests: in-process server, concurrent clients, status map."""

import contextlib
import http.client
import json
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.core.encoding import encode_query
from repro.host.scan import PackedDatabase, scan_database
from repro.service import ScanServer, ScanService, wait_until_listening
from repro.workloads import build_database, sample_queries

QUERIES = [str(q) for q in sample_queries(3, length=12, seed=21)]
_DB = build_database(
    sample_queries(3, length=12, seed=21),
    num_references=4,
    reference_length=500,
    seed=21,
)
PACKED = PackedDatabase.from_references(_DB.references)


@contextlib.contextmanager
def serving(service):
    obs.reset()
    obs.enable()
    srv = ScanServer.ephemeral(service)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    host, port = srv.address
    assert wait_until_listening(host, port)
    try:
        yield srv
    finally:
        srv.shutdown(drain=False)
        thread.join(timeout=10)
        obs.disable()
        obs.reset()


@pytest.fixture()
def server():
    with serving(ScanService(PACKED, workers=1)) as srv:
        yield srv


class GatedService(ScanService):
    """A service whose batcher holds every pass until ``gate`` is set."""

    def __init__(self, *args, **kwargs):
        self.gate = threading.Event()
        super().__init__(*args, **kwargs)

    def _execute(self, batch):
        self.gate.wait(timeout=30)
        super()._execute(batch)


@pytest.fixture()
def gated_server():
    service = GatedService(PACKED, workers=1)
    with serving(service) as srv:
        try:
            yield srv
        finally:
            service.gate.set()  # let the pass end so shutdown need not wait


def request(server, method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        server.url(path),
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as error:
        raw = error.read()
        return error.code, json.loads(raw) if raw else {}


def poll_results(server, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        code, body = request(server, "GET", f"/results/{job_id}")
        if code != 202:
            return code, body
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} never finished")


def expected_hits(query, min_identity=0.9):
    results = scan_database(
        encode_query(query), PACKED, min_identity=min_identity, workers=1
    )
    return [
        {
            "reference": r.reference_name,
            "reference_length": r.reference_length,
            "threshold": r.threshold,
            "hits": [[h.position, h.score] for h in r.hits],
            "max_score": r.max_score,
        }
        for r in results
    ]


def test_scan_roundtrip_bit_identical(server):
    code, body = request(
        server, "POST", "/scan", {"query": QUERIES[0], "min_identity": 0.9}
    )
    assert code == 202 and body["state"] in ("queued", "running", "done")
    job_id = body["id"]
    code, job = request(server, "GET", f"/jobs/{job_id}")
    assert code == 200 and job["id"] == job_id
    code, done = poll_results(server, job_id)
    assert code == 200
    assert done["exit_code"] == 0
    assert done["results"] == expected_hits(QUERIES[0])


def test_concurrent_clients_all_bit_identical(server):
    outcomes = {}

    def client(i):
        query = QUERIES[i % len(QUERIES)]
        code, body = request(
            server, "POST", "/scan", {"query": query, "min_identity": 0.9}
        )
        assert code == 202
        outcomes[i] = (query, poll_results(server, body["id"]))

    threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(outcomes) == 6
    for query, (code, done) in outcomes.values():
        assert code == 200, done
        assert done["results"] == expected_hits(query)


def test_batched_post_and_cached_repeat(server):
    code, body = request(
        server,
        "POST",
        "/scan",
        {"queries": [{"query": q, "min_identity": 0.9} for q in QUERIES]},
    )
    assert code == 202 and len(body["jobs"]) == len(QUERIES)
    for job in body["jobs"]:
        code, done = poll_results(server, job["id"])
        assert code == 200 and not done["cached"]
    # Identical repeat: answered from the LRU cache at admission time.
    code, body = request(
        server, "POST", "/scan", {"query": QUERIES[0], "min_identity": 0.9}
    )
    assert code == 202 and body["state"] == "done"
    code, done = request(server, "GET", f"/results/{body['id']}")
    assert code == 200 and done["cached"]
    assert done["results"] == expected_hits(QUERIES[0])


def test_usage_errors_are_400(server):
    for bad in (
        None,  # empty body
        {"threshold": 5},  # no query
        {"query": 7},  # not a string
        {"query": ""},  # no elements to score
        {"queries": []},  # empty list
        {"query": "MFR", "threshold": 5, "min_identity": 0.9},  # both knobs
    ):
        code, body = request(server, "POST", "/scan", bad)
        assert code == 400, bad
        assert "error" in body


@pytest.mark.parametrize(
    "fields",
    [
        {"threshold": "5"},
        {"threshold": [1]},
        {"threshold": 2.5},
        {"threshold": True},
        {"min_identity": "x"},
        {"min_identity": False},
        {"name": 7},
    ],
    ids=repr,
)
def test_badly_typed_fields_are_400(server, fields):
    for body in (
        {"query": "MAH", **fields},
        {"queries": [{"query": "MAH", **fields}]},
    ):
        code, reply = request(server, "POST", "/scan", body)
        assert code == 400, body
        assert "error" in reply


def test_unknown_routes_and_jobs_are_404(server):
    assert request(server, "GET", "/nope")[0] == 404
    assert request(server, "GET", "/jobs/job-999999")[0] == 404
    assert request(server, "GET", "/results/job-999999")[0] == 404
    assert request(server, "POST", "/nope", {"query": "MFR"})[0] == 404


def test_metrics_exposes_service_families(server):
    request(server, "POST", "/scan", {"query": QUERIES[0], "min_identity": 0.9})
    req = urllib.request.Request(server.url("/metrics"))
    with urllib.request.urlopen(req, timeout=30) as resp:
        assert resp.status == 200
        assert resp.headers["Content-Type"].startswith("text/plain")
        text = resp.read().decode()
    assert "fabp_service_requests_total" in text
    assert 'endpoint="scan"' in text
    assert "fabp_service_queue_depth" in text


def test_healthz_reports_serving_then_draining(server):
    code, body = request(server, "GET", "/healthz")
    assert code == 200 and body["state"] == "serving"
    assert body["backend"]["mode"] == "session"
    server.service.drain(timeout=30)
    code, body = request(server, "GET", "/healthz")
    assert code == 503 and body["state"] == "draining"
    # Draining also refuses admission with a retriable 503.
    code, body = request(server, "POST", "/scan", {"query": QUERIES[0]})
    assert code == 503 and body["retriable"] is True


def test_keep_alive_replies_do_not_wait_for_delayed_acks(server):
    """Every reply leaves at once: well under the ~40 ms delayed-ACK timer.

    With Nagle on, a reply's body write waits for the client's delayed
    ACK of its header write, so each keep-alive request costs ~44 ms.
    """
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=30)

    def timed(method, path, body=None):
        began = time.perf_counter()
        conn.request(method, path, body=body)
        response = conn.getresponse()
        payload = json.loads(response.read())
        return response.status, payload, time.perf_counter() - began

    try:
        healthz = [timed("GET", "/healthz")[2] for _ in range(20)]
        post_ms, results_ms = [], []
        for _ in range(5):
            code, body, seconds = timed(
                "POST",
                "/scan",
                json.dumps({"query": QUERIES[0], "min_identity": 0.9}),
            )
            assert code == 202
            post_ms.append(seconds)
            assert server.service.jobs.get(body["id"]).finished.wait(30)
            code, _, seconds = timed("GET", f"/results/{body['id']}")
            assert code == 200
            results_ms.append(seconds)
    finally:
        conn.close()
    for samples in (healthz, post_ms, results_ms):
        assert statistics.median(samples) < 0.010, samples


def test_long_poll_answers_when_the_job_finishes(gated_server):
    code, body = request(
        gated_server, "POST", "/scan", {"query": QUERIES[1], "min_identity": 0.9}
    )
    assert code == 202
    release = threading.Timer(0.3, gated_server.service.gate.set)
    began = time.monotonic()
    release.start()
    try:
        code, done = request(
            gated_server, "GET", f"/results/{body['id']}?wait=20"
        )
    finally:
        release.cancel()
    elapsed = time.monotonic() - began
    assert code == 200 and done["results"] == expected_hits(QUERIES[1])
    assert 0.3 <= elapsed < 10.0


def test_long_poll_of_a_pending_job_is_202_after_wait(gated_server):
    code, body = request(
        gated_server, "POST", "/scan", {"query": QUERIES[2], "min_identity": 0.9}
    )
    assert code == 202
    began = time.monotonic()
    code, pending = request(
        gated_server, "GET", f"/results/{body['id']}?wait=0.3"
    )
    assert code == 202 and pending["state"] in ("queued", "running")
    assert time.monotonic() - began >= 0.3


@pytest.mark.parametrize(
    "wait", ["0", "-1", "30.5", "abc", "nan", "inf", "", "1&wait=2"]
)
def test_bad_wait_is_400(server, wait):
    code, body = request(server, "POST", "/scan", {"query": QUERIES[0]})
    assert code == 202
    code, reply = request(server, "GET", f"/results/{body['id']}?wait={wait}")
    assert code == 400 and "wait" in reply["error"]


def test_query_envelope_is_enforced_over_http(server):
    over, at_limit = "M" * 251, "M" * 250  # 753 and 750 elements
    for body in ({"query": over}, {"queries": [{"query": over}]}):
        code, reply = request(server, "POST", "/scan", body)
        assert code == 400 and "750" in reply["error"], body
    for body in ({"query": at_limit}, {"queries": [at_limit]}):
        code, reply = request(server, "POST", "/scan", body)
        assert code == 202, reply
        assert reply["jobs"][0]["query_elements"] == 750
