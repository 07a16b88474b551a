"""HTTP front door of the scan daemon (stdlib ``http.server`` only).

One :class:`ScanServer` wraps one :class:`repro.service.daemon.ScanService`
behind a :class:`http.server.ThreadingHTTPServer` — one thread per
connection for request I/O, while all scoring stays on the daemon's single
batcher thread.  The endpoint surface (documented for users in
``docs/service.md``):

========================  ====================================================
``POST /scan``            admit one query (or a ``queries`` list); 202 + job id
``GET /jobs/<id>``        job lifecycle state (no results)
``GET /results/<id>``     200 results / 202 still pending / 500 failed;
                          ``?wait=S`` holds the reply up to S s for the end
``GET /healthz``          supervision snapshot; 503 once draining
``GET /metrics``          the live ``repro.obs`` registry, Prometheus text
========================  ====================================================

Status codes map onto the CLI's exit-code contract: 400 is the HTTP face
of exit 2 (usage), 500 of exit 1 (fatal for that job), 503 is
back-pressure (queue full or draining — retry later), and every finished
job carries its own ``exit_code`` (0 clean / 3 degraded / 4 dead shards)
in the JSON body.

:meth:`ScanServer.install_signal_handlers` wires SIGTERM/SIGINT to a
graceful drain: admission stops (503), queued and in-flight jobs finish,
then the listener and the warm runtime shut down — the second signal
skips the wait and tears down immediately.
"""

from __future__ import annotations

import json
import math
import signal
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs

from repro import obs as _obs
from repro.obs import profile as _obs_profile
from repro.service.daemon import (
    ScanService,
    ServiceClosedError,
    ServiceSaturatedError,
)

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "ScanServer",
]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765

#: Largest accepted request body; a genome does not fit in a query.
MAX_BODY_BYTES = 1 << 20

#: Longest ``GET /results/<id>?wait=S`` long-poll, in seconds.
MAX_WAIT_SECONDS = 30.0

#: Normalized endpoint labels for the request metrics — a fixed vocabulary
#: so ``fabp_service_requests_total`` label cardinality stays bounded.
_ENDPOINTS = ("scan", "jobs", "results", "healthz", "metrics")


def _endpoint_of(path: str) -> str:
    head = path.lstrip("/").split("/", 1)[0]
    return head if head in _ENDPOINTS else "other"


def _wait_seconds(query: str) -> float:
    """The ``wait=S`` long-poll bound of ``GET /results/<id>``; 0 if absent."""
    values = parse_qs(query, keep_blank_values=True).get("wait")
    if values is None:
        return 0.0
    try:
        wait = float(values[0])
    except ValueError:
        wait = math.nan
    if len(values) != 1 or not 0 < wait <= MAX_WAIT_SECONDS:
        raise ValueError(
            f"'wait' must be one number of seconds in (0, {MAX_WAIT_SECONDS:g}]"
        )
    return wait


class _Handler(BaseHTTPRequestHandler):
    """Request handler; ``self.server`` is the owning :class:`ScanServer`."""

    server_version = "fabp-service/1.0"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every connection: a reply's header and body writes
    # leave at once instead of the body waiting for the client's delayed
    # ACK of the headers (~40 ms per keep-alive request).
    disable_nagle_algorithm = True

    # -- plumbing --------------------------------------------------------------

    @property
    def service(self) -> ScanService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            sys.stderr.write(
                "%s - %s\n" % (self.address_string(), format % args)
            )

    def _reply(
        self,
        code: int,
        payload: Dict[str, Any],
        *,
        started: float,
        endpoint: str,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._reply_bytes(
            code, body, "application/json", started=started, endpoint=endpoint
        )

    def _reply_bytes(
        self,
        code: int,
        body: bytes,
        content_type: str,
        *,
        started: float,
        endpoint: str,
    ) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        _obs_profile.record_service_request(
            endpoint, code, time.perf_counter() - started
        )

    def _read_json_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length", 0) or 0)
        if length <= 0:
            raise ValueError("empty request body (JSON object expected)")
        if length > MAX_BODY_BYTES:
            raise ValueError(f"request body over {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ValueError(f"invalid JSON body: {error}") from None
        except RecursionError:
            raise ValueError("invalid JSON body: nested too deeply") from None
        if not isinstance(payload, dict):
            raise ValueError("JSON body must be an object")
        return payload

    # -- routes ----------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        started = time.perf_counter()
        endpoint = _endpoint_of(self.path)
        if self.path.rstrip("/") != "/scan":
            self._reply(
                404, {"error": f"unknown endpoint {self.path!r}"},
                started=started, endpoint=endpoint,
            )
            return
        try:
            payload = self._read_json_body()
            specs = self._scan_specs(payload)
            jobs = [
                self.service.submit(
                    spec["query"],
                    name=spec.get("name"),
                    threshold=spec.get("threshold"),
                    min_identity=spec.get("min_identity"),
                )
                for spec in specs
            ]
        except (ServiceClosedError, ServiceSaturatedError) as error:
            self._reply(
                503, {"error": str(error), "retriable": True},
                started=started, endpoint=endpoint,
            )
            return
        except ValueError as error:
            self._reply(
                400, {"error": str(error)}, started=started, endpoint=endpoint
            )
            return
        body: Dict[str, Any] = {"jobs": [job.to_dict() for job in jobs]}
        if len(jobs) == 1:
            body["id"] = jobs[0].id
            body["state"] = jobs[0].state
        self._reply(202, body, started=started, endpoint=endpoint)

    @staticmethod
    def _scan_specs(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Normalize a POST /scan body to a list of per-query specs."""
        if "queries" in payload:
            raw = payload["queries"]
            if not isinstance(raw, list) or not raw:
                raise ValueError("'queries' must be a non-empty list")
        elif "query" in payload:
            raw = [payload]
        else:
            raise ValueError("body needs a 'query' string or a 'queries' list")
        specs: List[Dict[str, Any]] = []
        for item in raw:
            if isinstance(item, str):
                item = {"query": item}
            if not isinstance(item, dict) or not isinstance(
                item.get("query"), str
            ):
                raise ValueError("each query needs a 'query' string")
            threshold = item.get("threshold")
            if threshold is not None and (
                not isinstance(threshold, int) or isinstance(threshold, bool)
            ):
                raise ValueError("'threshold' must be an integer")
            min_identity = item.get("min_identity")
            if min_identity is not None and (
                not isinstance(min_identity, (int, float))
                or isinstance(min_identity, bool)
            ):
                raise ValueError("'min_identity' must be a number")
            if item.get("name") is not None and not isinstance(item["name"], str):
                raise ValueError("'name' must be a string")
            specs.append(item)
        return specs

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        started = time.perf_counter()
        endpoint = _endpoint_of(self.path)
        path, _, query = self.path.partition("?")
        parts = [p for p in path.split("/") if p]
        if parts == ["metrics"]:
            self._reply_bytes(
                200,
                _obs.to_prometheus().encode("utf-8"),
                "text/plain; version=0.0.4",
                started=started,
                endpoint=endpoint,
            )
            return
        if parts == ["healthz"]:
            stats = self.service.stats()
            code = 200 if stats["state"] == "serving" else 503
            self._reply(code, stats, started=started, endpoint=endpoint)
            return
        if len(parts) == 2 and parts[0] in ("jobs", "results"):
            try:
                wait = _wait_seconds(query) if parts[0] == "results" else 0.0
            except ValueError as error:
                self._reply(
                    400, {"error": str(error)},
                    started=started, endpoint=endpoint,
                )
                return
            self._job_view(
                parts[0], parts[1], wait, started=started, endpoint=endpoint
            )
            return
        self._reply(
            404, {"error": f"unknown endpoint {self.path!r}"},
            started=started, endpoint=endpoint,
        )

    def _job_view(
        self,
        kind: str,
        job_id: str,
        wait: float,
        *,
        started: float,
        endpoint: str,
    ) -> None:
        job = self.service.jobs.get(job_id)
        if job is None:
            self._reply(
                404, {"error": f"unknown job {job_id!r}"},
                started=started, endpoint=endpoint,
            )
            return
        if wait:
            job.finished.wait(wait)
        if kind == "jobs":
            self._reply(
                200, job.to_dict(), started=started, endpoint=endpoint
            )
            return
        if job.state == "failed":
            self._reply(
                500, job.to_dict(), started=started, endpoint=endpoint
            )
        elif job.state != "done":
            self._reply(
                202, job.to_dict(), started=started, endpoint=endpoint
            )
        else:
            self._reply(
                200,
                job.to_dict(include_results=True),
                started=started,
                endpoint=endpoint,
            )


class ScanServer:
    """The daemon's HTTP listener; owns drain-on-signal orchestration."""

    def __init__(
        self,
        service: ScanService,
        *,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        verbose: bool = False,
    ) -> None:
        self.service = service
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = service  # type: ignore[attr-defined]
        self._httpd.verbose = verbose  # type: ignore[attr-defined]
        self._shutdown_started = threading.Event()
        self._drain_thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — port resolved when 0 was requested."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` (or a signal handler) stops us."""
        try:
            self._httpd.serve_forever(poll_interval=0.1)
        finally:
            self._httpd.server_close()

    def shutdown(self, *, drain: bool = True) -> None:
        """Stop the listener; with ``drain`` finish queued jobs first."""
        self.service.close(drain=drain)
        self._httpd.shutdown()

    def _drain_and_stop(self) -> None:
        self.service.close(drain=True)
        self._httpd.shutdown()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain; a second signal → immediate stop."""

        def _handle(signum: int, frame: object) -> None:
            if self._shutdown_started.is_set():
                self.service.close(drain=False)
                self._httpd.shutdown()
                return
            self._shutdown_started.set()
            # serve_forever owns this (main) thread; drain elsewhere.
            self._drain_thread = threading.Thread(
                target=self._drain_and_stop, name="fabp-service-drain"
            )
            self._drain_thread.start()

        signal.signal(signal.SIGTERM, _handle)
        signal.signal(signal.SIGINT, _handle)

    # -- conveniences ----------------------------------------------------------

    @classmethod
    def ephemeral(cls, service: ScanService, **kwargs: Any) -> "ScanServer":
        """A server on an OS-assigned port (tests, parallel CI jobs)."""
        return cls(service, port=0, **kwargs)

    def url(self, path: str = "/") -> str:
        host, port = self.address
        if ":" in host:  # IPv6 literal
            host = f"[{host}]"
        return f"http://{host}:{port}{path}"


def wait_until_listening(
    host: str, port: int, timeout: float = 5.0
) -> bool:
    """Poll until a TCP connect succeeds (test/CI helper)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with socket.create_connection((host, port), timeout=0.2):
                return True
        except OSError:
            time.sleep(0.02)
    return False
