"""The scan service as a separate process: start, warm up, scrape, stop."""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Tuple

HERE = Path(__file__).resolve().parent

#: How long a server may take to start listening.
READY_TIMEOUT_SECONDS = 60.0


class ServerProcess:
    """One ``fabp-repro serve`` child in its default configuration."""

    def __init__(self, root: Path, work: Path, database: Path, workers: int, tag: str):
        self._stamp = work / f"server-{tag}.imported"
        self._ready = work / f"server-{tag}.ready"
        self._log = work / f"server-{tag}.log"
        for path in (self._stamp, self._ready):
            path.unlink(missing_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        with open(self._log, "w") as log:
            self.process = subprocess.Popen(
                [sys.executable, str(HERE / "serve_child.py"), str(self._stamp),
                 "--database", str(database), "--port", "0",
                 "--ready-file", str(self._ready), "--workers", str(workers)],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=str(root),
            )
        self.host = ""
        self.port = 0

    @property
    def pid(self) -> int:
        return self.process.pid

    def wait_ready(self) -> float:
        """Block until listening; return the monotonic time imports finished."""
        deadline = time.monotonic() + READY_TIMEOUT_SECONDS
        while not (self._ready.exists() and self._ready.read_text().strip()):
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server did not start: {self._log.read_text()[-2000:]}")
            time.sleep(0.005)
        host, port = self._ready.read_text().split()
        self.host, self.port = host, int(port)
        return float(self._stamp.read_text())

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def scan(self, query: str, poll: float) -> dict:
        """Submit one job and wait for its results (the warm-up pass)."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("POST", "/scan", body=json.dumps({"query": query}).encode(),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            job = json.loads(response.read())
            deadline = time.monotonic() + READY_TIMEOUT_SECONDS
            while time.monotonic() < deadline:
                conn.request("GET", f"/results/{job['id']}")
                response = conn.getresponse()
                payload = json.loads(response.read())
                if response.status == 200:
                    return payload
                if response.status != 202:
                    raise RuntimeError(f"warm-up job failed: {payload}")
                time.sleep(poll)
            raise RuntimeError("warm-up job timed out")
        finally:
            conn.close()

    def metrics(self) -> Dict[str, float]:
        """The ``/metrics`` exposition as ``{sample name with labels: value}``."""
        status, body = self.get("/metrics")
        samples: Dict[str, float] = {}
        if status != 200:
            return samples
        for line in body.decode().splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                samples[name] = float(value)
        return samples

    def stop(self) -> int:
        """Drain with SIGTERM; kill if the drain hangs.  Returns the exit code."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                return self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
        return self.process.wait(timeout=30)
