"""Graceful-drain integration test for ``fabp-repro serve`` (end to end).

A real daemon subprocess is booted under ``FABP_SHMSAN=1``, a scan is
submitted and read back over HTTP, then SIGTERM is sent.  The daemon must
finish queued work, report a drained summary, exit with the worst job
outcome (0 here), and leave nothing behind: no orphaned child processes
and no leaked ``/dev/shm`` segments.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

SHM_DIR = Path("/dev/shm")


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["FABP_SHMSAN"] = "1"
    return env


def run_cli(args, timeout=180):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=cli_env(),
    )


def child_pids(parent_pid):
    """PIDs whose direct parent is ``parent_pid`` (via /proc)."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        if ppid == parent_pid:
            pids.append(int(entry.name))
    return pids


def pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def shm_entries():
    if not SHM_DIR.is_dir():
        return set()
    return {p.name for p in SHM_DIR.iterdir()}


def http_json(url, body=None, timeout=30):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json"} if data else {},
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    base = tmp_path_factory.mktemp("service_drain")
    db = base / "db.fasta"
    queries = base / "q.fasta"
    generated = run_cli(
        [
            "generate",
            "--queries", "2",
            "--length", "16",
            "--references", "4",
            "--reference-length", "2000",
            "--seed", "17",
            "--out-db", str(db),
            "--out-queries", str(queries),
        ]
    )
    assert generated.returncode == 0, generated.stderr
    sequences = [
        line.strip()
        for line in queries.read_text().splitlines()
        if line and not line.startswith(">")
    ]
    return base, db, sequences


def test_serve_drains_cleanly_on_sigterm(workload):
    base, db, sequences = workload
    ready = base / "ready.txt"
    metrics_json = base / "metrics.json"
    shm_before = shm_entries()
    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli",
            "serve",
            "--database", str(db),
            "--port", "0",
            "--workers", "1",
            "--ready-file", str(ready),
            "--metrics-json", str(metrics_json),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=cli_env(),
    )
    observed = set()
    try:
        deadline = time.monotonic() + 60
        while not ready.exists():
            assert time.monotonic() < deadline, "ready file never appeared"
            assert daemon.poll() is None, daemon.communicate()[1]
            time.sleep(0.05)
        host, port = ready.read_text().split()
        root = f"http://{host}:{port}"

        code, body = http_json(
            f"{root}/scan", {"query": sequences[0], "min_identity": 0.9}
        )
        assert code == 202
        job_id = body["id"]
        deadline = time.monotonic() + 60
        while True:
            observed.update(child_pids(daemon.pid))
            code, result = http_json(f"{root}/results/{job_id}")
            if code == 200:
                break
            assert code == 202, result
            assert time.monotonic() < deadline, "job never finished"
            time.sleep(0.05)
        assert result["exit_code"] == 0 and result["results"]

        # Queue a second job and SIGTERM immediately after: the drain must
        # still answer it before the listener goes down.
        code, body = http_json(f"{root}/scan", {"query": sequences[1]})
        assert code == 202
        observed.update(child_pids(daemon.pid))
        daemon.send_signal(signal.SIGTERM)
        out, err = daemon.communicate(timeout=120)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.communicate(timeout=30)

    assert daemon.returncode == 0, (out, err)
    assert "drained:" in out
    assert "2 done, 0 failed" in out

    # The second job completed during the drain (visible in the summary
    # above) and the metrics snapshot survived to disk.
    payload = json.loads(metrics_json.read_text())
    families = {m["name"] for m in payload["metrics"]}
    assert "fabp_service_jobs_total" in families
    assert "fabp_service_requests_total" in families

    # Nothing survives: no orphaned child processes, no /dev/shm leaks.
    for pid in observed:
        assert not pid_alive(pid), f"child {pid} outlived the daemon"
    assert shm_entries() <= shm_before
