"""Kill-one-pool-worker integration test (sharded supervision, end to end).

A sharded CLI scan is started in a subprocess with a hang injected into
task 0 — shard 0's first task, which the first pool worker always takes.
Once every other task is durably checkpointed, only that worker still
holds a task, and it is SIGKILLed from outside: the supervisor must notice
the death, replay only the unfinished task on a replacement worker, and
finish with output bit-identical to an uninterrupted sharded scan.
Afterwards nothing may survive: no orphaned worker processes and no leaked
``/dev/shm`` segments (the CLI runs under ``FABP_SHMSAN=1``).
"""

import json
import os
import signal
import subprocess
import sys
import time
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


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    # 6 references x 20000 nt split into 2 shards: each shard holds 60000
    # positions = two tasks, so the scan runs tasks 0-3 on two workers.
    base = tmp_path_factory.mktemp("shard_kill")
    db = base / "db.fasta"
    queries = base / "q.fasta"
    generated = run_cli(
        [
            "generate",
            "--queries", "1",
            "--length", "20",
            "--references", "6",
            "--reference-length", "20000",
            "--seed", "11",
            "--out-db", str(db),
            "--out-queries", str(queries),
        ]
    )
    assert generated.returncode == 0, generated.stderr
    return base, db, queries


def scan_args(db, queries, *extra):
    return [
        "scan",
        "--query-file", str(queries),
        "--database", str(db),
        "--min-identity", "0.9",
        "--shards", "2",
        "--backoff", "0.01",
        *extra,
    ]


def hits_from(report_path):
    payload = json.loads(Path(report_path).read_text())
    return [
        (q["query"], q["num_hits"], q["report"]["clean"])
        for q in payload["queries"]
    ]


def child_pids(parent_pid):
    """``(start time, pid)`` of each live child of ``parent_pid`` (/proc)."""
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesized comm (which may contain spaces):
        # state, ppid, ..., starttime is the 20th.
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == parent_pid and fields[0] != "Z":
            children.append((int(fields[19]), int(entry.name)))
    return children


def worker_pids(parent_pid):
    """The scan's pool workers, oldest first: forks sharing its cmdline."""
    try:
        own = (Path("/proc") / str(parent_pid) / "cmdline").read_bytes()
    except OSError:
        return []
    workers = []
    for started, pid in sorted(child_pids(parent_pid)):
        try:
            if (Path("/proc") / str(pid) / "cmdline").read_bytes() == own:
                workers.append(pid)
        except OSError:
            continue
    return workers


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


def test_killed_shard_runtime_resumes_to_identical_results(workload):
    base, db, queries = workload
    clean_report = base / "clean.json"
    clean = run_cli(
        scan_args(db, queries, "--report-json", str(clean_report))
    )
    assert clean.returncode == 0, clean.stderr

    # Task 0 hangs on attempt 0 (--chunk-timeout 0 disables the task
    # deadline, so only an external SIGKILL can end the stall).  The fault
    # covers one attempt: the replayed task is fault-free.
    ckpt = base / "ckpt"
    resumed_report = base / "resumed.json"
    shm_before = shm_entries()
    victim = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli",
            *scan_args(
                db, queries,
                "--checkpoint", str(ckpt),
                "--inject-faults", "0:hang",
                "--fault-hang-seconds", "600",
                "--chunk-timeout", "0",
                "--report-json", str(resumed_report),
            ),
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=cli_env(),
    )
    observed = set()
    try:
        # Wait until tasks 1-3 are durable: the only busy worker left is
        # the first one spawned, which the supervisor gave task 0.
        deadline = time.monotonic() + 90
        markers = [ckpt / f"chunk_{task:06d}.npz" for task in (1, 2, 3)]
        hung = None
        while time.monotonic() < deadline:
            workers = worker_pids(victim.pid)
            observed.update(workers)
            if all(m.exists() for m in markers) and len(workers) == 2:
                hung = workers[0]
                break
            if victim.poll() is not None:
                pytest.fail(f"scan exited early with {victim.returncode}")
            time.sleep(0.05)
        else:
            pytest.fail("hung pool worker never isolated")
        assert not (ckpt / "chunk_000000.npz").exists()
        os.kill(hung, signal.SIGKILL)
        victim.wait(timeout=120)
    finally:
        if victim.poll() is None:
            victim.kill()
        victim.wait(timeout=30)

    # The supervisor must have noticed the death and finished cleanly.
    assert victim.returncode == 0
    assert hits_from(resumed_report) == hits_from(clean_report)

    payload = json.loads(resumed_report.read_text())
    report = payload["queries"][0]["report"]
    assert report["version"] == 3
    assert report["counters"]["respawns"] >= 1
    shards = {s["shard"]: s for s in report["shards"]}
    assert shards[0]["status"] == "ok" and shards[0]["attempts"] == 3
    assert shards[1]["status"] == "ok" and shards[1]["attempts"] == 2
    # Only the unfinished task was replayed; its siblings ran once.
    outcomes = {}
    for attempt in report["chunk_attempts"]:
        outcomes.setdefault(attempt["chunk"], []).append(attempt["outcome"])
    assert outcomes.pop(0) == ["crash", "ok"]
    assert outcomes == {1: ["ok"], 2: ["ok"], 3: ["ok"]}

    # Nothing survives the scan: every worker we ever observed is gone...
    for pid in observed:
        assert not pid_alive(pid), f"pool worker {pid} outlived the scan"
    # ...and no shared-memory segment leaked past the sanitized CLI run.
    assert shm_entries() <= shm_before


def test_dead_shard_degrades_to_partial_results(workload):
    base, db, queries = workload
    report_path = base / "dead.json"
    result = run_cli(
        scan_args(
            db, queries,
            "--retries", "1",
            "--inject-faults", "0:crash:always",
            "--report-json", str(report_path),
        )
    )
    # Exit 4: complete, but with dead shards and partial results.
    assert result.returncode == 4, result.stderr
    assert "DEAD SHARD 0" in result.stdout
    payload = json.loads(report_path.read_text())
    assert payload["dead_shards"] is True
    report = payload["queries"][0]["report"]
    shards = {s["shard"]: s for s in report["shards"]}
    assert shards[0]["status"] == "dead"
    assert "health budget exhausted" in shards[0]["detail"]
    assert shards[1]["status"] == "ok"
