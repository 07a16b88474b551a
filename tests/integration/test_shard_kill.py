"""Kill-the-scan integration test (sharded supervision, end to end).

A sharded CLI scan is started in a subprocess with a hang injected into
task 0 — shard 0's first task — and ``--chunk-timeout 0``, so nothing
inside the scan can end the stall.  Once tasks 1-3 are durably
checkpointed the whole scan process is SIGKILLed, then resumed from the
checkpoint: only task 0 may run again, and the output must be
bit-identical to an uninterrupted sharded scan.  The scan's workers are
threads, so the kill leaves nothing behind: no child or orphaned process
and no ``/dev/shm`` segment (the CLI runs under ``FABP_SHMSAN=1``).
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
    # 6 references x 300000 nt split into 2 shards: each shard holds about
    # 900000 positions of a 750-element query, two tasks of at least the
    # 2**28-cell floor (357,914 positions), so the scan runs tasks 0-3 on
    # two threads.  At 47 % identity the query has about 5,000 hits.
    base = tmp_path_factory.mktemp("shard_kill")
    db = base / "db.fasta"
    queries = base / "q.fasta"
    generated = run_cli(
        [
            "generate",
            "--queries", "1",
            "--length", "250",
            "--references", "6",
            "--reference-length", "300000",
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
        "--min-identity", "0.47",
        "--shards", "2",
        *extra,
    ]


def hit_table(stdout):
    """The printed hit rows: everything after the first blank line."""
    rows = stdout.split("\n\n", 1)[1].splitlines()
    return [row for row in rows if row.strip() and not row.startswith("wrote ")]


def child_pids(parent_pid):
    """Live children of ``parent_pid`` (/proc)."""
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesized comm (which may contain spaces):
        # state, ppid, ...
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == parent_pid and fields[0] != "Z":
            children.append(int(entry.name))
    return children


def scan_pids(marker):
    """Live processes whose command line mentions ``marker``."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            if marker.encode() in (entry / "cmdline").read_bytes():
                pids.append(int(entry.name))
        except OSError:
            continue
    return pids


def shm_entries():
    if not SHM_DIR.is_dir():
        return set()
    return {p.name for p in SHM_DIR.iterdir()}


def test_killed_shard_runtime_resumes_to_identical_results(workload):
    base, db, queries = workload
    clean = run_cli(scan_args(db, queries, "--max-hits", "100000"))
    assert clean.returncode == 0, clean.stderr
    expected = hit_table(clean.stdout)
    assert len(expected) > 100, "too few hits for a bit-identity check"

    # Task 0 hangs on attempt 0 (--chunk-timeout 0 disables the task
    # deadline, so only an external SIGKILL can end the stall).
    ckpt = base / "ckpt"
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
            ),
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=cli_env(),
    )
    children = set()
    try:
        deadline = time.monotonic() + 90
        markers = [ckpt / f"chunk_{task:06d}.npz" for task in (1, 2, 3)]
        while not all(m.exists() for m in markers):
            children.update(child_pids(victim.pid))
            if victim.poll() is not None:
                pytest.fail(f"scan exited early with {victim.returncode}")
            if time.monotonic() > deadline:
                pytest.fail("tasks 1-3 never reached the checkpoint")
            time.sleep(0.05)
        children.update(child_pids(victim.pid))
        assert not (ckpt / "chunk_000000.npz").exists()
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)
    finally:
        if victim.poll() is None:
            victim.kill()
        victim.wait(timeout=30)
    assert victim.returncode == -signal.SIGKILL

    # Nothing survives the kill: the scan's workers were threads.
    assert not children, f"the scan started child processes: {children}"
    assert not scan_pids(str(db)), "a process of the killed scan survived"
    assert shm_entries() <= shm_before

    resumed_report = base / "resumed.json"
    resumed = run_cli(
        scan_args(
            db, queries,
            "--checkpoint", str(ckpt),
            "--resume",
            "--max-hits", "100000",
            "--report-json", str(resumed_report),
        )
    )
    assert resumed.returncode == 0, resumed.stderr
    assert hit_table(resumed.stdout) == expected

    report = json.loads(resumed_report.read_text())["report"]
    assert report["version"] == 3
    assert report["clean"] is True
    assert report["chunks"]["from_checkpoint"] == 3
    assert sum(s["resumed_chunks"] for s in report["shards"]) == 3
    # Only the unfinished task was replayed.
    assert [(a["chunk"], a["outcome"]) for a in report["chunk_attempts"]] == [
        (0, "ok")
    ]
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
    report = payload["report"]
    shards = {s["shard"]: s for s in report["shards"]}
    assert shards[0]["status"] == "dead"
    assert "health budget exhausted" in shards[0]["detail"]
    assert shards[1]["status"] == "ok"
