"""Kill-and-resume integration test (ISSUE acceptance criterion #2).

A checkpointed scan is started in a subprocess with an injected hang so it
deterministically stalls partway through, SIGKILLed once the completed
chunks are on disk, then resumed without faults.  The resumed run must
finish cleanly from the checkpoint and produce output identical to an
uninterrupted scan.
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


def run_cli(args, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    base = tmp_path_factory.mktemp("kill_resume")
    db = base / "db.fasta"
    queries = base / "q.fasta"
    generated = run_cli(
        [
            "generate",
            "--queries", "1",
            "--length", "20",
            "--references", "4",
            "--reference-length", "3000",
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
        "--workers", "1",
        "--chunk-size", "1",
        *extra,
    ]


def hits_from(report_path):
    payload = json.loads(Path(report_path).read_text())
    return [
        (q["query"], q["num_hits"], payload["report"]["clean"])
        for q in payload["queries"]
    ]


def test_killed_scan_resumes_to_identical_results(workload):
    base, db, queries = workload
    clean_report = base / "clean.json"
    clean = run_cli(
        scan_args(db, queries, "--report-json", str(clean_report))
    )
    assert clean.returncode == 0, clean.stderr

    # Start a checkpointed scan that hangs on chunk 2 (serial-mode hangs
    # genuinely sleep), so chunks 0 and 1 are durably checkpointed before
    # the process stalls — then kill it dead.
    ckpt = base / "ckpt"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    victim = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli",
            *scan_args(
                db, queries,
                "--checkpoint", str(ckpt),
                "--inject-faults", "2:hang",
                "--fault-hang-seconds", "600",
                "--chunk-timeout", "0",
            ),
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=env,
    )
    try:
        deadline = time.monotonic() + 60
        expected = {"chunk_000000.npz", "chunk_000001.npz"}
        while time.monotonic() < deadline:
            written = {p.name for p in ckpt.glob("chunk_*.npz")}
            if expected <= written:
                break
            if victim.poll() is not None:
                pytest.fail(f"scan exited early with {victim.returncode}")
            time.sleep(0.05)
        else:
            pytest.fail(f"checkpoint never materialized; saw {written}")
        victim.send_signal(signal.SIGKILL)
    finally:
        if victim.poll() is None:
            victim.kill()
        victim.wait(timeout=30)

    # The stalled chunk must not have been checkpointed.
    assert not (ckpt / "chunk_000002.npz").exists()

    resumed_report = base / "resumed.json"
    resumed = run_cli(
        scan_args(
            db, queries,
            "--checkpoint", str(ckpt),
            "--resume",
            "--report-json", str(resumed_report),
        )
    )
    assert resumed.returncode == 0, resumed.stderr
    assert hits_from(resumed_report) == hits_from(clean_report)

    payload = json.loads(resumed_report.read_text())
    report = payload["report"]
    assert report["resumed"] is True
    assert report["clean"] is True
    # Chunks 0 and 1 came from the checkpoint, untouched; only the
    # interrupted tail was scanned.
    assert report["chunks"]["from_checkpoint"] >= 2
    rescored = {a["chunk"] for a in report["chunk_attempts"]}
    assert rescored <= {2, 3}


def test_resume_refuses_foreign_checkpoint(workload):
    base, db, queries = workload
    ckpt = base / "ckpt_mismatch"
    first = run_cli(scan_args(db, queries, "--checkpoint", str(ckpt)))
    assert first.returncode == 0, first.stderr
    # Same checkpoint, different scan parameters: must die loudly, not mix.
    second = run_cli(
        scan_args(
            db, queries,
            "--min-identity", "0.8",
            "--checkpoint", str(ckpt),
            "--resume",
        )
    )
    assert second.returncode == 1
    assert "fatal" in second.stderr
