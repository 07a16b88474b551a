"""Structured error taxonomy for the fault-tolerant scan runtime.

Every failure mode the supervised scanner can hit is a distinct
:class:`ScanError` subclass, so callers (and the CLI exit-code contract,
see ``docs/robustness.md``) can tell *recoverable-but-exhausted* faults
apart from configuration mistakes without parsing message strings.

The hierarchy:

* :class:`ScanError` — base class; anything fatal the scanner raises.

  * :class:`ChunkTimeoutError` — one chunk attempt exceeded the per-chunk
    timeout (only surfaces when retries are exhausted).
  * :class:`WorkerCrashError` — a worker process died (non-zero exit /
    signal) while holding a chunk.
  * :class:`CorruptResultError` — a chunk result failed the per-chunk
    sanity check (out-of-range scores, wrong lengths, unordered hits).
  * :class:`ChunkFailedError` — a chunk exhausted its retry budget; the
    ``attempts`` attribute carries the per-attempt outcomes.
  * :class:`ShardFailedError` — a shard of the sharded runtime exhausted
    its health budget while partial results were disabled
    (``RetryPolicy(degrade=False)``).
  * :class:`PoolUnhealthyError` — the worker pool kept dying (respawn
    budget exhausted) and degradation was disabled.
  * :class:`CheckpointError` — checkpoint store problems.

    * :class:`CheckpointMismatchError` — ``--resume`` against a manifest
      whose fingerprint does not match the current
      database/query/threshold/engine configuration.

  * :class:`InjectedFaultError` — a deterministic fault from a
    :class:`repro.host.faults.FaultPlan` fired (raise-kind faults, and
    crash/hang kinds when running without a worker pool to kill).
"""

from __future__ import annotations

from typing import Optional, Sequence


class ScanError(RuntimeError):
    """Base class for every fatal scan-runtime failure."""


class ChunkTimeoutError(ScanError):
    """A chunk attempt ran past the configured per-chunk timeout."""

    def __init__(self, chunk: int, attempt: int, timeout: float):
        self.chunk = chunk
        self.attempt = attempt
        self.timeout = timeout
        super().__init__(
            f"chunk {chunk} attempt {attempt} exceeded {timeout:.3g}s timeout"
        )


class WorkerCrashError(ScanError):
    """A worker process died while a chunk was in flight."""

    def __init__(self, chunk: int, attempt: int, exitcode: Optional[int]):
        self.chunk = chunk
        self.attempt = attempt
        self.exitcode = exitcode
        super().__init__(
            f"worker died (exitcode {exitcode}) on chunk {chunk} attempt {attempt}"
        )


class CorruptResultError(ScanError):
    """A chunk result failed the cheap per-chunk sanity check."""

    def __init__(self, chunk: int, attempt: int, reason: str):
        self.chunk = chunk
        self.attempt = attempt
        self.reason = reason
        super().__init__(f"chunk {chunk} attempt {attempt} corrupt: {reason}")


class ChunkFailedError(ScanError):
    """A chunk exhausted its retry budget without a sane result."""

    def __init__(self, chunk: int, outcomes: Sequence[str]):
        self.chunk = chunk
        self.outcomes = tuple(outcomes)
        super().__init__(
            f"chunk {chunk} failed after {len(self.outcomes)} attempts: "
            + ", ".join(self.outcomes)
        )


class ShardFailedError(ScanError):
    """A shard exhausted its health budget and partial results are off."""

    def __init__(self, shard: int, outcomes: Sequence[str]):
        self.shard = shard
        self.outcomes = tuple(outcomes)
        super().__init__(
            f"shard {shard} failed after {len(self.outcomes)} attempts: "
            + ", ".join(self.outcomes)
        )


class PoolUnhealthyError(ScanError):
    """The worker pool kept dying and degradation was disabled."""

    def __init__(self, respawns: int, budget: int):
        self.respawns = respawns
        self.budget = budget
        super().__init__(
            f"worker pool unhealthy: {respawns} respawns exceeded budget {budget}"
        )


class CheckpointError(ScanError):
    """Base class for checkpoint-store failures."""


class CheckpointMismatchError(CheckpointError):
    """Resume refused: the manifest fingerprint does not match this scan."""

    def __init__(self, expected: str, found: str):
        self.expected = expected
        self.found = found
        super().__init__(
            "checkpoint fingerprint mismatch: manifest was written for a "
            f"different database/query/configuration (manifest {found[:12]}…, "
            f"this scan {expected[:12]}…); refusing to resume"
        )


class InjectedFaultError(ScanError):
    """A deterministic fault from a FaultPlan fired in-process."""

    def __init__(self, chunk: int, attempt: int, kind: str):
        self.chunk = chunk
        self.attempt = attempt
        self.kind = kind
        super().__init__(f"injected {kind} fault on chunk {chunk} attempt {attempt}")
