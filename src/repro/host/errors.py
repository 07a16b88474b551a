"""Structured error taxonomy for the fault-tolerant scan runtime.

Every failure mode the supervised scanner can hit is a distinct
:class:`ScanError` subclass, so callers (and the CLI exit-code contract,
see ``docs/robustness.md``) can tell *recoverable-but-exhausted* faults
apart from configuration mistakes without parsing message strings.

The hierarchy:

* :class:`ScanError` — base class; anything fatal the scanner raises.

  * :class:`ChunkFailedError` — a chunk exhausted its retry budget; the
    ``attempts`` attribute carries the per-attempt outcomes.
  * :class:`ShardFailedError` — a shard of a sharded scan exhausted
    its health budget while partial results were disabled
    (``RetryPolicy(degrade=False)``).
  * :class:`PoolUnhealthyError` — scan workers kept crashing or timing
    out (respawn budget exhausted) and degradation was disabled.
  * :class:`CheckpointError` — checkpoint store problems.

    * :class:`CheckpointMismatchError` — ``--resume`` against a manifest
      whose fingerprint does not match the current
      database/query/threshold/engine configuration.

  * :class:`InjectedFaultError` — a deterministic fault from a
    :class:`repro.host.faults.FaultPlan` fired (raise-kind faults, and
    crash/hang kinds when running without a worker pool to kill).
"""

from __future__ import annotations

from typing import Sequence


class ScanError(RuntimeError):
    """Base class for every fatal scan-runtime failure."""


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
    """Scan workers kept crashing or timing out and degradation was disabled."""

    def __init__(self, respawns: int, budget: int):
        self.respawns = respawns
        self.budget = budget
        super().__init__(
            f"scan workers unhealthy: {respawns} respawns exceeded budget {budget}"
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
