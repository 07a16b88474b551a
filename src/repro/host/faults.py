"""Deterministic fault injection for the supervised scan runtime.

Fault-tolerance code that is only ever exercised by real failures is
untested code.  A :class:`FaultPlan` makes chosen tasks of a database scan
misbehave in fully reproducible ways so the retry/timeout/checkpoint
machinery in :mod:`repro.host.resilience` can be driven through every
failure path in CI:

* ``crash``   — the worker holding the task is lost: the attempt raises
  and the supervisor counts a respawn;
* ``hang``    — the worker waits past the per-task timeout and must be
  cancelled by the supervisor;
* ``raise``   — the task raises a (typed) exception back to the driver;
* ``corrupt`` — the task returns structurally plausible but wrong data
  that the per-task sanity check must catch and turn into a retry.

Faults are keyed on ``(task id, attempt number)`` — the field is still
called ``chunk`` — and a spec with ``attempts=N`` fires on attempts
``0 .. N-1`` and then lets the task succeed, so any plan with a finite
``attempts`` and a retry budget ``>= attempts`` is recoverable.  Every
runtime uses the same plan: a sharded scan numbers its tasks shard-major,
so a fault on one of a shard's task ids is a fault in that shard, and an
``always`` fault there kills the shard.  Plans are immutable value
objects, safe to read from every worker thread, and every generated plan
is a pure function of its seed.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Attempts value meaning "fault on every attempt" (never recovers on its own).
ALWAYS = 1_000_000


class FaultKind(str, enum.Enum):
    """The four ways a chunk can misbehave."""

    CRASH = "crash"
    HANG = "hang"
    RAISE = "raise"
    CORRUPT = "corrupt"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Kinds that a recoverable plan may draw from (all of them).
ALL_KINDS: Tuple[FaultKind, ...] = (
    FaultKind.CRASH,
    FaultKind.HANG,
    FaultKind.RAISE,
    FaultKind.CORRUPT,
)


@dataclass(frozen=True)
class FaultSpec:
    """One chunk's planned misbehaviour.

    ``attempts`` is how many leading attempts fault before the chunk is
    allowed to succeed; :data:`ALWAYS` makes it permanent (useful to force
    retry exhaustion and degradation).
    """

    chunk: int
    kind: FaultKind
    attempts: int = 1

    def fires(self, attempt: int) -> bool:
        return attempt < self.attempts


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of per-chunk faults.

    The supervisor consults the plan via :meth:`lookup` before each
    attempt; two plans built from the same arguments are equal, and a
    plan survives pickling unchanged.
    """

    specs: Tuple[FaultSpec, ...] = ()
    seed: Optional[int] = None
    #: How long a ``hang`` fault waits; the supervisor cancels it at the
    #: policy timeout, so this only bounds unsupervised (serial) hangs.
    hang_seconds: float = 3600.0

    def __post_init__(self) -> None:
        seen: Dict[int, FaultSpec] = {}
        for spec in self.specs:
            if spec.chunk < 0:
                raise ValueError(f"fault chunk index {spec.chunk} is negative")
            if spec.chunk in seen:
                raise ValueError(f"duplicate fault spec for chunk {spec.chunk}")
            seen[spec.chunk] = spec

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_seed(
        cls,
        seed: int,
        num_chunks: int,
        *,
        rate: float = 0.3,
        kinds: Sequence[FaultKind] = ALL_KINDS,
        max_attempts: int = 1,
        hang_seconds: float = 3600.0,
    ) -> "FaultPlan":
        """Draw a reproducible plan: each chunk faults with ``rate``.

        Uses ``random.Random(seed)`` so the plan depends only on the
        arguments, never on global state.  ``max_attempts`` bounds how many
        leading attempts each chosen chunk faults (uniform in
        ``1..max_attempts``), so the plan is recoverable with a retry
        budget ``>= max_attempts``.
        """
        import random

        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be within [0, 1]")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not kinds:
            raise ValueError("kinds must be non-empty")
        rng = random.Random(seed)
        specs: List[FaultSpec] = []
        for chunk in range(num_chunks):
            if rng.random() < rate:
                kind = kinds[rng.randrange(len(kinds))]
                attempts = rng.randint(1, max_attempts)
                specs.append(FaultSpec(chunk, kind, attempts))
        return cls(specs=tuple(specs), seed=seed, hang_seconds=hang_seconds)

    @classmethod
    def parse(cls, text: str, *, hang_seconds: float = 3600.0) -> "FaultPlan":
        """Parse a CLI spec like ``"1:crash,4:hang,7:corrupt:3"``.

        Each comma-separated item is ``CHUNK:KIND[:ATTEMPTS]``; ``ATTEMPTS``
        defaults to 1 and accepts ``always`` for a permanent fault.
        """
        specs: List[FaultSpec] = []
        for item in filter(None, (piece.strip() for piece in text.split(","))):
            parts = item.split(":")
            if len(parts) not in (2, 3):
                raise ValueError(
                    f"bad fault spec {item!r}; expected CHUNK:KIND[:ATTEMPTS]"
                )
            try:
                chunk = int(parts[0])
            except ValueError:
                raise ValueError(f"bad fault chunk index {parts[0]!r}") from None
            try:
                kind = FaultKind(parts[1].lower())
            except ValueError:
                raise ValueError(
                    f"unknown fault kind {parts[1]!r}; expected one of "
                    + "/".join(k.value for k in ALL_KINDS)
                ) from None
            attempts = 1
            if len(parts) == 3:
                attempts = (
                    ALWAYS if parts[2].lower() == "always" else int(parts[2])
                )
            specs.append(FaultSpec(chunk, kind, attempts))
        return cls(specs=tuple(specs), hang_seconds=hang_seconds)

    # -- queries --------------------------------------------------------------

    def lookup(self, chunk: int, attempt: int) -> Optional[FaultKind]:
        """The fault (if any) that fires for this chunk attempt."""
        for spec in self.specs:
            if spec.chunk == chunk and spec.fires(attempt):
                return spec.kind
        return None

    @property
    def recoverable_attempts(self) -> int:
        """Retries needed to outlast every non-permanent fault (0 if none)."""
        finite = [s.attempts for s in self.specs if s.attempts < ALWAYS]
        return max(finite, default=0)

    @property
    def permanent_chunks(self) -> Tuple[int, ...]:
        """Chunks that fault on every attempt (force degradation/failure)."""
        return tuple(s.chunk for s in self.specs if s.attempts >= ALWAYS)

    def __bool__(self) -> bool:
        return bool(self.specs)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "hang_seconds": self.hang_seconds,
            "specs": [
                {"chunk": s.chunk, "kind": s.kind.value, "attempts": s.attempts}
                for s in self.specs
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        return cls(
            specs=tuple(
                FaultSpec(int(s["chunk"]), FaultKind(s["kind"]), int(s["attempts"]))
                for s in payload.get("specs", ())
            ),
            seed=payload.get("seed"),
            hang_seconds=float(payload.get("hang_seconds", 3600.0)),
        )

    def without_chunks(self, chunks: Sequence[int]) -> "FaultPlan":
        """A copy with the given chunks' faults removed (used by tests)."""
        drop = set(chunks)
        return dataclasses.replace(
            self, specs=tuple(s for s in self.specs if s.chunk not in drop)
        )
