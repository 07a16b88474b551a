"""Global observability switch — the near-zero-cost no-op guard.

Every instrumented hot path asks :func:`enabled` (one module-global read
behind one function call) before touching a timer, a metric, or the trace
recorder.  Observability is **off by default**: all existing callers run
unmodified with no measurable overhead, and enabling it never changes any
scan result (property-tested in ``tests/property/test_obs_properties.py``).

``enable()``/``disable()`` flip the process-local switch, which the
scan's worker threads share; the supervisor still records per-attempt
timings itself, into its :class:`~repro.host.resilience.ScanReport`.
"""

from __future__ import annotations

_enabled = False


def enable() -> None:
    """Turn observability on for this process."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn observability off (instrumented sites become no-ops again)."""
    global _enabled
    _enabled = False


def enabled() -> bool:
    """Whether instrumented sites should record anything."""
    return _enabled
