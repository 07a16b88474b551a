"""Concurrency & resource static analysis over the repo's own source.

PRs 1-2 gave the *hardware* layers a machine-checked rule stack (netlist
NL/SA rules, instruction-stream IS rules, symbolic proofs); this package
gives the *host runtime* the same treatment.  The fork pools, shared-memory
segments, duplex-pipe worker protocols, atomic checkpoint writes and
one-boolean observability guards that :mod:`repro.host` and
:mod:`repro.obs` grew are exactly the substrate the resident scan service
and the distributed sharded runtime will be built on — so their structural
invariants are enforced by ``fabp-repro check`` the way the paper's RTL
invariants are enforced by ``fabp-repro lint``:

* :mod:`repro.statics.discovery` — module discovery under ``src/repro``,
  AST parsing, and the ``# statics: ignore[RCxxx] reason`` pragma reader;
* :mod:`repro.statics.engine` — the rule registry (reusing the
  :class:`repro.lint.Finding` model) plus :func:`analyze_module` /
  :func:`run_statics`;
* :mod:`repro.statics.concurrency` — rules RC001, RC002, RC004, RC006 and
  RC007: shared-memory lifecycle, atomic durable writes, honest exception
  handling;
* :mod:`repro.statics.observability` — rules OB001-OB004: enabled-boolean
  guards, the declared hook catalogue, hot-path label hygiene;
* :mod:`repro.statics.kernels` — rules KC001-KC008: engine-contract
  enforcement over the scoring kernels (dispatch completeness, signature
  and dtype envelopes, purity, word-level lane-budget proofs), plus the
  ``fabp-repro prove kernel`` backend;
* :mod:`repro.statics.dtypeflow` — the numpy dtype/interval abstract
  interpreter the KC rules run over engine bodies;
* :mod:`repro.statics.shmsan` — the *runtime* shared-memory sanitizer that
  backs the static rules with leak / double-close / use-after-close
  detection across the whole test suite.

See ``docs/static_analysis.md`` for the rule catalogue and rationale.
"""

from repro.statics.concurrency import CONCURRENCY_RULES
from repro.statics.discovery import (
    SourceModule,
    discover_modules,
    module_from_source,
    parse_pragmas,
)
from repro.statics.dtypeflow import AbstractValue, DtypeFlow, abstract_eval
from repro.statics.engine import (
    STATIC_RULES,
    analyze_module,
    analyze_source,
    default_root,
    rule_catalogue,
    run_statics,
)
from repro.statics.kernels import KERNEL_RULES, prove_kernels
from repro.statics.observability import OBSERVABILITY_RULES

__all__ = [
    "CONCURRENCY_RULES",
    "KERNEL_RULES",
    "OBSERVABILITY_RULES",
    "STATIC_RULES",
    "AbstractValue",
    "DtypeFlow",
    "SourceModule",
    "abstract_eval",
    "analyze_module",
    "analyze_source",
    "default_root",
    "discover_modules",
    "module_from_source",
    "parse_pragmas",
    "prove_kernels",
    "rule_catalogue",
    "run_statics",
]
