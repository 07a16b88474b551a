"""Machine-checked engine contracts for the scoring-kernel layer.

Every scoring engine in :data:`repro.core.aligner.ENGINES` must stay
bit-identical to the hardware semantics, and the next performance leap —
a compiled or GPU port of the bitplane scan — is only safe while that
contract is *checkable*.  This module turns the contract from folklore
into data:

* :func:`engine_contract` — a zero-overhead decorator that declares, per
  engine, the canonical signature inputs (``instructions`` 6-bit opcodes,
  ``ref_codes`` 2-bit nucleotides), the score-accumulator dtype, and the
  supported query-length envelope (:data:`MAX_QUERY_ELEMENTS`).  The
  declarations land in :data:`ENGINE_CONTRACTS` for runtime provers
  (``fabp-repro prove kernel``) and are parsed straight from the AST by
  the KC static rules (:mod:`repro.statics.kernels`), so the same claim
  is checked both ways.
* :func:`kernel_summary` — declares the dtype/value envelope of a kernel
  helper's return values (``match_bytes`` emits 0/1 bytes, ``pack_row``
  emits full-range uint64 words, …).  The dtype-flow abstract interpreter
  (:mod:`repro.statics.dtypeflow`) uses these summaries to propagate
  bounds across helper calls without whole-program analysis.

The paper's Pop36 carry-save design works because every counter lane has
a proven bit budget (Table I: 750 elements fit 10 bits).  The software
analogue is the pair *(accumulator dtype, MAX_QUERY_ELEMENTS)* declared
here and proven against the word-level prover in
:mod:`repro.rtl.ranges` — see ``docs/static_analysis.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Tuple, TypeVar

import numpy as np

#: The documented maximum query length in encoded elements (250 residues x
#: 3 codon positions — the paper's largest design point, Table I FabP-250).
#: The score of any alignment position is the number of matching elements,
#: so every accumulator dtype must hold [0, MAX_QUERY_ELEMENTS].
MAX_QUERY_ELEMENTS = 750


def check_query_elements(num_elements: int) -> None:
    """Refuse a query with no elements or more than :data:`MAX_QUERY_ELEMENTS`.

    Raises ``ValueError``.  Every database scan (``search_database``,
    ``ScanSession.scan_batch`` and so ``scan_database`` and the sharded
    runtime, ``ScanService.submit`` and ``fabp-repro scan``) calls it before
    scoring, so none scores a query outside the proven lane budget.  The
    single-reference entries call it only past the limit, where an empty
    query keeps its all-zero scores: ``aligner._check_span`` (``align``,
    every ``alignment_scores*``, ``scores_from_codes`` on every engine) and
    ``bitscore.prepare_batch`` (``bitscore.scores``, ``scores_batch``,
    ``hits_batch``, ``scan_windows``, and ``align`` on the bitscore names).
    """
    if num_elements == 0:
        raise ValueError("query is empty")
    if num_elements > MAX_QUERY_ELEMENTS:
        raise ValueError(
            f"query has {num_elements} elements; the proven envelope is "
            f"MAX_QUERY_ELEMENTS = {MAX_QUERY_ELEMENTS}"
        )


_F = TypeVar("_F", bound=Callable[..., object])


@dataclass(frozen=True)
class ArgSpec:
    """Declared dtype and value interval of one engine input array."""

    dtype: str
    lo: int
    hi: int

    def to_dict(self) -> Dict[str, object]:
        return {"dtype": self.dtype, "lo": self.lo, "hi": self.hi}


#: The canonical engine inputs: 6-bit instructions over 2-bit nucleotides.
DEFAULT_INPUTS: Mapping[str, ArgSpec] = {
    "instructions": ArgSpec("uint8", 0, 63),
    "ref_codes": ArgSpec("uint8", 0, 3),
}


@dataclass(frozen=True)
class EngineContract:
    """One engine's declared envelope: what every implementation must obey."""

    engine: str
    function: str
    module: str
    inputs: Mapping[str, ArgSpec] = field(default_factory=lambda: DEFAULT_INPUTS)
    accumulator: str = "int32"
    max_elements: int = MAX_QUERY_ELEMENTS
    deterministic: bool = True

    @property
    def accumulator_dtype(self) -> np.dtype:
        return np.dtype(self.accumulator)

    @property
    def max_score(self) -> int:
        """Largest score any position can reach: one per query element."""
        return self.max_elements

    @property
    def accumulator_value_bits(self) -> int:
        """Non-sign value bits of the declared accumulator dtype."""
        info = np.iinfo(self.accumulator_dtype)
        return int(info.max).bit_length()

    def fits_accumulator(self, max_value: int) -> bool:
        """True when ``max_value`` is representable in the accumulator."""
        return 0 <= max_value <= int(np.iinfo(self.accumulator_dtype).max)

    def to_dict(self) -> Dict[str, object]:
        return {
            "engine": self.engine,
            "function": self.function,
            "module": self.module,
            "inputs": {name: spec.to_dict() for name, spec in self.inputs.items()},
            "accumulator": self.accumulator,
            "accumulator_value_bits": self.accumulator_value_bits,
            "max_elements": self.max_elements,
            "deterministic": self.deterministic,
        }


#: Every declared engine contract, keyed by engine name (the key used in
#: :data:`repro.core.aligner.ENGINES` and the ``engine=`` dispatch).
ENGINE_CONTRACTS: Dict[str, EngineContract] = {}

#: Declared return envelopes of kernel helpers, keyed by function name:
#: a tuple of ``(dtype, lo, hi)`` triples, one per returned array.
HELPER_SUMMARIES: Dict[str, Tuple[Tuple[str, int, int], ...]] = {}


def engine_contract(
    engine: str,
    *,
    accumulator: str = "int32",
    max_elements: int = MAX_QUERY_ELEMENTS,
    inputs: Mapping[str, ArgSpec] = DEFAULT_INPUTS,
    deterministic: bool = True,
) -> Callable[[_F], _F]:
    """Declare (and register) the contract of one scoring engine.

    The decorated function is returned unchanged — the contract is pure
    metadata, attached as ``__engine_contract__`` and registered in
    :data:`ENGINE_CONTRACTS`.  Re-decorating the same function (module
    reload) is idempotent; claiming an engine name owned by a *different*
    function is an error, because the dispatch table would be ambiguous.
    """

    def decorate(func: _F) -> _F:
        contract = EngineContract(
            engine=engine,
            function=getattr(func, "__qualname__", getattr(func, "__name__", "?")),
            module=getattr(func, "__module__", "?"),
            inputs=dict(inputs),
            accumulator=accumulator,
            max_elements=max_elements,
            deterministic=deterministic,
        )
        existing = ENGINE_CONTRACTS.get(engine)
        if existing is not None and (
            existing.function != contract.function
            or existing.module != contract.module
        ):
            raise ValueError(
                f"engine {engine!r} already contracted by "
                f"{existing.module}.{existing.function}"
            )
        ENGINE_CONTRACTS[engine] = contract
        setattr(func, "__engine_contract__", contract)
        return func

    return decorate


def kernel_summary(
    *returns: Tuple[str, int, int]
) -> Callable[[_F], _F]:
    """Declare the per-return ``(dtype, lo, hi)`` envelope of a helper.

    Zero overhead: metadata only, attached as ``__kernel_summary__`` and
    registered in :data:`HELPER_SUMMARIES` under the bare function name
    (the dtype-flow interpreter resolves calls by their dotted tail).
    """

    def decorate(func: _F) -> _F:
        summary = tuple(returns)
        HELPER_SUMMARIES[getattr(func, "__name__", "?")] = summary
        setattr(func, "__kernel_summary__", summary)
        return func

    return decorate
