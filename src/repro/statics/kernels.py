"""Kernel-contract rules KC001-KC008 and the ``prove kernel`` backend.

The next performance leap — a compiled or GPU port of the bitplane scan —
is only mergeable because every engine in
:data:`repro.core.aligner.ENGINES` must stay bit-identical to
``bitscore``.  Until now that guarantee rested on runtime property tests;
this family turns the engine contract itself into machine-checked
structure, replaying the paper's own proof obligations over the AST:

* **dispatch integrity** — every declared engine is reachable through the
  dispatch table and vice versa (KC001), carries an
  :func:`repro.core.contracts.engine_contract` declaration (KC002), and
  keeps the canonical ``(instructions, ref_codes)`` signature so engines
  stay interchangeable (KC003);
* **numeric safety** — the dtype-flow abstract interpreter
  (:mod:`repro.statics.dtypeflow`) proves score accumulation cannot
  silently wrap or truncate (KC004) and that no expression leaves the
  declared dtype envelope via NEP-50 promotion or a drifting return
  dtype (KC005);
* **purity** — no hidden module-global state (KC006) and no
  nondeterministic operations (KC007) inside a contracted engine, so a
  scan is a pure function of its inputs and results are replayable;
* **lane budgets** — every carry-save counter class is checked against
  the word-level prover (:func:`repro.rtl.ranges.lane_budget`): the
  declared count envelope of its ``decode`` must hold the *proven*
  maximum popcount — the software analogue of the paper's Pop36 claim
  that 750 query elements fit a 10-bit count (KC008).

``fabp-repro prove kernel`` calls :func:`prove_kernels` for the positive
artifact: the lane-budget proof, every engine contract, and a clean
dtype-flow report — plus a seeded-mutation self-test showing the
machinery *refutes* an injected overflow and an undersized budget.
"""

from __future__ import annotations

import ast
import importlib
import textwrap
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

# Importing the engine modules populates ENGINE_CONTRACTS/HELPER_SUMMARIES,
# the runtime side of the claims these rules check statically — the same
# pattern the OB family uses for the hook catalogue.
import repro.core.aligner as _aligner  # noqa: F401  (contract registration)
import repro.core.bitscore as _bitscore  # noqa: F401  (contract registration)
from repro.core.contracts import (
    DEFAULT_INPUTS,
    ENGINE_CONTRACTS,
    MAX_QUERY_ELEMENTS,
    EngineContract,
)
from repro.lint import Finding, Rule, Severity
from repro.statics.discovery import (
    SourceModule,
    attach_parents,
    call_name,
    dotted_name,
    iter_functions,
    module_from_source,
)
from repro.statics.dtypeflow import FunctionAnalysis, analyze_engine_function
from repro.statics.registry import STATIC_RULES

#: Rule ids registered by this family (exported for docs/tests).
KERNEL_RULES: Tuple[str, ...] = (
    "KC001",
    "KC002",
    "KC003",
    "KC004",
    "KC005",
    "KC006",
    "KC007",
    "KC008",
)

#: Largest width KC008 will hand to the word-level prover: the proof is
#: quadratic-ish in width, and no shipped counter exceeds the paper's 750.
_MAX_PROVABLE_WIDTH = 4096


def _location(module: SourceModule, node: ast.AST) -> str:
    return f"{module.path.name}:{getattr(node, 'lineno', 0)}"


def _line_location(module: SourceModule, line: int) -> str:
    return f"{module.path.name}:{line}"


def _engines_assignment(
    module: SourceModule,
) -> Optional[Tuple[ast.Assign, Tuple[str, ...]]]:
    """The module-level ``ENGINES = ("a", "b", ...)`` assignment, if any."""
    for stmt in module.tree.body:
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        if not (isinstance(target, ast.Name) and target.id == "ENGINES"):
            continue
        value = stmt.value
        if isinstance(value, ast.Tuple) and all(
            isinstance(e, ast.Constant) and isinstance(e.value, str)
            for e in value.elts
        ):
            return stmt, tuple(e.value for e in value.elts)  # type: ignore[misc]
    return None


def _resolve_int(node: ast.expr) -> Optional[int]:
    """An int literal, or the one module constant the contract layer exports."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return int(node.value)
    name = dotted_name(node)
    if name is not None and name.split(".")[-1] == "MAX_QUERY_ELEMENTS":
        return MAX_QUERY_ELEMENTS
    return None


def _contracts_from_decorators(func: ast.AST) -> Iterator[Dict[str, object]]:
    """Every engine contract a function *declares in source*, resolved.

    One entry per ``@engine_contract`` decorator, in source order: a
    function registered under two engine names is checked against both
    declarations.  Resolution order per field: explicit AST keyword first
    (keeps fixture tests hermetic), then the runtime
    :data:`ENGINE_CONTRACTS` entry for the declared engine name, then the
    contract-layer defaults.
    """
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    for decorator in func.decorator_list:
        call = decorator if isinstance(decorator, ast.Call) else None
        callee = call.func if call is not None else decorator
        name = dotted_name(callee) or ""
        if name.split(".")[-1] != "engine_contract":
            continue
        engine: Optional[str] = None
        if (
            call is not None
            and call.args
            and isinstance(call.args[0], ast.Constant)
            and isinstance(call.args[0].value, str)
        ):
            engine = call.args[0].value
        accumulator: Optional[str] = None
        max_elements: Optional[int] = None
        deterministic: Optional[bool] = None
        if call is not None:
            for keyword in call.keywords:
                if keyword.arg == "accumulator" and isinstance(
                    keyword.value, ast.Constant
                ):
                    accumulator = str(keyword.value.value)
                elif keyword.arg == "max_elements":
                    max_elements = _resolve_int(keyword.value)
                elif keyword.arg == "deterministic" and isinstance(
                    keyword.value, ast.Constant
                ):
                    deterministic = bool(keyword.value.value)
        runtime = ENGINE_CONTRACTS.get(engine) if engine else None
        inputs_source = runtime.inputs if runtime is not None else DEFAULT_INPUTS
        yield {
            "engine": engine,
            "accumulator": accumulator
            or (runtime.accumulator if runtime else "int32"),
            "max_elements": max_elements
            if max_elements is not None
            else (runtime.max_elements if runtime else MAX_QUERY_ELEMENTS),
            "deterministic": deterministic
            if deterministic is not None
            else (runtime.deterministic if runtime else True),
            "inputs": {
                arg: (spec.dtype, spec.lo, spec.hi)
                for arg, spec in inputs_source.items()
            },
        }


def _contracted_functions(
    module: SourceModule,
) -> Iterator[Tuple[ast.FunctionDef, Dict[str, object]]]:
    """``(function, contract)`` for every ``@engine_contract`` in ``module``."""
    for func in iter_functions(module.tree):
        for info in _contracts_from_decorators(func):
            assert isinstance(func, ast.FunctionDef)
            yield func, info


def _contracted_defs(module: SourceModule) -> Iterator[ast.FunctionDef]:
    """Each contracted function once, for the checks no declaration changes."""
    seen: Set[int] = set()
    for func, _info in _contracted_functions(module):
        if id(func) not in seen:
            seen.add(id(func))
            yield func


def _engine_label(func: ast.FunctionDef, info: Dict[str, object]) -> str:
    """``'scores' as 'bitscore_batch'``: which declaration a finding is about."""
    engine = info["engine"]
    return f"{func.name!r} as {engine!r}" if engine else repr(func.name)


def _analyze(func: ast.FunctionDef, info: Dict[str, object]) -> FunctionAnalysis:
    inputs = info["inputs"]
    assert isinstance(inputs, dict)
    return analyze_engine_function(
        func,
        inputs=inputs,
        accumulator=str(info["accumulator"]),
        max_elements=int(info["max_elements"]),  # type: ignore[arg-type]
    )


@STATIC_RULES.register(
    "KC001",
    "dispatch-table-complete",
    Severity.ERROR,
    guards=(
        "Every engine declared in ENGINES is reachable through the dispatch "
        "table and every dispatch arm names a declared engine — a silently "
        "undispatchable engine is dead weight, an undeclared arm is an "
        "untested backdoor past the equivalence property tests."
    ),
)
def check_dispatch_complete(
    rule: Rule, module: SourceModule
) -> Iterator[Finding]:
    found = _engines_assignment(module)
    if found is None:
        return
    stmt, engines = found
    dispatched: Set[str] = set()
    saw_dispatcher = False
    for func in iter_functions(module.tree):
        args = getattr(func, "args")
        names = [
            a.arg
            for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ]
        if "engine" not in names:
            continue
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Compare)
                and isinstance(node.left, ast.Name)
                and node.left.id == "engine"
            ):
                saw_dispatcher = True
                for comparator in node.comparators:
                    if isinstance(comparator, ast.Constant) and isinstance(
                        comparator.value, str
                    ):
                        dispatched.add(comparator.value)
    if not saw_dispatcher:
        return
    missing = [e for e in engines if e not in dispatched]
    extra = sorted(e for e in dispatched if e not in engines)
    if missing:
        yield rule.finding(
            _location(module, stmt),
            "ENGINES members never dispatched: " + ", ".join(missing),
            suggested_fix="add a dispatch arm or drop the engine from ENGINES",
        )
    if extra:
        yield rule.finding(
            _location(module, stmt),
            "dispatch arms for engines missing from ENGINES: " + ", ".join(extra),
            suggested_fix="declare the engine in ENGINES (and contract it)",
        )


@STATIC_RULES.register(
    "KC002",
    "engine-contract-missing",
    Severity.ERROR,
    guards=(
        "Every member of ENGINES carries an @engine_contract declaration "
        "with parseable dtypes — the contract is what the prover, the "
        "dtype flow and the equivalence tests all check against; an "
        "uncontracted engine has no machine-checked envelope at all."
    ),
)
def check_contract_declared(
    rule: Rule, module: SourceModule
) -> Iterator[Finding]:
    found = _engines_assignment(module)
    if found is None:
        return
    stmt, engines = found
    for engine in engines:
        contract = ENGINE_CONTRACTS.get(engine)
        if contract is None:
            yield rule.finding(
                _location(module, stmt),
                f"engine {engine!r} has no @engine_contract declaration",
                suggested_fix="decorate the implementation with "
                f"@engine_contract({engine!r})",
            )
            continue
        bad = _unparseable_dtypes(contract)
        if bad:
            yield rule.finding(
                _location(module, stmt),
                f"engine {engine!r} contract declares unparseable dtype(s): "
                + ", ".join(bad),
                suggested_fix="use canonical numpy dtype names",
            )


def _unparseable_dtypes(contract: EngineContract) -> List[str]:
    names = [contract.accumulator] + [s.dtype for s in contract.inputs.values()]
    bad: List[str] = []
    for name in names:
        try:
            np.dtype(name)
        except TypeError:
            bad.append(name)
    return bad


@STATIC_RULES.register(
    "KC003",
    "engine-signature-drift",
    Severity.ERROR,
    guards=(
        "Every contracted engine keeps the canonical positional signature "
        "(instructions, ref_codes); extras must be keyword-only with "
        "defaults — engines are dispatched interchangeably, so a drifting "
        "signature breaks substitution at exactly the call sites the "
        "equivalence tests do not cover."
    ),
)
def check_signature(rule: Rule, module: SourceModule) -> Iterator[Finding]:
    for func in _contracted_defs(module):
        args = func.args
        positional = [a.arg for a in list(args.posonlyargs) + list(args.args)]
        if positional != ["instructions", "ref_codes"]:
            yield rule.finding(
                _location(module, func),
                f"engine {func.name!r} positional signature is "
                f"({', '.join(positional)}), expected (instructions, ref_codes)",
                suggested_fix="rename/reorder to the canonical signature; "
                "move extras behind *",
            )
        if args.vararg is not None or args.kwarg is not None:
            yield rule.finding(
                _location(module, func),
                f"engine {func.name!r} takes *{args.vararg.arg}"
                if args.vararg is not None
                else f"engine {func.name!r} takes **{args.kwarg.arg}",  # type: ignore[union-attr]
                suggested_fix="engines must have a closed signature",
            )
        for keyword, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is None:
                yield rule.finding(
                    _location(module, func),
                    f"engine {func.name!r} keyword-only arg {keyword.arg!r} "
                    "has no default",
                    suggested_fix="give every engine extension a default so "
                    "the canonical call shape always works",
                )


@STATIC_RULES.register(
    "KC004",
    "accumulator-overflow",
    Severity.ERROR,
    guards=(
        "Score accumulation provably fits the contract's accumulator dtype "
        "for every supported query length — the software analogue of the "
        "Pop36 lane-budget proof (Table I: 750 elements fit 10 bits); a "
        "wrapped accumulator corrupts scores silently."
    ),
)
def check_overflow(rule: Rule, module: SourceModule) -> Iterator[Finding]:
    for func, info in _contracted_functions(module):
        analysis = _analyze(func, info)
        for event in analysis.events:
            if event.kind not in ("overflow", "narrowing"):
                continue
            yield rule.finding(
                _line_location(module, event.line),
                f"engine {_engine_label(func, info)}: {event.message}",
                suggested_fix="widen the accumulator dtype or tighten the "
                "contract's max_elements",
                data={"kind": event.kind},
            )


@STATIC_RULES.register(
    "KC005",
    "dtype-envelope-violation",
    Severity.ERROR,
    guards=(
        "No expression inside a contracted engine leaves the declared dtype "
        "envelope: NEP-50 can promote uint64⊕int64 to float64 (silently "
        "destroying exact 64-bit lanes), and a return dtype that drifts "
        "from the declared accumulator breaks every caller that "
        "concatenates scores across engines."
    ),
)
def check_envelope(rule: Rule, module: SourceModule) -> Iterator[Finding]:
    for func, info in _contracted_functions(module):
        analysis = _analyze(func, info)
        for event in analysis.events:
            if event.kind not in ("promotion", "return-dtype"):
                continue
            yield rule.finding(
                _line_location(module, event.line),
                f"engine {_engine_label(func, info)}: {event.message}",
                suggested_fix="cast explicitly to the declared dtype at the "
                "boundary",
                data={"kind": event.kind},
            )


def _local_names(func: ast.FunctionDef) -> Set[str]:
    names: Set[str] = set()
    args = func.args
    for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        names.add(arg.arg)
    if args.vararg is not None:
        names.add(args.vararg.arg)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for child in ast.walk(target):
                    if isinstance(child, ast.Name):
                        names.add(child.id)
        elif isinstance(node, (ast.For, ast.comprehension)):
            target = node.target
            for child in ast.walk(target):
                if isinstance(child, ast.Name):
                    names.add(child.id)
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            for child in ast.walk(node.optional_vars):
                if isinstance(child, ast.Name):
                    names.add(child.id)
    return names


_MUTABLE_FACTORIES = {"dict", "list", "set", "defaultdict", "Counter", "OrderedDict"}


def _module_mutables(module: SourceModule) -> Set[str]:
    """Module-level names bound to mutable containers."""
    mutables: Set[str] = set()
    for stmt in module.tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        value = stmt.value
        is_mutable = isinstance(
            value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp)
        ) or (
            isinstance(value, ast.Call)
            and (call_name(value) or "").split(".")[-1] in _MUTABLE_FACTORIES
        )
        if not is_mutable:
            continue
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                mutables.add(target.id)
    return mutables


@STATIC_RULES.register(
    "KC006",
    "hidden-global-state",
    Severity.ERROR,
    guards=(
        "A contracted engine is a pure function of (instructions, "
        "ref_codes): no global/nonlocal statements and no reads of "
        "module-level mutable containers — hidden state makes results "
        "depend on call order, which the multi-process scanner cannot "
        "reproduce."
    ),
)
def check_global_state(rule: Rule, module: SourceModule) -> Iterator[Finding]:
    mutables = _module_mutables(module)
    for func in _contracted_defs(module):
        locals_ = _local_names(func)
        for node in ast.walk(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                keyword = "global" if isinstance(node, ast.Global) else "nonlocal"
                yield rule.finding(
                    _location(module, node),
                    f"engine {func.name!r} uses {keyword} "
                    f"({', '.join(node.names)})",
                    suggested_fix="thread the state through parameters or "
                    "return values",
                )
            elif (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in mutables
                and node.id not in locals_
            ):
                yield rule.finding(
                    _location(module, node),
                    f"engine {func.name!r} reads module-level mutable "
                    f"{node.id!r}",
                    suggested_fix="pass the table in, or make it an "
                    "immutable module constant",
                )


#: Callee name tails that make an engine nondeterministic or time-dependent.
_NONDETERMINISTIC_TAILS = frozenset(
    {
        "random",
        "rand",
        "randint",
        "randn",
        "random_sample",
        "choice",
        "shuffle",
        "permutation",
        "normal",
        "uniform",
        "default_rng",
        "time",
        "time_ns",
        "perf_counter",
        "monotonic",
        "urandom",
        "uuid1",
        "uuid4",
        "token_bytes",
        "token_hex",
        "getrandbits",
    }
)


@STATIC_RULES.register(
    "KC007",
    "nondeterministic-op",
    Severity.ERROR,
    guards=(
        "A contract with deterministic=True (the default) means the engine "
        "calls nothing random or clock-derived — scores must be replayable "
        "bit-for-bit across reruns, workers and checkpoints."
    ),
)
def check_deterministic(rule: Rule, module: SourceModule) -> Iterator[Finding]:
    for func in _contracted_defs(module):
        if not any(info["deterministic"] for info in _contracts_from_decorators(func)):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node) or ""
            if name.split(".")[-1] in _NONDETERMINISTIC_TAILS:
                yield rule.finding(
                    _location(module, node),
                    f"engine {func.name!r} calls nondeterministic {name!r}",
                    suggested_fix="drop the call, or declare the contract "
                    "deterministic=False",
                )


def _decode_summary(
    func: ast.FunctionDef,
) -> Optional[Tuple[Optional[str], Optional[int], Optional[int]]]:
    """The first ``(dtype, lo, hi)`` triple of a ``@kernel_summary`` decorator."""
    for decorator in func.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        name = dotted_name(decorator.func) or ""
        if name.split(".")[-1] != "kernel_summary":
            continue
        if not decorator.args or not isinstance(decorator.args[0], ast.Tuple):
            return (None, None, None)
        elts = decorator.args[0].elts
        if len(elts) != 3:
            return (None, None, None)
        dtype = (
            elts[0].value
            if isinstance(elts[0], ast.Constant) and isinstance(elts[0].value, str)
            else None
        )
        return (dtype, _resolve_int(elts[1]), _resolve_int(elts[2]))
    return None


@STATIC_RULES.register(
    "KC008",
    "lane-budget-unproven",
    Severity.ERROR,
    guards=(
        "Every carry-save counter's decoded count envelope is backed by "
        "the word-level prover: the declared (dtype, 0, max) on decode "
        "must hold the *proven* maximum popcount of a max-width counter — "
        "the paper's Pop36 bit-budget argument, machine-checked instead "
        "of commented."
    ),
)
def check_lane_budget(rule: Rule, module: SourceModule) -> Iterator[Finding]:
    from repro.rtl.ranges import lane_budget

    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        methods = {
            member.name: member
            for member in node.body
            if isinstance(member, ast.FunctionDef)
        }
        if "add" not in methods or "decode" not in methods:
            continue
        summary = _decode_summary(methods["decode"])
        if summary is None or summary[0] is None or summary[2] is None:
            yield rule.finding(
                _location(module, node),
                f"carry-save counter {node.name!r}: decode lacks a "
                "@kernel_summary((dtype, 0, max)) count envelope",
                suggested_fix="declare the decoded count's dtype and bound "
                "so the prover has a claim to check",
            )
            continue
        dtype, _lo, hi = summary
        if hi <= 0 or hi > _MAX_PROVABLE_WIDTH:
            yield rule.finding(
                _location(module, node),
                f"carry-save counter {node.name!r}: declared bound {hi} is "
                f"outside the provable range (0, {_MAX_PROVABLE_WIDTH}]",
                suggested_fix="declare a finite bound the word-level prover "
                "can enumerate",
            )
            continue
        try:
            value_bits = int(np.iinfo(np.dtype(dtype)).max).bit_length()
        except TypeError:
            yield rule.finding(
                _location(module, node),
                f"carry-save counter {node.name!r}: decode dtype {dtype!r} "
                "is not a numpy integer dtype",
                suggested_fix="use an integer dtype for decoded counts",
            )
            continue
        budget = lane_budget(hi)
        if not (budget.proven and budget.exact):
            yield rule.finding(
                _location(module, node),
                f"carry-save counter {node.name!r}: word-level prover could "
                f"not establish the popcount identity at width {hi} "
                f"({budget.proof.reason})",
                data=budget.to_dict(),
            )
        elif budget.needed_bits > value_bits:
            yield rule.finding(
                _location(module, node),
                f"carry-save counter {node.name!r}: proven budget needs "
                f"{budget.needed_bits} bits but decode dtype {dtype} holds "
                f"only {value_bits} value bits",
                suggested_fix="widen the decode dtype",
                data=budget.to_dict(),
            )


# ---------------------------------------------------------------------------
# fabp-repro prove kernel
# ---------------------------------------------------------------------------

#: A contracted engine with an int8 accumulator: 750 accumulated ones
#: provably escape [−128, 127], so KC004 must refute it — the seeded
#: mutation behind ``prove kernel --self-test``.
_INJECTED_OVERFLOW = textwrap.dedent(
    """
    import numpy as np

    from repro.core.contracts import engine_contract


    @engine_contract("selftest-overflow", accumulator="int8")
    def overflow_scores(instructions, ref_codes):
        scores = np.zeros(ref_codes.size, dtype=np.int8)
        for i in range(instructions.size):
            scores += 1
        return scores
    """
)


def _module_source_for(contract: EngineContract) -> Optional[SourceModule]:
    """Parse the source file a contract's implementation lives in."""
    try:
        imported = importlib.import_module(contract.module)
        path = Path(getattr(imported, "__file__"))
        source = path.read_text()
    except (ImportError, OSError, TypeError):
        return None
    return module_from_source(source, name=contract.module, path=path)


def _dtypeflow_report(contract: EngineContract) -> Dict[str, object]:
    """Re-derive the dtype-flow verdict for one engine from its source."""
    module = _module_source_for(contract)
    function_tail = contract.function.split(".")[-1]
    if module is None:
        return {
            "engine": contract.engine,
            "function": contract.function,
            "analyzed": False,
            "events": [],
        }
    attach_parents(module.tree)
    for func, info in _contracted_functions(module):
        if func.name != function_tail or info["engine"] != contract.engine:
            continue
        analysis = _analyze(func, info)
        return {
            "engine": contract.engine,
            "function": contract.function,
            "module": contract.module,
            "analyzed": True,
            "events": [
                {"kind": e.kind, "line": e.line, "message": e.message}
                for e in analysis.events
            ],
            "returns": [str(value) for value, _line in analysis.returns],
            "clean": not analysis.events,
        }
    return {
        "engine": contract.engine,
        "function": contract.function,
        "analyzed": False,
        "events": [],
    }


def _self_test() -> Dict[str, object]:
    """Seeded mutations the machinery must refute (à la ``prove --self-test``)."""
    from repro.rtl.ranges import lane_budget

    undersized = lane_budget(MAX_QUERY_ELEMENTS, out_bits=9)
    module = module_from_source(_INJECTED_OVERFLOW, name="<kernel-self-test>")
    attach_parents(module.tree)
    rule = STATIC_RULES.get("KC004")
    findings = list(rule.check(rule=rule, module=module))
    overflow_refuted = any(f.rule_id == "KC004" for f in findings)
    return {
        "ok": (not undersized.fits) and overflow_refuted,
        "lane_budget_refutation": {
            "description": "750-wide count against a 9-bit budget must not fit",
            "refuted": not undersized.fits,
            "budget": undersized.to_dict(),
        },
        "injected_overflow": {
            "description": "int8 accumulator over 750 elements must trip KC004",
            "refuted": overflow_refuted,
            "findings": [f.to_dict() for f in findings],
        },
    }


def prove_kernels(*, self_test: bool = False) -> Dict[str, object]:
    """The ``fabp-repro prove kernel`` payload: contracts, budget, dtype flow.

    Proves, for every registered engine contract, that (a) the carry-save
    lane budget at :data:`MAX_QUERY_ELEMENTS` is exact and fits every
    declared accumulator, and (b) the dtype-flow interpreter finds no
    overflow/promotion events in the engine's source.  With ``self_test``
    the payload additionally records two seeded refutations.
    """
    from repro.rtl.ranges import lane_budget

    budget = lane_budget(MAX_QUERY_ELEMENTS)
    contracts = dict(sorted(ENGINE_CONTRACTS.items()))
    accumulator_bits = {
        name: contract.accumulator_value_bits
        for name, contract in contracts.items()
    }
    budget_fits_all = bool(contracts) and all(
        budget.proven and budget.exact and budget.needed_bits <= bits
        for bits in accumulator_bits.values()
    )
    flow_reports = {
        name: _dtypeflow_report(contract) for name, contract in contracts.items()
    }
    flow_clean = all(
        report.get("clean", False)
        for report in flow_reports.values()
        if report["analyzed"]
    ) and any(report["analyzed"] for report in flow_reports.values())
    ok = budget_fits_all and flow_clean
    payload: Dict[str, object] = {
        "schema": "fabp-kernel-proof/v1",
        "max_query_elements": MAX_QUERY_ELEMENTS,
        "lane_budget": budget.to_dict(),
        "engines": {
            name: contract.to_dict() for name, contract in contracts.items()
        },
        "accumulator_value_bits": accumulator_bits,
        "budget_fits_all_accumulators": budget_fits_all,
        "dtype_flow": flow_reports,
        "dtype_flow_clean": flow_clean,
        "ok": ok,
    }
    if self_test:
        verdict = _self_test()
        payload["self_test"] = verdict
        payload["ok"] = ok and bool(verdict["ok"])
    return payload
