"""Dtype-flow abstract interpretation for numpy scoring kernels.

The scoring engines are numpy programs whose correctness rests on *numeric*
invariants the type system never sees: score accumulators are ``int32`` and
must hold ``[0, MAX_QUERY_ELEMENTS]``, funnel shifts run on ``uint64`` words
where wraparound is the *point*, and NEP-50 promotion can silently turn a
``uint64 ⊕ int64`` expression into ``float64``.  This module evaluates an
engine function over an abstract domain that tracks, per value:

* the numpy **dtype** (or unknown), with NEP-50 weak-scalar promotion —
  a python literal adapts to the array operand's dtype instead of forcing
  ``int64``;
* a **value interval** ``[lo, hi]`` (either endpoint may be unknown);
* whether the value is a **weak scalar** (python int/float, not an array).

Accumulation in loops is widened against the engine contract's element
budget: ``scores += row`` inside a loop over query elements grows the
interval by ``max_elements`` times the addend's bound — exactly the
paper's Pop36 argument ("750 ones fit 10 bits") replayed over the AST.

Soundness stance: **events fire only on facts**.  An overflow is reported
only when both dtype and interval are fully known and the interval
provably escapes the dtype; anything the interpreter cannot model becomes
*unknown* and stays silent.  Bitwise and shift operators on unsigned
dtypes are modular by design (the SWAR idiom) and are never flagged.

Helper calls are resolved through the declared
:data:`repro.core.contracts.HELPER_SUMMARIES` envelopes, so the analysis
stays function-local.  Event kinds:

``overflow``
    a known interval escapes a known integer dtype under ``+ - *`` or an
    augmented accumulation (wraparound would corrupt scores);
``narrowing``
    an ``astype``/``asarray`` cast to a dtype the known interval does not
    fit (silent truncation);
``promotion``
    an integer⊕integer expression whose NEP-50 result dtype is a float
    (the ``uint64 ⊕ int64 → float64`` trap);
``return-dtype``
    a return value whose dtype differs from the engine contract's
    declared accumulator.

Rules KC004/KC005 (:mod:`repro.statics.kernels`) turn these events into
findings; ``tests/property`` cross-checks :func:`abstract_eval` against
numpy's actual promotion on random expression trees.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.contracts import HELPER_SUMMARIES

#: Return-envelope triple: (dtype name, lo, hi).
Summary = Tuple[str, int, int]


@dataclass(frozen=True)
class AbstractValue:
    """One value in the abstract domain: dtype x interval x weakness."""

    dtype: Optional[str]  # canonical numpy dtype name; None = unknown
    lo: Optional[int] = None
    hi: Optional[int] = None
    weak: bool = False  # python scalar (NEP-50 weak promotion)

    @property
    def known(self) -> bool:
        return self.lo is not None and self.hi is not None

    def __str__(self) -> str:
        dtype = self.dtype or "?"
        lo = "?" if self.lo is None else str(self.lo)
        hi = "?" if self.hi is None else str(self.hi)
        return f"{dtype}[{lo}, {hi}]" + ("w" if self.weak else "")


#: The bottom of the lattice: nothing known.
UNKNOWN = AbstractValue(None)


@dataclass(frozen=True)
class DtypeEvent:
    """One defect (or suspicious fact) the interpreter established."""

    kind: str  # overflow | narrowing | promotion | return-dtype
    line: int
    message: str


def _canonical(name: str) -> str:
    return np.dtype(name).name


def _bounds(dtype: str) -> Optional[Tuple[int, int]]:
    kind = np.dtype(dtype).kind
    if kind not in "iu":
        return None
    info = np.iinfo(np.dtype(dtype))
    return int(info.min), int(info.max)


def promote(a: AbstractValue, b: AbstractValue) -> Optional[str]:
    """NEP-50 result dtype of ``a ⊕ b`` (None when either side is unknown).

    Weak (python) scalars adapt to the array operand: ``uint8_array + 1``
    stays ``uint8``; a weak *float* against an integer array still forces
    ``float64``.  Two weak scalars promote by their own default dtypes.
    """
    if a.dtype is None or b.dtype is None:
        return None
    if a.weak and b.weak:
        return _canonical(str(np.result_type(a.dtype, b.dtype)))
    if a.weak or b.weak:
        weak, strong = (a, b) if a.weak else (b, a)
        if np.dtype(weak.dtype).kind == "f" and np.dtype(strong.dtype).kind in "iu":
            return _canonical(str(np.result_type(strong.dtype, 0.5)))
        return _canonical(strong.dtype)
    return _canonical(str(np.result_type(a.dtype, b.dtype)))


def _join(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    """Least upper bound of two branch values."""
    dtype = a.dtype if a.dtype == b.dtype else None
    lo = None if a.lo is None or b.lo is None else min(a.lo, b.lo)
    hi = None if a.hi is None or b.hi is None else max(a.hi, b.hi)
    return AbstractValue(dtype, lo, hi, weak=a.weak and b.weak)


def _interval_binop(
    op: ast.operator,
    a: AbstractValue,
    b: AbstractValue,
) -> Tuple[Optional[int], Optional[int]]:
    """Best-effort interval of ``a <op> b`` (None endpoints when unknown)."""
    if not (a.known and b.known):
        return None, None
    alo, ahi, blo, bhi = a.lo, a.hi, b.lo, b.hi
    assert alo is not None and ahi is not None  # a.known
    assert blo is not None and bhi is not None  # b.known
    if isinstance(op, ast.Add):
        return alo + blo, ahi + bhi
    if isinstance(op, ast.Sub):
        return alo - bhi, ahi - blo
    if isinstance(op, ast.Mult):
        corners = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
        return min(corners), max(corners)
    if isinstance(op, ast.FloorDiv) and blo > 0:
        return alo // bhi if alo >= 0 else alo // blo, ahi // blo
    if isinstance(op, ast.Mod) and blo > 0:
        return 0, bhi - 1
    if isinstance(op, ast.LShift) and alo >= 0 and blo >= 0 and bhi <= 512:
        return alo << blo, ahi << bhi
    if isinstance(op, ast.RShift) and alo >= 0 and blo >= 0:
        return alo >> bhi, ahi >> blo
    if isinstance(op, ast.BitAnd) and alo >= 0 and blo >= 0:
        return 0, min(ahi, bhi)
    if isinstance(op, (ast.BitOr, ast.BitXor)) and alo >= 0 and blo >= 0:
        bits = max(ahi.bit_length(), bhi.bit_length())
        return 0, (1 << bits) - 1
    return None, None


_MODULAR_OPS = (ast.LShift, ast.RShift, ast.BitAnd, ast.BitOr, ast.BitXor)
_ARITH_OPS = (ast.Add, ast.Sub, ast.Mult)

#: numpy array constructors the interpreter models directly.
_ZERO_FILLED = {"zeros", "zeros_like", "empty", "empty_like"}

#: numpy calls returning their first argument's value (possibly recast).
_PASS_THROUGH = {"asarray", "ascontiguousarray", "array", "copy", "ravel"}


class DtypeFlow:
    """Abstract interpreter over one function body (or expression).

    ``loop_bound`` is the widening multiplier for augmented accumulation
    inside loops — the engine contract's ``max_elements``.  Calls resolve
    by their bare callee name against :data:`HELPER_SUMMARIES`, the
    ``@kernel_summary`` return envelopes declared across the repo.
    """

    def __init__(self, *, loop_bound: int = 1) -> None:
        self.loop_bound = loop_bound
        self.events: List[DtypeEvent] = []
        self.returns: List[Tuple[AbstractValue, int]] = []
        self._loop_depth = 0

    # -- events ------------------------------------------------------------

    def _event(self, kind: str, node: ast.AST, message: str) -> None:
        self.events.append(
            DtypeEvent(kind=kind, line=getattr(node, "lineno", 0), message=message)
        )

    def _check_fits(
        self,
        value: AbstractValue,
        node: ast.AST,
        *,
        kind: str,
        context: str,
    ) -> AbstractValue:
        """Flag a known interval escaping a known integer dtype; clamp after."""
        if value.dtype is None or not value.known:
            return value
        bounds = _bounds(value.dtype)
        if bounds is None:
            return value
        lo, hi = bounds
        assert value.lo is not None and value.hi is not None
        if value.lo < lo or value.hi > hi:
            self._event(
                kind,
                node,
                f"{context}: value range [{value.lo}, {value.hi}] escapes "
                f"{value.dtype} [{lo}, {hi}]",
            )
            return replace(value, lo=max(value.lo, lo), hi=min(value.hi, hi))
        return value

    # -- expressions -------------------------------------------------------

    def eval(self, node: ast.expr, env: Dict[str, AbstractValue]) -> AbstractValue:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return AbstractValue("int64", int(node.value), int(node.value), weak=True)
            if isinstance(node.value, int):
                return AbstractValue("int64", node.value, node.value, weak=True)
            if isinstance(node.value, float):
                return AbstractValue("float64", None, None, weak=True)
            return UNKNOWN
        if isinstance(node, ast.Name):
            return env.get(node.id, UNKNOWN)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node, env)
        if isinstance(node, ast.UnaryOp):
            operand = self.eval(node.operand, env)
            if isinstance(node.op, ast.USub) and operand.known:
                assert operand.lo is not None and operand.hi is not None
                return replace(operand, lo=-operand.hi, hi=-operand.lo)
            if isinstance(node.op, ast.Not):
                return AbstractValue("bool", 0, 1)
            return replace(operand, lo=None, hi=None)
        if isinstance(node, ast.Call):
            values = self._eval_call(node, env)
            return values[0] if len(values) == 1 else UNKNOWN
        if isinstance(node, ast.Subscript):
            # An element (or slice) of an array shares its dtype and bounds.
            return replace(self.eval(node.value, env), weak=False)
        if isinstance(node, ast.Attribute):
            if node.attr in ("size", "ndim", "itemsize", "nbytes"):
                return AbstractValue("int64", 0, None, weak=True)
            if node.attr == "T":
                return self.eval(node.value, env)
            return UNKNOWN
        if isinstance(node, ast.IfExp):
            return _join(self.eval(node.body, env), self.eval(node.orelse, env))
        if isinstance(node, (ast.Compare, ast.BoolOp)):
            return AbstractValue("bool", 0, 1)
        return UNKNOWN

    def _eval_binop(
        self, node: ast.BinOp, env: Dict[str, AbstractValue]
    ) -> AbstractValue:
        left = self.eval(node.left, env)
        right = self.eval(node.right, env)
        dtype = promote(left, right)
        lo, hi = _interval_binop(node.op, left, right)
        result = AbstractValue(dtype, lo, hi, weak=left.weak and right.weak)
        if dtype is None:
            return result
        np_dtype = np.dtype(dtype)
        if (
            np_dtype.kind == "f"
            and not left.weak
            and not right.weak
            and left.dtype is not None
            and right.dtype is not None
            and np.dtype(left.dtype).kind in "iu"
            and np.dtype(right.dtype).kind in "iu"
        ):
            self._event(
                "promotion",
                node,
                f"{left.dtype} ⊕ {right.dtype} silently promotes to {dtype} "
                "(NEP 50: mixed-signedness 64-bit integers leave the integers)",
            )
            return result
        if isinstance(node.op, _MODULAR_OPS):
            # SWAR bit-twiddling is modular by design — clip, never flag.
            bounds = _bounds(dtype)
            if bounds is not None and result.known:
                assert result.lo is not None and result.hi is not None
                if result.lo < bounds[0] or result.hi > bounds[1]:
                    result = replace(result, lo=bounds[0], hi=bounds[1])
            return result
        if isinstance(node.op, _ARITH_OPS) and not result.weak:
            result = self._check_fits(
                result, node, kind="overflow", context="arithmetic result"
            )
        return result

    def _dtype_from_node(self, node: Optional[ast.expr]) -> Optional[str]:
        """A dtype spelled in source: ``np.int32``, ``"uint8"``, ``np.dtype(...)``."""
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                return _canonical(node.value)
            except TypeError:
                return None
        if isinstance(node, ast.Attribute):
            try:
                return _canonical(node.attr)
            except TypeError:
                return None
        if isinstance(node, ast.Call):
            name = _call_tail(node)
            if name == "dtype" and node.args:
                return self._dtype_from_node(node.args[0])
        return None

    def _eval_call(
        self, node: ast.Call, env: Dict[str, AbstractValue]
    ) -> Tuple[AbstractValue, ...]:
        """Evaluate a call; tuple-returning helpers yield several values."""
        tail = _call_tail(node)
        if tail is None:
            return (UNKNOWN,)
        dtype_kw = None
        for keyword in node.keywords:
            if keyword.arg == "dtype":
                dtype_kw = self._dtype_from_node(keyword.value)
        if tail in HELPER_SUMMARIES:
            return tuple(
                AbstractValue(_canonical(name), lo, hi)
                for name, lo, hi in HELPER_SUMMARIES[tail]
            )
        if tail in _ZERO_FILLED:
            dtype = dtype_kw or "float64"
            value = (0, 0) if "zeros" in tail else (None, None)
            return (AbstractValue(dtype, value[0], value[1]),)
        if tail in ("ones", "ones_like"):
            return (AbstractValue(dtype_kw or "float64", 1, 1),)
        if tail == "full":
            fill = (
                self.eval(node.args[1], env) if len(node.args) > 1 else UNKNOWN
            )
            return (AbstractValue(dtype_kw or fill.dtype, fill.lo, fill.hi),)
        if tail in _PASS_THROUGH:
            base = self.eval(node.args[0], env) if node.args else UNKNOWN
            if dtype_kw is None:
                return (replace(base, weak=False),)
            recast = AbstractValue(dtype_kw, base.lo, base.hi)
            return (
                self._check_fits(
                    recast, node, kind="narrowing", context=f"{tail} cast"
                ),
            )
        if tail == "astype":
            func = node.func
            assert isinstance(func, ast.Attribute)
            base = self.eval(func.value, env)
            dtype = self._dtype_from_node(node.args[0]) if node.args else dtype_kw
            if dtype is None:
                return (UNKNOWN,)
            recast = AbstractValue(dtype, base.lo, base.hi)
            return (
                self._check_fits(
                    recast, node, kind="narrowing", context="astype cast"
                ),
            )
        if tail == "view":
            dtype = (
                self._dtype_from_node(node.args[0]) if node.args else dtype_kw
            )
            return (AbstractValue(dtype),)
        if tail == "unpackbits":
            return (AbstractValue("uint8", 0, 1),)
        if tail == "packbits":
            return (AbstractValue("uint8", 0, 255),)
        if tail == "einsum":
            return (AbstractValue(dtype_kw),)
        if tail in ("maximum", "minimum"):
            if len(node.args) >= 2:
                a = self.eval(node.args[0], env)
                b = self.eval(node.args[1], env)
                dtype = promote(a, b)
                if tail == "maximum":
                    lo = None if a.lo is None or b.lo is None else max(a.lo, b.lo)
                    hi = None if a.hi is None or b.hi is None else max(a.hi, b.hi)
                else:
                    lo = None if a.lo is None or b.lo is None else min(a.lo, b.lo)
                    hi = None if a.hi is None or b.hi is None else min(a.hi, b.hi)
                return (AbstractValue(dtype, lo, hi),)
            return (UNKNOWN,)
        if tail == "int":
            base = self.eval(node.args[0], env) if node.args else UNKNOWN
            return (AbstractValue("int64", base.lo, base.hi, weak=True),)
        if tail in ("len", "range"):
            return (AbstractValue("int64", 0, None, weak=True),)
        if tail in ("min", "max", "abs", "sum"):
            return (UNKNOWN,)
        return (UNKNOWN,)

    # -- statements --------------------------------------------------------

    def run(self, body: Sequence[ast.stmt], env: Dict[str, AbstractValue]) -> None:
        for stmt in body:
            self._exec(stmt, env)

    def _exec(self, stmt: ast.stmt, env: Dict[str, AbstractValue]) -> None:
        if isinstance(stmt, ast.Assign):
            self._exec_assign(stmt, env)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None and isinstance(stmt.target, ast.Name):
                env[stmt.target.id] = self.eval(stmt.value, env)
        elif isinstance(stmt, ast.AugAssign):
            self._exec_augassign(stmt, env)
        elif isinstance(stmt, ast.For):
            self._bind_loop_target(stmt.target, env)
            self._loop_depth += 1
            try:
                self.run(stmt.body, env)
            finally:
                self._loop_depth -= 1
            self.run(stmt.orelse, env)
        elif isinstance(stmt, ast.While):
            self._loop_depth += 1
            try:
                self.run(stmt.body, env)
            finally:
                self._loop_depth -= 1
            self.run(stmt.orelse, env)
        elif isinstance(stmt, ast.If):
            then_env = dict(env)
            else_env = dict(env)
            self.run(stmt.body, then_env)
            self.run(stmt.orelse, else_env)
            for name in set(then_env) | set(else_env):
                env[name] = _join(
                    then_env.get(name, UNKNOWN), else_env.get(name, UNKNOWN)
                )
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.returns.append((self.eval(stmt.value, env), stmt.lineno))
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value, env)
        elif isinstance(stmt, ast.Try):
            self.run(stmt.body, env)
            for handler in stmt.handlers:
                self.run(handler.body, env)
            self.run(stmt.orelse, env)
            self.run(stmt.finalbody, env)
        elif isinstance(stmt, ast.With):
            self.run(stmt.body, env)
        # raise/pass/import/def/class: no dataflow to track.

    def _bind_loop_target(
        self, target: ast.expr, env: Dict[str, AbstractValue]
    ) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = AbstractValue("int64", 0, None, weak=True)
        elif isinstance(target, ast.Tuple):
            for element in target.elts:
                if isinstance(element, ast.Name):
                    env[element.id] = UNKNOWN

    def _exec_assign(self, stmt: ast.Assign, env: Dict[str, AbstractValue]) -> None:
        if (
            len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Tuple)
            and isinstance(stmt.value, ast.Call)
        ):
            # Tuple-unpacking a summarized helper: distribute the envelopes.
            targets = stmt.targets[0].elts
            values = self._eval_call(stmt.value, env)
            if len(values) == len(targets):
                for target, value in zip(targets, values):
                    if isinstance(target, ast.Name):
                        env[target.id] = value
                return
            for target in targets:
                if isinstance(target, ast.Name):
                    env[target.id] = UNKNOWN
            return
        value = self.eval(stmt.value, env)
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                env[target.id] = value
            elif isinstance(target, ast.Subscript):
                self._store_into(target, value, env, stmt)

    def _store_into(
        self,
        target: ast.Subscript,
        value: AbstractValue,
        env: Dict[str, AbstractValue],
        stmt: ast.stmt,
    ) -> None:
        """``array[k] = value``: the element must fit the array's dtype."""
        base = self.eval(target.value, env)
        if base.dtype is None or not value.known:
            return
        probe = AbstractValue(base.dtype, value.lo, value.hi)
        self._check_fits(probe, stmt, kind="overflow", context="element store")
        if isinstance(target.value, ast.Name):
            # The array now also holds the stored values.
            env[target.value.id] = _join(base, probe)

    def _exec_augassign(
        self, stmt: ast.AugAssign, env: Dict[str, AbstractValue]
    ) -> None:
        if isinstance(stmt.target, ast.Name):
            current = env.get(stmt.target.id, UNKNOWN)
        elif isinstance(stmt.target, ast.Subscript):
            current = self.eval(stmt.target.value, env)
        else:
            return
        rhs = self.eval(stmt.value, env)
        dtype = current.dtype if not current.weak else promote(current, rhs)
        lo, hi = _interval_binop(stmt.op, current, rhs)
        if (
            self._loop_depth > 0
            and isinstance(stmt.op, (ast.Add, ast.Sub))
            and current.known
            and rhs.known
        ):
            # Widening: the statement may execute up to loop_bound times.
            assert current.lo is not None and current.hi is not None
            assert rhs.lo is not None and rhs.hi is not None
            step_lo, step_hi = (
                (rhs.lo, rhs.hi)
                if isinstance(stmt.op, ast.Add)
                else (-rhs.hi, -rhs.lo)
            )
            lo = current.lo + self.loop_bound * min(step_lo, 0)
            hi = current.hi + self.loop_bound * max(step_hi, 0)
        elif self._loop_depth > 0 and not isinstance(stmt.op, _MODULAR_OPS):
            lo, hi = None, None  # non-additive loop accumulation: give up
        result = AbstractValue(dtype, lo, hi, weak=current.weak and rhs.weak)
        if isinstance(stmt.op, _MODULAR_OPS):
            bounds = None if dtype is None else _bounds(dtype)
            if bounds is not None and result.known:
                assert result.lo is not None and result.hi is not None
                result = replace(
                    result,
                    lo=max(result.lo, bounds[0]),
                    hi=min(result.hi, bounds[1]),
                )
        elif not result.weak:
            result = self._check_fits(
                result, stmt, kind="overflow", context="accumulation"
            )
        if isinstance(stmt.target, ast.Name):
            env[stmt.target.id] = result
        elif isinstance(stmt.target, ast.Subscript) and isinstance(
            stmt.target.value, ast.Name
        ):
            env[stmt.target.value.id] = result


def _call_tail(node: ast.Call) -> Optional[str]:
    """Last component of the callee's dotted name (``np.zeros`` → ``zeros``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def abstract_eval(
    source: str,
    env: Optional[Mapping[str, AbstractValue]] = None,
    *,
    loop_bound: int = 1,
) -> AbstractValue:
    """Evaluate one expression string in the abstract domain.

    The property-test entry point: parse ``source`` as an expression,
    seed the environment with ``env``, and return the abstract result.
    """
    tree = ast.parse(source, mode="eval")
    flow = DtypeFlow(loop_bound=loop_bound)
    return flow.eval(tree.body, dict(env or {}))


@dataclass
class FunctionAnalysis:
    """Events plus return facts of one analyzed engine function."""

    function: str
    events: List[DtypeEvent] = field(default_factory=list)
    returns: List[Tuple[AbstractValue, int]] = field(default_factory=list)


def analyze_engine_function(
    func: ast.AST,
    *,
    inputs: Mapping[str, Summary],
    accumulator: str,
    max_elements: int,
) -> FunctionAnalysis:
    """Run the dtype flow over one engine function against its contract.

    ``inputs`` seeds the parameter environment with the contract's declared
    envelopes; ``max_elements`` is the loop-widening bound; every return
    whose dtype is *known* and differs from ``accumulator`` yields a
    ``return-dtype`` event.
    """
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    env: Dict[str, AbstractValue] = {}
    for name, (dtype, lo, hi) in inputs.items():
        env[name] = AbstractValue(_canonical(dtype), lo, hi)
    flow = DtypeFlow(loop_bound=max_elements)
    flow.run(func.body, env)
    analysis = FunctionAnalysis(function=func.name)
    analysis.events.extend(flow.events)
    analysis.returns.extend(flow.returns)
    declared = _canonical(accumulator)
    for value, line in flow.returns:
        if value.dtype is not None and value.dtype != declared:
            analysis.events.append(
                DtypeEvent(
                    kind="return-dtype",
                    line=line,
                    message=(
                        f"returns {value.dtype} but the engine contract "
                        f"declares accumulator {declared}"
                    ),
                )
            )
    return analysis
