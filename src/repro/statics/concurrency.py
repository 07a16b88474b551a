"""Concurrency & resource rules RC001, RC002, RC004, RC006 and RC007.

These rules encode the lifecycle discipline of the host runtime as
*machine-checked structure*, so every future scan-runtime change is held to
it automatically:

* shared-memory segments are created only where cleanup is provably
  reachable (RC001), attached handles are released or registered (RC007),
  and numpy views are dropped before ``close()`` (RC002);
* durable files are written temp-then-``os.replace`` only (RC004);
* host exception handlers never silently swallow broad exceptions (RC006).

The fork, pipe-protocol and pool rules (RC003, RC005, RC008) are retired:
scan workers are threads, and ``src/`` has no fork, pipe or pool left for
them to check.

Every check is a lexical/AST approximation, tuned to be *precise on this
codebase* and documented in ``docs/static_analysis.md``; accepted false
positives are suppressed in place with a justified
``# statics: ignore[RCxxx] reason`` pragma.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from repro.lint import Finding, Rule, Severity
from repro.statics.discovery import (
    SourceModule,
    call_name,
    dotted_name,
    enclosing_function,
    is_constant,
    iter_functions,
    keyword_value,
)
from repro.statics.registry import STATIC_RULES

#: Rule ids registered by this family (exported for docs/tests).
CONCURRENCY_RULES: Tuple[str, ...] = (
    "RC001",
    "RC002",
    "RC004",
    "RC006",
    "RC007",
)


def _location(module: SourceModule, node: ast.AST) -> str:
    return f"{module.path.name}:{getattr(node, 'lineno', 0)}"


def _calls_in(node: ast.AST) -> Iterator[ast.Call]:
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            yield child


def _is_sharedmemory_call(call: ast.Call) -> bool:
    name = call_name(call)
    return name is not None and name.split(".")[-1] == "SharedMemory"


def _has_finally_release(func: ast.AST) -> bool:
    """A try/finally in ``func`` that retires, unlinks, or closes a segment."""
    for node in ast.walk(func):
        if not isinstance(node, ast.Try) or not node.finalbody:
            continue
        for final_stmt in node.finalbody:
            for call in _calls_in(final_stmt):
                name = call_name(call) or ""
                tail = name.split(".")[-1]
                if tail in ("retire_segment", "unlink", "close"):
                    return True
    return False


def _stores_into_module_registry(func: ast.AST) -> bool:
    """``REGISTRY[key] = value`` on a module-global name inside ``func``."""
    local_names = _assigned_names(func)
    for node in ast.walk(func):
        if not isinstance(node, (ast.Assign, ast.AugAssign)):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
                if target.value.id not in local_names:
                    return True
    return False


def _assigned_names(func: ast.AST) -> Set[str]:
    """Names bound locally in ``func`` (assignment targets and arguments)."""
    names: Set[str] = set()
    args = getattr(func, "args", None)
    if args is not None:
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            names.add(arg.arg)
        if args.vararg:
            names.add(args.vararg.arg)
        if args.kwarg:
            names.add(args.kwarg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _module_registers_atexit(module: SourceModule) -> bool:
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            name = call_name(stmt.value) or ""
            if name in ("atexit.register", "register") and name.startswith("atexit"):
                return True
            if name == "atexit.register":
                return True
    return False


@STATIC_RULES.register(
    "RC001",
    "shm-create-unmanaged",
    Severity.ERROR,
    "Every SharedMemory(create=True) must be reachable by retire_segment/"
    "finally cleanup or registered with the module's atexit sweep — a crashed "
    "scan must never leak /dev/shm segments.",
)
def check_shm_create_managed(
    rule: Rule, module: SourceModule
) -> Iterator[Finding]:
    """Flag segment creations with no reachable cleanup path."""
    has_atexit = _module_registers_atexit(module)
    for call in _calls_in(module.tree):
        if not _is_sharedmemory_call(call):
            continue
        if not is_constant(keyword_value(call, "create"), True):
            continue
        func = enclosing_function(call)
        if func is None:
            yield rule.finding(
                _location(module, call),
                "SharedMemory(create=True) at module level cannot be cleaned up",
                suggested_fix="create segments inside a managed function",
            )
            continue
        if _has_finally_release(func):
            continue
        if has_atexit and _stores_into_module_registry(func):
            continue
        yield rule.finding(
            _location(module, call),
            f"{func.name}() creates a shared-memory segment with no reachable "
            "cleanup (no try/finally retire/unlink and no atexit-swept registry)",
            suggested_fix="use publish_segment()/retire_segment() or wrap in "
            "try/finally",
        )


def _frombuffer_views(func: ast.AST) -> List[Tuple[str, int]]:
    """``name = np.frombuffer(seg.buf, ...)`` assignments: (name, line)."""
    views: List[Tuple[str, int]] = []
    for node in ast.walk(func):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        value = node.value
        if not isinstance(value, ast.Call):
            continue
        name = call_name(value) or ""
        if name.split(".")[-1] != "frombuffer":
            continue
        if not value.args:
            continue
        first = value.args[0]
        if not (isinstance(first, ast.Attribute) and first.attr == "buf"):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Name):
                views.append((target.id, node.lineno))
    return views


def _dropped_before(func: ast.AST, view: str, line: int) -> bool:
    """``view = None`` or ``del view`` lexically before ``line``."""
    for node in ast.walk(func):
        if node is None or getattr(node, "lineno", line) >= line:
            continue
        if isinstance(node, ast.Assign):
            if (
                isinstance(node.value, ast.Constant)
                and node.value.value is None
                and any(
                    isinstance(t, ast.Name) and t.id == view for t in node.targets
                )
            ):
                return True
        if isinstance(node, ast.Delete):
            if any(isinstance(t, ast.Name) and t.id == view for t in node.targets):
                return True
    return False


@STATIC_RULES.register(
    "RC002",
    "shm-view-outlives-close",
    Severity.ERROR,
    "Worker code must drop numpy views of a segment's buffer before "
    "shm.close() — closing with an exported buffer pointer raises "
    "BufferError at interpreter shutdown.",
)
def check_view_dropped_before_close(
    rule: Rule, module: SourceModule
) -> Iterator[Finding]:
    """In any function that closes a segment, views must be dropped first."""
    for func in iter_functions(module.tree):
        views = _frombuffer_views(func)
        if not views:
            continue
        close_lines = [
            call.lineno
            for call in _calls_in(func)
            if isinstance(call.func, ast.Attribute) and call.func.attr == "close"
        ]
        if not close_lines:
            continue
        close_line = max(close_lines)
        for view, view_line in views:
            if view_line > close_line:
                continue
            if _dropped_before(func, view, close_line):
                continue
            yield rule.finding(
                f"{module.path.name}:{close_line}",
                f"{func.name}() closes a shared-memory segment while the "
                f"numpy view {view!r} may still hold its buffer",
                suggested_fix=f"set {view} = None (or del {view}) before close()",
            )


def _is_durable_write(call: ast.Call) -> bool:
    name = call_name(call) or ""
    tail = name.split(".")[-1]
    if tail in ("write_text", "write_bytes"):
        return True
    if tail == "open" and len(call.args) >= 2:
        mode = call.args[1]
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return "w" in mode.value or "x" in mode.value
    return False


@STATIC_RULES.register(
    "RC004",
    "non-atomic-durable-write",
    Severity.ERROR,
    "Checkpoint files are written temp-then-os.replace only — a kill "
    "mid-write must never leave a half-file that resumes wrong.",
)
def check_atomic_checkpoint_writes(
    rule: Rule, module: SourceModule
) -> Iterator[Finding]:
    """In checkpoint modules, every durable write must pair with os.replace."""
    if "checkpoint" not in module.name and "checkpoint" not in module.path.name:
        return
    for func in iter_functions(module.tree):
        has_replace = any(
            (call_name(call) or "").split(".")[-1] == "replace"
            for call in _calls_in(func)
        )
        if has_replace:
            continue
        for call in _calls_in(func):
            if _is_durable_write(call):
                yield rule.finding(
                    _location(module, call),
                    f"{func.name}() writes a checkpoint file without "
                    "temp-then-os.replace; a kill mid-write leaves a torn file",
                    suggested_fix="write to a .tmp sibling and os.replace() it",
                )


@STATIC_RULES.register(
    "RC006",
    "swallowed-exception",
    Severity.ERROR,
    "Host-runtime exception handlers re-raise, narrow, or record into the "
    "ScanReport — a broad except-pass hides the exact faults the supervised "
    "runtime exists to surface.",
)
def check_swallowed_exceptions(
    rule: Rule, module: SourceModule
) -> Iterator[Finding]:
    """Bare/broad except with a pass-only body in host modules."""
    if not (module.name.startswith("host") or ".host." in f".{module.name}."):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not all(isinstance(stmt, ast.Pass) for stmt in node.body):
            continue
        kind = node.type
        broad = kind is None or (
            dotted_name(kind) in ("Exception", "BaseException")
        )
        if broad:
            yield rule.finding(
                _location(module, node),
                "broad exception handler silently swallows everything",
                suggested_fix="narrow to the expected exception types, "
                "re-raise, or record into the ScanReport",
            )


@STATIC_RULES.register(
    "RC007",
    "shm-attach-unreleased",
    Severity.WARNING,
    "Attached (create=False) segments are closed in the attaching function "
    "or parked in a module-level registry a teardown path owns — dangling "
    "attachments keep /dev/shm mappings alive for the process lifetime.",
)
def check_attach_released(rule: Rule, module: SourceModule) -> Iterator[Finding]:
    """Attach sites must close or register the handle."""
    for call in _calls_in(module.tree):
        if not _is_sharedmemory_call(call):
            continue
        if is_constant(keyword_value(call, "create"), True):
            continue  # creations are RC001's business
        func = enclosing_function(call)
        if func is None:
            yield rule.finding(
                _location(module, call),
                "module-level SharedMemory attach can never be released",
                suggested_fix="attach inside a function with a close() path",
            )
            continue
        closes = any(
            isinstance(c.func, ast.Attribute) and c.func.attr == "close"
            for c in _calls_in(func)
        )
        if closes or _stores_into_module_registry(func):
            continue
        yield rule.finding(
            _location(module, call),
            f"{func.name}() attaches a segment but neither closes it nor "
            "registers it for teardown",
            suggested_fix="close() in a finally, or store the handle in a "
            "module-level registry",
        )
