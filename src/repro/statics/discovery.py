"""Source discovery and pragma parsing for the statics engine.

The engine analyzes the repository's own Python source, so its input model
is deliberately small: a :class:`SourceModule` is one parsed file (dotted
module name, path, AST, source lines) plus its suppression pragmas.

Suppression pragmas are line-anchored comments::

    segment = make_segment()  # statics: ignore[RC001] owned by the caller

    # statics: ignore[RC004, RC006] scratch copy; the caller reports errors
    path.write_text(payload)

A pragma suppresses the listed rule ids on its own line and on the line
immediately below it (so long statements can carry the pragma on a
dedicated comment line above).  A pragma **must** carry a justification —
a reasonless pragma suppresses nothing; the finding survives with a note,
so CI review always sees either a fix or a written-down why.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.lint import rule_pattern_matches

#: One pragma selector: an exact id (``RC001``), a same-family range
#: (``RC001-RC004``) or a glob (``KC00*``) — the same grammar the CLI's
#: ``--ignore`` flag accepts (:func:`repro.lint.rule_pattern_matches`).
_PRAGMA_ITEM = r"[A-Z]{2}\d{3}(?:\s*-\s*[A-Z]{2}\d{3})?|[A-Z]{2}\d{0,3}\*"

#: ``# statics: ignore[RC001]`` or ``# statics: ignore[RC001, OB00*] why``.
PRAGMA_RE = re.compile(
    r"#\s*statics:\s*ignore\[\s*((?:{item})(?:\s*,\s*(?:{item}))*)\s*\]\s*(.*)$".format(
        item=_PRAGMA_ITEM
    )
)


@dataclass(frozen=True)
class Pragma:
    """One suppression comment: which rules it silences and why."""

    line: int
    rule_ids: Tuple[str, ...]
    reason: str

    @property
    def justified(self) -> bool:
        return bool(self.reason.strip())

    def covers(self, rule_id: str) -> bool:
        """True when any listed selector (id, range, glob) matches."""
        return any(rule_pattern_matches(item, rule_id) for item in self.rule_ids)


def parse_pragmas(source: str) -> Dict[int, Pragma]:
    """Map line number (1-based) -> pragma for every pragma comment."""
    pragmas: Dict[int, Pragma] = {}
    for number, text in enumerate(source.splitlines(), start=1):
        match = PRAGMA_RE.search(text)
        if match is None:
            continue
        ids = tuple(part.strip() for part in match.group(1).split(","))
        pragmas[number] = Pragma(line=number, rule_ids=ids, reason=match.group(2).strip())
    return pragmas


@dataclass(frozen=True)
class SourceModule:
    """One analyzed source file."""

    name: str
    path: Path
    tree: ast.Module = field(compare=False)
    source: str = field(compare=False, default="")
    pragmas: Dict[int, Pragma] = field(compare=False, default_factory=dict)

    def pragma_for(self, line: int, rule_id: str) -> Optional[Pragma]:
        """The pragma covering ``rule_id`` at ``line``, if any.

        A pragma anchors to its own line and to the line directly below it.
        """
        for candidate in (self.pragmas.get(line), self.pragmas.get(line - 1)):
            if candidate is not None and candidate.covers(rule_id):
                return candidate
        return None


def module_from_source(
    source: str, *, name: str = "<memory>", path: Union[str, Path] = "<memory>"
) -> SourceModule:
    """Build a :class:`SourceModule` from a source string (tests, tools)."""
    return SourceModule(
        name=name,
        path=Path(path),
        tree=ast.parse(source),
        source=source,
        pragmas=parse_pragmas(source),
    )


def _module_name(root: Path, path: Path) -> str:
    """Dotted name of ``path`` relative to the package root's parent."""
    relative = path.relative_to(root).with_suffix("")
    parts = [root.name] + list(relative.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def discover_modules(root: Union[str, Path]) -> Iterator[SourceModule]:
    """Parse every ``*.py`` under ``root`` (a package directory) in order.

    Files that fail to parse are yielded as empty modules with a
    ``SyntaxError`` recorded nowhere — the engine turns them into findings
    via :func:`repro.statics.engine.analyze_module`; here they are simply
    skipped so one broken file cannot abort a whole run.
    """
    root = Path(root).resolve()
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        source = path.read_text()
        try:
            tree = ast.parse(source)
        except SyntaxError:
            continue
        yield SourceModule(
            name=_module_name(root, path),
            path=path,
            tree=tree,
            source=source,
            pragmas=parse_pragmas(source),
        )


def attach_parents(tree: ast.AST) -> None:
    """Annotate every node with ``.statics_parent`` (None at the root)."""
    setattr(tree, "statics_parent", None)
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            setattr(child, "statics_parent", parent)


def enclosing_function(node: ast.AST) -> Optional[ast.AST]:
    """Nearest enclosing function/async-function def (requires parents)."""
    current = getattr(node, "statics_parent", None)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return current
        current = getattr(current, "statics_parent", None)
    return None


def iter_functions(tree: ast.Module) -> Iterator[ast.AST]:
    """Every function/async-function definition in the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> Optional[str]:
    """Dotted name of a call's callee (``shared_memory.SharedMemory``)."""
    return dotted_name(node.func)


def keyword_value(node: ast.Call, name: str) -> Optional[ast.expr]:
    for keyword in node.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def is_constant(node: Optional[ast.expr], value: object) -> bool:
    """``node`` is a literal equal to ``value`` (bool/None matched exactly)."""
    if not isinstance(node, ast.Constant):
        return False
    if value is None or isinstance(value, bool):
        return node.value is value
    return type(node.value) is type(value) and node.value == value
