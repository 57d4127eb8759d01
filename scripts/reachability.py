#!/usr/bin/env python3
"""List the ``src/`` definitions that nothing outside ``tests/`` references.

Usage: ``python scripts/reachability.py`` (no options; runs from any directory).

Definitions are the module-level functions and classes of ``src/`` (public and
private) and the public methods of its module-level classes.  References are
read from the AST of every Python file under ``src/``, ``examples/``,
``benchmarks/``, ``scripts/`` and ``perfbench/``:

* loaded names, attribute names and ``from ... import`` names;
* decorator uses (they are names or attributes too);
* string constants equal to a name, because ``perfbench/layers.py`` patches
  functions by name.

A method is only reached by an attribute read or a string constant: a bare
name that happens to equal it (a local variable, say) does not count.

None of these count: the definition itself or a reference from inside its own
body, its ``__all__`` entry, the imports of an ``__init__.py`` (re-exports) and
docstrings.  Comments are not in the AST.  Matching is by name, not by type: a
method is reached when an attribute of that name is read anywhere.  So the check
can miss dead code, but it does not report code that something calls.

Each unreached definition that is not on ``KEEP`` is printed as
``path:line: name`` and the exit status is 1.  A ``KEEP`` entry that no longer
names an unreached definition is reported as stale and also fails the check.
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
REFERRERS = ("src", "examples", "benchmarks", "scripts", "perfbench")

# Unreached definitions kept on purpose: "<path under src/>::<qualname>" -> reason.
_PRESET = "decorator-registered preset: specs reach it by registry key"
KEEP: dict[str, str] = {
    "repro/api/registry.py::_figure1_topology_entry": _PRESET,
    "repro/api/registry.py::_star_topology_entry": _PRESET,
    "repro/api/registry.py::_mesh_random_topology_entry": _PRESET,
    "repro/api/registry.py::_lying_agent": _PRESET,
    "repro/api/registry.py::_colluding_agent": _PRESET,
    "repro/api/registry.py::_marker_drop_condition": _PRESET,
    "repro/api/registry.py::_biased_treatment_condition": _PRESET,
    "repro/service/app.py::_ThreadingWSGIServer.handle_error": (
        "framework hook: socketserver calls it on a torn request"
    ),
    "repro/service/app.py::_QuietHandler.log_message": (
        "framework hook: http.server calls it for every request"
    ),
}


def _definitions(path: Path, tree: ast.Module) -> list[tuple[str, str, int]]:
    """``(key, name, line)`` of every module-level function and class and public method."""
    prefix = f"{path.relative_to(SOURCE).as_posix()}::"
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        found.append((prefix + node.name, node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                    not member.name.startswith("_")
                ):
                    qualname = f"{node.name}.{member.name}"
                    found.append((prefix + qualname, member.name, member.lineno))
    return found


class _References(ast.NodeVisitor):
    """Every name a file references, with the definitions it is referenced from.

    ``found[name]`` lists ``(by_attribute, scope)`` pairs; ``by_attribute`` is
    true for attribute reads and string constants, the references that reach
    a method.
    """

    def __init__(
        self, prefix: str, is_init: bool, found: dict[str, list[tuple[bool, tuple[str, ...]]]]
    ):
        self.prefix = prefix
        self.is_init = is_init
        self.found = found
        self.scope: tuple[str, ...] = ()
        self.qualname: list[str] = []

    def _add(self, name: str, by_attribute: bool = False) -> None:
        self.found[name].append((by_attribute, self.scope))

    def _body(self, node, body: list[ast.stmt]) -> None:
        self.qualname.append(node.name)
        outer = self.scope
        self.scope = outer + (self.prefix + ".".join(self.qualname),)
        for statement in _without_docstring(body):
            self.visit(statement)
        self.scope = outer
        self.qualname.pop()

    def visit_FunctionDef(self, node) -> None:
        for child in (*node.decorator_list, node.args, node.returns):
            if child is not None:
                self.visit(child)
        self._body(node, node.body)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for child in (*node.decorator_list, *node.bases, *node.keywords):
            self.visit(child)
        self._body(node, node.body)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self._add(node.attr, by_attribute=True)
        self.visit(node.value)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if not self.is_init:
            for alias in node.names:
                self._add(alias.name)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and node.value.isidentifier():
            self._add(node.value, by_attribute=True)

    def visit_Assign(self, node: ast.Assign) -> None:
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if not (isinstance(node.target, ast.Name) and node.target.id == "__all__"):
            self.generic_visit(node)


def _without_docstring(body: list[ast.stmt]) -> list[ast.stmt]:
    first = body[0] if body else None
    if (
        isinstance(first, ast.Expr)
        and isinstance(first.value, ast.Constant)
        and isinstance(first.value.value, str)
    ):
        return body[1:]
    return body


def unreached() -> list[tuple[str, str, int]]:
    """``(key, path, line)`` of every definition nothing outside ``tests/`` references."""
    definitions = []
    references: dict[str, list[tuple[bool, tuple[str, ...]]]] = defaultdict(list)
    for directory in REFERRERS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            prefix = ""
            if directory == "src":
                definitions += [(*d, path) for d in _definitions(path, tree)]
                prefix = f"{path.relative_to(SOURCE).as_posix()}::"
            visitor = _References(prefix, path.name == "__init__.py", references)
            for statement in _without_docstring(tree.body):
                visitor.visit(statement)
    found = []
    for key, name, line, path in definitions:
        is_method = "." in key.split("::", 1)[1]
        if not any(
            key not in scope and (by_attribute or not is_method)
            for by_attribute, scope in references.get(name, ())
        ):
            found.append((key, path.relative_to(ROOT).as_posix(), line))
    return found


def main() -> int:
    found = unreached()
    failures = [(key, path, line) for key, path, line in found if key not in KEEP]
    for key, path, line in failures:
        print(f"{path}:{line}: {key.split('::', 1)[1]}")
    stale = sorted(set(KEEP) - {key for key, _, _ in found})
    for key in stale:
        print(f"stale KEEP entry (reached or gone): {key}")
    print(
        f"{len(found)} unreached definitions: {len(found) - len(failures)} kept, "
        f"{len(failures)} not kept, {len(stale)} stale keep entries",
        file=sys.stderr,
    )
    return 1 if failures or stale else 0


if __name__ == "__main__":
    sys.exit(main())
