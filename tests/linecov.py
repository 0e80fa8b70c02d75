"""Stdlib line coverage of the ``src/qopt`` functions, as a pytest plugin.

pytest does not collect this module; load it by name::

    PYTHONPATH=src:tests python -m pytest -p linecov

While the session runs, ``sys.settrace`` and ``threading.settrace`` record
each line that executes in a ``src/qopt`` file. At the end, the terminal
summary lists every statement inside a function (or method) that never
ran, as ``path:line: source``. Module-level statements are left out: they
run on import. A second section gives each module's line count and
``ast.stmt`` count, and their totals. Tracing slows the suite several times
over.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qopt"
_PREFIX = str(_PACKAGE) + "/"
_hits: dict[str, set[int]] = {}
# One line tracer per file, made on the file's first call and returned for
# every later one: a closure made per call would leave a reference cycle
# (it names itself) for the collector after each traced frame.
_tracers: dict = {}


def _line_tracer(lines: set[int]):
    def trace_lines(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return trace_lines

    return trace_lines


def _trace_calls(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(_PREFIX):
        return None
    tracer = _tracers.get(filename)
    if tracer is None:
        tracer = _tracers[filename] = _line_tracer(_hits.setdefault(filename, set()))
    return tracer


def _own_lines(stmt: ast.stmt) -> range | None:
    """The lines that hold a statement's own code, not its nested bodies;
    None for statements that compile to nothing that executes."""
    if isinstance(stmt, (ast.Global, ast.Nonlocal, ast.Try, ast.TryStar)):
        return None
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
    body = getattr(stmt, "body", None)
    last = body[0].lineno - 1 if isinstance(body, list) and body else stmt.end_lineno
    return range(first, max(first, last) + 1)


def _function_statements(tree: ast.Module):
    """Each statement that lies in the body of a function, nested ones included."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
            body = body[1:]  # a docstring is stored, not executed
        stack = list(body)
        while stack:
            stmt = stack.pop()
            yield stmt
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # its body is walked as a function of its own
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    stack.append(child)
                elif isinstance(child, (ast.ExceptHandler, ast.match_case)):
                    stack.extend(child.body)


def module_sizes() -> list[tuple[str, int, int]]:
    """(module, lines, ``ast.stmt`` nodes) of each ``src/qopt`` module."""
    sizes = []
    for path in sorted(_PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        stmts = sum(isinstance(node, ast.stmt) for node in ast.walk(ast.parse(text)))
        sizes.append((path.name, len(text.splitlines()), stmts))
    return sizes


def never_ran() -> list[tuple[str, int, str]]:
    """(path, line, source) of each function statement with no traced line."""
    missed = []
    for path in sorted(_PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        hit = _hits.get(str(path), set())
        for stmt in _function_statements(ast.parse(text)):
            lines = _own_lines(stmt)
            if lines is not None and hit.isdisjoint(lines):
                missed.append((str(path.relative_to(_PACKAGE.parent.parent)), stmt.lineno, source[stmt.lineno - 1].strip()))
    return sorted(missed)


def pytest_configure(config):
    sys.settrace(_trace_calls)
    threading.settrace(_trace_calls)


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter):
    missed = never_ran()
    terminalreporter.section(f"linecov: {len(missed)} function statements in src/qopt never ran")
    for path, line, text in missed:
        terminalreporter.write_line(f"{path}:{line}: {text}")
    sizes = module_sizes()
    terminalreporter.section("linecov: src/qopt size (lines, statements)")
    for name, lines, stmts in [*sizes, ("total", sum(s[1] for s in sizes), sum(s[2] for s in sizes))]:
        terminalreporter.write_line(f"{name:<16}{lines:>6}{stmts:>6}")
