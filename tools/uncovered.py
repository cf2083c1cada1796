"""Statements inside the library's functions that neither the test suite
nor the benchmark workloads run.

    PYTHONPATH=src python3 tools/uncovered.py

Runs the tier-1 suite in this process under `sys.settrace` (and
`threading.settrace`, for threads the code starts), then one pass over
each benchmark workload's seed-1 pool through `perfbench/workloads.py`:
`run_item` on every item and `in_process_report` on the config the
benchmark's CLI check runs.  Then, per module of `src/pnkit`, it prints
every statement inside a function body that never ran: no line of a
simple statement, nor of a compound statement's header, ran.
Module- and class-level statements are left out: importing runs them.
Subprocesses, such as the CLI runs of the benchmark contract tests, are
not traced.  The exit status is pytest's.

Needs the standard library only; `coverage` is not used.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pnkit"


def function_statements(tree: ast.Module) -> dict[int, range]:
    """First line -> the lines that start each statement inside a
    function body: all of a simple statement's lines, the header of a
    compound one.  Docstrings are left out: they are constants, not run."""
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    out: dict[int, range] = {}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in (n for stmt in fn.body for n in ast.walk(stmt)):
            if not isinstance(node, ast.stmt) or id(node) in docstrings \
                    or isinstance(node, (ast.Global, ast.Nonlocal)):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            body = getattr(node, "body", None)
            last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
            out[node.lineno] = range(first, last + 1)
    return out


def trace_lines(executed: dict[str, set[int]]):
    """A global trace function that records the lines run in the
    package's own files."""
    prefix = str(PACKAGE)

    def global_trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = executed.setdefault(filename, set())
        lines.add(frame.f_lineno)

        def local_trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local_trace
        return local_trace
    return global_trace


def run_workloads() -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        items = workload.build(1, False)
        failed = sum(bool(workloads.run_item(workload, item)) for item in items)
        workloads.in_process_report(workload, items[0].config)
        print(f"workload {name}: {len(items)} items, {failed} with failed checks", flush=True)


def main() -> int:
    import pytest

    executed: dict[str, set[int]] = {}
    tracer = trace_lines(executed)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                              str(ROOT / "tests")])
        run_workloads()
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        statements = function_statements(ast.parse(source))
        ran = executed.get(str(path), set())
        missed = sorted(k for k, span in statements.items() if ran.isdisjoint(span))
        total += len(missed)
        print(f"\n{path.relative_to(ROOT)}: {len(missed)} of {len(statements)} "
              f"statements in functions not run")
        for lineno in missed:
            print(f"  {lineno:5d}  {lines[lineno - 1].strip()}")
    print(f"\n{total} statements not run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
