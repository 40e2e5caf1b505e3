"""Print the statements of each src/leoplan module that no non-test caller reaches.

Runs the callers that are not tests under a line trace (sys.settrace): the
CLI digest sweep of tests/test_cli_digests.py (every subcommand on both
bundled scenarios, and its variants), the five demos under demos/, and ops
0-2 of seed 0 of each workload in perfbench/workloads.py with their output
checks, as perfbench/run.py runs them (the perfbench files are only read).
Per module it prints each statement that none of them reaches, with its
line number and first source line. A statement is reached when a line
event falls on one of its own lines: all of a simple statement's, and a
compound statement's header (decorators included) up to its body; an
except clause counts as a statement, docstrings and global or nonlocal
declarations do not.

What it prints is a report for a reader: it asserts nothing and exits 0.
Run from the repository root:

    python tools/reach.py
"""

import ast
import contextlib
import importlib.util
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "leoplan"
OPS = 3  # ops 0 .. OPS - 1 of seed 0, per workload


def own_lines(node) -> range:
    """The lines of a statement that no statement nested in it holds."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(body[0].lineno, node.lineno + 1))
    return range(first, node.end_lineno + 1)


def statements(source: str) -> list:
    """(line, own lines) of every statement and except clause; docstrings
    and global and nonlocal declarations, which run no code, are left out."""
    nodes = list(ast.walk(ast.parse(source)))
    docstrings = {id(body[0]) for node in nodes for body in [getattr(node, "body", None)]
                  if isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                  and isinstance(body[0].value, ast.Constant)
                  and isinstance(body[0].value.value, str)}
    return sorted((node.lineno, own_lines(node)) for node in nodes
                  if isinstance(node, (ast.stmt, ast.ExceptHandler))
                  and not isinstance(node, (ast.Global, ast.Nonlocal))
                  and id(node) not in docstrings)


def traced(run) -> dict:
    """Run run() under a line trace of the package's files; {file: lines}."""
    root = str(PACKAGE) + os.sep
    hits: dict = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(root):
            return None
        hits.setdefault(name, set())
        return local

    sys.settrace(start)
    try:
        run()
    finally:
        sys.settrace(None)
    return hits


def callers() -> None:
    """The CLI digest sweep, the demos and the checked benchmark ops, output
    discarded."""
    sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]
    import test_cli_digests

    with tempfile.TemporaryDirectory() as work:
        test_cli_digests.sweep(Path(work))
    for demo in sorted((REPO / "demos").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(demo), run_name="__main__")
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  REPO / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS.values():
        for op_index in range(OPS):
            workload.check(workload.run(workload.make_input(0, op_index)))


def main() -> None:
    os.chdir(REPO)
    hits = traced(callers)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        reached = hits.get(str(path), set())
        unreached = [line for line, lines in statements(source)
                     if reached.isdisjoint(lines)]
        total += len(unreached)
        print(f"{path.name}: {len(unreached)} statements unreached")
        for line in unreached:
            print(f"  {line:5}  {text[line - 1].strip()}")
    print(f"total: {total} statements unreached")


if __name__ == "__main__":
    main()
