"""List the functions of the package that no CLI run enters.

Runs every subcommand on every ``demos/configs/*.json`` in this process,
one worker, with ``sys.setprofile`` noting each function of
``src/tci_spde`` that is entered.  Then prints every function or method
defined there that no run entered, with its line count (decorators
included).  Some of those the ``tools/configs/*.json`` of
``compare_outputs.py`` reach, such as ``terminal_h_functional`` and
``linear_probe_functional``, so a byte-identity check still runs them.
Run outputs go to a temporary directory.  Usage:

    python tools/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import glob
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "tci_spde")
SUBCOMMANDS = ("audit", "constants", "simulate", "verify-t2", "verify-t1",
               "inequalities")


def defined() -> list[tuple[str, int, str, int]]:
    """(path, first line, qualified name, line count) of every function and
    method in the package, nested ones included; the first line is that of
    the first decorator, as the function's code object records it."""
    found = []

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                found.append((path, first, name, child.end_lineno - first + 1))
                visit(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path) as fh:
            visit(ast.parse(fh.read(), filename=path), path, "")
    return found


def entered() -> set[tuple[str, int]]:
    """(path, first line) of every package function that the runs enter."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    os.environ["TCI_SPDE_WORKERS"] = "1"
    sys.path.insert(0, os.path.dirname(PACKAGE))
    configs = sorted(glob.glob(os.path.join(ROOT, "demos", "configs", "*.json")))
    sink = io.StringIO()
    with tempfile.TemporaryDirectory(prefix="reach_") as work, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        sys.setprofile(profile)
        try:
            from tci_spde.cli import main
            for config in configs:
                stem = os.path.splitext(os.path.basename(config))[0]
                for sub in SUBCOMMANDS:
                    main([sub, "--config", config,
                          "--out", os.path.join(work, f"{stem}.{sub}")])
        finally:
            sys.setprofile(None)
    return {(os.path.abspath(path), line) for path, line in seen}


def main() -> int:
    reached = entered()
    missed = [(path, first, name, count) for path, first, name, count in defined()
              if (path, first) not in reached]
    for path, first, name, count in missed:
        print(f"{os.path.basename(path)}:{first}  {name}  ({count} lines)")
    print(f"{len(missed)} functions ({sum(m[3] for m in missed)} lines) "
          f"not entered by any subcommand on demos/configs/*.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
