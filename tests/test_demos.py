"""The demos import only names the package has, call them as their
signatures allow, and run.

Each ``from tci_spde... import ...`` line of every ``demos/*.py`` is read
with ``ast``, without running the demo, and every imported name must
resolve: as an attribute of the module or as one of its submodules.
Every call of an imported name must bind to its signature: the call's
positional count and keyword names, as ``inspect.Signature.bind`` checks
them.  Calls that spread ``*`` or ``**`` arguments are skipped.  The
static checks cannot see a stale attribute of a returned object, so each
demo that writes no files is also run in a subprocess and must exit 0.
"""

import ast
import glob
import importlib
import inspect
import os
import subprocess
import sys

import pytest

import tci_spde

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir,
                                      "demos", "*.py")))


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), filename=path)


def _package_imports(path):
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "tci_spde":
            for alias in node.names:
                yield node.module, alias


def _resolves(module, name):
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_there_are_demos():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_imports_resolve(path):
    missing = [f"{module}.{alias.name}"
               for module, alias in _package_imports(path)
               if not _resolves(module, alias.name)]
    assert not missing, missing


def _package_calls(path):
    """(line, module, name, positional count, keyword names) of every call
    of a name imported from the package, except calls with * or **."""
    imported = {alias.asname or alias.name: (module, alias.name)
                for module, alias in _package_imports(path)}
    for node in ast.walk(_parse(path)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in imported):
            continue
        if any(isinstance(arg, ast.Starred) for arg in node.args) \
                or any(kw.arg is None for kw in node.keywords):
            continue
        module, name = imported[node.func.id]
        yield (node.lineno, module, name, len(node.args),
               [kw.arg for kw in node.keywords])


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_calls_bind_to_package_signatures(path):
    stale = []
    for line, module, name, n_args, keywords in _package_calls(path):
        obj = getattr(importlib.import_module(module), name)
        try:
            inspect.signature(obj).bind(*range(n_args), **dict.fromkeys(keywords))
        except TypeError as exc:
            stale.append(f"line {line}: {module}.{name}: {exc}")
    assert not stale, stale


# run_cli_reports.py writes its reports into demos/output/
RUNNABLE = [p for p in DEMOS if os.path.basename(p) != "run_cli_reports.py"]


@pytest.mark.parametrize("path", RUNNABLE, ids=os.path.basename)
def test_demo_runs(path):
    src = os.path.dirname(os.path.dirname(tci_spde.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, path], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
