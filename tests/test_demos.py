"""The demos import only names the package has.

Each ``from tci_spde... import ...`` line of every ``demos/*.py`` is read
with ``ast``, without running the demo, and every imported name must
resolve: as an attribute of the module or as one of its submodules.
"""

import ast
import glob
import importlib
import os

import pytest

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir,
                                      "demos", "*.py")))


def _package_imports(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "tci_spde":
            for alias in node.names:
                yield node.module, alias.name


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
    missing = [f"{module}.{name}" for module, name in _package_imports(path)
               if not _resolves(module, name)]
    assert not missing, missing
