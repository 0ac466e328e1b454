"""The runtime needs numpy and the standard library only."""

import ast
import sys
from pathlib import Path

import pytest

import coneradon

SOURCES = sorted(Path(coneradon.__file__).resolve().parent.glob("*.py"))


def absolute_imports(path):
    # Top-level names of the module's absolute imports; relative ones are
    # the package's own modules.
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_only_numpy_and_the_standard_library(path):
    foreign = {name for name in absolute_imports(path)
               if name != "numpy" and name not in sys.stdlib_module_names}
    assert not foreign, f"{path.name} imports {sorted(foreign)}"
