import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "rc").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_the_package_imports_only_the_standard_library(path):
    # the package needs nothing beyond the standard library; sympy and
    # hypothesis are test dependencies only
    outside = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        outside += [(node.lineno, name) for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside
