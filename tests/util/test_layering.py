"""The package never imports from the test tree.

The reference implementations (the recursive engine, the scalar timing
and power models, the per-cell loops) live in ``tests/oracles/`` as
independent checkers of the production fast paths.  Production code
reaching back into them would make the checker part of what it checks,
so every module under ``src/repro`` is parsed and its imports listed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
MODULES = sorted(SRC.rglob("*.py"))


def imported_modules(tree: ast.AST) -> list[str]:
    """Every absolute module name an ``import`` statement names."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.append(node.module)
    return names


def test_package_never_imports_tests():
    assert len(MODULES) > 50
    offending = {}
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names = [
            name
            for name in imported_modules(tree)
            if name == "tests" or name.startswith("tests.")
        ]
        if names:
            offending[str(path.relative_to(SRC))] = names
    assert offending == {}


def test_detector_sees_test_imports():
    tree = ast.parse(
        "import tests.oracles.physics\n"
        "from tests.oracles import engine\n"
        "from .tests import helper\n"
        "def f():\n"
        "    from tests import oracles\n"
    )
    assert sorted(imported_modules(tree)) == [
        "tests",
        "tests.oracles",
        "tests.oracles.physics",
    ]
