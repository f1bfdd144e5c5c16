"""Import layering of the package.

The package never imports from the test tree, the benchmark harness
or perfbench.  The reference implementations (the recursive engine,
the scalar timing and power models, the per-cell loops) live in
``tests/oracles/`` as independent checkers of the production fast
paths, and perfbench composes the paper chain itself to check
``repro.paper``.  Production code reaching back into them would make
the checker part of what it checks, so every module under
``src/repro`` is parsed and its imports listed.

Only the execution layer and the campaign engine build fleet-kernel
requests; every other layer measures through the engine.  Only the
fleet kernel compiles a controller's switch schedule.
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


#: The repo's trees outside the package, by top-level import name.
OUTSIDE_PACKAGE = frozenset({"tests", "benchmarks", "perfbench"})


def outside_package(name: str) -> bool:
    return name.split(".")[0] in OUTSIDE_PACKAGE


def test_package_never_imports_tests():
    assert len(MODULES) > 50
    offending = {}
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names = [name for name in imported_modules(tree) if outside_package(name)]
        if names:
            offending[str(path.relative_to(SRC))] = names
    assert offending == {}


def test_detector_sees_test_imports():
    tree = ast.parse(
        "import tests.oracles.physics\n"
        "from tests.oracles import engine\n"
        "from .tests import helper\n"
        "import benchmarks._common\n"
        "from perfbench.paper import run_pass\n"
        "def f():\n"
        "    from tests import oracles\n"
        "    import perfbench\n"
        "import testsuite\n"
        "from repro.paper import run_paper\n"
    )
    assert sorted(n for n in imported_modules(tree) if outside_package(n)) == [
        "benchmarks._common",
        "perfbench",
        "perfbench.paper",
        "tests",
        "tests.oracles",
        "tests.oracles.physics",
    ]


#: The fleet kernel's request API; only the execution layer and the
#: campaign engine build fleets — every other layer measures through
#: the engine, so its runs cache, resume and honour the failure policy.
FLEET_NAMES = frozenset({"fleet_run", "FleetMember"})


def fleet_names_used(tree: ast.AST) -> set[str]:
    """The fleet-kernel names a module imports or reads as attributes."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            used |= {alias.name for alias in node.names} & FLEET_NAMES
        elif isinstance(node, ast.Attribute) and node.attr in FLEET_NAMES:
            used.add(node.attr)
    return used


def may_build_fleets(relative: Path) -> bool:
    return relative.parts[0] == "execution" or relative == Path(
        "campaign", "engine.py"
    )


def test_only_execution_and_engine_build_fleets():
    offending = {}
    for path in MODULES:
        relative = path.relative_to(SRC)
        if may_build_fleets(relative):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names = fleet_names_used(tree)
        if names:
            offending[str(relative)] = sorted(names)
    assert offending == {}


def test_detector_sees_fleet_use():
    tree = ast.parse(
        "from repro.execution.fleet_replay import FleetMember as M\n"
        "def f():\n"
        "    from repro.execution import fleet_replay\n"
        "    return fleet_replay.fleet_run([])\n"
        "from repro.execution.fleet_replay import FleetReplay\n"
    )
    assert fleet_names_used(tree) == {"FleetMember", "fleet_run"}
    assert may_build_fleets(Path("execution", "simulator.py"))
    assert may_build_fleets(Path("campaign", "engine.py"))
    assert not may_build_fleets(Path("campaign", "plan.py"))
    assert not may_build_fleets(Path("analysis", "variability.py"))


def compile_schedule_calls(tree: ast.AST) -> int:
    """How many ``<expr>.compile_schedule(...)`` calls a module makes."""
    return sum(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "compile_schedule"
        for node in ast.walk(tree)
    )


def test_only_the_fleet_kernel_compiles_schedules():
    """A cached compile walks nothing and leaves its node at the entry
    state; the fleet kernel then brings a live node to the schedule's
    exit frequencies.  A compile anywhere else would skip that step."""
    callers = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if compile_schedule_calls(tree):
            callers.add(path.relative_to(SRC))
    assert callers == {Path("execution", "fleet_replay.py")}


def test_detector_sees_compile_schedule_calls():
    tree = ast.parse(
        "schedule = rrl.compile_schedule(app, node, threads=1)\n"
        "def f(member):\n"
        "    return member.controller.compile_schedule(app, node)\n"
        "def compile_schedule(self, app, node):\n"
        "    return compile_schedule_by_walk(self, app, node)\n"
        "text = 'x.compile_schedule('\n"
        "bound = rrl.compile_schedule\n"
    )
    assert compile_schedule_calls(tree) == 2
