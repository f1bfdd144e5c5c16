"""One seed per measurement: the cluster's.

``Cluster(n, seed=S)`` fixes both node variability and measurement
noise, so a library measurement names its seed once, through its
``cluster`` argument, and the planned jobs carry that seed alone.
Every module this rule covers is parsed and its signatures checked:

* no public function or constructor in ``analysis/``,
  ``modeling/dataset.py`` or ``ptf/`` takes a ``seed`` of its own;
* no job builder in ``campaign/plan.py`` defaults ``seed`` or
  ``node_id`` — each caller says which hardware it plans for;
* ``node_seed`` names no parameter or dataclass field in ``src/``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The modules whose measurements take their seed from the cluster.
CLUSTER_SEEDED = sorted(
    [
        *(SRC / "analysis").glob("*.py"),
        SRC / "modeling" / "dataset.py",
        *(SRC / "ptf").glob("*.py"),
    ]
)


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def parameters(func: ast.FunctionDef) -> dict[str, bool]:
    """Each parameter's name -> whether it has a default."""
    args = func.args
    positional = args.posonlyargs + args.args
    defaulted = len(args.defaults)
    found = {
        a.arg: i >= len(positional) - defaulted for i, a in enumerate(positional)
    }
    for a, default in zip(args.kwonlyargs, args.kw_defaults):
        found[a.arg] = default is not None
    return found


def public_functions(tree: ast.Module):
    """``(qualified name, def)`` of every module-level public function
    and every public method or constructor of a public class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (
                    item.name == "__init__" or not item.name.startswith("_")
                ):
                    yield f"{node.name}.{item.name}", item


def names_node_seed(tree: ast.Module) -> list[int]:
    """Lines where ``node_seed`` is a parameter or a class field."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if "node_seed" in parameters(node):
                lines.append(node.lineno)
        elif isinstance(node, ast.ClassDef):
            lines += [
                item.lineno
                for item in node.body
                if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and item.target.id == "node_seed"
            ]
    return lines


def test_measurements_take_no_seed():
    assert len(CLUSTER_SEEDED) > 10
    offending = [
        f"{path.relative_to(SRC)}::{name}"
        for path in CLUSTER_SEEDED
        for name, func in public_functions(parse(path))
        if "seed" in parameters(func)
    ]
    assert offending == []


#: Every builder of ``campaign/plan.py`` that plans hardware ids.
JOB_BUILDERS = {
    "counter_jobs", "grid_jobs", "sweep_jobs", "static_search_jobs",
    "savings_jobs", "savings_campaign_jobs", "plan_dataset_campaign",
    "plan_static_campaign",
}


def test_job_builders_require_seed_and_node_id():
    planners = {
        name: parameters(func)
        for name, func in public_functions(parse(SRC / "campaign" / "plan.py"))
        if {"seed", "node_id"} & set(parameters(func))
    }
    assert set(planners) == JOB_BUILDERS
    defaulted = {
        name: sorted(p for p in ("seed", "node_id") if params.get(p, True))
        for name, params in planners.items()
    }
    assert {name: d for name, d in defaulted.items() if d} == {}


def test_node_seed_names_nothing():
    offending = {}
    for path in sorted(SRC.rglob("*.py")):
        lines = names_node_seed(parse(path))
        if lines:
            offending[str(path.relative_to(SRC))] = lines
    assert offending == {}


def test_detectors_see_what_they_guard():
    tree = ast.parse(
        "def measure(app, *, seed=1): ...\n"
        "def plan(app, *, node_id, seed): ...\n"
        "def legacy(a, seed=2, node_id=0): ...\n"
        "def _private(seed): ...\n"
        "class Tuner:\n"
        "    def __init__(self, cluster, *, seed=3): ...\n"
        "    def _helper(self, seed): ...\n"
        "class Member:\n"
        "    node_seed: int | None = None\n"
        "def run(node_seed): ...\n"
    )
    functions = dict(public_functions(tree))
    assert sorted(functions) == ["Tuner.__init__", "legacy", "measure", "plan", "run"]
    assert parameters(functions["measure"]) == {"app": False, "seed": True}
    assert parameters(functions["plan"]) == {
        "app": False, "node_id": False, "seed": False,
    }
    assert parameters(functions["legacy"]) == {
        "a": False, "seed": True, "node_id": True,
    }
    assert parameters(functions["Tuner.__init__"])["seed"] is True
    assert names_node_seed(tree) == [9, 10]
