"""The compile walk of a controlled run prices nothing.

A controlled run compiles in two steps: a symbolic walk of the region
trace against the controller's hooks, then one pricing pass per
compiled schedule.  The split is sound only while no controller hook
can observe a priced value, so the walk must never reach the node's
power model.  Each test compiles a schedule while the node's power
model refuses every call, then checks that the priced run still equals
the recursive engine's to the bit.
"""

import pytest

from repro import config
from repro.execution.simulator import ExecutionSimulator, OperatingPoint
from repro.hardware.node import ComputeNode
from repro.ptf.experiments import _ScheduleController
from repro.readex.rrl import RRL
from repro.readex.tuning_model import TuningModel
from repro.workloads import registry
from tests.oracles.engine import meter_state, recursive_run
from tests.oracles.static import StaticController, static_rrl


class _PricingGuard:
    """Stands in for a node's power model; while ``armed``, any call
    into the model raises."""

    def __init__(self, model):
        self._model = model
        self.armed = False

    def __getattr__(self, name):
        value = getattr(self._model, name)
        if self.armed and callable(value):
            raise AssertionError(f"the compile walk called PowerModel.{name}")
        return value


class _GuardedCompile:
    """Arms ``guard`` for exactly the span of ``controller``'s compile."""

    def __init__(self, controller, guard: _PricingGuard):
        self.controller = controller
        self.guard = guard
        self.compiles = 0

    def compile_schedule(self, app, node, **kwargs):
        self.guard.armed = True
        try:
            schedule = self.controller.compile_schedule(app, node, **kwargs)
        finally:
            self.guard.armed = False
        self.compiles += 1
        return schedule


def fresh_tmm(app) -> TuningModel:
    """A new tuning model object, so its schedule cache starts empty
    and the compile really walks."""
    best = {"phase": OperatingPoint(2.5, 2.1, 24)}
    for i, region in enumerate(app.phase.children[:4]):
        best[region.name] = OperatingPoint(2.4 if i % 2 else 2.2, 1.9, 20)
    return TuningModel.from_best_configs(app.name, "phase", best)


def experiment_schedule(app) -> list[OperatingPoint]:
    return [
        OperatingPoint(2.4, 2.0, 24),
        OperatingPoint(1.8, 2.6, 24),
        OperatingPoint(2.0, 1.6, 24),
    ][: app.phase_iterations]


STATIC = OperatingPoint(2.1, 1.7, 20)

CONTROLLERS = {
    "rrl": lambda app: RRL(fresh_tmm(app)),
    "static": lambda app: static_rrl(app, STATIC),
    "ptf": lambda app: _ScheduleController(experiment_schedule(app), app.phase.name),
}

#: The recursive engine's controller where it differs from the compiled
#: one: static tuning is checked against the oracle static controller.
REFERENCES = {"static": lambda app: StaticController(STATIC)}


@pytest.mark.parametrize("kind", sorted(CONTROLLERS))
@pytest.mark.parametrize("app_name", ["Lulesh", "Mcb"])
@pytest.mark.parametrize("instrumented", [True, False])
def test_compile_walk_never_prices(kind, app_name, instrumented):
    app = registry.build(app_name)
    make = CONTROLLERS[kind]
    threads = 24 if kind == "ptf" else None

    node = ComputeNode(0)
    reference = ComputeNode(0)
    if kind == "ptf":
        for n in (node, reference):
            n.set_frequencies(
                config.CALIBRATION_CORE_FREQ_GHZ, config.CALIBRATION_UNCORE_FREQ_GHZ
            )
    guard = _PricingGuard(node.power_model)
    node.power_model = guard
    controller = make(app)
    guarded = _GuardedCompile(controller, guard)

    run_key = ("walk", kind)
    result = ExecutionSimulator(node).run(
        app,
        threads=threads,
        controller=guarded,
        instrumented=instrumented,
        run_key=run_key,
    )
    reference_controller = REFERENCES.get(kind, make)(app)
    expected = recursive_run(
        reference,
        app,
        threads=threads,
        controller=reference_controller,
        instrumented=instrumented,
        run_key=run_key,
    )

    assert guarded.compiles == 1
    assert result == expected
    assert meter_state(node) == meter_state(reference)
    if kind == "rrl":
        assert controller.stats == reference_controller.stats
