"""Listener events replayed from the fleet kernel vs the recursive engine.

:meth:`~repro.execution.simulator.ExecutionSimulator.run` delivers
listener events after the run, replayed from the priced run.  Every
listener must see exactly what the recursive engine
(``tests/oracles/engine.py``) shows it while it runs: the same enter and
exit events, in the same order, with the same times and metric dicts,
compared with ``==``.  The cases cover every benchmark with counters
on and off under full and filtered instrumentation, and every benchmark
under the RRL and under static tuning (the RRL under a default-only
tuning model, against the oracle static controller).
"""

import pytest

from repro.execution.simulator import ExecutionSimulator, OperatingPoint
from repro.readex.rrl import RRL
from repro.readex.tuning_model import TuningModel
from repro.scorep.hdeem_plugin import HdeemMetricPlugin
from repro.scorep.instrumentation import Instrumentation
from repro.scorep.papi_plugin import PapiMetricPlugin
from repro.scorep.profile import ProfileCollector
from repro.scorep.trace import TraceCollector
from repro.workloads import registry
from repro.workloads.region import RegionKind
from tests.oracles.engine import make_node, meter_state, recursive_run
from tests.oracles.static import StaticController, static_rrl

BENCHMARKS = registry.benchmark_names()

UNCONTROLLED = [
    (name, counters, filtered)
    for name in BENCHMARKS
    for counters in (False, True)
    for filtered in (False, True)
]


class Recorder:
    """Records every event as a plain tuple."""

    def __init__(self):
        self.events = []

    def on_enter(self, region, iteration, time_s):
        self.events.append(("enter", region.name, iteration, time_s))

    def on_exit(self, region, iteration, time_s, metrics):
        self.events.append(("exit", region.name, iteration, time_s, dict(metrics)))


def filtered_instrumentation(app):
    """Every second function region filtered, so probed regions nest
    inside unprobed ones and the other way round."""
    functions = [r.name for r in app.main.walk() if r.kind is RegionKind.FUNCTION]
    return Instrumentation(app=app, filtered=set(functions[::2]))


def observe(run, app, **kwargs):
    """Run with a recorder, a profile and a trace with metric plugins
    attached; returns the result and everything the listeners saw."""
    recorder = Recorder()
    profile = ProfileCollector(app.name)
    trace = TraceCollector(
        app.name,
        metric_plugins=(
            HdeemMetricPlugin(),
            PapiMetricPlugin(("PAPI_TOT_INS", "PAPI_L3_TCM", "PAPI_TOT_CYC")),
        ),
    )
    result = run(app, listeners=(recorder, profile, trace), **kwargs)
    return result, recorder.events, profile.profile().to_dict(), trace.trace().records


def assert_same_observation(
    app, controller_factory=None, *, reference_factory=None, **kwargs
):
    """The simulator's run and the recursive engine's deliver the same
    events and results; the recursive run's controller comes from
    ``reference_factory`` when given."""
    n1, n2 = make_node(), make_node()
    c1 = c2 = None
    if controller_factory is not None:
        c1 = controller_factory()
        c2 = (reference_factory or controller_factory)()
    got = observe(ExecutionSimulator(n1).run, app, controller=c1, **kwargs)
    want = observe(
        lambda *a, **kw: recursive_run(n2, *a, **kw), app, controller=c2, **kwargs
    )
    result, events, profile, records = got
    assert events, "no events delivered"
    assert events == want[1]
    assert all(type(event[3]) is float for event in events)
    assert profile == want[2]
    assert records == want[3]
    assert result == want[0]
    assert meter_state(n1) == meter_state(n2)
    if hasattr(c1, "stats") and hasattr(c2, "stats"):
        assert c1.stats == c2.stats


def tuning_model(app) -> TuningModel:
    regions = [r.name for r in app.phase.children][:4]
    best = {"phase": OperatingPoint(2.5, 2.1, 24)}
    for i, name in enumerate(regions):
        best[name] = OperatingPoint(2.4 if i % 2 else 2.5, 2.0, 24)
    return TuningModel.from_best_configs(app.name, "phase", best)


class TestListenerContract:
    @pytest.mark.parametrize("name,counters,filtered", UNCONTROLLED)
    def test_uncontrolled_events_match_recursion(self, name, counters, filtered):
        app = registry.build(name)
        instrumentation = filtered_instrumentation(app) if filtered else None
        assert_same_observation(
            app,
            collect_counters=counters,
            instrumentation=instrumentation,
            run_key=("listen", name),
        )

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_rrl_events_match_recursion(self, name):
        app = registry.build(name)
        model = tuning_model(app)
        assert_same_observation(app, lambda: RRL(model), run_key=("rrl", name))

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_static_controller_events_match_recursion(self, name):
        app = registry.build(name)
        point = OperatingPoint(2.2, 1.8, 24)
        assert_same_observation(
            app,
            lambda: static_rrl(app, point),
            reference_factory=lambda: StaticController(point),
            run_key=("static", name),
        )

    def test_filtered_rrl_events_match_recursion(self):
        app = registry.build("Lulesh")
        model = tuning_model(app)
        assert_same_observation(
            app,
            lambda: RRL(model),
            instrumentation=filtered_instrumentation(app),
            run_key=("rrl-filtered",),
        )

    def test_events_follow_the_run_on_a_used_node(self):
        """A second run on one node replays its events from that node's
        clock, exactly like the recursion."""
        app = registry.build("FT")
        n1, n2 = make_node(), make_node()
        ExecutionSimulator(n1).run(app, run_key=("first",))
        recursive_run(n2, app, run_key=("first",))
        got = observe(ExecutionSimulator(n1).run, app, run_key=("second",))
        want = observe(
            lambda *a, **kw: recursive_run(n2, *a, **kw), app, run_key=("second",)
        )
        assert got[1] == want[1]
        assert got[1][0][3] > 0.0
