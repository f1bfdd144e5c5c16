"""The array timing/power model equals the scalar model bit for bit.

Production prices every run — uncontrolled blocks of members and each
controlled schedule's pricing pass — with
:func:`~repro.execution.timing.region_timings` and
:meth:`~repro.hardware.power.PowerModel.power_array`.  The scalar
reference, ``region_timing`` and ``ScalarPowerModel.power`` in
``tests/oracles/physics.py``, is what the recursive engine prices
with.  Every element must be the same float, so the comparisons use
``np.array_equal`` — never a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import config
from repro.execution import fleet_replay
from repro.execution.controlled_replay import PROBE_COLUMN, SWITCH_COLUMN
from repro.execution.replay import _evaluate_block
from repro.execution.simulator import ExecutionSimulator, OperatingPoint
from repro.execution.timing import region_timings
from repro.hardware.node import ComputeNode
from repro.hardware.power import NodeVariability, PowerModel
from repro.workloads import registry
from repro.workloads.characteristics import WorkloadCharacteristics
from tests.oracles.physics import region_timing, scalar_power_model

GRID = [
    (cf, ucf)
    for cf in config.CORE_FREQUENCIES_GHZ
    for ucf in config.UNCORE_FREQUENCIES_GHZ
]


def fraction(edges=(0.0, 1.0)):
    return st.one_of(st.sampled_from(edges), st.floats(0.0, 1.0))


@st.composite
def characteristics(draw):
    return WorkloadCharacteristics(
        instructions=draw(st.floats(1e3, 1e11)),
        ipc=draw(st.floats(0.2, 4.0)),
        l1d_miss_rate=draw(st.floats(0.0, 0.3)),
        l2d_miss_rate=draw(st.floats(0.0, 1.0)),
        l3d_miss_rate=draw(st.floats(0.0, 1.0)),
        writeback_frac=draw(st.floats(0.0, 1.0)),
        parallel_fraction=draw(fraction()),
        thread_overhead=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.02))),
        overlap=draw(fraction()),
    )


@st.composite
def blocks(draw):
    """W regions, a power model and G operating points: every grid
    point, threads varying from row to row within the node's cores."""
    chars = draw(st.lists(characteristics(), min_size=1, max_size=4))
    sockets = draw(st.sampled_from((1, 2)))
    num_cores = sockets * config.CORES_PER_SOCKET
    if draw(st.booleans()):
        variability = NodeVariability.nominal()
    else:
        variability = NodeVariability.sample(draw(st.integers(0, 64)))
    model = PowerModel(variability, num_sockets=sockets, num_cores=num_cores)
    start = draw(st.integers(0, num_cores - 1))
    points = [
        OperatingPoint(cf, ucf, (start + g) % num_cores + 1)
        for g, (cf, ucf) in enumerate(GRID)
    ]
    return chars, model, points


def columns(points):
    return (
        [p.threads for p in points],
        [p.core_freq_ghz for p in points],
        [p.uncore_freq_ghz for p in points],
    )


@settings(max_examples=40, deadline=None)
@given(blocks())
def test_array_model_matches_scalar_model(block):
    chars, model, points = block
    threads, core, uncore = columns(points)
    timing = region_timings(
        chars, threads=threads, core_freq_ghz=core, uncore_freq_ghz=uncore
    )
    power = model.power_array(
        core_freq_ghz=core,
        uncore_freq_ghz=uncore,
        active_threads=threads,
        core_activity=timing.core_activity,
        uncore_activity=timing.uncore_activity,
        membw_gbs=timing.membw_gbs,
    )
    probe = model.power_array(
        core_freq_ghz=core,
        uncore_freq_ghz=uncore,
        active_threads=threads,
        core_activity=1.0,
        uncore_activity=0.1,
        membw_gbs=np.zeros((len(points), 1)),
    )

    fields = ("time_s", "core_activity", "uncore_activity", "membw_gbs")
    want = {name: [] for name in fields + ("node", "package", "dram", "share")}
    want_probe = []
    for p in points:
        rows = {name: [] for name in want}
        for c in chars:
            t = region_timing(
                c,
                threads=p.threads,
                core_freq_ghz=p.core_freq_ghz,
                uncore_freq_ghz=p.uncore_freq_ghz,
            )
            b = scalar_power_model(model).power(
                core_freq_ghz=p.core_freq_ghz,
                uncore_freq_ghz=p.uncore_freq_ghz,
                active_threads=p.threads,
                core_activity=t.core_activity,
                uncore_activity=t.uncore_activity,
                membw_gbs=t.membw_gbs,
            )
            for name in fields:
                rows[name].append(getattr(t, name))
            rows["node"].append(b.node_w)
            rows["package"].append(b.rapl_package_w)
            rows["dram"].append(b.rapl_dram_w)
            rows["share"].append(b.cpu_w / b.node_w)
        for name in want:
            want[name].append(rows[name])
        b = scalar_power_model(model).power(
            core_freq_ghz=p.core_freq_ghz,
            uncore_freq_ghz=p.uncore_freq_ghz,
            active_threads=p.threads,
            core_activity=1.0,
            uncore_activity=0.1,
            membw_gbs=0.0,
        )
        want_probe.append((b.node_w, b.rapl_package_w, b.rapl_dram_w))

    for name in fields:
        assert np.array_equal(getattr(timing, name), np.array(want[name])), name
    assert np.array_equal(power.node_w, np.array(want["node"]))
    assert np.array_equal(power.rapl_package_w, np.array(want["package"]))
    assert np.array_equal(power.rapl_dram_w, np.array(want["dram"]))
    assert np.array_equal(power.cpu_w / power.node_w, np.array(want["share"]))
    got_probe = np.column_stack(
        [probe.node_w[:, 0], probe.rapl_package_w[:, 0], probe.rapl_dram_w[:, 0]]
    )
    assert np.array_equal(got_probe, np.array(want_probe))


def work_chars(app) -> tuple:
    """Characteristics per work region, in the walk's pre-order."""
    return tuple(r.characteristics for r in app.phase.walk() if r.has_work)


@pytest.mark.parametrize("app_name", ["Lulesh", "Mcb", "EP"])
def test_evaluate_block_matches_per_point_scalar_pricing(app_name):
    """The block evaluator's body, probe and switch numbers, region by
    region."""
    chars = work_chars(registry.build(app_name))
    model = PowerModel(NodeVariability.sample(3))
    points = [
        OperatingPoint(cf, ucf, 12 + g % 13) for g, (cf, ucf) in enumerate(GRID)
    ]
    block = _evaluate_block(chars, model, points, probed=True, switched=True)
    for g, p in enumerate(points):
        kwargs = dict(
            core_freq_ghz=p.core_freq_ghz, uncore_freq_ghz=p.uncore_freq_ghz
        )
        for w, c in enumerate(chars):
            t = region_timing(c, threads=p.threads, **kwargs)
            b = scalar_power_model(model).power(
                active_threads=p.threads,
                core_activity=t.core_activity,
                uncore_activity=t.uncore_activity,
                membw_gbs=t.membw_gbs,
                **kwargs,
            )
            assert block.base_times[g, w] == t.time_s
            assert block.node_w[g, w] == b.node_w
            assert block.package_w[g, w] == b.rapl_package_w
            assert block.dram_w[g, w] == b.rapl_dram_w
            assert block.cpu_fraction[g, w] == b.cpu_w / b.node_w
        for column, core_activity, uncore_activity in (
            (PROBE_COLUMN, 1.0, 0.1),
            (SWITCH_COLUMN, config.STALLED_CORE_ACTIVITY, 0.0),
        ):
            b = scalar_power_model(model).power(
                active_threads=p.threads,
                core_activity=core_activity,
                uncore_activity=uncore_activity,
                membw_gbs=0.0,
                **kwargs,
            )
            assert block.node_w[g, column] == b.node_w
            assert block.package_w[g, column] == b.rapl_package_w
            assert block.dram_w[g, column] == b.rapl_dram_w


def test_uncharged_columns_are_zero():
    """A schedule without probes or switches prices neither column."""
    chars = work_chars(registry.build("EP"))
    block = _evaluate_block(
        chars, PowerModel(), [OperatingPoint(2.5, 3.0, 24)], probed=False,
        switched=False,
    )
    for table in (block.node_w, block.package_w, block.dram_w):
        assert table.shape == (1, len(chars) + 2)
        assert not table[:, [PROBE_COLUMN, SWITCH_COLUMN]].any()


def test_array_checks_raise_the_scalar_errors():
    chars = [registry.build("EP").phase.children[0].characteristics]

    def timings(threads, uncore):
        region_timings(
            chars,
            threads=threads,
            core_freq_ghz=[2.0] * len(threads),
            uncore_freq_ghz=uncore,
        )

    with pytest.raises(ValueError, match="threads must be positive, got 0"):
        timings([4, 0], [2.0, 2.0])
    with pytest.raises(ValueError, match="uncore_freq_ghz must be > 0"):
        timings([4], [-1.0])

    model = PowerModel()

    def power(threads=(4,), core=(2.0,), uncore=(2.0,)):
        model.power_array(
            core_freq_ghz=list(core),
            uncore_freq_ghz=list(uncore),
            active_threads=list(threads),
            core_activity=0.5,
            uncore_activity=0.5,
            membw_gbs=1.0,
        )

    with pytest.raises(ValueError, match=r"must be in \[0, 24\], got 25"):
        power(threads=(24, 25), core=(2.0, 2.0), uncore=(2.0, 2.0))
    with pytest.raises(ValueError, match="core_freq_ghz must be > 0, got 0.0"):
        power(core=(0.0,))
    with pytest.raises(ValueError, match="uncore_freq_ghz must be > 0, got -1.0"):
        power(uncore=(-1.0,))


def test_live_node_reuses_only_its_last_block():
    """A live node re-prices nothing while the work and the point
    repeat (a fresh walk of an equal tree included), and re-prices on
    either change."""
    node = ComputeNode(1)
    simulator = ExecutionSimulator(node)

    def last_priced():
        return fleet_replay._LAST_PRICED[node.power_model][1]

    ep = registry.build("EP")
    simulator.run(ep, run_key=("a",))
    first = last_priced()
    simulator.run(registry.build("EP"), run_key=("b",))
    assert last_priced() is first
    assert not first.base_times.flags.writeable

    mcb = registry.build("Mcb")
    for app, frequencies in [(ep, (1.6, 3.0)), (mcb, (1.6, 3.0))]:
        node.set_frequencies(*frequencies)
        simulator.run(app, run_key=("c",))
        block = last_priced()
        fresh = _evaluate_block(
            work_chars(app),
            node.power_model,
            [OperatingPoint(*frequencies, app.default_threads)],
            probed=False,
            switched=False,
        )
        assert block.base_times is not first.base_times
        for name in ("base_times", "node_w", "package_w", "dram_w", "cpu_fraction"):
            assert np.array_equal(getattr(block, name), getattr(fresh, name))
