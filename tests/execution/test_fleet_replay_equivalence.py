"""Bit-identity of the fleet kernel vs the recursive reference engine.

Every run goes through the fleet kernel
(:mod:`repro.execution.fleet_replay`): a solo
:meth:`~repro.execution.simulator.ExecutionSimulator.run` is a fleet of
one *live-node* member, and every analysis batches *fresh-node* members.
Each run must be *exactly* equivalent to the same run on the recursive
engine (``tests/oracles/engine.py``): every ``RunResult`` field, every
``RegionInstance`` row, the controller's
:class:`~repro.readex.rrl.RRLStatistics` and, on a live node, the meter,
frequency and RAPL-residual state the run leaves behind.  A fresh
member's node never exists, so its run is all it reports.

The core is one matrix: member specs (applications, operating points,
thread counts, nodes, instrumentation, tuning models, static tuning) x
hosts (live or fresh).  Around it: fleet compositions and their
property tests (permuting or splitting a fleet never changes any
member's payload), live-node run sequences, batching counts, static
grids, phase counters and refusals.  No comparison with the reference
engine has a tolerance.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import api, config
from repro.counters.papi import TABLE1_COUNTERS, preset
from repro.errors import FrequencyError, TuningError, WorkloadError
from repro.execution.fleet_replay import FleetMember, fleet_run
from repro.execution.simulator import ExecutionSimulator, OperatingPoint
from repro.hardware.cluster import Cluster
from repro.hardware.node import ComputeNode
from repro.hardware.rapl import RAPL_ENERGY_UNIT_J
from repro.hardware.topology import NodeTopology
from repro.readex.rrl import RRL
from repro.readex.tuning_model import TuningModel
from repro.scorep.instrumentation import Instrumentation
from repro.workloads import registry
from tests.oracles.engine import (
    PhaseCounterCollector,
    make_node,
    meter_state,
    recursive_run,
    run_reference,
)
from tests.oracles.static import StaticController, static_rrl

#: OpenMP / MPI / hybrid benchmarks, small and large trees, so mixed
#: fleets exercise genuinely ragged charge-row lengths.
APPS = ("Lulesh", "Mcb", "FT", "EP", "Kripke", "BT-MZ")

#: Deterministic tuning models: alternate two scenarios over the phase's
#: children plus a phase scenario (the shape the DTA produces), one
#: configuration everywhere, or per-region thread counts.
TMM_VARIANTS = ("paired", "uniform", "threads")

_APP_CACHE: dict = {}


def build_app(name):
    if name not in _APP_CACHE:
        _APP_CACHE[name] = registry.build(name)
    return _APP_CACHE[name]


def make_tmm(app, variant: str = "paired") -> TuningModel:
    """A new tuning model object, so its schedule cache starts empty."""
    regions = [r.name for r in app.phase.children][:4]
    if variant == "uniform":
        best = {name: OperatingPoint(2.2, 1.8, 24) for name in regions}
        best["phase"] = OperatingPoint(2.2, 1.8, 24)
    elif variant == "threads":
        best = {"phase": OperatingPoint(2.5, 2.4, 20)}
        for i, name in enumerate(regions):
            best[name] = OperatingPoint(2.3, 2.0, 16 if i % 2 else 20)
    else:
        best = {"phase": OperatingPoint(2.5, 2.1, 24)}
        for i, name in enumerate(regions):
            best[name] = OperatingPoint(2.4 if i % 2 else 2.5, 2.0, 24)
    return TuningModel.from_best_configs(app.name, "phase", best)


def instrumentation_for(app, kind):
    """No build object, the compiler default, or function probes
    filtered out."""
    if kind is None:
        return None
    filtered = set()
    if kind == "functions":
        filtered = {r.name for r in app.phase.children if r.kind.value == "function"}
    return Instrumentation(app=app, filtered=filtered)


def build_member(spec, *, reference=False, model=None) -> FleetMember:
    """A fresh-node member (fresh controller and instrumentation) per spec.

    ``spec`` keys: ``app``; ``ctrl`` (a :data:`TMM_VARIANTS` RRL or
    ``"static"``: static tuning's production form, the RRL under a
    default-only tuning model, or as the ``reference`` the oracle
    :class:`StaticController`); ``point`` ((CF, UCF) to program);
    ``threads``, ``instrumented``, ``filter``, ``node_id``,
    ``topology``, ``seed`` and ``tag`` (in the run key).
    ``model`` shares one tuning model across members."""
    app = build_app(spec["app"])
    ctrl = spec.get("ctrl")
    member = FleetMember(
        app=app,
        run_key=(ctrl, spec["app"], spec.get("tag", 0)),
        node_id=spec.get("node_id", 0),
        seed=spec.get("seed", config.DEFAULT_SEED),
        topology=spec.get("topology"),
        threads=spec.get("threads"),
        instrumented=spec.get("instrumented", False),
        instrumentation=instrumentation_for(app, spec.get("filter")),
    )
    if "point" in spec:
        member.point = OperatingPoint(*spec["point"], member.threads or 24)
    if ctrl == "static":
        point = OperatingPoint(2.2, 1.8, 24)
        member.controller = (
            StaticController(point) if reference else static_rrl(app, point)
        )
    elif ctrl is not None:
        member.controller = RRL(model or make_tmm(app, ctrl))
    return member


def simulate(node, app, *, seed, **run):
    """The production run with :func:`recursive_run`'s signature."""
    return ExecutionSimulator(node, seed=seed).run(app, **run)


#: Where a member runs: a solo ``ExecutionSimulator.run`` on a live node
#: prepared like the member's fresh node, or a fresh member of a fleet.
HOSTS = {
    "live": lambda member: run_reference(member, simulate),
    "fresh": lambda member: (fleet_run([member]).results[0], None),
}


def assert_matches_reference(result, spec, *, member=None, node=None, model=None):
    """``result`` equals ``spec``'s run on the recursive engine, and so
    do ``member``'s RRL statistics and a live ``node``'s meter state."""
    reference = build_member(spec, reference=True, model=model)
    ref, ref_node = run_reference(reference)
    assert result == ref
    assert list(result.instances) == list(ref.instances)
    if node is not None:
        assert meter_state(node) == meter_state(ref_node)
    if member is not None and isinstance(reference.controller, RRL):
        assert member.controller.stats == reference.controller.stats


def assert_hosted(spec, host, model=None):
    """Run ``spec`` on ``host`` and compare it with the recursive engine."""
    member = build_member(spec, model=model)
    result, node = HOSTS[host](member)
    assert_matches_reference(result, spec, member=member, node=node, model=model)


#: The member-spec axis of the matrix, by test id.
CORNERS = (
    (config.CORE_FREQ_MIN_GHZ, config.UNCORE_FREQ_MIN_GHZ),
    (config.CALIBRATION_CORE_FREQ_GHZ, config.CALIBRATION_UNCORE_FREQ_GHZ),
    (config.CORE_FREQ_MAX_GHZ, config.UNCORE_FREQ_MAX_GHZ),
)
MATRIX = {
    **{f"default-{a}": {"app": a} for a in APPS},
    **{f"instrumented-{a}": {"app": a, "instrumented": True} for a in APPS},
    **{
        f"point-{cf}-{ucf}": {"app": "Lulesh", "point": (cf, ucf)}
        for cf, ucf in CORNERS
    },
    **{f"threads-{t}": {"app": "Mcb", "threads": t} for t in (12, 16, 24)},
    **{f"node-{n}": {"app": "FT", "node_id": n, "seed": 11} for n in (0, 3, 7)},
    "filtered": {"app": "Lulesh", "filter": "functions"},
    **{f"rrl-{a}": {"app": a, "ctrl": "paired"} for a in APPS},
    **{
        f"rrl-instrumented-{a}": {"app": a, "ctrl": "paired", "instrumented": True}
        for a in APPS
    },
    **{
        f"rrl-{v}": {"app": "Lulesh", "ctrl": v, "instrumented": True}
        for v in TMM_VARIANTS[1:]
    },
    "rrl-filtered": {"app": "Lulesh", "ctrl": "paired", "filter": "functions"},
    **{
        f"rrl-node-{n}": {
            "app": "FT", "ctrl": "paired", "instrumented": True, "node_id": n,
            "seed": 11,
        }
        for n in (0, 3, 7)
    },
    **{f"static-{a}": {"app": a, "ctrl": "static"} for a in ("EP", "Lulesh")},
}

#: Any member: app, controller, programmed point, instrumentation, node
#: and noise seed.
member_specs = st.fixed_dictionaries(
    {
        "app": st.sampled_from(APPS),
        "ctrl": st.sampled_from((None, *TMM_VARIANTS, "static")),
        "instrumented": st.booleans(),
        "seed": st.integers(0, 2**16),
        "node_id": st.integers(0, 7),
        "tag": st.integers(0, 3),
    },
    optional={
        "point": st.tuples(
            st.sampled_from(config.CORE_FREQUENCIES_GHZ),
            st.sampled_from(config.UNCORE_FREQUENCIES_GHZ),
        ),
        "filter": st.sampled_from(("default", "functions")),
    },
)


class TestHostedEquivalence:
    """Each member spec as a live solo run and as a fresh fleet member."""

    @pytest.mark.parametrize("host", HOSTS)
    @pytest.mark.parametrize("spec", MATRIX.values(), ids=MATRIX.keys())
    def test_member_bit_identical(self, spec, host):
        assert_hosted(spec, host)

    @pytest.mark.parametrize("host", HOSTS)
    @settings(max_examples=20, deadline=None)
    @given(spec=member_specs)
    def test_property_sweep_bit_identical(self, host, spec):
        assert_hosted(spec, host)

    @pytest.mark.parametrize("host", HOSTS)
    def test_entry_state_off_default_bit_identical(self, host, monkeypatch):
        """Runs entering at CF 1.6 / UCF 1.5 with the entry transitions
        still pending compile the right first-iteration switch pattern.
        The second run on the same tuning model is a schedule-cache hit,
        which leaves a live node exactly where the walk does (transition
        logs and RAPL residuals included)."""
        walks = count_walks(monkeypatch)
        spec = {"app": "Mcb", "ctrl": "paired", "instrumented": True,
                "point": (1.6, 1.5)}
        model = make_tmm(build_app("Mcb"))
        for tag in range(2):
            assert_hosted({**spec, "tag": tag}, host, model)
        assert len(walks) == 1

    @pytest.mark.parametrize("host", HOSTS)
    def test_schedule_cache_hits_stay_bit_identical(self, host):
        """Repetitions of one configuration (the Table 6 averaging loop)
        reuse the compiled schedule; results must not drift."""
        model = make_tmm(build_app("FT"))
        for tag in range(4):
            spec = {"app": "FT", "ctrl": "paired", "instrumented": True, "tag": tag}
            assert_hosted(spec, host, model)


def count_walks(monkeypatch) -> list:
    """Record the node id of every controlled compile walk."""
    from repro.execution import controlled_replay

    walks = []
    walk = controlled_replay.compile_schedule_by_walk

    def counting_walk(*args, **kwargs):
        walks.append(args[2].node_id)
        return walk(*args, **kwargs)

    monkeypatch.setattr(controlled_replay, "compile_schedule_by_walk", counting_walk)
    return walks


#: Member shapes, mirroring every analysis-layer call site: grid cells
#: (programmed static points, plain or instrumented), savings variants
#: (default / static / instrumented RRL / config-only RRL).
KINDS = {
    "default": {"threads": config.DEFAULT_OPENMP_THREADS},
    "static_point": {"point": (2.0, 2.2)},
    "instrumented_point": {"point": (2.0, 2.2), "instrumented": True},
    "static_ctrl": {"ctrl": "static", "threads": 24},
    "rrl": {"ctrl": "paired"},
    "rrl_instrumented": {"ctrl": "paired", "instrumented": True, "filter": "default"},
}


def kind(name, app, **fields):
    return {"app": app, **KINDS[name], **fields}


def assert_fleet_identical(specs, fleet, members):
    for i, spec in enumerate(specs):
        assert_matches_reference(fleet.results[i], spec, member=members[i])


class TestFleetComposition:
    @pytest.mark.parametrize("app_name", APPS[:4])
    def test_every_member_kind_bit_identical(self, app_name):
        specs = [kind(name, app_name) for name in KINDS]
        members = [build_member(s) for s in specs]
        fleet = fleet_run(members)
        assert len(fleet) == len(specs)
        assert_fleet_identical(specs, fleet, members)

    def test_mixed_apps_nodes_and_seeds(self):
        specs = [
            kind("default", "Lulesh"),
            kind("static_point", "EP", point=(1.8, 1.6), threads=12, node_id=3,
                 seed=77),
            kind("rrl", "FT", seed=5),
            kind("static_point", "Mcb", point=(2.3, 2.8), node_id=1),
            kind("rrl_instrumented", "Lulesh"),
            kind("static_ctrl", "FT", seed=9),
        ]
        members = [build_member(s) for s in specs]
        assert_fleet_identical(specs, fleet_run(members), members)

    def test_mixed_socket_counts(self):
        """Members on a one-socket and a two-socket node in one fleet:
        each node's CPU energy sums its own sockets only."""
        one_socket = NodeTopology.build(1, 24)
        specs = [
            kind("default", "EP", topology=one_socket),
            kind("default", "EP"),
            kind("rrl", "Lulesh", topology=one_socket),
            kind("static_point", "Mcb", topology=NodeTopology.default()),
        ]
        members = [build_member(s) for s in specs]
        assert_fleet_identical(specs, fleet_run(members), members)

    def test_interleaved_structure_block_bit_identical_to_recursive(self):
        """Members of one schedule interleaved with others: the Lulesh
        static/default members flatten as one block whose rows sit
        apart in the fleet (and in the noise draw's member order), next
        to an instrumented Lulesh schedule and a controlled member."""
        specs = [
            kind("static_point", "Lulesh"),
            kind("rrl", "Lulesh"),
            kind("static_point", "EP"),
            kind("default", "Lulesh"),
            kind("instrumented_point", "Lulesh"),
        ]
        members = [build_member(s) for s in specs]
        assert_fleet_identical(specs, fleet_run(members), members)

    def test_rrl_statistics_match_per_run_engine(self):
        app = build_app("Lulesh")
        fleet_ctrl, ref_ctrl = RRL(make_tmm(app)), RRL(make_tmm(app))
        member = FleetMember(app=app, run_key=("dynamic", 0), controller=fleet_ctrl)
        fleet = fleet_run([member])
        node = ComputeNode(0, seed=config.DEFAULT_SEED)
        ref = recursive_run(node, app, controller=ref_ctrl, run_key=("dynamic", 0))
        assert fleet.results[0] == ref
        assert fleet_ctrl.stats == ref_ctrl.stats

    def test_rapl_counters_wrap_in_long_run(self):
        """A fresh member long enough that each socket's package counter
        passes 2**32 ticks (but not 2**33) reports the wrapped CPU
        energy, exactly as a solo run's RAPL reader does.  The rows'
        CPU energy is not metered, so it shows the lost wrap: 2**32
        ticks per socket on the package domain, none on DRAM."""
        app = dataclasses.replace(build_app("Mcb"), phase_iterations=600)
        result = fleet_run([FleetMember(app=app, run_key=("wrap",))]).results[0]
        ref, _ = run_reference(FleetMember(app=app, run_key=("wrap",)))
        assert_same_payload(result, ref)
        rows_cpu_j = sum(row.cpu_energy_j for row in result.instances)
        wraps = (rows_cpu_j - result.cpu_energy_j) / ((1 << 32) * RAPL_ENERGY_UNIT_J)
        assert wraps == pytest.approx(2, abs=1e-3)

    def test_empty_fleet(self):
        fleet = fleet_run([])
        assert len(fleet) == 0
        assert fleet.results == ()

    def test_invalid_thread_count_raises(self):
        member = FleetMember(app=build_app("Lulesh"), run_key=("bad",), threads=999)
        with pytest.raises(WorkloadError, match="invalid thread count"):
            fleet_run([member])

    def test_lazy_instances(self):
        fleet = fleet_run([build_member(kind("static_point", "EP"))])
        # Instances materialise lazily and stay stable across reads.
        first = list(fleet.results[0].instances)
        assert first == list(fleet.results[0].instances)
        assert len(first) > 0


#: Random fleet compositions: mixed static/RRL members with ragged
#: phase counts.
fleet_specs = st.lists(member_specs, min_size=1, max_size=5)


def assert_same_payload(got, want):
    assert got == want
    assert list(got.instances) == list(want.instances)


class TestFleetProperties:
    @settings(max_examples=8, deadline=None)
    @given(specs=fleet_specs)
    def test_random_compositions_bit_identical(self, specs):
        members = [build_member(s) for s in specs]
        assert_fleet_identical(specs, fleet_run(members), members)

    @settings(max_examples=8, deadline=None)
    @given(specs=fleet_specs, data=st.data())
    def test_order_independence(self, specs, data):
        """Permuting the fleet permutes — never perturbs — the payloads."""
        order = data.draw(st.permutations(range(len(specs))))
        baseline = fleet_run([build_member(s) for s in specs])
        permuted = fleet_run([build_member(specs[j]) for j in order])
        for pos, j in enumerate(order):
            assert_same_payload(permuted.results[pos], baseline.results[j])

    @settings(max_examples=8, deadline=None)
    @given(specs=fleet_specs, data=st.data())
    def test_padding_independence_under_splits(self, specs, data):
        """Splitting a fleet (different padded widths per sub-fleet)
        never changes any member's payload."""
        cut = data.draw(st.integers(0, len(specs)))
        whole = fleet_run([build_member(s) for s in specs])
        left = fleet_run([build_member(s) for s in specs[:cut]])
        right = fleet_run([build_member(s) for s in specs[cut:]])
        for got, want in zip(left.results + right.results, whole.results):
            assert_same_payload(got, want)

    def test_solo_equals_batched(self):
        """Each member alone prices identically to the batched fleet —
        the padded matrix is invisible."""
        specs = [kind("rrl", "Lulesh"), kind("static_point", "EP"),
                 kind("default", "FT")]
        batched = fleet_run([build_member(s) for s in specs])
        for i, spec in enumerate(specs):
            assert_same_payload(fleet_run([build_member(spec)]).results[0],
                                batched.results[i])

    def test_equal_node_ids_of_other_types_keep_their_noise(self):
        """The fleet hashes a node's ``(seed, "time", node_id)`` noise
        prefix once; node ids that compare equal but print differently
        (``1``, ``True``, ``1.0``) still draw their own solo noise."""
        app = build_app("EP")
        members = [
            FleetMember(app=app, run_key=("k",), node_id=node_id, seed=3,
                        point=OperatingPoint(2.0, 2.0, 24), threads=24)
            for node_id in (1, True, 1.0)
        ]
        batched = fleet_run(members)
        assert len(set(batched.time_s)) == 3
        for member, time_s in zip(members, batched.time_s):
            assert fleet_run([member]).time_s == (time_s,)


#: Counters the entry-state sequence synthesises.
ENTRY_COUNTERS = ("PAPI_TOT_INS", "PAPI_L3_TCM", "NOT_A_COUNTER")


def entry_state_sequence(recursive: bool):
    """Five runs back to back on one live node, HDEEM measuring across
    all of them: every run starts from the state the previous one left
    (frequencies, clock, HDEEM timeline, RAPL residuals)."""
    app = build_app("Lulesh")
    node = ComputeNode(3, seed=11)
    engine = recursive_run if recursive else simulate

    def run(**kwargs):
        return engine(node, app, seed=5, **kwargs)

    filtered = Instrumentation(
        app=app, filtered={"CalcQForElems", "LagrangeNodal_misc"}
    )
    static = OperatingPoint(2.2, 1.8, 24)
    node.hdeem.start()
    steps = []

    def record(result, extra=None):
        steps.append((result, list(result.instances), meter_state(node), extra))

    record(run(run_key=("entry", 0)))
    record(run(controller=RRL(make_tmm(app)), instrumented=True, run_key=("entry", 1)))
    record(
        run(
            controller=(
                StaticController(static) if recursive else static_rrl(app, static)
            ),
            run_key=("entry", 2),
        )
    )
    collector = PhaseCounterCollector(ENTRY_COUNTERS)
    result = run(listeners=(collector,), collect_counters=True, run_key=("entry", 3))
    record(result, (collector.totals, collector.phase_time))
    record(run(instrumentation=filtered, run_key=("entry", 4)))
    return steps, node.hdeem.stop()


class TestLiveNodeMembers:
    """Live-node members carry their node's entry state through the
    kernel: solo runs on one node chain exactly like recursive runs."""

    def test_run_sequence_on_one_node_matches_recursion(self):
        fast_steps, fast_hdeem = entry_state_sequence(recursive=False)
        ref_steps, ref_hdeem = entry_state_sequence(recursive=True)
        for fast, ref in zip(fast_steps, ref_steps):
            assert fast == ref  # result, instance rows, meter state, counters
        assert fast_hdeem == ref_hdeem

    @pytest.mark.parametrize("controlled", (False, True), ids=("plain", "rrl"))
    def test_consecutive_runs_on_one_node(self, controlled):
        """Runs on one node, one RRL reused across them: each starts
        from the previous run's hardware state (the third enters where
        the second did: a schedule-cache hit) and the statistics
        accumulate."""
        app = build_app("Lulesh" if controlled else "FT")
        model = make_tmm(app)
        n1, n2 = make_node(), make_node()
        c1, c2 = (RRL(model), RRL(model)) if controlled else (None, None)
        for k in range(3):
            run = dict(instrumented=controlled, run_key=("seq", k))
            fast = simulate(n1, app, seed=config.DEFAULT_SEED, controller=c1, **run)
            assert fast == recursive_run(n2, app, controller=c2, **run)
            assert meter_state(n1) == meter_state(n2)
        if controlled:
            assert c1.stats == c2.stats

    def test_live_member_among_fresh_members(self):
        """A live member priced alongside fresh ones gets exactly its
        solo result and node state; the fresh members are unperturbed."""
        app = build_app("Mcb")

        def warmed_node():
            node = make_node(2, seed=9, cf=2.1, ucf=1.9)
            simulate(node, app, seed=4, run_key=("warm",))
            return node

        solo_node, live_node = warmed_node(), warmed_node()
        solo = recursive_run(solo_node, app, seed=4, run_key=("live",))
        specs = [kind("static_point", "Mcb"), kind("rrl", "EP"),
                 kind("default", "Mcb", node_id=2)]
        members = [build_member(s) for s in specs]
        members.insert(
            1,
            FleetMember(
                app=app, run_key=("live",), node_id=2, seed=4, node=live_node,
                threads=app.default_threads,
            ),
        )
        fleet = fleet_run(members)
        assert_same_payload(fleet.results[1], solo)
        assert meter_state(live_node) == meter_state(solo_node)
        for i, spec in zip((0, 2, 3), specs):
            assert_matches_reference(fleet.results[i], spec, member=members[i])

    def test_live_node_hosts_one_member_per_fleet(self):
        node = ComputeNode(0)
        app = build_app("EP")
        members = [FleetMember(app=app, run_key=(k,), node=node) for k in range(2)]
        with pytest.raises(WorkloadError, match="one member per fleet"):
            fleet_run(members)


class TestBatching:
    """One fleet pass walks each (application, instrumentation) once and
    prices each block of members sharing a schedule and a power model in
    one array call, controlled members included."""

    def test_one_walk_per_build_and_one_pricing_per_block(self, monkeypatch):
        from repro.execution import controlled_replay, fleet_replay

        walks: dict = {}
        walk = controlled_replay._walk_iteration

        def counting_walk(controller, app, node, threads, iteration, *rest):
            if iteration == 0:
                key = (app.name, rest[0], controller is None)
                walks[key] = walks.get(key, 0) + 1
            return walk(controller, app, node, threads, iteration, *rest)

        pricings = []
        evaluate = fleet_replay._evaluate_block

        def counting_evaluate(work_chars, power_model, points, **flags):
            pricings.append(len(points))
            return evaluate(work_chars, power_model, points, **flags)

        monkeypatch.setattr(controlled_replay, "_walk_iteration", counting_walk)
        monkeypatch.setattr(fleet_replay, "_evaluate_block", counting_evaluate)

        grid = [(1.6, 2.0), (2.0, 2.4), (2.4, 1.8), (2.5, 3.0)]
        blocks = [  # (app, node, instrumented, points): one block each
            ("Lulesh", 0, False, grid),
            ("Lulesh", 1, False, grid[:2]),
            ("Lulesh", 0, True, grid[2:]),
            ("Mcb", 0, False, grid[1:]),
        ]
        specs = [
            {"app": app_name, "node_id": node_id, "instrumented": instrumented,
             "point": point, "tag": point}
            for app_name, node_id, instrumented, points in blocks
            for point in points
        ]
        # One schedule on one node recipe: one block.
        reps = [{"app": "FT", "ctrl": "paired", "node_id": 2, "instrumented": True,
                 "tag": rep} for rep in range(3)]
        model = make_tmm(build_app("FT"))
        members = [build_member(s) for s in specs]
        members += [build_member(s, model=model) for s in reps]
        live_node, solo_node = ComputeNode(3), ComputeNode(3)
        members.append(
            FleetMember(app=build_app("EP"), run_key=("live",), node_id=3,
                        node=live_node)
        )

        fleet = fleet_run(members)

        assert walks == {
            ("Lulesh", False, True): 1,
            ("Lulesh", True, True): 1,
            ("Mcb", False, True): 1,
            ("FT", True, False): 1,
            ("EP", False, True): 1,
        }
        # The repetitions share their schedule's points: priced once.
        ft = build_app("FT")
        schedule = RRL(model).compile_schedule(  # a cache hit: no walk
            ft, ComputeNode(2), threads=ft.default_threads, instrumented=True,
            instrumentation=None,
        )
        assert sum(walks.values()) == len(walks)
        assert sorted(pricings) == sorted(
            [len(points) for *_, points in blocks] + [len(schedule.points), 1]
        )
        for i, spec in enumerate(specs + reps):
            assert_matches_reference(fleet.results[i], spec, member=members[i],
                                     model=model)
        solo = recursive_run(solo_node, build_app("EP"), run_key=("live",))
        assert fleet.results[-1] == solo
        assert meter_state(live_node) == meter_state(solo_node)

    def test_nodes_share_one_schedule_walk(self, monkeypatch):
        """The walk is node-invariant: runs of one tuning model on four
        nodes walk the controller trace once, and each node still prices
        its own physics (every run equals the recursive engine)."""
        walks = count_walks(monkeypatch)
        model = make_tmm(build_app("Lulesh"))
        for node_id in range(4):
            for rep in range(2):
                spec = {"app": "Lulesh", "ctrl": "paired", "instrumented": True,
                        "node_id": node_id, "tag": rep}
                assert_hosted(spec, "live", model)
        assert walks == [0]

    def test_fresh_cache_hits_program_no_node(self, monkeypatch):
        """Five fresh RRL repetitions on one new tuning model walk once,
        and their four schedule-cache hits program no frequency: a fresh
        member reports its run alone, so nothing reads its node after."""
        programmed = []
        set_frequencies = ComputeNode.set_frequencies

        def counting_set_frequencies(node, core_ghz, uncore_ghz):
            programmed.append((core_ghz, uncore_ghz))
            set_frequencies(node, core_ghz, uncore_ghz)

        model = make_tmm(build_app("Lulesh"))
        specs = [{"app": "Lulesh", "ctrl": "paired", "tag": rep} for rep in range(5)]
        members = [build_member(s, model=model) for s in specs]
        walks = count_walks(monkeypatch)
        monkeypatch.setattr(ComputeNode, "set_frequencies", counting_set_frequencies)
        fleet = fleet_run(members)
        assert (walks, programmed) == ([0], [])
        for i, spec in enumerate(specs):
            assert_matches_reference(fleet.results[i], spec, member=members[i],
                                     model=model)

    def test_fresh_members_build_a_node_only_to_walk(self, monkeypatch):
        """Five fresh RRL repetitions off the default entry point on a
        new tuning model build one ComputeNode, for their one walk; a
        second such fleet hits the schedule cache and builds none."""
        built = []
        init = ComputeNode.__init__

        def counting_init(node, *args, **kwargs):
            built.append(node)
            init(node, *args, **kwargs)

        monkeypatch.setattr(ComputeNode, "__init__", counting_init)
        model = make_tmm(build_app("Lulesh"))
        for fleet_index, expected_nodes in enumerate((1, 0)):
            specs = [
                {"app": "Lulesh", "ctrl": "paired", "point": (1.6, 1.5),
                 "tag": (fleet_index, rep)}
                for rep in range(5)
            ]
            members = [build_member(s, model=model) for s in specs]
            before = len(built)
            fleet = fleet_run(members)
            assert len(built) - before == expected_nodes
            for i, spec in enumerate(specs):
                assert_matches_reference(fleet.results[i], spec, member=members[i],
                                         model=model)


#: A thinned grid (3 x 4 cells) that keeps the suite fast.
GRID = [
    (cf, ucf)
    for cf in config.CORE_FREQUENCIES_GHZ[::6]
    for ucf in config.UNCORE_FREQUENCIES_GHZ[::5]
]

#: Grid apps: OpenMP / MPI / hybrid, small and large trees.
GRID_APPS = ("Lulesh", "Mcb", "FT", "EP", "Kripke")


def grid_fleet(app, points, keys, *, node_id=0, seed=config.DEFAULT_SEED,
               instrumented=False):
    """One fresh-node member per grid cell, priced in one fleet pass."""
    return fleet_run(
        FleetMember(
            app=app,
            run_key=key,
            node_id=node_id,
            seed=seed,
            point=point,
            instrumented=instrumented,
        )
        for point, key in zip(points, keys)
    )


def recursive_cell(app, point, run_key, *, node_id=0, seed=config.DEFAULT_SEED,
                   **kwargs):
    """One grid cell on the recursive engine: fresh node, program, run."""
    node = make_node(node_id, seed, point.core_freq_ghz, point.uncore_freq_ghz)
    return recursive_run(
        node, app, seed=seed, threads=point.threads, run_key=run_key, **kwargs
    )


class TestGridEquivalence:
    """Static grids through the fleet kernel vs the recursive engine."""

    @pytest.mark.parametrize("app_name", GRID_APPS)
    def test_heatmap_grid_cells_bit_identical(self, app_name):
        app = build_app(app_name)
        points = [OperatingPoint(cf, ucf, 24) for cf, ucf in GRID]
        keys = [("heatmap", cf, ucf) for cf, ucf in GRID]
        fleet = grid_fleet(app, points, keys)
        assert len(fleet) == len(points)
        for point, key, result in zip(points, keys, fleet.results):
            # Full RunResult equality covers node/cpu energy, times and
            # every lazily materialised RegionInstance row.
            assert result == recursive_cell(app, point, key)

    def test_region_timings_and_instances_match(self):
        app = build_app("Lulesh")
        point = OperatingPoint(1.8, 2.2, 20)
        key = ("static", 1.8, 2.2, 20)
        fleet = grid_fleet(app, [point], [key])
        got = list(fleet.results[0].instances)
        want = list(recursive_cell(app, point, key).instances)
        assert len(got) == len(want) > 0
        for g, w in zip(got, want):
            assert g == w

    def test_exhaustive_search_run_keys_with_threads(self):
        """The static-search path: per-thread grids, historical keys."""
        app = build_app("Lulesh")
        points = [
            OperatingPoint(cf, ucf, t) for t in (12, 24) for cf, ucf in GRID[:4]
        ]
        keys = [
            ("static", p.core_freq_ghz, p.uncore_freq_ghz, p.threads)
            for p in points
        ]
        fleet = grid_fleet(app, points, keys)
        for point, key, result in zip(points, keys, fleet.results):
            assert result == recursive_cell(app, point, key)

    def test_tradeoff_mixed_thread_grid(self):
        """Per-cell thread counts in one fleet (the trade-off idiom)."""
        app = build_app("Lulesh")
        points = [
            OperatingPoint(),
            OperatingPoint(1.2, 1.3, 12),
            OperatingPoint(2.4, 1.7, 16),
        ]
        keys = [("tradeoff", str(p)) for p in points]
        fleet = grid_fleet(app, points, keys)
        for point, key, result in zip(points, keys, fleet.results):
            assert result == recursive_cell(app, point, key)

    def test_instrumented_grid(self):
        app = build_app("Mcb")
        point = OperatingPoint(2.2, 2.5, 20)
        fleet = grid_fleet(app, [point], [("probe",)], instrumented=True)
        ref = recursive_cell(app, point, ("probe",), instrumented=True)
        assert fleet.results[0] == ref
        assert fleet.results[0].instrumentation_time_s == ref.instrumentation_time_s

    @settings(max_examples=8, deadline=None)
    @given(
        app_name=st.sampled_from(GRID_APPS),
        seed=st.integers(0, 2**20),
        node_id=st.integers(0, 3),
        threads=st.sampled_from(config.OPENMP_THREAD_CANDIDATES),
    )
    def test_hypothesis_grid(self, app_name, seed, node_id, threads):
        app = build_app(app_name)
        cells = GRID[:3]
        points = [OperatingPoint(cf, ucf, threads) for cf, ucf in cells]
        keys = [("heatmap", cf, ucf) for cf, ucf in cells]
        fleet = grid_fleet(app, points, keys, node_id=node_id, seed=seed)
        for point, key, result in zip(points, keys, fleet.results):
            assert result == recursive_cell(
                app, point, key, node_id=node_id, seed=seed
            )


class TestGridValidation:
    def test_empty_grid_list(self):
        assert api.sweep_grids([]) == []

    def test_out_of_range_frequency_rejected(self):
        app = build_app("EP")
        with pytest.raises(FrequencyError, match="core frequency"):
            grid_fleet(app, [OperatingPoint(9.9, 3.0, 24)], [("k",)])

    def test_invalid_thread_count_rejected(self):
        app = build_app("Lulesh")
        with pytest.raises(WorkloadError, match="thread count"):
            grid_fleet(app, [OperatingPoint(2.5, 3.0, 99)], [("k",)])

    def test_mpi_only_codes_pin_their_threads(self):
        app = build_app("Kripke")
        assert not app.model.supports_thread_tuning
        point = OperatingPoint(2.0, 2.0, 12)
        fleet = grid_fleet(app, [point], [("k",)])
        assert fleet.results[0].operating_point.threads == app.default_threads
        assert fleet.results[0] == recursive_cell(app, point, ("k",))


class TestConsumerEquivalence:
    def test_heatmap_matches_loop_oracle(self):
        from repro.analysis.heatmap import energy_heatmap
        from tests.oracles.grids import loop_heatmap

        cluster = Cluster(2)
        fleet = energy_heatmap("FT", threads=24, cluster=cluster)
        loop = loop_heatmap("FT", threads=24, cluster=cluster)
        assert np.array_equal(fleet.normalized, loop.normalized)
        assert fleet.best == loop.best
        assert fleet.plateau() == loop.plateau()

    def test_tradeoff_matches_loop_oracle(self):
        from repro.analysis.tradeoffs import energy_time_tradeoff
        from tests.oracles.grids import loop_tradeoff

        cluster = Cluster(2)
        configurations = [
            OperatingPoint(1.6, 2.5, 20), OperatingPoint(2.4, 1.7, 24)
        ]
        fleet = energy_time_tradeoff("Mcb", configurations, cluster=cluster)
        loop = loop_tradeoff("Mcb", configurations, cluster=cluster)
        assert fleet == loop


#: The Table I counters, by their canonical names.
CANONICAL_COUNTERS = tuple(preset(c).name for c in TABLE1_COUNTERS)


class TestPhaseCounterEquivalence:
    """The production listened run's phase counters (events replayed
    from the priced run) against the recursive engine's."""

    @pytest.mark.parametrize("app_name", APPS)
    def test_totals_bit_identical_to_listener_path(self, app_name):
        app = build_app(app_name)
        listened = dict(collect_counters=True, run_key=("counters", None, 0))
        results, collectors, nodes = [], [], []
        for engine in (recursive_run, simulate):
            collectors.append(PhaseCounterCollector(CANONICAL_COUNTERS))
            nodes.append(make_node(seed=7))
            results.append(
                engine(nodes[-1], app, seed=3, listeners=(collectors[-1],),
                       **listened)
            )
        expected, collector = collectors
        assert collector.totals == expected.totals
        assert collector.phase_time == expected.phase_time
        assert results[1] == results[0]
        assert meter_state(nodes[1]) == meter_state(nodes[0])

    def test_unknown_counter_totals_zero(self):
        collector = PhaseCounterCollector(("NOT_A_COUNTER",))
        ExecutionSimulator(make_node()).run(
            build_app("EP"), listeners=(collector,), collect_counters=True
        )
        assert collector.totals == {"NOT_A_COUNTER": 0.0}


class _Foreign:
    """Hooks only: no ``compile_schedule``."""

    def on_region_enter(self, region, iteration, node):
        return 0

    def on_region_exit(self, region, iteration, node):
        pass


class _Declining(_Foreign):
    """Compiles nothing, leaving itself and the node untouched."""

    def compile_schedule(self, app, node, *, threads, instrumented,
                         instrumentation):
        return None


class TestRefusals:
    """Every controller compiles; anything else is refused before the
    node changes."""

    @pytest.mark.parametrize("controller", (_Foreign, _Declining))
    def test_run_refuses_non_compiling_controller(self, controller):
        node = make_node(cf=2.1, ucf=1.9)
        before = meter_state(node)
        with pytest.raises(TuningError, match="compile"):
            ExecutionSimulator(node).run(build_app("EP"), controller=controller())
        assert meter_state(node) == before

    @pytest.mark.parametrize("controller", (_Foreign, _Declining))
    def test_fleet_refuses_non_compiling_controller(self, controller):
        node = make_node(cf=2.1, ucf=1.9)
        before = meter_state(node)
        app = build_app("EP")
        members = [
            FleetMember(app=app, run_key=("fresh",)),
            FleetMember(app=app, run_key=("live",), node=node,
                        controller=controller()),
        ]
        with pytest.raises(TuningError, match="compile"):
            fleet_run(members)
        assert meter_state(node) == before

    def test_run_refuses_controller_with_counters(self):
        app = build_app("EP")
        node = make_node()
        before = meter_state(node)
        with pytest.raises(TuningError, match="counters"):
            ExecutionSimulator(node).run(
                app, controller=RRL(make_tmm(app)), collect_counters=True
            )
        assert meter_state(node) == before
