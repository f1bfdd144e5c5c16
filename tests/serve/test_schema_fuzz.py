"""Wire-schema fuzz: admission refuses whatever execution would fail.

Hypothesis builds wire payloads — tuning models (TMMs) included — whose
numbers sometimes sit just off the platform (a frequency past its
range, a thread count or node the cluster lacks), and then breaks up
to two places in each: a key dropped or misspelt, a value replaced by
any JSON value or nudged.  Each payload must either be refused by
:func:`parse_request` plus :func:`check_admissible` with a
:class:`SchemaError` or :class:`TuningError` (the service's
``bad-request``/``bad-value``), or execute: :func:`answer_group`
prices it alongside a known-good batch-mate, and the batch-mate's
answer stays its solo answer.  No admitted payload may reach execution
and fail there, because there it would fail every request coalesced
with it.
"""

import json

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro import api, config
from repro.errors import SchemaError, TuningError
from repro.serve.batcher import answer_group
from repro.serve.schema import WIRE_VERSION, check_admissible, parse_request
from repro.workloads import registry

#: A cheap, valid batch-mate priced in every executed group.
MATE = api.TuningRequest("EP", stride=7).resolved()
MATE_PAYLOAD = api.tune(MATE).payload()

#: EP and Mcb tune threads; Kripke ignores the thread count.
BENCHMARKS = ("EP", "Mcb", "Kripke")

#: Region names the RRL really enters, so fuzzed scenarios apply.
REGIONS = sorted(
    {
        region.name
        for name in BENCHMARKS
        for region in registry.build(name).regions
    }
)

_json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=8),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=6), inner, max_size=3),
    ),
    max_leaves=6,
)


def _frequencies(axis):
    """Platform frequencies, or any float near the axis's range."""
    return st.one_of(
        st.sampled_from(axis), st.floats(axis[0] - 0.3, axis[-1] + 0.3)
    )


def _threads(lo):
    """Thread counts the node runs, or ones just outside that range."""
    return st.one_of(
        st.integers(1, config.CORES_PER_NODE),
        st.sampled_from([lo, 0, config.CORES_PER_NODE + 1, 1000]),
    )


_points = st.fixed_dictionaries(
    {
        "core_freq_ghz": _frequencies(config.CORE_FREQUENCIES_GHZ),
        "uncore_freq_ghz": _frequencies(config.UNCORE_FREQUENCIES_GHZ),
        "threads": _threads(-1),
    }
)

_tuning_models = st.fixed_dictionaries(
    {
        "application": st.sampled_from(BENCHMARKS),
        "phase_region": st.sampled_from(["phase", *REGIONS]),
        "default": _points,
        "scenarios": st.lists(
            st.fixed_dictionaries(
                {
                    "id": st.integers(0, 5),
                    "configuration": _points,
                    "regions": st.lists(
                        st.sampled_from(REGIONS),
                        min_size=1,
                        max_size=3,
                        unique=True,
                    ),
                }
            ),
            max_size=2,
        ),
    }
)

_requests = st.fixed_dictionaries(
    {"version": st.just(WIRE_VERSION), "benchmark": st.sampled_from(BENCHMARKS)},
    optional={
        "threads": st.one_of(st.none(), _threads(-2)),
        "objective": st.sampled_from(["energy", "edp", "ed2p"]),
        # Large strides keep the executed grids small (axis defaults).
        "stride": st.sampled_from([-1, 0, 7, 1000]),
        "node_id": st.one_of(st.integers(0, 1), st.integers(-3, 4)),
        "seed": st.integers(),
    },
)


def _nudged(value):
    """A value near ``value``: past a range edge, a step off the grid."""
    if isinstance(value, bool):
        return st.just(not value)
    if isinstance(value, int):
        return st.integers(value - 30, value + 30)
    if isinstance(value, float):
        return st.floats(value - 1.5, value + 1.5)
    return st.sampled_from(["", "NoSuch", "time"])


@st.composite
def _broken(draw, value):
    """``value`` with one place broken: a node replaced by any JSON
    value or nudged, a key dropped, or a misspelt key added."""
    if isinstance(value, dict) and value and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(value)))
        return {**value, key: draw(_broken(value[key]))}
    if isinstance(value, list) and value and draw(st.booleans()):
        index = draw(st.integers(0, len(value) - 1))
        copy = list(value)
        copy[index] = draw(_broken(value[index]))
        return copy
    how = draw(st.sampled_from(["wild", "nudge", "drop", "typo"]))
    if how == "drop" and isinstance(value, dict) and value:
        key = draw(st.sampled_from(sorted(value)))
        return {k: v for k, v in value.items() if k != key}
    if how == "typo" and isinstance(value, dict):
        return {**value, "objectve": "energy"}
    if how == "nudge":
        return draw(_nudged(value))
    return draw(_json_values)


def _wire(benchmark="EP", **fields):
    return {"version": WIRE_VERSION, "benchmark": benchmark, "stride": 1000, **fields}


def _tmm(threads=24, core=2.0, region="phase"):
    """A TMM JSON whose default and one scenario program the node."""
    point = {"core_freq_ghz": core, "uncore_freq_ghz": 2.0, "threads": threads}
    return json.dumps(
        {
            "application": "Mcb",
            "phase_region": "phase",
            "default": point,
            "scenarios": [{"id": 0, "configuration": point, "regions": [region]}],
        }
    )


@st.composite
def payloads(draw):
    """A wire payload, clean or with up to two places broken."""
    payload = draw(_requests)
    if draw(st.booleans()):
        model = draw(_tuning_models)
        for _ in range(draw(st.integers(0, 2))):
            model = draw(_broken(model))
        payload["tmm"] = (
            draw(st.text(max_size=12))
            if draw(st.integers(0, 9)) == 0
            else json.dumps(model)
        )
    for _ in range(draw(st.integers(0, 2))):
        payload = draw(_broken(payload))
    return payload


@given(payload=payloads())
# Pinned edges the random search must never lose:
@example(_wire("Mcb", threads=config.CORES_PER_NODE + 1))  # refused
@example(_wire("Kripke", threads=1000))  # executes: Kripke ignores threads
@example(_wire(node_id=2))  # refused: the cluster has nodes 0 and 1
@example(_wire("Mcb", tmm=_tmm()))  # executes
@example(_wire("Mcb", tmm=_tmm(threads=0)))  # refused
@example(_wire("Mcb", tmm=_tmm(core=2.55)))  # executes: snaps to 2.5 GHz
@example(_wire("Mcb", tmm=_tmm(core=2.56)))  # refused: snaps to 2.6 GHz
@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_every_payload_is_refused_or_executes(payload):
    try:
        request = parse_request(payload).resolved()
        check_admissible(
            request, api.ExecutionOptions().resolve_cluster(request.seed)
        )
    except (SchemaError, TuningError):
        return
    answers = answer_group([MATE, request])
    assert answers[0].payload() == MATE_PAYLOAD
    assert answers[1].benchmark == request.benchmark
    assert (answers[1].dynamic is None) == (request.tmm is None)
