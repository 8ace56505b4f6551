"""``netsim.run`` over ``nodes.SensorChain`` against the reference that
samples and routes one reading at a time (``tests/scalar_chain.py``).

The property draws what the benchmark's truth checks refuse (plumes,
traffic coupling, bias hooks and t90 overrides) along with LoD, resolution
and warm-up overrides, mobile nodes, lossy links, several periods and
starts, and a bias that overflows the chain. Every tick ``run`` hands to its
sink must equal the reference's, values by ``repr``, with each reading's
fate and arrival; so must the tallies, and the error of a run that fails.
"""

import copy
from importlib import resources

import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from citysense.domain import FLAG_SETS, ConfigError, ValidationError
from citysense.netsim import DeliveryOutcome, LinkChoice, RunSink, run
from citysense.scenario import parse_scenario
from tests.scalar_chain import reference_run

BASE = yaml.safe_load(resources.files("citysense").joinpath("data/pisa-default.yaml").read_text())
QUANTITIES = sorted(BASE["field"]["baseline"])


class TickRecorder(RunSink):
    """Each ``tick`` call as the reference lists it: the tick, each
    reading's fate and the arrival time."""

    def __init__(self):
        self.calls = []

    def tick(self, tick, choice, lost, arrival_t):
        fates = [LinkChoice(choice.link, DeliveryOutcome.LOST) if gone else choice
                 for gone in lost or [False] * len(tick)]
        self.calls.append((tick, fates, arrival_t))


def _comparable(calls):
    """Each call's fields, its flag codes as the sets ``domain.FLAG_SETS``
    names: the reference builds each reading's set itself."""
    return [(tick.node_id, tick.timestamp, tick.position, tick.quantities, repr(tick.values),
             [FLAG_SETS[code] for code in tick.flags], fates, arrival_t)
            for tick, fates, arrival_t in calls]


def _sub_map(draw, keys, values):
    """A map from a drawn subset of ``keys`` to drawn ``values``."""
    return {k: draw(values) for k in draw(st.lists(st.sampled_from(keys), unique=True, max_size=4))}


@st.composite
def scenarios(draw):
    doc = copy.deepcopy(BASE)
    doc["seed"] = draw(st.integers(0, 2**32))
    period = draw(st.sampled_from([60, 150, 300, 900]))
    doc["sample_period_s"] = period
    doc["uplink_period_s"] = period * draw(st.sampled_from([1, 2, 3, 4]))
    doc["duration_s"] = doc["uplink_period_s"] * draw(st.sampled_from([1, 2, 3, 4]))
    doc["start_time"] = draw(st.sampled_from(
        ["2015-04-20T00:00:00Z", "2015-04-20T07:55:00Z", "1969-12-31T23:50:00Z"]))
    field = doc["field"]
    field["noise_sigma"] = {q: s for q, s in field["noise_sigma"].items() if draw(st.booleans())}
    field["traffic_coupling"] = _sub_map(draw, QUANTITIES, st.floats(-5.0, 5.0))
    plume = st.fixed_dictionaries({
        "lat": st.floats(43.70, 43.74), "lon": st.floats(10.38, 10.41),
        "sigma_m": st.floats(50.0, 2000.0), "amplitude": st.floats(-50.0, 50.0)})
    field["plumes"] = _sub_map(draw, QUANTITIES, st.lists(plume, min_size=1, max_size=3))
    doc["sensors"] = _sub_map(draw, QUANTITIES, st.fixed_dictionaries({}, optional={
        "t90_s": st.floats(1.0, 1000.0),
        "lod": st.floats(0.0, 50.0),
        "resolution": st.sampled_from([0.0, 0.5, 1.0, 2.5]),
        "warmup_s": st.sampled_from([0.0, 300.0, 900.0, 1000.5]),
    }))
    # Each node of pisa-default with even odds, and at least one that senses.
    doc["nodes"] = [n for n in doc["nodes"] if draw(st.booleans())] or doc["nodes"][-2:]
    bias = st.fixed_dictionaries({}, optional={"mul": st.floats(0.5, 2.0),
                                               "add": st.floats(-5.0, 5.0)})
    for node in doc["nodes"]:
        if node["quantities"]:
            node["bias"] = _sub_map(draw, node["quantities"], bias)
    if draw(st.sampled_from(range(8))) == 5:  # one reading overflows the chain
        node = draw(st.sampled_from([n for n in doc["nodes"] if n["quantities"]]))
        node["bias"] = {draw(st.sampled_from(node["quantities"])): {"mul": 1e308, "add": 1e308}}
    for radio, link in doc["links"].items():
        link["loss_prob"] = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]), label=f"{radio} loss")
        link["latency_s"] = draw(st.integers(0, 2 * period), label=f"{radio} latency")
    doc["links"]["short_range_mobile"]["range_m"] = draw(st.floats(50.0, 1500.0))
    return doc


@settings(max_examples=120, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(doc=scenarios())
def test_run_equals_the_reading_at_a_time_reference(doc):
    cfg = parse_scenario(doc)
    sink = TickRecorder()
    try:
        expected_calls, expected_tallies = reference_run(cfg)
    except ValidationError as e:  # the drawn bias overflowed the chain
        with pytest.raises(ConfigError) as got:
            run(cfg, sink)
        assert str(got.value) == f"node {e.node_id}: {e}"
        return
    tallies = run(cfg, sink)
    assert _comparable(sink.calls) == _comparable(expected_calls)
    assert tallies == expected_tallies
    assert list(tallies) == list(expected_tallies)
