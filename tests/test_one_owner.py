"""Rules that several layers apply are owned by one table or helper in
``domain``, and every layer agrees with it: the physical range of a
quantity (``VALUE_RANGE``), which the field, the sensor chain and the
record check read; the record order (``domain.RecordKey``), which
coordinator batches, day files and their loader all follow; and the flag
table (``FLAG_SETS``), whose one-byte codes the sensor chain emits, the
day files write as their sets' text and the loader reads back; and the
multi-gas channels (``GAS_QUANTITIES``), the only ones whose default
sensor spec warms up."""

import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from citysense.domain import (
    ALLOWED_QUANTITIES,
    FLAG_CODES,
    FLAG_SETS,
    GAS_QUANTITIES,
    Flag,
    GeoPoint,
    Measurement,
    NodeDescriptor,
    NodeKind,
    NodeTick,
    Quantity,
    VALUE_RANGE,
    ValidationError,
    co_ppm_to_mg_m3,
    format_utc,
    validate_value,
)
from citysense.field import FieldModel
from citysense.netsim import coordinator_uplink
from citysense.nodes import NodeState, SensorChain, default_sensor_spec
from citysense.store import DayFiles, MeasurementStore, OutputSet, read_days
from tests.rows import channels_from, node_ticks, parse_measurement, record_key

P = GeoPoint(43.716, 10.3966)
T0 = 1_429_488_000  # 2015-04-20T00:00:00Z
FAR = 1e6  # farther past every finite bound than any reading of the field
QUANTITIES = sorted(Quantity, key=lambda q: q.value)


def _static_node(q: Quantity, field: FieldModel, **kw) -> NodeState:
    kind = next(k for k in (NodeKind.FIXED, NodeKind.WEATHER_STATION) if q in ALLOWED_QUANTITIES[k])
    return NodeState(NodeDescriptor("N1", kind, frozenset({q}), home_position=P), field, **kw)


def _expected(bound: float, far: float) -> float:
    """What a clamp to a range end ``bound`` makes of the value ``far``
    beyond it; an infinite end clamps nothing."""
    return bound if math.isfinite(bound) else far


@pytest.mark.parametrize("q", QUANTITIES, ids=[q.value for q in QUANTITIES])
class TestEveryLayerUsesValueRange:
    def test_field_clamps_to_the_range(self, q):
        low, high = VALUE_RANGE[q]
        for far, bound in ((-FAR, low), (FAR, high)):
            f = FieldModel(seed=1, baseline={q: far})
            assert f.value(q, P, T0) == _expected(bound, far)

    def test_field_takes_nan_to_the_low_end(self, q):
        assert FieldModel(seed=1, baseline={q: math.nan}).value(q, P, T0) == VALUE_RANGE[q][0]

    def test_sensor_chain_clamps_to_the_range(self, q):
        low, high = VALUE_RANGE[q]
        f = FieldModel(seed=1, baseline={q: 0.0})
        for far, bound in ((-FAR, low), (FAR, high)):
            (m,) = SensorChain([_static_node(q, f, bias_add={q: far})], 300).sample(T0)[0].rows()
            assert validate_value(q, m.value) == m.value
            assert m.value == pytest.approx(_expected(bound, far), rel=1e-5)
            if math.isfinite(bound):
                assert m.value == bound

    def test_record_check_accepts_each_bound_and_refuses_one_ulp_past(self, q):
        for bound, outward in zip(VALUE_RANGE[q], (-math.inf, math.inf)):
            if not math.isfinite(bound):
                continue
            validate_value(q, bound)
            past = math.nextafter(bound, outward)
            with pytest.raises(ValidationError) as e:
                validate_value(q, past)
            low, high = VALUE_RANGE[q]
            assert e.value.reason == f"{q.value} {past} outside [{low:g}, {high:g}]"


def test_batches_and_day_files_share_the_record_order(tmp_path):
    quantities = (Quantity.CO, Quantity.CO2, Quantity.O3, Quantity.TEMPERATURE)  # code order
    ticks = [
        NodeTick(node, T0 + t, P, quantities, [1.0] * 4, bytes(4))
        for node in ("F5", "M1", "T1", "T10", "T2")
        for t in (0, 300, 600)
    ]
    random.Random(7).shuffle(ticks)
    batch = coordinator_uplink("C0", T0, T0 + 900, ticks)
    readings = [m for tick in ticks for m in tick.rows()]
    with OutputSet(tmp_path, "measurements-*.txt") as files:
        with DayFiles(files) as days:
            days.add(ticks)
    lines = (tmp_path / "measurements-2015-04-20.txt").read_text().splitlines()
    assert [parse_measurement(line) for line in lines] == list(batch.measurements)
    assert list(batch.measurements) == sorted(readings, key=record_key) != readings


# Readings of a few nodes and quantities, stamped on either side of UTC
# midnight so that they fill two day files; each key at most once.
_distinct_readings = st.lists(
    st.builds(
        Measurement,
        node_id=st.sampled_from(["F5", "M1", "T1", "T10", "T2"]),
        timestamp=st.sampled_from([T0 + t for t in (-600, -300, 0, 300, 600)]),
        position=st.sampled_from([P, GeoPoint(43.7195, 10.3966)]),
        quantity=st.sampled_from(QUANTITIES),
        value=st.sampled_from([0.0, 0.1, 51.33, 100.0]),  # in every quantity's range
        flags=st.frozensets(st.sampled_from(list(Flag))),
    ),
    min_size=2,
    max_size=40,
    unique_by=record_key,
)


@settings(max_examples=60, deadline=None)
@given(readings=_distinct_readings, data=st.data())
def test_the_loader_follows_the_record_order(tmp_path_factory, readings, data):
    root = tmp_path_factory.mktemp("days")
    with OutputSet(root, "measurements-*.txt") as files:
        with DayFiles(files) as days:
            days.add(node_ticks(readings))
    assert MeasurementStore(root).channels == channels_from(readings)

    # Swap two adjacent lines of one day file: the later one is refused.
    day_file = data.draw(st.sampled_from(sorted(root.glob("measurements-*.txt"))))
    lines = day_file.read_text().splitlines()
    if len(lines) < 2:
        return
    i = data.draw(st.integers(0, len(lines) - 2))
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    day_file.write_text("\n".join(lines) + "\n")
    m = parse_measurement(lines[i + 1])
    message = (f"{day_file.name} line {i + 2}: record out of order: "
               f"{m.node_id} {m.quantity.value} at {format_utc(m.timestamp)}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MeasurementStore(root)


@pytest.mark.parametrize("code", range(len(FLAG_SETS)))
def test_a_flag_code_is_written_as_its_set_and_read_back(tmp_path, code):
    with OutputSet(tmp_path, "measurements-*.txt") as files:
        with DayFiles(files) as days:
            days.add([NodeTick("T1", T0, P, (Quantity.CO2,), [451.0], bytes([code]))])
    (line,) = (tmp_path / "measurements-2015-04-20.txt").read_text().splitlines()
    assert line.split(",")[-1] == ";".join(sorted(f.value for f in FLAG_SETS[code]))
    (day,) = read_days(tmp_path)
    assert day.channels["T1", Quantity.CO2].flags == bytes([code])


def test_the_sensor_chain_flags_each_reading_with_its_sets_code():
    f = FieldModel(seed=1, baseline={Quantity.CO2: 420.0, Quantity.CO: co_ppm_to_mg_m3(3.0),
                                     Quantity.HC: 7.4})
    warming = NodeState(NodeDescriptor("T1", NodeKind.FIXED, frozenset({Quantity.CO2}), P), f,
                        powered_since=T0)
    warm = NodeState(NodeDescriptor("T2", NodeKind.FIXED, frozenset({Quantity.CO, Quantity.HC}), P),
                     f)
    first, second = SensorChain([warming, warm], 300).sample(T0)
    assert first.flags == bytes([FLAG_CODES[frozenset({Flag.WARMING_UP})]])
    assert second.quantities == (Quantity.CO, Quantity.HC)
    assert second.values == [0.0, 7.0]
    assert second.flags == bytes([FLAG_CODES[frozenset({Flag.BELOW_LOD})],
                                  FLAG_CODES[frozenset({Flag.QUANTIZED})]])


def test_the_gas_channels_are_the_ones_whose_default_spec_warms_up():
    assert {q for q in Quantity if default_sensor_spec(q).warmup_s > 0} == GAS_QUANTITIES
