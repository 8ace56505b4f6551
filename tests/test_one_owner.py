"""Rules that several layers apply are owned by one table or helper in
``domain``, and every layer agrees with it: the physical range of a
quantity (``VALUE_RANGE``), which the field, the sensor chain and the
record check read, and the record order (``record_key``), which coordinator
batches and day files both follow."""

import math
import random

import pytest

from citysense.domain import (
    ALLOWED_QUANTITIES,
    GeoPoint,
    Measurement,
    NodeDescriptor,
    NodeKind,
    Quantity,
    VALUE_RANGE,
    ValidationError,
    record_key,
    validate_measurement,
)
from citysense.field import FieldModel
from citysense.netsim import coordinator_uplink
from citysense.nodes import NodeState, sample
from citysense.store import OutputSet, parse_measurement, write_measurements

P = GeoPoint(43.716, 10.3966)
T0 = 1_429_488_000  # 2015-04-20T00:00:00Z
FAR = 1e6  # farther past every finite bound than any reading of the field
QUANTITIES = sorted(Quantity, key=lambda q: q.value)


def _static_node(q: Quantity, **kw) -> NodeState:
    kind = next(k for k in (NodeKind.FIXED, NodeKind.WEATHER_STATION) if q in ALLOWED_QUANTITIES[k])
    return NodeState(NodeDescriptor("N1", kind, frozenset({q}), home_position=P), **kw)


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
            (m,) = sample(_static_node(q, bias_add={q: far}), f, T0)
            assert validate_measurement(m) is m
            assert m.value == pytest.approx(_expected(bound, far), rel=1e-5)
            if math.isfinite(bound):
                assert m.value == bound

    def test_record_check_accepts_each_bound_and_refuses_one_ulp_past(self, q):
        for bound, outward in zip(VALUE_RANGE[q], (-math.inf, math.inf)):
            if not math.isfinite(bound):
                continue
            validate_measurement(Measurement("N1", T0, P, q, bound))
            past = math.nextafter(bound, outward)
            with pytest.raises(ValidationError) as e:
                validate_measurement(Measurement("N1", T0, P, q, past))
            low, high = VALUE_RANGE[q]
            assert e.value.reason == f"{q.value} {past} outside [{low:g}, {high:g}]"


def test_batches_and_day_files_share_the_record_order(tmp_path):
    readings = [
        Measurement(node, T0 + t, P, q, 1.0)
        for node in ("F5", "M1", "T1", "T10", "T2")
        for t in (0, 300, 600)
        for q in (Quantity.O3, Quantity.CO, Quantity.CO2, Quantity.TEMPERATURE)
    ]
    random.Random(7).shuffle(readings)
    batch = coordinator_uplink("C0", T0, T0 + 900, readings)
    with OutputSet(tmp_path, "measurements-*.txt") as files:
        write_measurements(files, readings)
    lines = (tmp_path / "measurements-2015-04-20.txt").read_text().splitlines()
    assert [parse_measurement(line) for line in lines] == list(batch.measurements)
    assert list(batch.measurements) == sorted(readings, key=record_key) != readings
