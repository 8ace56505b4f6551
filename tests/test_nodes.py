import math

import pytest
from hypothesis import given, strategies as st

from citysense.domain import (
    FLAG_SETS,
    ConfigError,
    Flag,
    GeoPoint,
    Measurement,
    NodeDescriptor,
    NodeKind,
    Quantity,
    co_ppm_to_mg_m3,
)
from citysense.field import DRAW_BLOCK, FieldModel, Path
from citysense.nodes import (
    NodeState,
    SensorChain,
    SensorSpec,
    default_sensor_spec,
    lag_factor,
    quantize,
)

P = GeoPoint(43.716, 10.3966)


def fixed_node(suite, field, sensors=None, **kw):
    d = NodeDescriptor("T1", NodeKind.FIXED, frozenset(suite), home_position=P)
    return NodeState(descriptor=d, field=field, sensors=sensors or {}, **kw)


def still_mobile_node(suite, field):
    """A mobile node parked at ``P``: the chain asks ``field.value`` for it."""
    d = NodeDescriptor("M1", NodeKind.MOBILE, frozenset(suite))
    return NodeState(descriptor=d, field=field, trajectory=(Path("parked", (P,)), 1.0))


def ticks(node, times, period=300):
    """The node's ticks at ``times``, in turn, from one chain of ``period`` s."""
    chain = SensorChain([node], period)
    return [chain.sample(t)[0] for t in times]


def readings(node, times, period=300):
    """The readings of ``ticks``, as rows, in order."""
    return [m for tick in ticks(node, times, period) for m in tick.rows()]


class TestLagFactor:
    def test_no_time_keeps_the_last_reading(self):
        assert lag_factor(0.0, 90.0) == 1.0

    def test_step_reaches_90_percent_at_t90(self):
        assert 100.0 + (0.0 - 100.0) * lag_factor(90.0, 90.0) == pytest.approx(90.0, rel=1e-12)

    def test_step_reaches_99_percent_at_twice_t90(self):
        assert 100.0 + (0.0 - 100.0) * lag_factor(180.0, 90.0) == pytest.approx(99.0, rel=1e-12)

    @given(
        st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
        st.floats(0.001, 1e4), st.floats(1.0, 1e4),
    )
    def test_contraction(self, prev, target, dt, t90):
        out = target + (prev - target) * lag_factor(dt, t90)
        assert abs(out - target) <= abs(prev - target) + 1e-9


class TestQuantize:
    def test_rounds_down(self):
        assert quantize(3.4, 1.0) == 3.0

    def test_tie_away_from_zero(self):
        assert quantize(2.5, 1.0) == 3.0
        assert quantize(-2.5, 1.0) == -3.0

    def test_zero_resolution_is_identity(self):
        assert quantize(3.14159, 0.0) == 3.14159

    @pytest.mark.parametrize(
        "v, res",
        [(400.0, 1e-320), (-400.0, 1e-320), (1e300, 1e-10), (2.0**53, 1.0), (2.0**60 + 2**8, 1.0)],
    )
    def test_resolution_below_float_spacing_returns_value(self, v, res):
        # abs(v) / res is >= 2**53 or overflows: the float spacing at v
        # exceeds res, so rounding to a multiple of res cannot move v
        assert quantize(v, res) == v

    @given(
        st.floats(-1e300, 1e300),
        st.one_of(st.sampled_from([0.05, 0.5, 1.0, 2.5]), st.floats(0.0, 1e300)),
    )
    def test_never_moves_more_than_half_a_step(self, v, res):
        assert abs(quantize(v, res) - v) <= res / 2 + 1e-9 * abs(v)

    @pytest.mark.parametrize("v, res, out", [(1.5e308, 1e308, 1e308), (-1.5e308, 1e308, -1e308)])
    def test_rounding_past_the_largest_float_goes_toward_zero(self, v, res, out):
        assert quantize(v, res) == out

    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(0.0, allow_nan=False, allow_infinity=False),
    )
    def test_finite_in_finite_out(self, v, res):
        assert math.isfinite(quantize(v, res))


class TestDefaultSensorSpecs:
    def test_gas_channels_carry_datasheet_limits(self):
        co = default_sensor_spec(Quantity.CO)
        assert co.lod == pytest.approx(co_ppm_to_mg_m3(5.0))
        assert co.resolution == pytest.approx(co_ppm_to_mg_m3(1.0))
        co2 = default_sensor_spec(Quantity.CO2)
        assert (co2.lod, co2.resolution, co2.warmup_s, co2.t90_s) == (10.0, 1.0, 900.0, 90.0)
        hc = default_sensor_spec(Quantity.HC)
        assert (hc.lod, hc.resolution) == (5.0, 1.0)

    def test_continuous_channels_are_untouched(self):
        t = default_sensor_spec(Quantity.TEMPERATURE)
        assert (t.warmup_s, t.lod, t.resolution) == (0.0, 0.0, 0.0)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            SensorSpec(Quantity.CO2, t90_s=0.0)

    @pytest.mark.parametrize("resolution, rounded", [(6.0, "102"), (0.7, "100.1"), (200.0, "200")])
    def test_humidity_resolution_rounding_100_past_it_is_refused(self, resolution, rounded):
        with pytest.raises(ValueError, match=fr"rounds 100 to {rounded}, outside \[0, 100\]$"):
            SensorSpec(Quantity.RELATIVE_HUMIDITY, resolution=resolution)

    @pytest.mark.parametrize("resolution", [0.0, 0.3, 0.5, 1.0, 4.0])
    def test_humidity_resolution_keeping_100_in_range_is_accepted(self, resolution):
        assert SensorSpec(Quantity.RELATIVE_HUMIDITY, resolution=resolution).resolution == resolution


class StepField:
    """Test double: constant level that steps at a given time; no noise."""

    def __init__(self, before, after, step_t, quantity=Quantity.CO2):
        self.seed = 0
        self.noise_sigma = {}
        self.plumes = {}
        self._before, self._after, self._step_t = before, after, step_t
        self._q = quantity

    def tod_terms(self, q, tod):
        return 0.0

    def value(self, q, p, t):
        return self._after if t >= self._step_t else self._before


class TestSensorChain:
    def test_warmup_flags_gas_only(self):
        f = FieldModel(seed=1, baseline={Quantity.CO2: 420.0, Quantity.TEMPERATURE: 15.0})
        node = fixed_node({Quantity.CO2, Quantity.TEMPERATURE}, f, powered_since=0)
        by_q = {m.quantity: m for m in readings(node, [300])}
        assert Flag.WARMING_UP in by_q[Quantity.CO2].flags
        assert Flag.WARMING_UP not in by_q[Quantity.TEMPERATURE].flags

    def test_warmup_clears_after_15_minutes(self):
        f = FieldModel(seed=1, baseline={Quantity.CO2: 420.0})
        node = fixed_node({Quantity.CO2}, f, powered_since=0)
        flagged = [Flag.WARMING_UP in m.flags for m in readings(node, (0, 300, 600, 900))]
        assert flagged == [True, True, True, False]

    def test_below_lod_clamps_to_zero(self):
        # true CO 3 ppm against a 5 ppm detection limit (stored in mg/m3)
        f = FieldModel(seed=1, baseline={Quantity.CO: co_ppm_to_mg_m3(3.0)})
        node = fixed_node({Quantity.CO}, f)
        (m,) = readings(node, [0])
        assert Flag.BELOW_LOD in m.flags
        assert m.value == 0.0

    @pytest.mark.parametrize("bias_add, expected", [(5.0, 100.0), (-120.0, 0.0)])
    def test_relative_humidity_is_clamped_to_0_to_100(self, bias_add, expected):
        f = FieldModel(seed=1, baseline={Quantity.RELATIVE_HUMIDITY: 99.5})
        node = fixed_node({Quantity.RELATIVE_HUMIDITY}, f,
                          bias_add={Quantity.RELATIVE_HUMIDITY: bias_add})
        chain = SensorChain([node], 300)
        for t in (0, 300):
            (m,) = chain.sample(t)[0].rows()
            assert m.value == expected
        assert chain._last.tolist() == [99.5 + bias_add]  # the lag tracks the unclamped value

    def test_above_lod_quantized_to_1ppm(self):
        f = FieldModel(seed=1, baseline={Quantity.HC: 7.4})
        node = fixed_node({Quantity.HC}, f)
        (m,) = readings(node, [0])
        assert m.value == 7.0
        assert Flag.QUANTIZED in m.flags
        assert Flag.BELOW_LOD not in m.flags

    def test_settles_within_1pct_after_5_t90(self):
        field = StepField(0.0, 100.0, step_t=300, quantity=Quantity.TEMPERATURE)
        node = still_mobile_node({Quantity.TEMPERATURE}, field)
        times = range(0, 1200, 90)  # sample every t90 seconds
        trace = {m.timestamp: m.value for m in readings(node, times, period=90)}
        assert trace[0] == 0.0
        # first grid point >= 5*t90 after the step: residual ~1e-5, well within 1%
        assert trace[810] == pytest.approx(100.0, rel=0.01)

    def test_step_response_hits_90pct_one_sample_after_step(self):
        field = StepField(0.0, 100.0, step_t=90, quantity=Quantity.TEMPERATURE)
        node = still_mobile_node({Quantity.TEMPERATURE}, field)
        values = {m.timestamp: m.value for m in readings(node, range(0, 361, 90), period=90)}
        assert values[90] == pytest.approx(90.0, rel=1e-9)   # t90 after the step
        assert values[180] == pytest.approx(99.0, rel=1e-9)  # 2*t90 after

    def test_mobile_positions_stay_on_route(self):
        route = Path("r", (P, GeoPoint(43.716, 10.4053)))
        d = NodeDescriptor("M1", NodeKind.MOBILE, frozenset({Quantity.CO2}))
        f = FieldModel(seed=1, baseline={Quantity.CO2: 420.0})
        node = NodeState(descriptor=d, field=f, trajectory=(route, 4.0))
        for m in readings(node, range(0, 3600, 300)):
            assert _distance_to_segment(m.position, route.vertices[0], route.vertices[1]) < 1.0

    def test_mobile_requires_trajectory(self):
        d = NodeDescriptor("M1", NodeKind.MOBILE, frozenset({Quantity.CO2}))
        with pytest.raises(ValueError):
            NodeState(descriptor=d, field=FieldModel(seed=1, baseline={Quantity.CO2: 420.0}))

    def test_noise_streams_reproducible(self):
        f = FieldModel(seed=9, baseline={Quantity.CO2: 420.0}, noise_sigma={Quantity.CO2: 4.0})
        runs = []
        for _ in range(2):
            node = fixed_node({Quantity.CO2}, f, sensors={Quantity.CO2: SensorSpec(Quantity.CO2, lod=0.0)})
            runs.append([m.value for m in readings(node, range(0, 3000, 300))])
        assert runs[0] == runs[1]

    def test_noise_is_drawn_a_block_at_a_time(self):
        f = FieldModel(seed=9, baseline={Quantity.CO2: 420.0}, noise_sigma={Quantity.CO2: 4.0})
        node = fixed_node({Quantity.CO2}, f)
        sizes = []
        draw = node.channels[0].noise
        node.channels = (node.channels[0]._replace(
            noise=lambda n: sizes.append(n) or draw(n)),)
        ticks(node, range(0, (DRAW_BLOCK + 1) * 300, 300))
        assert sizes == [DRAW_BLOCK, DRAW_BLOCK]

    def test_channel_table_is_built_once_at_construction(self):
        f = FieldModel(seed=1, baseline={Quantity.CO2: 420.0, Quantity.O3: 50.0})
        bias_add = {Quantity.CO2: 5.0}
        node = fixed_node({Quantity.O3, Quantity.CO2}, f, bias_add=bias_add)
        table = node.channels
        assert [row.quantity for row in table] == [Quantity.CO2, Quantity.O3]
        assert node.quantities == (Quantity.CO2, Quantity.O3)
        assert table[0].bias_add == 5.0 and table[0].noise is None
        # the biases are read at construction: a later edit is not seen
        chain = SensorChain([node], 300)
        (co2, _) = chain.sample(0)[0].rows()
        bias_add[Quantity.CO2] = 100.0
        (later, _) = chain.sample(300)[0].rows()
        assert node.channels is table
        assert later.value == co2.value == 425.0

    def test_building_states_leaves_the_sensor_overrides_unchanged(self):
        f = FieldModel(seed=1, baseline={q: 10.0 for q in Quantity})
        co2 = SensorSpec(Quantity.CO2, lod=0.0)
        sensors = {Quantity.CO2: co2}
        first = fixed_node({Quantity.CO2, Quantity.HC}, f, sensors=sensors)
        second = fixed_node({Quantity.CO, Quantity.CO2}, f, sensors=sensors)
        assert sensors == {Quantity.CO2: co2}
        assert [row.spec for row in first.channels] == [co2, default_sensor_spec(Quantity.HC)]
        assert [row.spec for row in second.channels] == [default_sensor_spec(Quantity.CO), co2]

    def test_readings_share_interned_flag_sets(self):
        f = FieldModel(seed=1, baseline={Quantity.CO2: 5.4, Quantity.HC: 2.0})
        node = fixed_node({Quantity.CO2, Quantity.HC}, f)
        ms = readings(node, range(0, 900, 300))  # warm-up 900 s
        assert {m.flags for m in ms} == {
            frozenset({Flag.WARMING_UP, Flag.BELOW_LOD})
        }
        assert len({id(m.flags) for m in ms}) == 1

    def test_one_measurement_per_suite_quantity(self):
        f = FieldModel(seed=1, baseline={q: 10.0 for q in Quantity})
        suite = {Quantity.TEMPERATURE, Quantity.RELATIVE_HUMIDITY, Quantity.O3}
        node = fixed_node(suite, f)
        ms = readings(node, [0])
        assert [m.quantity for m in ms] == sorted(suite, key=lambda q: q.value)

    def test_a_tick_holds_the_suite_as_columns_in_its_nodes_shared_order(self):
        f = FieldModel(seed=1, baseline={q: 10.0 for q in Quantity})
        suite = {Quantity.TEMPERATURE, Quantity.RELATIVE_HUMIDITY, Quantity.O3}
        node = fixed_node(suite, f)
        first, second = ticks(node, (0, 300))
        assert first.quantities == tuple(sorted(suite, key=lambda q: q.value))
        assert second.quantities is first.quantities  # one tuple per node
        assert len(first) == len(first.values) == len(first.flags) == 3
        assert (first.node_id, first.timestamp, first.position) == ("T1", 0, P)
        assert first.rows() == [
            Measurement("T1", 0, P, q, v, FLAG_SETS[code])
            for q, v, code in zip(first.quantities, first.values, first.flags)
        ]

    def test_a_chain_hands_over_one_tick_per_node_with_a_suite_in_node_order(self):
        f = FieldModel(seed=1, baseline={q: 10.0 for q in Quantity})
        silent = NodeState(NodeDescriptor("C0", NodeKind.COORDINATOR, frozenset(), P), f)
        first = fixed_node({Quantity.O3}, f)
        second = NodeState(NodeDescriptor("T2", NodeKind.FIXED, frozenset({Quantity.CO2}), P), f)
        chain = SensorChain([second, silent, first], 300)
        assert chain.nodes == [second, first]
        assert [(tick.node_id, tick.quantities) for tick in chain.sample(0)] == [
            ("T2", (Quantity.CO2,)), ("T1", (Quantity.O3,))]

    def test_readings_equal_checked_measurements(self):
        f = FieldModel(seed=3, baseline={q: 10.0 for q in Quantity},
                       noise_sigma={Quantity.CO2: 2.0, Quantity.O3: 1.0})
        node = fixed_node({Quantity.CO2, Quantity.O3, Quantity.RELATIVE_HUMIDITY}, f)
        for m in readings(node, [0]):
            assert type(m) is Measurement and type(m.value) is float
            assert m == Measurement(m.node_id, m.timestamp, m.position, m.quantity, m.value, m.flags)

    @pytest.mark.parametrize("field_value", [math.inf, -math.inf, math.nan])
    def test_non_finite_chain_value_raises_naming_the_node(self, field_value):
        node = still_mobile_node({Quantity.TEMPERATURE}, StepField(field_value, field_value, 0))
        with pytest.raises(ConfigError, match=f"^node M1: value: not finite: {field_value!r}$"):
            ticks(node, [0])

    def test_the_first_node_with_a_non_finite_reading_is_named(self):
        f = FieldModel(seed=1, baseline={Quantity.TEMPERATURE: 1e308, Quantity.O3: 1e308})
        nodes = [NodeState(NodeDescriptor(f"T{i}", NodeKind.FIXED, frozenset({q}), P), f,
                           bias_mul={q: mul})
                 for i, (q, mul) in enumerate([(Quantity.TEMPERATURE, 1.0),
                                                (Quantity.TEMPERATURE, 10.0),
                                                (Quantity.O3, 10.0)])]
        with pytest.raises(ConfigError, match=r"^node T1: value: not finite: inf$"):
            SensorChain(nodes, 300).sample(0)


def _distance_to_segment(p: GeoPoint, a: GeoPoint, b: GeoPoint) -> float:
    # local ENU projection around a; fine at city scale
    m_per_deg_lat = math.pi * 6371000.0 / 180.0
    m_per_deg_lon = m_per_deg_lat * math.cos(math.radians(a.lat))

    def xy(g: GeoPoint):
        return ((g.lon - a.lon) * m_per_deg_lon, (g.lat - a.lat) * m_per_deg_lat)

    px, py = xy(p)
    bx, by = xy(b)
    seg_len2 = bx * bx + by * by
    t = 0.0 if seg_len2 == 0 else max(0.0, min(1.0, (px * bx + py * by) / seg_len2))
    dx, dy = px - t * bx, py - t * by
    return math.hypot(dx, dy)
