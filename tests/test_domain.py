import dataclasses
import math
import random
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, settings, strategies as st

from citysense import domain
from citysense.domain import (
    UTC_FORMAT,
    GeoPoint,
    Measurement,
    NodeDescriptor,
    NodeKind,
    NodeTick,
    Quantity,
    ReportBatch,
    SiteGrid,
    UNITS,
    VALUE_RANGE,
    ValidationError,
    co_ppm_to_mg_m3,
    format_utc,
    haversine_distance,
    mean,
    parse_utc,
    validate_value,
)
from tests.geo import grid_cases

P = GeoPoint(43.716, 10.3966)


def meas(value=423.26, quantity=Quantity.CO2, **kw):
    defaults = dict(node_id="T1", timestamp=1_429_488_000, position=P, quantity=quantity, value=value)
    defaults.update(kw)
    return Measurement(**defaults)


class TestValidateValue:
    def test_accepts_valid_co2_reading(self):
        assert validate_value(Quantity.CO2, 423.26) == 423.26

    def test_rejects_negative_concentration(self):
        with pytest.raises(ValidationError) as e:
            validate_value(Quantity.PM25, -1.0)
        assert e.value.field_name == "value"
        assert e.value.reason == "pm25 -1.0 outside [0, inf]"

    def test_rejects_out_of_range_latitude(self):
        with pytest.raises(ValidationError) as e:
            GeoPoint(91.0, 10.0)
        assert e.value.field_name == "position"

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            validate_value(Quantity.CO2, math.nan)

    def test_negative_temperature_is_fine(self):
        validate_value(Quantity.TEMPERATURE, -5.0)

    @pytest.mark.parametrize("value", [100.5, -0.5, math.inf])
    def test_rejects_relative_humidity_outside_0_to_100(self, value):
        with pytest.raises(ValidationError) as e:
            validate_value(Quantity.RELATIVE_HUMIDITY, value)
        assert e.value.field_name == "value"

    @pytest.mark.parametrize("value", [0.0, 55.0, 100.0])
    def test_accepts_relative_humidity_within_0_to_100(self, value):
        validate_value(Quantity.RELATIVE_HUMIDITY, value)


class TestHaversine:
    def test_zero_at_identity(self):
        assert haversine_distance(P, P) == 0.0

    def test_milli_degree_of_latitude(self):
        # closed form on the sphere: R * dphi = 111.1949... m
        a = GeoPoint(43.716, 10.3966)
        b = GeoPoint(43.717, 10.3966)
        assert haversine_distance(a, b) == pytest.approx(111.19492664455875, abs=1e-3)

    @given(
        st.floats(-80, 80), st.floats(-179, 179),
        st.floats(-80, 80), st.floats(-179, 179),
    )
    def test_symmetry(self, lat1, lon1, lat2, lon2):
        a, b = GeoPoint(lat1, lon1), GeoPoint(lat2, lon2)
        assert haversine_distance(a, b) == pytest.approx(haversine_distance(b, a), rel=1e-12)

    @given(
        st.floats(-80, 80), st.floats(-179, 179),
        st.floats(-80, 80), st.floats(-179, 179),
        st.floats(-80, 80), st.floats(-179, 179),
    )
    def test_triangle_inequality(self, lat1, lon1, lat2, lon2, lat3, lon3):
        a, b, c = GeoPoint(lat1, lon1), GeoPoint(lat2, lon2), GeoPoint(lat3, lon3)
        ab = haversine_distance(a, b)
        bc = haversine_distance(b, c)
        ac = haversine_distance(a, c)
        assert ac <= ab + bc + 1e-6 * max(1.0, ac)


class TestSiteGrid:
    @settings(max_examples=300)
    @given(grid_cases())
    def test_near_holds_every_site_within_the_radius_in_site_order(self, case):
        sites, queries, radius = case
        grid = SiteGrid(sites, radius)
        for q in queries:
            near = list(grid.near(q))
            assert near == [s for s in sites if s in near]  # a subsequence, in order
            within = [s for s in sites if haversine_distance(q, s[1]) <= radius]
            assert all(s in near for s in within), (q, within, near)

    def test_a_city_is_searched_through_cells(self):
        sites = [(f"S{i}", GeoPoint(43.7 + 0.01 * i, 10.4)) for i in range(10)]
        grid = SiteGrid(sites, 500.0)
        near = grid.near(GeoPoint(43.7, 10.4))  # three rows of cells span 0.0135 degrees
        assert near[0] == sites[0] and len(near) <= 2
        assert grid.near(GeoPoint(-43.7, 10.4)) == ()

    @pytest.mark.parametrize("sites, radius", [
        ([("A", P)], 0.0),
        ([("A", P)], math.inf),
        ([("A", P)], 1e7),  # the band reaches a pole
        ([("A", GeoPoint(89.999, 0.0))], 500.0),
        ([("A", GeoPoint(10.0, 179.999))], 500.0),  # cells touch the antimeridian
        ([("A", GeoPoint(10.0, -179.999))], 500.0),
    ])
    def test_without_a_grid_every_site_is_near(self, sites, radius):
        assert SiteGrid(sites, radius).near(GeoPoint(-45.0, -90.0)) == tuple(sites)


class TestUnits:
    def test_unit_mapping_is_total(self):
        for q in Quantity:
            assert q in UNITS and UNITS[q]

    def test_value_range_is_total_and_holds_zero(self):
        # zero: the sensor chain's below-LoD placeholder must be in range
        for q in Quantity:
            low, high = VALUE_RANGE[q]
            assert low <= 0.0 <= high and low in (0.0, -math.inf)

    def test_co_is_stored_in_mg_per_m3(self):
        assert UNITS[Quantity.CO] == "mg/m3"


class TestCoConversion:
    def test_one_ppm(self):
        assert co_ppm_to_mg_m3(1.0) == pytest.approx(1.1445995094587829, rel=1e-12)

    def test_one_ppm_is_molar_mass_over_molar_volume(self):
        # 28.010 g/mol over 24.4715 L/mol, the molar volume at 25 degC and 1013 hPa
        assert co_ppm_to_mg_m3(1.0) == pytest.approx(28.010 / 24.4715, rel=1e-5)


class TestNodeDescriptor:
    def test_wind_speed_never_on_mobile(self):
        with pytest.raises(ValidationError):
            NodeDescriptor(
                "M1", NodeKind.MOBILE,
                frozenset({Quantity.WIND_SPEED}),
            )

    def test_fixed_needs_home_position(self):
        with pytest.raises(ValidationError):
            NodeDescriptor(
                "T1", NodeKind.FIXED,
                frozenset({Quantity.CO2}),
                home_position=None,
            )

    def test_mobile_must_not_have_home_position(self):
        with pytest.raises(ValidationError):
            NodeDescriptor(
                "M1", NodeKind.MOBILE,
                frozenset({Quantity.CO2}),
                home_position=P,
            )

    @pytest.mark.parametrize("node_id", ["", "T/1", "../evil", "T 1", "T,1", "T;1", "T.1", "T\u00e91"])
    def test_id_outside_the_store_grammar_rejected(self, node_id):
        with pytest.raises(ValidationError, match="node_id: bad identifier"):
            NodeDescriptor(node_id, NodeKind.FIXED, frozenset({Quantity.CO2}), home_position=P)

    def test_valid_fixed_node(self):
        n = NodeDescriptor(
            "T1", NodeKind.FIXED,
            frozenset({Quantity.WIND_SPEED, Quantity.PM25}),
            home_position=P,
        )
        assert n.kind is NodeKind.FIXED


class TestFrozenValues:
    def test_assignment_raises(self):
        m = meas()
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.value = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            P.lat = 0.0

    def test_no_instance_dict(self):
        assert not hasattr(meas(), "__dict__")
        assert not hasattr(P, "__dict__")

    def test_equal_values_hash_equal(self):
        a = meas(flags=frozenset({domain.Flag.QUANTIZED}), position=GeoPoint(43.716, 10.3966))
        b = meas(flags=frozenset({domain.Flag.QUANTIZED}), position=GeoPoint(43.716, 10.3966))
        assert a is not b and a == b and hash(a) == hash(b)
        assert a.position is not P and a.position == P and hash(a.position) == hash(P)
        assert a != meas(value=1.0) and GeoPoint(43.716, 10.0) != P


def tick(timestamp, node_id="T1"):
    """A two-reading tick of ``node_id`` at ``timestamp``."""
    return NodeTick(node_id, timestamp, P, (Quantity.CO2, Quantity.O3), [423.26, 51.3],
                    bytes([0, domain.FLAG_CODES[frozenset({domain.Flag.QUANTIZED})]]))


class TestNodeTick:
    def test_rows_are_its_readings_in_column_order(self):
        t = tick(1000)
        assert len(t) == 2
        assert t.rows() == [
            meas(timestamp=1000),
            meas(51.3, Quantity.O3, timestamp=1000, flags=frozenset({domain.Flag.QUANTIZED})),
        ]
        assert all(type(m) is Measurement and m.position is P for m in t.rows())

    def test_an_empty_tick_is_false(self):
        assert not NodeTick("T1", 0, P, (), [], b"")


class TestReportBatch:
    def test_rejects_future_timestamps(self):
        with pytest.raises(ValidationError) as e:
            ReportBatch("C0", 999, (tick(1000, "T0"), tick(1000)))
        assert e.value.field_name == "ticks"
        assert e.value.reason == "timestamp 1000 after uplink time 999"

    def test_accepts_boundary(self):
        ticks = (tick(700), tick(1000))
        batch = ReportBatch("C0", 1000, ticks)
        assert batch.ticks == ticks
        assert batch.measurements == tuple(ticks[0].rows() + ticks[1].rows())


def _epoch(text):
    return int(datetime.strptime(text, UTC_FORMAT).replace(tzinfo=timezone.utc).timestamp())


class TestUtcTime:
    @given(st.integers(0, _epoch("2100-12-31T23:59:59Z")))
    @example(0)
    @example(_epoch("1972-02-29T12:00:00Z"))
    @example(_epoch("2000-02-29T23:59:59Z"))
    @example(_epoch("2000-03-01T00:00:00Z"))
    @example(_epoch("2016-02-29T00:00:00Z"))
    @example(_epoch("2096-02-29T06:30:15Z"))
    @example(_epoch("1999-12-31T23:59:59Z"))
    @example(_epoch("2000-01-01T00:00:00Z"))
    @example(_epoch("2099-12-31T23:59:59Z"))
    @example(_epoch("2100-12-31T23:59:59Z"))
    def test_format_matches_strftime_and_round_trips(self, ts):
        text = format_utc(ts)
        assert text == datetime.fromtimestamp(ts, tz=timezone.utc).strftime(UTC_FORMAT)
        assert parse_utc(text) == ts

    @given(st.integers(_epoch("0001-01-01T00:00:00Z"), domain.LAST_STAMP))
    @example(_epoch("0001-01-01T00:00:00Z"))
    @example(_epoch("0999-12-31T23:59:59Z"))
    @example(_epoch("1000-01-01T00:00:00Z"))
    @example(domain.LAST_STAMP)
    def test_every_year_is_written_in_four_digits_and_round_trips(self, ts):
        text = format_utc(ts)
        moment = datetime.fromtimestamp(ts, tz=timezone.utc)
        assert text == f"{moment.year:04d}{moment.strftime(UTC_FORMAT[2:])}"
        assert parse_utc(text) == ts

    def test_stamp_cache_never_exceeds_its_bound(self):
        format_utc.cache_clear()
        assert format_utc.cache_info().maxsize == 16384
        for ts in range(1_429_488_000, 1_429_488_000 + (16384 + 50) * 300, 300):
            for _ in range(2):
                text = format_utc(ts)
                assert text == datetime.fromtimestamp(ts, tz=timezone.utc).strftime(UTC_FORMAT)
                assert format_utc.cache_info().currsize <= 16384
        assert format_utc.cache_info().currsize == 16384

    def test_example(self):
        assert format_utc(1_429_488_300) == "2015-04-20T00:05:00Z"
        assert parse_utc("2015-04-20T00:05:00Z") == 1_429_488_300

    @pytest.mark.parametrize(
        "text",
        [
            "2015-04-20T24:00:00Z",  # hour 24
            "2015-04-20T00:60:00Z",  # minute 60
            "2015-04-20T00:00:60Z",  # second 60
            "2015-02-30T00:00:00Z",  # Feb 30
            "2015-13-01T00:00:00Z",  # month 13
            "2015-04-20 00:00:00Z",  # space instead of T
            "2015-04-20T00:00:00",  # missing Z
            "2015-04-20T00:00:00Zx",  # trailing text
        ],
    )
    def test_parse_rejects_what_strptime_rejects(self, text):
        with pytest.raises(ValueError):
            datetime.strptime(text, UTC_FORMAT)
        with pytest.raises(ValueError):
            parse_utc(text)

    @pytest.mark.parametrize(
        "text",
        [
            "2015-04- 1T00:05:00Z",  # space-padded day, which strptime accepts
            "2015-04-20T00:05:00Z\u2028",  # strptime's message would hold it raw
            "\u0662015-04-20T00:05:00Z",  # a non-ASCII digit
        ],
    )
    def test_parse_rejects_what_format_does_not_write_in_one_line(self, text):
        with pytest.raises(ValueError) as info:
            parse_utc(text)
        assert str(info.value) == f"timestamp {text!r} is not {UTC_FORMAT}"
        assert len(str(info.value).splitlines()) == 1


class TestMean:
    @given(st.floats(allow_nan=False, allow_infinity=False), st.integers(1, 400))
    @example(0.1, 96)
    @example(14.7, 288)
    def test_one_repeated_value_is_its_own_mean(self, value, n):
        assert mean([value] * n) == value

    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=200), st.randoms())
    def test_independent_of_order(self, values, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        assert mean(shuffled) == mean(values)

    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=60),
        st.randoms(),
    )
    @example([1e308, -1e308], random.Random(0))  # a deviation overflows
    @example([0.0, 1.7e308, 0.0, 1.7e308], random.Random(0))  # their sum overflows
    def test_finite_between_the_extremes_and_order_free_over_every_float(self, values, rnd):
        result = mean(values)
        assert math.isfinite(result)
        assert min(values) <= result <= max(values)
        shuffled = list(values)
        rnd.shuffle(shuffled)
        assert mean(shuffled) == result

    def test_close_to_exact_mean(self):
        rng = random.Random(3)
        values = [rng.uniform(0.0, 500.0) for _ in range(1000)]
        assert mean(values) == pytest.approx(math.fsum(values) / len(values), rel=1e-15)
