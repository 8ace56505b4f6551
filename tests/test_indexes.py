import dataclasses
import math
import random

import pytest
from hypothesis import given, strategies as st

from citysense.domain import EXCLUDED_FLAGS, Flag, GeoPoint, Measurement, Quantity
from citysense.indexes import (
    DegenerateCompositionError,
    IndexColor,
    IndexComputer,
    IndexKind,
    O3_BANDS,
    PM_BANDS,
    TCI_BANDS,
    TrafficAccessConfig,
    apparent_temperature_model,
    aqi_o3,
    aqi_pm,
    classify,
    compute_indexes,
    index_record_line,
    tci,
    traffic_index,
)
from citysense.scenario import load_scenario, with_seed
from tests.rows import channels_from, days_from, record

EPS = 1e-9
TCI_INPUTS = (
    Quantity.TEMPERATURE, Quantity.RADIANT_TEMPERATURE, Quantity.WIND_SPEED, Quantity.RELATIVE_HUMIDITY,
)
P = GeoPoint(43.716, 10.3966)


class TestAqiBands:
    # exhaustive boundary checks under the left-closed convention
    O3_CASES = [
        (50.0, IndexColor.GREEN),
        (100.0 - EPS, IndexColor.GREEN),
        (100.0, IndexColor.YELLOW),
        (100.0 + EPS, IndexColor.YELLOW),
        (180.0 - EPS, IndexColor.YELLOW),
        (180.0, IndexColor.ORANGE),
        (180.0 + EPS, IndexColor.ORANGE),
        (240.0 - EPS, IndexColor.ORANGE),
        (240.0, IndexColor.RED),
        (240.0 + EPS, IndexColor.RED),
        (500.0, IndexColor.RED),
    ]
    PM_CASES = [
        (9.0, IndexColor.GREEN),
        (10.0 - EPS, IndexColor.GREEN),
        (10.0, IndexColor.YELLOW),
        (25.0 - EPS, IndexColor.YELLOW),
        (25.0, IndexColor.ORANGE),
        (60.0 - EPS, IndexColor.ORANGE),
        (60.0, IndexColor.RED),
    ]

    @pytest.mark.parametrize("value,color", O3_CASES)
    def test_o3_thresholds(self, value, color):
        assert aqi_o3([value]).color is color

    @pytest.mark.parametrize("value,color", PM_CASES)
    def test_pm_thresholds(self, value, color):
        assert aqi_pm([value]).color is color

    def test_empty_window_is_unknown(self):
        iv = aqi_o3([], station_id="T1", window_end=1000)
        assert iv.color is IndexColor.UNKNOWN
        assert math.isnan(iv.value)

    def test_mean_is_arithmetic(self):
        iv = aqi_o3([50.0, 250.0])
        assert iv.value == 150.0
        assert iv.color is IndexColor.YELLOW

    @given(st.lists(st.floats(0, 500), min_size=1, max_size=100))
    def test_mean_matches_brute_force_and_permutation_invariant(self, values):
        iv = aqi_o3(values)
        brute = math.fsum(values) / len(values)
        assert iv.value == pytest.approx(brute, rel=1e-12)
        assert aqi_o3(list(reversed(values))).value == pytest.approx(iv.value, rel=1e-12)

    @given(st.floats(0, 400), st.floats(0, 400))
    def test_color_never_improves_as_value_rises(self, v1, v2):
        rank = {
            IndexColor.GREEN: 0, IndexColor.YELLOW: 1,
            IndexColor.ORANGE: 2, IndexColor.RED: 3,
        }
        lo, hi = min(v1, v2), max(v1, v2)
        for bands in (O3_BANDS, PM_BANDS):
            assert rank[classify(lo, bands)] <= rank[classify(hi, bands)]


class TestTci:
    TCI_CASES = [
        (-13.0, IndexColor.DARK_BLUE),
        (-5.0, IndexColor.DARK_BLUE),
        (0.0 - EPS, IndexColor.DARK_BLUE),
        (0.0, IndexColor.BLUE),
        (9.0 - EPS, IndexColor.BLUE),
        (9.0, IndexColor.GREEN),
        (20.0, IndexColor.GREEN),
        (26.0 - EPS, IndexColor.GREEN),
        (26.0, IndexColor.ORANGE),
        (32.0 - EPS, IndexColor.ORANGE),
        (32.0, IndexColor.RED),
        (38.0 - EPS, IndexColor.RED),
        (38.0, IndexColor.DARK_RED),
        (46.0 - EPS, IndexColor.DARK_RED),
    ]

    @pytest.mark.parametrize("value,color", TCI_CASES)
    def test_band_table(self, value, color):
        assert classify(value, TCI_BANDS) is color

    @pytest.mark.parametrize("value", [46.0, 60.0, -13.0 - EPS, -40.0])
    def test_outside_coverage_is_unknown(self, value):
        assert classify(value, TCI_BANDS) is IndexColor.UNKNOWN

    def test_bands_the_apparent_temperature(self):
        iv = tci(20.0, 35.0, 3.0, 80.0)
        assert iv.value == apparent_temperature_model(20.0, 35.0, 3.0, 80.0)
        assert iv.color is classify(iv.value, TCI_BANDS)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            tci(math.nan, 20.0, 0.0, 50.0)
        with pytest.raises(ValueError):
            tci(20.0, 20.0, 0.0, 150.0)

    def test_apparent_model_uses_all_inputs(self):
        base = apparent_temperature_model(20.0, 20.0, 0.0, 50.0)
        assert apparent_temperature_model(20.0, 40.0, 0.0, 50.0) > base  # radiant load
        assert apparent_temperature_model(20.0, 20.0, 5.0, 50.0) < base  # wind chill
        assert apparent_temperature_model(20.0, 20.0, 0.0, 90.0) > base  # humidity
        assert base == pytest.approx(19.85, abs=0.3)

    @given(st.floats(-20, 45), st.floats(-20, 45), st.floats(0, 20), st.floats(0, 100))
    def test_apparent_model_is_finite(self, air, radiant, wind, rh):
        assert math.isfinite(apparent_temperature_model(air, radiant, wind, rh))


def brute_force_ti(cfg: TrafficAccessConfig) -> float:
    # independent recomputation straight from the definition
    from citysense.indexes import LOCALIZATION_FACTORS, VEHICLE_EQUIVALENTS

    d1 = 0.0
    for cls, share in cfg.composition.items():
        d1 += share * VEHICLE_EQUIVALENTS[cls]
    d4 = 0.0
    for man, share in cfg.maneuver_shares.items():
        d4 += share * cfg.maneuver_equivalents[man]
    k2 = 1.0
    if cfg.grade == "uphill":
        k2 = 1.0 - 0.03 * cfg.steepness_pct
    elif cfg.grade == "downhill":
        k2 = 1.0 + 0.03 * cfg.steepness_pct
    return cfg.s_b * (1.0 / d1) * k2 * LOCALIZATION_FACTORS[cfg.localization] * (1.0 / d4)


class TestTrafficIndex:
    def test_all_unity_returns_base_factor_exactly(self):
        iv = traffic_index(TrafficAccessConfig(composition={"cars": 1.0}))
        assert iv.value == 1800.0
        assert iv.kind is IndexKind.TI

    @pytest.mark.parametrize(
        "kw",
        [{"s_b": math.nan}, {"s_b": math.inf}, {"s_b": 0.0}, {"s_b": -5.0},
         {"steepness_pct": math.nan}, {"steepness_pct": math.inf}, {"steepness_pct": -1.0}],
    )
    def test_rejects_bad_base_factor_and_steepness(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            TrafficAccessConfig(composition={"cars": 1.0}, **kw)

    def test_uphill_grade_must_keep_k2_positive(self):
        # K2 = 1 - 0.03 * s reaches 0 at s = 100/3
        limit = 100.0 / 3.0
        for grade in ("flat", "downhill"):
            assert traffic_index(TrafficAccessConfig({"cars": 1.0}, steepness_pct=50.0, grade=grade)).value > 0
        below = TrafficAccessConfig({"cars": 1.0}, steepness_pct=math.nextafter(limit, 0.0), grade="uphill")
        assert below.factors()[1] > 0.0 and traffic_index(below).value > 0.0
        for s in (limit, 50.0):
            with pytest.raises(ValueError, match="steepness_pct"):
                TrafficAccessConfig({"cars": 1.0}, steepness_pct=s, grade="uphill")

    def test_all_buses(self):
        iv = traffic_index(TrafficAccessConfig(composition={"buses": 1.0}))
        assert iv.value == pytest.approx(800.0, rel=1e-12)

    def test_mixed_uphill_business(self):
        cfg = TrafficAccessConfig(
            composition={"cars": 0.5, "motorcycles": 0.5},
            steepness_pct=5.0,
            grade="uphill",
            localization="business",
        )
        iv = traffic_index(cfg)
        # hand oracle: 1800 * (1/0.665) * 0.85 * 0.85 * 1
        assert iv.value == pytest.approx(1955.6390977443605, rel=1e-9)

    def test_downhill_increases(self):
        flat = traffic_index(TrafficAccessConfig(composition={"cars": 1.0}))
        down = traffic_index(
            TrafficAccessConfig(composition={"cars": 1.0}, steepness_pct=5.0, grade="downhill")
        )
        up = traffic_index(
            TrafficAccessConfig(composition={"cars": 1.0}, steepness_pct=5.0, grade="uphill")
        )
        assert down.value == pytest.approx(1800.0 * 1.15, rel=1e-12)
        assert up.value == pytest.approx(1800.0 * 0.85, rel=1e-12)
        assert up.value < flat.value < down.value

    def test_matches_brute_force_on_randomized_configs(self):
        import random

        rnd = random.Random(42)
        classes = list(["bicycles", "motorcycles", "cars", "trucks", "buses", "trams"])
        maneuvers = ["straight", "turning_right", "turning_left"]
        locs = ["residential", "commercial", "industrial", "business"]
        for _ in range(25):
            weights = [rnd.random() + 0.01 for _ in classes]
            total = sum(weights)
            comp = {c: w / total for c, w in zip(classes, weights)}
            mw = [rnd.random() + 0.01 for _ in maneuvers]
            mt = sum(mw)
            man = {m: w / mt for m, w in zip(maneuvers, mw)}
            cfg = TrafficAccessConfig(
                composition=comp,
                maneuver_shares=man,
                steepness_pct=rnd.uniform(0, 8),
                grade=rnd.choice(["flat", "uphill", "downhill"]),
                localization=rnd.choice(locs),
                maneuver_equivalents={
                    "straight": 1.0,
                    "turning_right": rnd.uniform(1.0, 1.25),
                    "turning_left": rnd.uniform(1.0, 1.75),
                },
            )
            assert traffic_index(cfg).value == pytest.approx(brute_force_ti(cfg), rel=1e-9)

    def test_scale_invariant_composition(self):
        # scaling all raw counts by a constant leaves the shares, hence TI,
        # unchanged
        raw = {"cars": 30.0, "buses": 10.0, "bicycles": 60.0}
        for c in (1.0, 7.5):
            total = sum(v * c for v in raw.values())
            comp = {k: v * c / total for k, v in raw.items()}
            ti = traffic_index(TrafficAccessConfig(composition=comp)).value
            if c == 1.0:
                reference = ti
        assert ti == pytest.approx(reference, rel=1e-12)

    def test_strictly_decreasing_in_vehicle_equivalent(self):
        light = traffic_index(TrafficAccessConfig(composition={"motorcycles": 1.0}))
        heavy = traffic_index(TrafficAccessConfig(composition={"trams": 1.0}))
        mixed_light = traffic_index(
            TrafficAccessConfig(composition={"cars": 0.5, "bicycles": 0.5})
        )
        mixed_heavy = traffic_index(
            TrafficAccessConfig(composition={"cars": 0.5, "trucks": 0.5})
        )
        assert heavy.value < light.value
        assert mixed_heavy.value < mixed_light.value

    def test_strictly_decreasing_in_maneuver_weight(self):
        lo = TrafficAccessConfig(
            composition={"cars": 1.0},
            maneuver_shares={"straight": 0.5, "turning_left": 0.5},
            maneuver_equivalents={"straight": 1.0, "turning_right": 1.25, "turning_left": 1.2},
        )
        hi = TrafficAccessConfig(
            composition={"cars": 1.0},
            maneuver_shares={"straight": 0.5, "turning_left": 0.5},
            maneuver_equivalents={"straight": 1.0, "turning_right": 1.25, "turning_left": 1.75},
        )
        assert traffic_index(hi).value < traffic_index(lo).value

    def test_shares_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TrafficAccessConfig(composition={"cars": 0.4, "buses": 0.4})

    def test_degenerate_composition(self):
        cfg = TrafficAccessConfig(
            composition={"cars": 1.0},
            maneuver_shares={"straight": 1.0},
            maneuver_equivalents={"straight": 0.0, "turning_right": 1.25, "turning_left": 1.75},
        )
        with pytest.raises(DegenerateCompositionError):
            traffic_index(cfg)


def o3_measurement(value, t, node="T1", flags=frozenset()):
    return Measurement(node, t, P, Quantity.O3, value, flags)


def tci_readings(t, temp, node="T1"):
    return [
        Measurement(node, t, P, Quantity.TEMPERATURE, temp),
        Measurement(node, t, P, Quantity.RADIANT_TEMPERATURE, temp + 1.0),
        Measurement(node, t, P, Quantity.WIND_SPEED, 0.1 * (t // 300 % 7)),
        Measurement(node, t, P, Quantity.RELATIVE_HUMIDITY, 40.0 + t // 300 % 50),
    ]


def apparent(t, temp):
    """The TCI value of ``tci_readings(t, temp)``."""
    return apparent_temperature_model(*(m.value for m in tci_readings(t, temp)))


class TestIndexComputer:
    def test_constant_stream_is_yellow_every_tick(self):
        computer = IndexComputer()
        computer.ingest(channels_from(o3_measurement(150.0, t) for t in range(0, 8 * 900, 300)))
        out_colors = [
            iv.color
            for window_end in range(900, 9 * 900, 900)
            for iv in computer.update(window_end)
            if iv.kind is IndexKind.AQI_O3
        ]
        assert len(out_colors) == 8 and set(out_colors) == {IndexColor.YELLOW}

    def test_window_straddling_a_step_averages_to_yellow(self):
        computer = IndexComputer()
        ms = [o3_measurement(50.0, t) for t in range(0, 4 * 3600, 300)]
        ms += [o3_measurement(250.0, t) for t in range(4 * 3600, 8 * 3600, 300)]
        computer.ingest(channels_from(ms))
        (iv,) = computer.update(8 * 3600)
        assert iv.value == pytest.approx(150.0, rel=1e-12)
        assert iv.color is IndexColor.YELLOW

    def test_no_data_in_window_is_unknown(self):
        computer = IndexComputer()
        computer.ingest(channels_from([o3_measurement(150.0, 0)]))
        (iv,) = computer.update(9 * 3600)  # reading has aged out of the 8 h window
        assert iv.color is IndexColor.UNKNOWN

    def test_flagged_measurements_are_excluded(self):
        computer = IndexComputer()
        computer.ingest(channels_from(
            [
                o3_measurement(150.0, 300),
                o3_measurement(999.0, 600, flags=frozenset({Flag.WARMING_UP})),
                o3_measurement(0.0, 900, flags=frozenset({Flag.BELOW_LOD})),
            ]
        ))
        (iv,) = computer.update(3600)
        assert iv.value == 150.0

    def test_emits_only_stations_with_data(self):
        computer = IndexComputer()
        computer.ingest(channels_from([o3_measurement(42.0, 300, node="T1")]))
        out = computer.update(900)
        assert [iv.station_id for iv in out] == ["T1"]

    def test_tci_uses_latest_inputs_per_station(self):
        computer = IndexComputer()
        ms = []
        for t, temp in ((300, 10.0), (600, 21.5)):
            ms += [
                Measurement("T1", t, P, Quantity.TEMPERATURE, temp),
                Measurement("T1", t, P, Quantity.RADIANT_TEMPERATURE, temp),
                Measurement("T1", t, P, Quantity.WIND_SPEED, 0.5),
                Measurement("T1", t, P, Quantity.RELATIVE_HUMIDITY, 60.0),
            ]
        computer.ingest(channels_from(ms))
        tci_values = [iv for iv in computer.update(900) if iv.kind is IndexKind.TCI]
        assert len(tci_values) == 1
        assert tci_values[0].value == apparent_temperature_model(21.5, 21.5, 0.5, 60.0)  # latest reading
        assert tci_values[0].color is IndexColor.GREEN

    def test_tci_needs_all_four_inputs(self):
        computer = IndexComputer()
        computer.ingest(channels_from([Measurement("M1", 300, P, Quantity.TEMPERATURE, 20.0)]))
        assert [iv.kind for iv in computer.update(900)] == []

    def test_a_later_reading_ingested_first_adds_no_row(self):
        computer = IndexComputer()
        computer.ingest(channels_from([
            o3_measurement(42.0, 300, node="T1"), o3_measurement(60.0, 5000, node="T2"),
            *tci_readings(5000, 20.0, node="T1"),
        ]))
        assert [(iv.station_id, iv.kind) for iv in computer.update(900)] == [("T1", IndexKind.AQI_O3)]

    def test_thermal_reading_stamped_at_t_is_not_used_at_t(self):
        computer = IndexComputer()
        computer.ingest(channels_from([*tci_readings(300, 10.0), *tci_readings(900, 30.0)]))
        assert [iv.value for iv in computer.update(900)] == [apparent(300, 10.0)]
        assert [iv.value for iv in computer.update(901)] == [apparent(900, 30.0)]
        only_at_t = IndexComputer()
        only_at_t.ingest(channels_from(tci_readings(900, 30.0)))
        assert only_at_t.update(900) == []


class TestComputeIndexes:
    def _o3(self, records):
        return [
            (iv.window_end, iv.value)
            for iv in compute_indexes(days_from(records), 900)
            if iv.kind is IndexKind.AQI_O3
        ]

    def test_no_records_no_values(self):
        assert list(compute_indexes([], 900)) == []

    def test_grid_runs_from_after_first_to_after_last_reading(self):
        values = self._o3([o3_measurement(40.0, 300), o3_measurement(100.0, 1000)])
        assert values == [(900, 40.0), (1800, 70.0)]

    def test_reading_on_a_grid_point_counts_at_the_next_point(self):
        values = self._o3([o3_measurement(40.0, 300), o3_measurement(100.0, 900)])
        assert values == [(900, 40.0), (1800, 70.0)]
        # a first reading on a grid point starts the grid one period later
        assert self._o3([o3_measurement(100.0, 900)]) == [(1800, 100.0)]
        # so do thermal inputs
        tci_values = [
            (iv.window_end, iv.value)
            for iv in compute_indexes(
                days_from([*tci_readings(300, 10.0), *tci_readings(900, 20.0)]), 900)
        ]
        assert tci_values == [(900, apparent(300, 10.0)), (1800, apparent(900, 20.0))]

    def test_station_appears_only_after_its_first_reading(self):
        records = [o3_measurement(40.0, t, node="T1") for t in range(0, 3600, 300)]
        records += [o3_measurement(60.0, t, node="T2") for t in range(2000, 3600, 300)]
        records += tci_readings(2000, 20.0, node="T3")
        stations = {}
        for iv in compute_indexes(days_from(records), 900):
            stations.setdefault(iv.station_id, []).append(iv.window_end)
        assert stations == {"T1": [900, 1800, 2700, 3600], "T2": [2700, 3600], "T3": [2700, 3600]}

    def test_input_order_does_not_matter(self):
        ms = []
        for t in range(0, 6 * 3600, 300):
            ms.append(o3_measurement(50.0 + t % 7, t))
            ms.append(Measurement("T2", t, P, Quantity.PM25, 5.0 + t % 11))
            for q, v in (
                (Quantity.TEMPERATURE, 15.0 + t / 3600),
                (Quantity.RADIANT_TEMPERATURE, 16.0),
                (Quantity.WIND_SPEED, 0.5),
                (Quantity.RELATIVE_HUMIDITY, 60.0),
            ):
                ms.append(Measurement("T1", t, P, q, v))
        expected = list(compute_indexes(days_from(ms), 900))
        assert {iv.kind for iv in expected} == {IndexKind.AQI_O3, IndexKind.AQI_PM, IndexKind.TCI}
        shuffled = list(ms)
        random.Random(5).shuffle(shuffled)
        assert list(compute_indexes(days_from(shuffled), 900)) == expected


class RescanReference:
    """Brute-force index windows: every update rescans each station's whole
    history, as ``IndexComputer`` once did. A window is a list comprehension
    over the readings in arrival order; a thermal input is the last reading
    appended among those stamped before t."""

    def __init__(self):
        self.series: dict[str, dict[Quantity, list[tuple[int, float]]]] = {}

    def ingest(self, measurements):
        for m in measurements:
            if m.flags & EXCLUDED_FLAGS or m.quantity not in (Quantity.O3, Quantity.PM25, *TCI_INPUTS):
                continue
            self.series.setdefault(m.node_id, {}).setdefault(m.quantity, []).append((m.timestamp, m.value))

    def update(self, t):
        out = []
        for station in sorted(self.series):
            series = self.series[station]
            for q, window_s, index in ((Quantity.O3, 8 * 3600, aqi_o3), (Quantity.PM25, 24 * 3600, aqi_pm)):
                if q in series:
                    out.append(index([v for ts, v in series[q] if t - window_s <= ts < t], station, t))
            if all(q in series for q in TCI_INPUTS):
                latest = {}
                for q in TCI_INPUTS:
                    usable = [(ts, v) for ts, v in series[q] if ts < t]
                    if usable:
                        latest[q] = usable[-1][1]
                if len(latest) == len(TCI_INPUTS):
                    out.append(tci(*(latest[q] for q in TCI_INPUTS), station, t))
        return out


def reference_indexes(records, period_s):
    """The grid of ``compute_indexes`` driven by ``RescanReference``."""
    ordered = sorted(records, key=lambda m: m.timestamp)
    reference = RescanReference()
    first, last = ordered[0].timestamp // period_s, ordered[-1].timestamp // period_s
    out, i = [], 0
    for t in range((first + 1) * period_s, (last + 2) * period_s, period_s):
        j = i
        while j < len(ordered) and ordered[j].timestamp < t:
            j += 1
        reference.ingest(ordered[i:j])
        out.extend(reference.update(t))
        i = j
    return out


@pytest.fixture(scope="module")
def three_day_records():
    cfg = with_seed(load_scenario("pisa-default"), 7)
    cfg = dataclasses.replace(cfg, duration_s=3 * 86400)
    return cfg.uplink_period_s, [m for _, m in record(cfg).server_measurements]


class TestWindowsAgainstRescan:
    def test_three_day_campaign_equals_rescan(self, three_day_records):
        period_s, records = three_day_records
        got = [index_record_line(iv) for iv in compute_indexes(days_from(records), period_s)]
        want = [index_record_line(iv) for iv in reference_indexes(records, period_s)]
        assert {line.split(",")[0] for line in got} == {"aqi_o3", "aqi_pm", "tci"}
        assert len(got) > 5000
        assert got == want  # value repr and colour, exactly

    @pytest.mark.parametrize("period_s", [900, 3600, 1000, 7 * 3600])
    def test_a_day_at_a_time_equals_the_whole_campaign(self, three_day_records, period_s):
        # One day ingested at a time, trimmed between days, gives the lines of
        # the campaign ingested whole; a period that does not divide the day
        # leaves the first point after a day's last reading to the next day.
        _, records = three_day_records
        by_day = days_from(records, by_day=True)
        assert len(by_day) == 3
        got = [index_record_line(iv) for iv in compute_indexes(by_day, period_s)]
        assert got == [index_record_line(iv) for iv in compute_indexes(days_from(records), period_s)]
        assert got == [index_record_line(iv) for iv in reference_indexes(records, period_s)]

    def test_trim_keeps_what_later_updates_read(self):
        ms = [o3_measurement(float(t % 97), t) for t in range(0, 20 * 3600, 300)]
        ms += [Measurement("T1", 0, P, Quantity.PM25, 9.0), *tci_readings(600, 12.0)]
        whole, trimmed = IndexComputer(), IndexComputer()
        whole.ingest(channels_from(ms))
        trimmed.ingest(channels_from(ms))
        trimmed.trim(12 * 3600)
        for t in range(12 * 3600, 22 * 3600, 900):
            assert trimmed.update(t) == whole.update(t)
        held = trimmed._series["T1"]
        # o3 from the last reading before the 8 h window on, the latest of each other input
        assert held[Quantity.O3][0][:2].tolist() == [4 * 3600 - 300, 4 * 3600]
        assert len(held[Quantity.O3][0]) == 1 + (20 - 4) * 12
        assert {len(held[q][0]) for q in held if q is not Quantity.O3} == {1}


class TestIngestOrder:
    """Records may come in any order: ``channels_from`` puts each
    channel in timestamp order, and ``ingest`` takes each series whole."""

    def _readings(self):
        ms = []
        for t in range(0, 30 * 3600, 300):
            ms.append(o3_measurement(50.0 + t % 13, t, node="T1"))
            ms.append(Measurement("T2", t + 7, P, Quantity.PM25, 5.0 + t % 11))
            ms += tci_readings(t + 11, 10.0 + (t % 3600) / 300)
        return ms

    def test_shuffled_records_give_the_channels_and_updates_of_sorted_ones(self):
        ms = self._readings()  # in timestamp order
        expected = IndexComputer()
        expected.ingest(channels_from(ms))
        shuffled = list(ms)
        random.Random(11).shuffle(shuffled)
        assert channels_from(shuffled) == channels_from(ms)
        computer = IndexComputer()
        computer.ingest(channels_from(shuffled))
        # every reading is held before the first update, so each update
        # must pick its windows and latest thermal inputs by timestamp
        for t in range(900, 31 * 3600, 900):
            assert computer.update(t) == expected.update(t)
        latest = [m.value for m in ms if m.timestamp == 911 and m.quantity in TCI_INPUTS]
        (got,) = [iv for iv in computer.update(1000) if iv.kind is IndexKind.TCI]
        assert got == tci(*latest, "T1", 1000)

    def test_tci_takes_latest_timestamp_not_last_given(self):
        computer = IndexComputer()
        later_first = [*tci_readings(1200, 30.0), *tci_readings(600, 20.0), *tci_readings(300, 10.0)]
        computer.ingest(channels_from(later_first))
        values = [iv.value for t in (301, 901, 1201) for iv in computer.update(t)]
        assert values == [apparent(300, 10.0), apparent(600, 20.0), apparent(1200, 30.0)]

    def test_a_second_ingest_of_a_held_series_is_refused(self):
        computer = IndexComputer()
        computer.ingest(channels_from([o3_measurement(40.0, 100), o3_measurement(60.0, 200)]))
        # an ingest appends to a held series only readings stamped after it
        later = channels_from([o3_measurement(90.0, 200), o3_measurement(5.0, 300, node="T2")])
        with pytest.raises(ValueError, match="station 'T1' already holds o3 readings up to "
                                             "1970-01-01T00:03:20Z"):
            computer.ingest(later)
        assert [(iv.station_id, iv.value) for iv in computer.update(900)] == [("T1", 50.0)]
        # other quantities and stations are taken; unusable readings of a held series are no conflict
        computer.ingest(channels_from([
            Measurement("T1", 300, P, Quantity.PM25, 7.0), o3_measurement(5.0, 300, node="T2"),
            o3_measurement(999.0, 400, flags=frozenset({Flag.WARMING_UP})),
        ]))
        assert [(iv.station_id, iv.value) for iv in computer.update(900)] == [
            ("T1", 50.0), ("T1", 7.0), ("T2", 5.0)]

    def test_equal_timestamps_keep_the_order_given(self):
        # the last reading given among those stamped before t is the latest
        computer = IndexComputer()
        computer.ingest(channels_from([*tci_readings(300, 10.0), *tci_readings(300, 20.0)]))
        assert [iv.value for iv in computer.update(900)] == [apparent(300, 20.0)]


class TestRecordLine:
    def test_format(self):
        from citysense.indexes import IndexValue

        iv = IndexValue(IndexKind.AQI_O3, "T1", 1_429_488_000, 51.5, IndexColor.GREEN)
        line = index_record_line(iv)
        assert line == "aqi_o3,T1,2015-04-20T00:00:00Z,51.5,green"
