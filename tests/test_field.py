import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from citysense import field as field_module
from citysense.domain import GeoPoint, VALUE_RANGE, Quantity, haversine_distance
from citysense.field import (
    DRAW_BLOCK,
    BlockDraws,
    EmptyPathError,
    FieldModel,
    GaussianPlume,
    Path,
    UnknownQuantityError,
    loss_generator,
    noise_generator,
    path_position,
)

P = GeoPoint(43.716, 10.3966)
M_PER_DEG_LAT = math.pi * 6371000.0 / 180.0


def offset(base: GeoPoint, north_m: float, east_m: float = 0.0) -> GeoPoint:
    return GeoPoint(
        base.lat + north_m / M_PER_DEG_LAT,
        base.lon + east_m / (M_PER_DEG_LAT * math.cos(math.radians(base.lat))),
    )


class TestFieldValue:
    def test_constant_field(self):
        f = FieldModel(seed=1, baseline={Quantity.CO2: 420.0})
        for t in (0, 12345, 86400 * 3):
            assert f.value(Quantity.CO2, P, t) == 420.0
            assert f.value(Quantity.CO2, offset(P, 2000), t) == 420.0

    def test_deterministic_per_query(self):
        f = FieldModel(
            seed=7,
            baseline={Quantity.O3: 50.0},
            diurnal_amplitude={Quantity.O3: 15.0},
            plumes={Quantity.O3: (GaussianPlume(P, 300.0, 5.0),)},
        )
        g = FieldModel(
            seed=7,
            baseline={Quantity.O3: 50.0},
            diurnal_amplitude={Quantity.O3: 15.0},
            plumes={Quantity.O3: (GaussianPlume(P, 300.0, 5.0),)},
        )
        q = offset(P, 123, 456)
        assert f.value(Quantity.O3, q, 4242) == g.value(Quantity.O3, q, 4242)

    def test_daily_mean_equals_baseline(self):
        # numeric integration oracle: the diurnal sinusoid integrates to zero
        f = FieldModel(
            seed=1,
            baseline={Quantity.TEMPERATURE: 14.7},
            diurnal_amplitude={Quantity.TEMPERATURE: 5.0},
        )
        samples = [f.value(Quantity.TEMPERATURE, P, t) for t in range(0, 86400, 60)]
        assert np.mean(samples) == pytest.approx(14.7, rel=0.01)

    def test_unknown_quantity(self):
        f = FieldModel(seed=1, baseline={Quantity.CO2: 420.0})
        with pytest.raises(UnknownQuantityError):
            f.value(Quantity.O3, P, 0)

    def test_concentrations_clamped_at_zero(self):
        f = FieldModel(
            seed=1,
            baseline={Quantity.O3: 5.0},
            plumes={Quantity.O3: (GaussianPlume(P, 500.0, -50.0),)},
        )
        assert f.value(Quantity.O3, P, 0) == 0.0

    def test_relative_humidity_clamped_to_100(self):
        f = FieldModel(seed=1, baseline={Quantity.RELATIVE_HUMIDITY: 95.0},
                       diurnal_amplitude={Quantity.RELATIVE_HUMIDITY: 20.0})
        values = [f.value(Quantity.RELATIVE_HUMIDITY, P, t) for t in range(0, 86400, 600)]
        assert max(values) == 100.0
        assert min(values) >= 0.0

    def test_plume_decays_with_distance(self):
        f = FieldModel(
            seed=1,
            baseline={Quantity.CO: 1.0},
            plumes={Quantity.CO: (GaussianPlume(P, 200.0, 2.0),)},
        )
        at_center = f.value(Quantity.CO, P, 0)
        near = f.value(Quantity.CO, offset(P, 200), 0)
        far = f.value(Quantity.CO, offset(P, 2000), 0)
        assert at_center == pytest.approx(3.0, rel=1e-9)
        assert at_center > near > far
        assert far == pytest.approx(1.0, abs=1e-6)

    def test_nonnegative_at_a_million_random_samples(self):
        # aggressive negative plumes so the clamp actually engages
        concentrations = sorted((q for q, r in VALUE_RANGE.items() if r == (0.0, math.inf)),
                                key=lambda q: q.value)
        f = FieldModel(
            seed=3,
            baseline={q: 2.0 for q in concentrations},
            diurnal_amplitude={q: 3.0 for q in concentrations},
            plumes={q: (GaussianPlume(P, 400.0, -8.0),) for q in concentrations},
        )
        rng = np.random.default_rng(99)
        n = 1_000_000 // len(concentrations)
        for q in concentrations:
            lats = rng.uniform(43.70, 43.74, n)
            lons = rng.uniform(10.38, 10.41, n)
            times = rng.integers(0, 3 * 86400, n)
            assert all(
                f.value(q, GeoPoint(lat, lon), int(t)) >= 0.0
                for lat, lon, t in zip(lats, lons, times)
            )

    def test_traffic_coupling_raises_rush_hour_values(self):
        f = FieldModel(
            seed=1,
            baseline={Quantity.CO: 1.0},
            traffic_coupling={Quantity.CO: 0.8},
        )
        assert f.value(Quantity.CO, P, 8 * 3600) > f.value(Quantity.CO, P, 3 * 3600)

    @pytest.mark.parametrize("baseline", [-0.0, math.nan])
    def test_humidity_of_negative_zero_or_nan_is_positive_zero(self, baseline):
        q = Quantity.RELATIVE_HUMIDITY
        v = FieldModel(seed=1, baseline={q: baseline}).value(q, P, 0)
        assert v == 0.0 and math.copysign(1.0, v) == 1.0


class TestNoiseStreams:
    def test_streams_reproducible_and_independent(self):
        f = FieldModel(seed=5, baseline={Quantity.CO2: 400.0})
        a1 = noise_generator(f, "T1", Quantity.CO2).normal(0, 1, 8)
        a2 = noise_generator(f, "T1", Quantity.CO2).normal(0, 1, 8)
        b = noise_generator(f, "T2", Quantity.CO2).normal(0, 1, 8)
        c = noise_generator(f, "T1", Quantity.CO).normal(0, 1, 8)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)
        assert not np.array_equal(a1, c)


def memo_field() -> FieldModel:
    """A field whose every time-of-day term is set, with plumes on top."""
    return FieldModel(
        seed=4,
        baseline={Quantity.CO: 1.1, Quantity.O3: 50.0, Quantity.RELATIVE_HUMIDITY: 90.0},
        diurnal_amplitude={Quantity.O3: 15.0, Quantity.RELATIVE_HUMIDITY: 20.0},
        traffic_coupling={Quantity.CO: 0.8, Quantity.O3: -3.0},
        plumes={
            Quantity.CO: (GaussianPlume(P, 300.0, 2.0), GaussianPlume(offset(P, 400), 150.0, 1.5)),
            Quantity.O3: (GaussianPlume(offset(P, -200, 100), 250.0, -20.0),),
        },
    )


class TestTimeOfDayMemo:
    QUANTITIES = (Quantity.CO, Quantity.O3, Quantity.RELATIVE_HUMIDITY)
    POSITIONS = (P, offset(P, 150), offset(P, -180, 90))

    def test_memo_hits_equal_fresh_values_over_seven_days(self):
        f, fresh = memo_field(), memo_field()
        # a 5-minute grid over 7 days, and a float time off the grid each day
        times = [t for t in range(0, 7 * 86400, 300)] + [d * 86400 + 1800.5 * (d + 1) for d in range(7)]
        for t in times:
            for q in self.QUANTITIES:
                for p in self.POSITIONS:
                    fresh._tod_terms.clear()  # computed from scratch
                    expected = fresh.value(q, p, t)
                    v = f.value(q, p, t)  # a memo hit after the first day
                    assert v == expected and math.copysign(1.0, v) == math.copysign(1.0, expected)
        # each time of day was computed once per quantity, not once per day
        assert {q: len(terms) for q, terms in f._tod_terms.items()} == {
            q: 288 + 7 for q in self.QUANTITIES}

    def test_int_and_float_time_of_the_same_second_share_an_entry(self):
        f = memo_field()
        a = f.value(Quantity.O3, P, 86400 + 3600)
        b = f.value(Quantity.O3, P, 3600.0)
        assert a == b == memo_field().value(Quantity.O3, P, 3600.0)
        assert list(f._tod_terms) == [Quantity.O3] and list(f._tod_terms[Quantity.O3]) == [3600]

    def test_memo_never_exceeds_its_cap(self, monkeypatch):
        monkeypatch.setattr(field_module, "_MAX_TOD_TERMS", 7)
        f = memo_field()
        for t in range(0, 86400, 300):
            for q in self.QUANTITIES:
                assert f.value(q, P, t) == memo_field().value(q, P, t)
                assert sum(len(terms) for terms in f._tod_terms.values()) <= 7

    def test_unknown_quantity_is_not_memoised(self):
        f = memo_field()
        for _ in range(2):
            with pytest.raises(UnknownQuantityError):
                f.value(Quantity.CO2, P, 0)
        assert f._tod_terms == {}

    def test_replace_starts_an_empty_memo_and_equality_ignores_it(self):
        f = memo_field()
        f.value(Quantity.O3, P, 0)
        g = dataclasses.replace(f, seed=9)
        assert g._tod_terms == {} and f._tod_terms != {}
        assert dataclasses.replace(f) == f == memo_field()


class TestBlockDraws:
    N = 3 * DRAW_BLOCK + 5  # crosses three block boundaries

    def test_uniform_draws_equal_scalar_calls(self):
        scalar = loss_generator(11, "M1")
        stream = BlockDraws(loss_generator(11, "M1").random)
        drawn = [stream.take(1)[0] for _ in range(self.N)]
        assert drawn == [scalar.random() for _ in range(self.N)]
        assert all(type(x) is float for x in drawn)

    def test_uneven_takes_across_blocks_equal_scalar_calls(self):
        scalar = loss_generator(3, "M1")
        stream = BlockDraws(loss_generator(3, "M1").random)
        counts = [5, 13, 1, 0, 31, 7, 40, 2] * 3  # one take wider than a block
        drawn = [stream.take(n) for n in counts]
        assert list(map(len, drawn)) == counts
        assert [x for taken in drawn for x in taken] == [
            scalar.random() for _ in range(sum(counts))]

    def test_normal_blocks_equal_scalar_calls(self):
        # The sensor chain fills its noise blocks with normal(0, sigma, DRAW_BLOCK).
        f = FieldModel(seed=5, baseline={Quantity.CO2: 400.0})
        scalar = noise_generator(f, "T1", Quantity.CO2)
        blocks = noise_generator(f, "T1", Quantity.CO2)
        drawn = [x for _ in range(3) for x in blocks.normal(0.0, 2.5, DRAW_BLOCK).tolist()]
        assert drawn == [scalar.normal(0.0, 2.5) for _ in range(3 * DRAW_BLOCK)]

    def test_draws_a_block_at_a_time(self):
        sizes = []

        def draw(n):
            sizes.append(n)
            return np.arange(n, dtype=float)

        stream = BlockDraws(draw)
        assert sizes == []  # nothing is drawn before the first float is asked for
        assert [stream.take(1)[0] for _ in range(DRAW_BLOCK + 1)] == (
            list(map(float, range(DRAW_BLOCK))) + [0.0])
        assert sizes == [DRAW_BLOCK, DRAW_BLOCK]


def straight_path(length_m: float, name: str = "p") -> Path:
    return Path(name=name, vertices=(P, offset(P, length_m)))


class TestPathPosition:
    def test_starts_at_first_vertex(self):
        p = straight_path(1000.0)
        assert path_position(p, 5.0, 0.0) == p.vertices[0]

    def test_linear_motion_midpoint(self):
        p = straight_path(1000.0)
        pos = path_position(p, 5.0, 100.0)  # 500 m along
        assert haversine_distance(p.vertices[0], pos) == pytest.approx(500.0, abs=0.05)

    def test_ping_pong_returns_to_start(self):
        # 400 s * 5 m/s = 2000 m = one full out-and-back on a 1000 m segment
        p = straight_path(1000.0)
        pos = path_position(p, 5.0, 400.0)
        assert haversine_distance(p.vertices[0], pos) == pytest.approx(0.0, abs=0.05)

    def test_turnaround_at_far_end(self):
        p = straight_path(1000.0)
        pos = path_position(p, 5.0, 300.0)  # 1500 m -> 500 m back from the end
        assert haversine_distance(p.vertices[0], pos) == pytest.approx(500.0, abs=0.05)

    def test_empty_path(self):
        with pytest.raises(EmptyPathError):
            path_position(Path("empty", ()), 5.0, 0.0)

    def test_single_vertex_is_stationary(self):
        p = Path("dot", (P,))
        assert path_position(p, 5.0, 1234.0) == P

    def test_multi_segment_path_total_length(self):
        p = Path("L", (P, offset(P, 300), offset(P, 300, 400)))
        assert p.length() == pytest.approx(700.0, abs=0.1)

    @given(st.floats(0, 5000), st.floats(0.1, 60))
    @settings(max_examples=60)
    def test_continuity(self, t, dt):
        p = Path("L", (P, offset(P, 300), offset(P, 300, 400), offset(P, -200, 400)))
        speed = 4.0
        a = path_position(p, speed, t)
        b = path_position(p, speed, t + dt)
        assert haversine_distance(a, b) <= speed * dt + 0.01

    def test_segment_lengths_are_computed_once(self, monkeypatch):
        calls = []

        def counted(a, b):
            calls.append(1)
            return haversine_distance(a, b)

        monkeypatch.setattr(field_module, "haversine_distance", counted)
        vertices = (P, offset(P, 300), offset(P, 300, 400), offset(P, -200, 400))
        p = Path("L", vertices)
        positions = [path_position(p, 4.0, t) for t in range(0, 3600, 300)]
        assert len(calls) == 3  # one per segment, at the first traversal
        # the positions the per-call recomputation gave
        lengths = [haversine_distance(a, b) for a, b in zip(vertices, vertices[1:])]
        assert p.length() == sum(lengths) and len(calls) == 3  # the kept lengths
        expected = []
        for t in range(0, 3600, 300):
            s = (4.0 * t) % (2.0 * sum(lengths))
            if s > sum(lengths):
                s = 2.0 * sum(lengths) - s
            for (a, b), seg in zip(zip(vertices, vertices[1:]), lengths):
                if s <= seg:
                    f = s / seg
                    expected.append(GeoPoint(a.lat + (b.lat - a.lat) * f, a.lon + (b.lon - a.lon) * f))
                    break
                s -= seg
        assert positions == expected
