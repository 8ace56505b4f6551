import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from citysense.analytics import (
    EmptySampleError,
    NoOverlapError,
    associate_mobile_to_fixed,
    compare_populations,
    estimate_pmf,
    mobile_fixed_populations,
    relative_error,
    write_comparison_report,
)
from citysense.domain import Flag, GeoPoint, Measurement, NodeKind, Quantity, haversine_distance
from tests.geo import grid_cases
from tests.rows import channels_from

P = GeoPoint(43.716, 10.3966)
M_PER_DEG_LAT = math.pi * 6371000.0 / 180.0


def offset(base, north_m):
    return GeoPoint(base.lat + north_m / M_PER_DEG_LAT, base.lon)


def meas(value, quantity=Quantity.CO2, node="M1", t=0, position=P, flags=frozenset()):
    return Measurement(node, t, position, quantity, value, flags)


def station(node_id, position):
    return (node_id, position)


def compare(a, b, labels=("a", "b")):
    """``compare_populations`` over the channels of two record lists."""
    return compare_populations(channels_from(a), channels_from(b), labels=labels)


class TestEstimatePmf:
    def test_identical_samples_single_unit_wide_bin(self):
        (row,) = compare([meas(5.0)] * 100, [meas(5.0)]).rows
        assert row.pmf_a.bin_edges == (4.5, 5.5)
        assert row.pmf_a.probabilities == (1.0,)
        assert row.pmf_a.n_samples == 100

    @pytest.mark.parametrize("value,edges", [
        (2.0**53, (2.0**53 - 1, 2.0**53 + 2)),  # +-0.5 rounds back to 2**53
        (1e17, (math.nextafter(1e17, 0.0), math.nextafter(1e17, math.inf))),
        (-1e17, (math.nextafter(-1e17, -math.inf), math.nextafter(-1e17, 0.0))),
        (1e15, (1e15 - 0.5, 1e15 + 0.5)),  # still unit-wide
        (2.0**53 - 1, (2.0**53 - 2, 2.0**53)),  # +-0.5 rounds, but moves the value
        (sys.float_info.max, (math.nextafter(sys.float_info.max, 0.0), sys.float_info.max)),
    ])
    def test_one_value_too_large_for_a_unit_bin_gets_the_neighbouring_floats(self, value, edges):
        report = compare([meas(value, Quantity.PRESSURE, node="A")],
                         [meas(value, Quantity.PRESSURE, node="B")])
        (row,) = report.rows
        assert row.pmf_a.bin_edges == row.pmf_b.bin_edges == edges
        assert row.pmf_a.probabilities == row.pmf_b.probabilities == (1.0,)
        assert row.mean_a == row.mean_b == value
        assert all(math.isfinite(c) for c in row.pmf_a.bin_centers())

    def test_uniform_law_of_large_numbers(self):
        rng = np.random.default_rng(7)
        samples = rng.uniform(0.0, 1.0, 10_000)
        pmf = estimate_pmf(samples.tolist(), np.linspace(0.0, 1.0, 11))
        for p in pmf.probabilities:
            assert p == pytest.approx(0.1, abs=0.02)

    def test_explicit_edges(self):
        pmf = estimate_pmf([0.5, 1.5, 2.5], [0.0, 1.0, 2.0, 3.0])
        assert pmf.probabilities == (pytest.approx(1 / 3),) * 3

    @pytest.mark.parametrize("edges", [(0, 1, 2), (3, 5, 10)])
    def test_three_integer_edges_are_edges(self, edges):
        pmf = estimate_pmf([0.5, 1.5, 4.0, 7.0], edges)
        assert pmf.bin_edges == tuple(map(float, edges))
        assert pmf.probabilities == (0.5, 0.5)
        assert pmf.n_samples == 2

    def test_empty_sample(self):
        with pytest.raises(EmptySampleError):
            estimate_pmf([], [0.0, 1.0])

    def test_samples_outside_explicit_edges_are_renormalized(self):
        pmf = estimate_pmf([0.5, 0.6, 99.0], [0.0, 1.0])
        assert pmf.probabilities == (1.0,)
        assert pmf.n_samples == 2

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            estimate_pmf([1.0], [3.0, 2.0, 1.0])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300))
    def test_total_mass_is_one(self, samples):
        pmf = estimate_pmf(samples, np.linspace(min(samples) - 1.0, max(samples) + 1.0, 31))
        assert sum(pmf.probabilities) == pytest.approx(1.0, abs=1e-9)
        assert all(p >= 0 for p in pmf.probabilities)
        assert len(pmf.bin_edges) == len(pmf.probabilities) + 1


class TestRelativeError:
    # regression fixtures: reference campaign means for two station groups
    # (heavy-traffic vs low-traffic paths), assert the published ratios
    def test_co2_between_paths(self):
        assert relative_error(423.26, 451.1) == pytest.approx(0.0617, abs=1e-4)

    def test_hc_mobile_vs_fixed(self):
        assert relative_error(5.4, 3.08) == pytest.approx(0.753, abs=1e-3)

    def test_identity(self):
        assert relative_error(123.0, 123.0) == 0.0

    def test_zero_reference(self):
        with pytest.raises(ZeroDivisionError):
            relative_error(1.0, 0.0)

    @given(
        st.floats(0.001, 1e6), st.floats(0.001, 1e6), st.floats(0.001, 1e4)
    )
    def test_unit_scale_invariance(self, a, b, c):
        assert relative_error(c * a, c * b) == pytest.approx(relative_error(a, b), rel=1e-9)


class TestAssociation:
    def test_unique_nearest(self):
        a = station("A", offset(P, 100))
        b = station("B", offset(P, -800))
        assoc = associate_mobile_to_fixed([P], [a, b])
        assert assoc.by_station == {"A": (P,)}
        assert assoc.unassociated == ()

    def test_out_of_radius_unassociated(self):
        a = station("A", offset(P, 600))
        assoc = associate_mobile_to_fixed([P], [a])
        assert assoc.by_station == {}
        assert len(assoc.unassociated) == 1

    def test_equidistant_tie_goes_to_lower_id(self):
        a = station("B", offset(P, 300))
        b = station("A", offset(P, -300))
        assoc = associate_mobile_to_fixed([P], [a, b])
        assert set(assoc.by_station) == {"A"}

    def test_radius_is_configurable(self):
        a = station("A", offset(P, 600))
        assoc = associate_mobile_to_fixed([P], [a], radius_m=700.0)
        assert set(assoc.by_station) == {"A"}

    def test_mobile_samples_left_out_are_counted(self):
        far = offset(P, 2000)
        readings = [meas(1.0, t=0), meas(2.0, t=300, position=far), meas(3.0, t=600, position=far),
                    meas(4.0, quantity=Quantity.O3, t=300, position=far),
                    meas(5.0, node="A", position=offset(P, 100))]
        nodes = {"M1": (NodeKind.MOBILE, None, None), "A": (NodeKind.FIXED, None, offset(P, 100))}
        mobile, fixed, assoc, unassociated = mobile_fixed_populations(channels_from(readings), nodes)
        assert mobile == channels_from(readings[:1])
        assert fixed == channels_from(readings[4:])
        assert assoc.unassociated == (far,)
        assert unassociated == 3  # samples, not positions

    def test_partition_is_total_and_deterministic(self):
        stations = [station(f"S{i}", offset(P, 400 * i)) for i in range(4)]
        positions = [offset(P, 130 * i) for i in range(30)]
        first = associate_mobile_to_fixed(positions, stations)
        second = associate_mobile_to_fixed(positions, stations)
        assert first == second
        counted = sum(len(v) for v in first.by_station.values()) + len(first.unassociated)
        assert counted == len(positions)


def brute_force_association(positions, stations, radius_m):
    """Reference: every position scans every station; (distance, id) order
    sends a tie to the lower id."""
    by_station, unassociated = {}, []
    for p in positions:
        d, sid = min((haversine_distance(p, pos), sid) for sid, pos in stations)
        if d <= radius_m:
            by_station.setdefault(sid, []).append(p)
        else:
            unassociated.append(p)
    return {k: tuple(v) for k, v in sorted(by_station.items())}, tuple(unassociated)


class TestAssociationDifferential:
    def test_matches_brute_force_on_shared_positions_ties_and_the_radius(self):
        rng = np.random.default_rng(5)
        stations = [station(f"S{i:02d}", offset(P, float(d)))
                    for i, d in enumerate(rng.uniform(-3000, 3000, 12))]
        # An equidistant pair: longitude offsets of exactly +-2**-8 degrees.
        tie = GeoPoint(43.72, 10.5)
        e1, e0 = station("E1", GeoPoint(43.72, 10.5 + 2**-8)), station("E0", GeoPoint(43.72, 10.5 - 2**-8))
        stations += [e1, e0]
        # A sample exactly at the radius from its only nearby station.
        lone = station("L0", GeoPoint(43.9, 10.3966))
        stations.append(lone)
        edge = offset(lone[1], 420)
        radius = haversine_distance(edge, lone[1])
        places = [offset(P, float(d)) for d in rng.uniform(-3500, 3500, 40)] + [tie, edge]
        samples = [
            meas(float(i), quantity=q, t=300 * i, position=places[int(rng.integers(len(places)))])
            for i in range(600) for q in (Quantity.CO2, Quantity.O3)
        ]
        samples += [meas(1.0, position=tie), meas(2.0, position=GeoPoint(edge.lat, edge.lon))]
        positions = list(dict.fromkeys(m.position for m in samples))
        assoc = associate_mobile_to_fixed(positions, stations, radius_m=radius)
        by_station, unassociated = brute_force_association(positions, stations, radius)
        assert dict(assoc.by_station) == by_station
        assert assoc.unassociated == unassociated
        assert haversine_distance(tie, e0[1]) == haversine_distance(tie, e1[1])
        assert tie in assoc.by_station["E0"]  # the tie goes to the lower id
        assert edge in assoc.by_station["L0"]  # d == radius_m is inside
        assert unassociated, "some position should fall outside every radius"

    @settings(max_examples=300)
    @given(grid_cases(min_sites=1))
    def test_matches_brute_force_at_poles_antimeridian_ties_and_any_radius(self, case):
        stations, positions, radius = case
        assoc = associate_mobile_to_fixed(positions, stations, radius_m=radius)
        by_station, unassociated = brute_force_association(positions, stations, radius)
        assert dict(assoc.by_station) == by_station
        assert assoc.unassociated == unassociated


class TestComparePopulations:
    def test_equal_populations_have_zero_eta(self):
        pop = [meas(v) for v in (400.0, 420.0, 440.0)]
        report = compare(pop, list(pop))
        (row,) = report.rows
        assert row.eta == 0.0
        assert row.mean_a == row.mean_b

    def test_single_shared_quantity_single_row(self):
        a = [meas(1.0, Quantity.CO2), meas(9.0, Quantity.O3)]
        b = [meas(2.0, Quantity.CO2)]
        report = compare(a, b)
        assert [r.quantity for r in report.rows] == [Quantity.CO2]
        assert report.incomparable == (Quantity.O3,)

    def test_no_overlap(self):
        with pytest.raises(NoOverlapError):
            compare([meas(1.0, Quantity.CO2)], [meas(1.0, Quantity.O3)])

    def test_matches_brute_force_recomputation(self):
        rng = np.random.default_rng(11)
        a = [meas(float(v)) for v in rng.normal(420, 5, 800)]
        b = [meas(float(v)) for v in rng.normal(450, 5, 900)]
        report = compare(a, b)
        (row,) = report.rows
        mean_a = math.fsum(m.value for m in a) / len(a)
        mean_b = math.fsum(m.value for m in b) / len(b)
        assert row.mean_a == pytest.approx(mean_a, rel=1e-12)
        assert row.mean_b == pytest.approx(mean_b, rel=1e-12)
        assert row.eta == pytest.approx(abs(1 - mean_a / mean_b), rel=1e-12)

    def test_pmfs_share_edges_and_are_normalized(self):
        a = [meas(v) for v in (1.0, 2.0, 3.0)]
        b = [meas(v) for v in (2.0, 4.0)]
        report = compare(a, b)
        (row,) = report.rows
        assert row.pmf_a.bin_edges == row.pmf_b.bin_edges
        assert sum(row.pmf_a.probabilities) == pytest.approx(1.0, abs=1e-9)
        assert sum(row.pmf_b.probabilities) == pytest.approx(1.0, abs=1e-9)
        assert row.pmf_a.bin_edges[0] == 1.0 and row.pmf_a.bin_edges[-1] == 4.0

    def test_below_lod_excluded_from_means_but_counted(self):
        a = [
            meas(0.0, flags=frozenset({Flag.BELOW_LOD})),
            meas(10.0),
            meas(20.0),
        ]
        b = [meas(15.0)]
        report = compare(a, b)
        (row,) = report.rows
        assert row.mean_a == 15.0
        assert row.n_a == 2
        assert row.below_lod_rate_a == pytest.approx(1 / 3)
        assert row.below_lod_rate_b == 0.0

    def test_below_lod_rate_is_per_quantity(self):
        low = frozenset({Flag.BELOW_LOD})
        a = [meas(0.0, Quantity.HC, flags=low), meas(4.0, Quantity.HC), meas(0.0, Quantity.HC, flags=low),
             meas(450.0), meas(460.0), meas(0.0, flags=low), meas(470.0), meas(480.0)]
        b = [meas(5.0, Quantity.HC), meas(455.0)]
        rates = {
            row.quantity: (row.below_lod_rate_a, row.below_lod_rate_b)
            for row in compare(a, b).rows
        }
        assert rates == {Quantity.CO2: (0.2, 0.0), Quantity.HC: (2 / 3, 0.0)}

    @pytest.mark.parametrize("value,n_a,n_b", [(2.28, 1000, 700), (0.1, 288, 96), (14.7, 576, 192)])
    def test_one_repeated_value_has_exactly_zero_eta(self, value, n_a, n_b):
        a = [meas(value, Quantity.CO, node="A") for _ in range(n_a)]
        b = [meas(value, Quantity.CO, node="B") for _ in range(n_b)]
        (row,) = compare(a, b).rows
        assert row.mean_a == row.mean_b == value
        assert row.eta == 0.0

    def test_means_independent_of_sample_order(self):
        rng = np.random.default_rng(5)
        a = [meas(float(v)) for v in rng.normal(420, 5, 500)]
        b = [meas(float(v)) for v in rng.normal(450, 5, 300)]
        (row,) = compare(a, b).rows
        (reversed_row,) = compare(a[::-1], b[::-1]).rows
        assert (reversed_row.mean_a, reversed_row.mean_b) == (row.mean_a, row.mean_b)

    def test_eta_recomputable_from_stored_means(self):
        a = [meas(v) for v in (400.0, 410.0)]
        b = [meas(v) for v in (450.0, 452.0)]
        (row,) = compare(a, b).rows
        assert row.eta == pytest.approx(abs(1 - row.mean_a / row.mean_b), rel=1e-12)


class TestReportWriter:
    def test_emits_json_and_pmf_files(self, tmp_path):
        a = [meas(v) for v in (400.0, 420.0)]
        b = [meas(v, Quantity.CO2) for v in (430.0, 450.0)] + [meas(1.0, Quantity.O3)]
        report = compare(a, b, labels=("mobile", "fixed"))
        written = write_comparison_report(report, tmp_path)
        names = {p.name for p in written}
        assert names == {"comparison.json", "pmf_co2_mobile.dat", "pmf_co2_fixed.dat"}
        doc = json.loads((tmp_path / "comparison.json").read_text())
        assert doc["labels"] == ["mobile", "fixed"]
        assert doc["incomparable"] == ["o3"]
        row = doc["rows"]["co2"]
        recomputed = abs(1 - row["mean_mobile"] / row["mean_fixed"])
        assert row["relative_error"] == pytest.approx(recomputed, rel=1e-2)
        # two numeric columns, probabilities summing to one
        lines = (tmp_path / "pmf_co2_mobile.dat").read_text().splitlines()
        cols = [line.split() for line in lines]
        assert all(len(c) == 2 for c in cols)
        assert sum(float(c[1]) for c in cols) == pytest.approx(1.0, abs=1e-9)

    def test_undefined_relative_error_is_null_in_strict_json(self, tmp_path):
        def reject(constant):
            raise ValueError(f"non-strict JSON constant {constant}")

        report = compare([meas(1.0, Quantity.RAIN)], [meas(0.0, Quantity.RAIN)])
        assert math.isnan(report.rows[0].eta)
        write_comparison_report(report, tmp_path)
        doc = json.loads((tmp_path / "comparison.json").read_text(), parse_constant=reject)
        assert doc["rows"]["rain"]["relative_error"] is None
        assert doc["rows"]["rain"]["mean_b"] == 0.0
