"""Acceptance suite: one test per release criterion, each printing a
pass line on success (run with ``pytest -s`` to see them inline)."""

import dataclasses
import hashlib
import math
import random

import pytest

from citysense.analytics import compare_populations, mobile_fixed_populations, relative_error
from citysense.cli import main
from citysense.domain import Flag, NodeKind, Quantity, Radio, co_ppm_to_mg_m3
from citysense.field import FieldModel
from citysense.indexes import (
    IndexColor,
    LOCALIZATION_FACTORS,
    O3_BANDS,
    PM_BANDS,
    TCI_BANDS,
    TrafficAccessConfig,
    VEHICLE_EQUIVALENTS,
    classify,
    traffic_index,
)
from citysense.netsim import LinkModel
from citysense.nodes import lag_factor, quantize
from citysense.scenario import load_scenario
from tests.rows import channels_from, record
from tests.test_nodes import StepField, fixed_node, readings, still_mobile_node


def ok(criterion: int, message: str) -> None:
    print(f"[PASS] criterion {criterion}: {message}")


@pytest.fixture(scope="module")
def pisa():
    return load_scenario("pisa-default")


@pytest.fixture(scope="module")
def pisa_day(pisa):
    return record(pisa)


@pytest.fixture(scope="module")
def campaign_zero_bias(pisa):
    cfg = dataclasses.replace(pisa, duration_s=3 * 86400)
    return cfg, record(cfg)


@pytest.fixture(scope="module")
def campaign_hc_bias(pisa):
    nodes = [
        dataclasses.replace(n, bias_mul={Quantity.HC: 1.75})
        if n.descriptor.kind is NodeKind.MOBILE
        else n
        for n in pisa.nodes
    ]
    cfg = dataclasses.replace(pisa, duration_s=3 * 86400, nodes=nodes)
    return cfg, record(cfg)


# --------------------------------------------------------------------------
# criterion 1: relative-error regression fixtures
#
# Reference campaign averages used as regression fixtures. The second table
# (mobile vs fixed) reproduces its reported ratios with the estimator written
# as |1 - m_mobile/m_fixed|. In the first table (two fixed-station groups)
# some reported ratios only match with the populations swapped, so each row
# documents the orientation that reproduces the reported value.

PATH_GROUPS_REFERENCE = [
    # quantity, group-1 mean, group-2 mean, reported eta, orientation
    ("wind_speed", 0.62, 0.69, 0.12, "swapped"),
    ("temperature", 16.2, 14.7, 0.09, "swapped"),
    ("relative_humidity", 66.4, 70.2, 0.057, "swapped"),
    ("dew_point", 9.7, 9.8, 0.01, "as_reported"),
    ("radiant_temperature", 15.8, 15.1, 0.04, "swapped"),
    ("pm25", 17.7, 14.8, 0.16, "swapped"),
    ("hc", 3.12, 3.12, 0.0006, "as_reported"),
    ("co2", 423.26, 451.1, 0.06, "as_reported"),
    ("co", 2.05, 2.28, 0.11, "swapped"),
    ("o3", 48.97, 51.33, 0.05, "swapped"),
]

MOBILE_FIXED_REFERENCE = [
    # quantity, fixed mean, mobile mean, reported eta
    ("temperature", 14.7, 16.9, 0.15),
    ("relative_humidity", 69.15, 62.05, 0.1),
    ("dew_point", 9.9, 9.9, 0.001),
    ("hc", 3.08, 5.4, 0.76),
    ("co2", 424.3, 356.9, 0.16),
    ("co", 2.06, 2.23, 0.08),
    ("o3", 49.2, 36.75, 0.25),
]


def test_criterion_1_relative_error_fixtures():
    for quantity, m_fix, m_mob, reported in MOBILE_FIXED_REFERENCE:
        eta = relative_error(m_mob, m_fix)
        assert eta == pytest.approx(reported, abs=0.01), quantity
    for quantity, m_1, m_2, reported, orientation in PATH_GROUPS_REFERENCE:
        eta = relative_error(m_1, m_2) if orientation == "as_reported" else relative_error(m_2, m_1)
        assert eta == pytest.approx(reported, abs=0.02), quantity
        # as-reported orientation stays within the wider tolerance except for
        # pm25, whose reported value only matches the swapped populations
        if quantity != "pm25":
            assert relative_error(m_1, m_2) == pytest.approx(reported, abs=0.02), quantity
    ok(1, "all 17 reference relative-error rows reproduced within tolerance")


def test_criterion_1_through_population_comparison():
    # same fixtures pushed through the full comparison pipeline using
    # constant synthetic populations with the reference means
    from tests.test_analytics import compare, meas

    for quantity, m_fix, m_mob, reported in MOBILE_FIXED_REFERENCE:
        a = [meas(m_mob, Quantity(quantity)) for _ in range(10)]
        b = [meas(m_fix, Quantity(quantity)) for _ in range(10)]
        (row,) = compare(a, b, labels=("mobile", "fixed")).rows
        assert row.eta == pytest.approx(reported, abs=0.01), quantity
    ok(1, "comparison pipeline reproduces the mobile-vs-fixed ratios")


# --------------------------------------------------------------------------
# criterion 2: traffic-index oracle


def independent_ti(cfg: TrafficAccessConfig) -> float:
    d1 = sum(share * VEHICLE_EQUIVALENTS[cls] for cls, share in cfg.composition.items())
    d4 = sum(share * cfg.maneuver_equivalents[m] for m, share in cfg.maneuver_shares.items())
    k2 = {
        "flat": 1.0,
        "uphill": 1.0 - 0.03 * cfg.steepness_pct,
        "downhill": 1.0 + 0.03 * cfg.steepness_pct,
    }[cfg.grade]
    return cfg.s_b / d1 * k2 * LOCALIZATION_FACTORS[cfg.localization] / d4


def test_criterion_2_traffic_index_oracle():
    assert traffic_index(TrafficAccessConfig(composition={"cars": 1.0})).value == 1800.0
    rnd = random.Random(2718)
    classes = sorted(VEHICLE_EQUIVALENTS)
    locs = sorted(LOCALIZATION_FACTORS)
    checked = 0
    for _ in range(24):
        weights = [rnd.random() + 0.01 for _ in classes]
        comp = {c: w / sum(weights) for c, w in zip(classes, weights)}
        mweights = [rnd.random() + 0.01 for _ in range(3)]
        man = {
            m: w / sum(mweights)
            for m, w in zip(("straight", "turning_right", "turning_left"), mweights)
        }
        cfg = TrafficAccessConfig(
            composition=comp,
            maneuver_shares=man,
            steepness_pct=rnd.uniform(0, 10),
            grade=rnd.choice(["flat", "uphill", "downhill"]),
            localization=rnd.choice(locs),
            maneuver_equivalents={
                "straight": 1.0,
                "turning_right": rnd.uniform(1.0, 1.25),
                "turning_left": rnd.uniform(1.0, 1.75),
            },
        )
        assert traffic_index(cfg).value == pytest.approx(independent_ti(cfg), rel=1e-9)
        checked += 1
    assert checked >= 20
    ok(2, f"{checked} randomized configurations match the brute-force oracle to 1e-9")


# --------------------------------------------------------------------------
# criterion 3: exhaustive band boundaries

EPS = 1e-9


def test_criterion_3_band_boundaries():
    checked = 0
    for bands, thresholds, below, at in (
        (O3_BANDS, (100.0, 180.0, 240.0),
         (IndexColor.GREEN, IndexColor.YELLOW, IndexColor.ORANGE),
         (IndexColor.YELLOW, IndexColor.ORANGE, IndexColor.RED)),
        (PM_BANDS, (10.0, 25.0, 60.0),
         (IndexColor.GREEN, IndexColor.YELLOW, IndexColor.ORANGE),
         (IndexColor.YELLOW, IndexColor.ORANGE, IndexColor.RED)),
        (TCI_BANDS, (-13.0, 0.0, 9.0, 26.0, 32.0, 38.0, 46.0),
         (IndexColor.UNKNOWN, IndexColor.DARK_BLUE, IndexColor.BLUE, IndexColor.GREEN,
          IndexColor.ORANGE, IndexColor.RED, IndexColor.DARK_RED),
         (IndexColor.DARK_BLUE, IndexColor.BLUE, IndexColor.GREEN, IndexColor.ORANGE,
          IndexColor.RED, IndexColor.DARK_RED, IndexColor.UNKNOWN)),
    ):
        for threshold, color_below, color_at in zip(thresholds, below, at):
            assert classify(threshold - EPS, bands) is color_below
            assert classify(threshold, bands) is color_at
            assert classify(threshold + EPS, bands) is color_at
            checked += 3
    ok(3, f"{checked} boundary probes produce the tabulated colors (left-closed)")


# --------------------------------------------------------------------------
# criterion 4: report-count law and conservation


def test_criterion_4_report_count_law(pisa, pisa_day):
    per_window = pisa_day.gas_reports_per_window(pisa.uplink_period_s, pisa.start_epoch)
    windows = pisa.duration_s // pisa.uplink_period_s
    assert len(per_window) == windows == 96
    # after warm-up (first window) every 15-minute slot carries exactly
    # n * T_I / T_N = 9 * 3 = 27 node-reports; warm-up readings are flagged,
    # not dropped, so the first window carries them too
    assert all(per_window[w] == 27 for w in range(2, windows + 1))
    assert per_window[1] == 27
    ok(4, f"all {windows} uplink windows carry exactly 27 gas node-reports")


@pytest.mark.parametrize("loss", [0.25, 1.0])
def test_criterion_4_conservation_under_loss(pisa, loss):
    links = {
        Radio.SHORT_RANGE_FIXED: LinkModel(Radio.SHORT_RANGE_FIXED, 500.0, loss, 1.0),
        Radio.SHORT_RANGE_MOBILE: LinkModel(Radio.SHORT_RANGE_MOBILE, 300.0, loss, 1.0),
        Radio.WIDE_AREA: LinkModel(Radio.WIDE_AREA, math.inf, loss, 2.0),
    }
    cfg = dataclasses.replace(pisa, duration_s=3600, links=links)
    result = record(cfg)
    assert result.tallies
    for tally in result.tallies.values():
        assert tally.emitted == tally.to_coordinator + tally.to_server + tally.lost
    assert sum(
        t.to_coordinator + t.to_server - t.dropped for t in result.tallies.values()
    ) == len(result.server_measurements)
    if loss == 1.0:
        assert all(t.to_coordinator == t.to_server == 0 for t in result.tallies.values())
    ok(4, f"delivered + lost = emitted for every channel at loss_prob {loss}")


# --------------------------------------------------------------------------
# criterion 5: sensor physics closed forms


def test_criterion_5_sensor_physics():
    # step response: exactly 90% one t90 after the step, 99% after two
    assert 100.0 + (0.0 - 100.0) * lag_factor(90.0, 90.0) == pytest.approx(90.0, rel=1e-12)
    assert 100.0 + (0.0 - 100.0) * lag_factor(180.0, 90.0) == pytest.approx(99.0, rel=1e-12)
    field = StepField(0.0, 100.0, step_t=90, quantity=Quantity.TEMPERATURE)
    node = still_mobile_node({Quantity.TEMPERATURE}, field)
    values = {m.timestamp: m.value for m in readings(node, range(0, 271, 90), period=90)}
    assert values[90] == pytest.approx(90.0, rel=1e-9)  # within one sample of t90

    # detection limit: a 3 ppm CO level against the 5 ppm limit clamps to 0
    f = FieldModel(seed=1, baseline={Quantity.CO: co_ppm_to_mg_m3(3.0)})
    (m,) = readings(fixed_node({Quantity.CO}, f), [0])
    assert m.value == 0.0 and Flag.BELOW_LOD in m.flags

    # 1 ppm quantization against closed forms, ties away from zero
    assert quantize(7.4, 1.0) == 7.0
    assert quantize(7.5, 1.0) == 8.0
    assert quantize(-7.5, 1.0) == -8.0
    f = FieldModel(seed=1, baseline={Quantity.CO: co_ppm_to_mg_m3(7.4)})
    (m,) = readings(fixed_node({Quantity.CO}, f), [0])
    assert m.value == pytest.approx(co_ppm_to_mg_m3(7.0), rel=1e-12)

    # warm-up: gas readings flagged for the first 15 minutes, clean afterwards
    f = FieldModel(seed=1, baseline={Quantity.CO2: 451.1, Quantity.TEMPERATURE: 15.0})
    node = fixed_node({Quantity.CO2, Quantity.TEMPERATURE}, f, powered_since=0)
    flagged = {(m.timestamp, m.quantity): Flag.WARMING_UP in m.flags
               for m in readings(node, range(0, 901, 300))}
    for t in range(0, 900, 300):
        assert flagged[t, Quantity.CO2] and not flagged[t, Quantity.TEMPERATURE]
    assert not flagged[900, Quantity.CO2]
    ok(5, "t90 step response, LoD clamp, 1 ppm quantization, 15 min warm-up verified")


# --------------------------------------------------------------------------
# criterion 6: end-to-end statistical sanity


def _population_means(result):
    sums: dict[Quantity, float] = {}
    counts: dict[Quantity, int] = {}
    for _, m in result.server_measurements:
        if m.flags & {Flag.BELOW_LOD, Flag.WARMING_UP}:
            continue
        sums[m.quantity] = sums.get(m.quantity, 0.0) + m.value
        counts[m.quantity] = counts.get(m.quantity, 0) + 1
    return {q: sums[q] / counts[q] for q in sums}


def _mobile_fixed_report(cfg, result):
    nodes = {n.descriptor.node_id: (n.descriptor.kind, n.path_tag, n.descriptor.home_position) for n in cfg.nodes}
    pop_mobile, pop_fixed, _, _ = mobile_fixed_populations(
        channels_from(m for _, m in result.server_measurements), nodes, radius_m=500.0
    )
    return compare_populations(pop_mobile, pop_fixed, labels=("mobile", "fixed"))


def test_criterion_6_population_means_track_baselines(campaign_zero_bias):
    cfg, result = campaign_zero_bias
    means = _population_means(result)
    checked = 0
    for q, baseline in cfg.field.baseline.items():
        if baseline == 0.0:
            assert means.get(q, 0.0) == 0.0
            continue
        assert means[q] == pytest.approx(baseline, rel=0.05), q.value
        checked += 1
    ok(6, f"{checked} population means within 5% of configured baselines over 3 days")


def test_criterion_6_pmfs_normalized_and_zero_bias_eta_small(campaign_zero_bias):
    cfg, result = campaign_zero_bias
    report = _mobile_fixed_report(cfg, result)
    assert report.rows
    for row in report.rows:
        assert sum(row.pmf_a.probabilities) == pytest.approx(1.0, abs=1e-9)
        assert sum(row.pmf_b.probabilities) == pytest.approx(1.0, abs=1e-9)
        assert row.eta <= 0.05, row.quantity.value
    ok(6, "mobility alone keeps mobile-vs-fixed eta at or below 0.05 for every quantity")


def test_criterion_6_bias_hook_drives_hc_skew(campaign_hc_bias):
    cfg, result = campaign_hc_bias
    report = _mobile_fixed_report(cfg, result)
    by_q = {row.quantity: row for row in report.rows}
    eta_hc = by_q[Quantity.HC].eta
    assert 0.7 <= eta_hc <= 0.8, eta_hc
    # the bias hook must not leak into other channels
    assert by_q[Quantity.CO2].eta <= 0.05
    ok(6, f"mobile HC bias 1.75x yields eta {eta_hc:.3f}, inside the 0.7-0.8 target band")


# --------------------------------------------------------------------------
# criterion 7: byte-identical reruns of every subcommand


def _digest_dir(root):
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def test_criterion_7_determinism_of_every_subcommand(tmp_path, capsys):
    digests = {"simulate": [], "indexes": [], "compare": [], "traffic": []}
    access = tmp_path / "access.yaml"
    access.write_text(
        "composition: {cars: 0.6, trucks: 0.4}\ngrade: uphill\nsteepness_pct: 3\n"
    )
    for attempt in ("a", "b"):
        sim = tmp_path / attempt / "sim"
        assert main(["simulate", "--scenario", "pisa-default", "--out", str(sim), "--seed", "7"]) == 0
        digests["simulate"].append(_digest_dir(sim))

        idx = tmp_path / attempt / "idx"
        assert main(["indexes", str(sim), "--out", str(idx)]) == 0
        digests["indexes"].append(_digest_dir(idx))

        cmp_dir = tmp_path / attempt / "cmp"
        assert main(["compare", str(sim), "--mode", "mobile-fixed", "--out", str(cmp_dir)]) == 0
        assert main(["compare", str(sim), "--mode", "paths", "--out", str(tmp_path / attempt / "cmp2")]) == 0
        digests["compare"].append(
            _digest_dir(cmp_dir) + _digest_dir(tmp_path / attempt / "cmp2")
        )

        capsys.readouterr()
        assert main(["traffic", str(access)]) == 0
        digests["traffic"].append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    for command, (a, b) in digests.items():
        assert a == b, f"{command} output differs between identical runs"
    ok(7, "equal seeds give byte-identical outputs for all four subcommands")
