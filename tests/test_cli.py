import dataclasses
import hashlib
import json
import logging
import math
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import pytest
import yaml

import citysense
from citysense import cli, domain, nodes, store
from citysense.cli import main
from citysense.scenario import load_scenario, with_seed
from tests.rows import record


def digest_tree(root):
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


@pytest.fixture
def sim_dir(small_scenario_file, tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(small_scenario_file), "--out", str(out)]) == 0
    return out


class TestSimulate:
    def test_writes_expected_outputs(self, sim_dir):
        names = {p.name for p in sim_dir.iterdir()}
        assert "delivery-log.txt" in names
        assert "nodes.json" in names
        assert any(n.startswith("measurements-") for n in names)
        nodes = json.loads((sim_dir / "nodes.json").read_text())
        assert nodes["T1"]["kind"] == "fixed"
        assert nodes["M1"]["lat"] is None

    def test_missing_scenario_file_exits_nonzero_and_names_path(self, tmp_path, capsys):
        rc = main(["simulate", "--scenario", str(tmp_path / "ghost.yaml"), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "ghost.yaml" in capsys.readouterr().err

    def test_same_seed_identical_digests(self, small_scenario_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main([
                "simulate", "--scenario", str(small_scenario_file),
                "--out", str(out), "--seed", "42",
            ]) == 0
        assert digest_tree(a) == digest_tree(b)

    def test_seed_changes_output(self, small_scenario_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--scenario", str(small_scenario_file), "--out", str(a), "--seed", "1"])
        main(["simulate", "--scenario", str(small_scenario_file), "--out", str(b), "--seed", "2"])
        assert digest_tree(a) != digest_tree(b)

    def test_no_step_leaves_a_temporary_file(self, sim_dir, tmp_path):
        assert main(["indexes", str(sim_dir), "--out", str(tmp_path / "idx")]) == 0
        assert main(["compare", str(sim_dir), "--mode", "paths", "--out", str(tmp_path / "cmp")]) == 0
        leftovers = [p for p in tmp_path.rglob("*") if p.name.startswith(".") or p.suffix == ".tmp"]
        assert leftovers == []

    def test_rerun_overwrites_deterministically(self, small_scenario_file, sim_dir):
        before = digest_tree(sim_dir)
        assert main(["simulate", "--scenario", str(small_scenario_file), "--out", str(sim_dir)]) == 0
        assert digest_tree(sim_dir) == before


class TestSimulateStreaming:
    def test_failed_run_leaves_previous_outputs_and_no_temporary(
        self, small_scenario_file, sim_dir, monkeypatch
    ):
        before = digest_tree(sim_dir)
        real_sample = nodes.SensorChain.sample
        grid_times = []

        def failing_sample(chain, t):
            grid_times.append(t)
            if len(grid_times) == 4:  # of 6 grid times
                # The delivery log is being streamed while the run goes on.
                assert (sim_dir / ".delivery-log.txt.tmp").is_file()
                raise RuntimeError("sensor bus fault")
            return real_sample(chain, t)

        monkeypatch.setattr(nodes.SensorChain, "sample", failing_sample)
        with pytest.raises(RuntimeError, match="sensor bus fault"):
            main(["simulate", "--scenario", str(small_scenario_file), "--out", str(sim_dir)])
        assert len(grid_times) == 4
        assert digest_tree(sim_dir) == before  # byte-identical, and no temporary
        monkeypatch.undo()

        # The disk fills part-way through the day files: a run that starts
        # before midnight writes two of them, and the second one fails.
        two_days = small_scenario_file.with_name("two-days.yaml")
        two_days.write_text(small_scenario_file.read_text().replace(
            "2015-04-20T00:00:00Z", "2015-04-19T23:45:00Z"))
        simulate = ["simulate", "--scenario", str(two_days), "--out", str(sim_dir)]
        assert main(simulate) == 0
        before = digest_tree(sim_dir)
        assert {"measurements-2015-04-19.txt", "measurements-2015-04-20.txt"} <= set(before)
        first_day = len((sim_dir / "measurements-2015-04-19.txt").read_text().splitlines())
        real_format = store.format_tick
        formatted = []  # the number of readings of each tick formatted

        def failing_format(tick):
            formatted.append(len(tick))
            if sum(formatted) > first_day:  # the first tick of the second day file
                raise OSError(28, "No space left on device")
            return real_format(tick)

        monkeypatch.setattr(store, "format_tick", failing_format)
        assert main(simulate + ["--seed", "8"]) == 2
        assert sum(formatted[:-1]) == first_day
        assert digest_tree(sim_dir) == before

    def test_printed_counts_match_the_files(self, small_scenario_file, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["simulate", "--scenario", str(small_scenario_file), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        received = int(re.search(r"server received (\d+) measurements", printed)[1])
        emitted = sum(int(n) for n in re.findall(r"emitted (\d+),", printed))
        stored = sum(len(f.read_text().splitlines()) for f in out.glob("measurements-*.txt"))
        assert received == stored > 0
        assert len((out / "delivery-log.txt").read_text().splitlines()) == emitted


def _corrupt_first_value(data_dir, node, quantity, value):
    """Replace the value of ``node``'s first ``quantity`` record in a day file."""
    day_file = sorted(data_dir.glob("measurements-*.txt"))[0]
    lines = day_file.read_text().splitlines()
    for i, line in enumerate(lines):
        fields = line.split(",")
        if fields[1] == node and fields[4] == quantity:
            fields[5] = value
            lines[i] = ",".join(fields)
            break
    else:
        raise AssertionError(f"no {node} {quantity} record")
    day_file.write_text("\n".join(lines) + "\n")


def _first_day_file(data_dir):
    day_file = sorted(data_dir.glob("measurements-*.txt"))[0]
    return day_file, day_file.read_text().splitlines()


def _assert_one_line_data_error(rc, err):
    assert rc == 2
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("data error:")
    assert "Traceback" not in err


def _simulate_edited(small_scenario_file, tmp_path, edit):
    """Run ``simulate`` on the small scenario after ``edit`` changed it."""
    raw = yaml.safe_load(small_scenario_file.read_text())
    edit(raw)
    path = tmp_path / "edited.yaml"
    path.write_text(yaml.safe_dump(raw))
    return main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")])


class TestSimulateSummary:
    def test_a_zero_duration_run_prints_no_node(self, small_scenario_file, tmp_path, capsys):
        assert _simulate_edited(small_scenario_file, tmp_path, _set("duration_s", 0)) == 0
        assert capsys.readouterr().out == (
            "scenario 'mini' seed 7: 0 s simulated\n"
            "  server received 0 measurements, loss rate 0.0000\n")

    def test_late_arrivals_are_reported_as_dropped(self, small_scenario_file, tmp_path, capsys):
        # Fixed readings reach the coordinator 1000 s after sampling, past
        # the 900 s uplink of their window: all 2 x 60 of them are dropped.
        def edit(raw):
            raw["links"] = {"short_range_fixed": {"latency_s": 1000}}

        assert _simulate_edited(small_scenario_file, tmp_path, edit) == 0
        out = capsys.readouterr().out
        assert "T1: emitted 60, to coordinator 60, direct 0, lost 0, dropped 60" in out
        assert "F2: emitted 60, to coordinator 60, direct 0, lost 0, dropped 60" in out
        assert "server received 48 measurements, loss rate 0.7143" in out  # 120 / 168


def _set(*path_and_value):
    """An edit that sets the value at ``path`` (keys and list indexes)
    inside the raw scenario, creating missing mappings on the way."""
    *path, value = path_and_value

    def edit(raw):
        node = raw
        for key in path[:-1]:
            node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
        node[path[-1]] = value

    return edit


def _both(*edits):
    def edit(raw):
        for e in edits:
            e(raw)

    return edit


def _drop(*path):
    def edit(raw):
        node = raw
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]

    return edit


NAN, INF = float("nan"), float("inf")
PLUME = {"lat": 43.716, "lon": 10.3966, "sigma_m": 400, "amplitude": 1.5}

# More (edit, text the message must contain) cases for
# test_bad_value_exits_1_with_one_line. Nodes: 0 C0, 1 T1, 2 F2, 3 M1.
MALFORMED = {
    "lat-null": (_set("nodes", 1, "lat", None), "node T1.lat"),
    "lat-quoted": (_set("nodes", 1, "lat", "43.716"), "node T1.lat"),
    "latency-nan": (_set("links", "short_range_fixed", "latency_s", NAN),
                    "links.short_range_fixed.latency_s"),
    "latency-1e300": (_set("links", "wide_area", "latency_s", 1e300), "latency_s"),
    "bias-add-nan": (_set("nodes", 3, "bias", {"co2": {"add": NAN}}), "node M1.bias.co2.add"),
    "bias-mul-inf": (_set("nodes", 3, "bias", {"co2": {"mul": INF}}), "node M1.bias.co2.mul"),
    "bias-scalar": (_set("nodes", 3, "bias", {"co2": 3.0}), "node M1.bias.co2"),
    "plume-without-sigma": (
        _set("field", "plumes", {"co": [{k: v for k, v in PLUME.items() if k != "sigma_m"}]}),
        "sigma_m",
    ),
    "plume-null": (_set("field", "plumes", {"co": [None]}), "field.plumes.co[0]"),
    "seed-null": (_set("seed", None), "seed"),
    "seed-negative": (_set("seed", -1), "seed"),
    "seed-bool": (_set("seed", True), "seed"),
    "sample-period-null": (_set("sample_period_s", None), "sample_period_s"),
    "duration-fractional": (_set("duration_s", 1800.7), "duration_s"),
    "t90-nan": (_set("sensors", "co2", "t90_s", NAN), "sensors.co2.t90_s"),
    "lod-nan": (_set("sensors", "co2", "lod", NAN), "sensors.co2.lod"),
    "sensor-null": (_set("sensors", "co", None), "sensors.co"),
    "vertex-scalar": (_set("paths", "loop", 0, 43.716), "paths.loop[0]"),
    "path-null": (_set("paths", "loop", None), "paths.loop"),
    "path-empty": (_set("paths", "loop", []), "paths.loop"),
    "path-name-slash": (_set("paths", "heavy/traffic", [[43.716, 10.393], [43.716, 10.4]]),
                        "paths.heavy/traffic: name does not match"),
    "nodes-scalar": (_set("nodes", 5), "nodes"),
    "node-null": (_set("nodes", 2, None), "nodes[2]"),
    "link-null": (_set("links", "wide_area", None), "links.wide_area"),
    "field-null": (_set("field", None), "field"),
    "speed-nan": (_set("nodes", 3, "speed_mps", NAN), "node M1.speed_mps"),
    "speed-inf": (_set("nodes", 3, "speed_mps", INF), "node M1.speed_mps"),
    "range-nan": (_set("links", "short_range_mobile", "range_m", NAN),
                  "links.short_range_mobile.range_m"),
    "range-on-fixed-radio": (_set("links", "short_range_fixed", "range_m", 500),
                             "unknown keys ['range_m']"),
    "no-baseline": (_drop("field", "baseline", "co2"), "field.baseline"),
    "lat-on-mobile": (_set("nodes", 3, "lat", 43.716), "node M1: unknown keys ['lat']"),
    "node-id-slash": (_set("nodes", 1, "id", "T/1"), "node T/1: node_id: bad identifier 'T/1'"),
    # 1e308 x 10 overflows the sensor chain at T1's first reading
    "sensor-chain-overflow": (
        _both(_set("field", "baseline", "pressure", 1e308),
              _set("nodes", 1, "bias", {"pressure": {"mul": 10.0}})),
        "config error: node T1: value: not finite: inf",
    ),
}


class TestRelativeHumidityRange:
    def test_humidity_pushed_past_100_is_stored_as_100_and_indexes_run(
        self, small_scenario_file, tmp_path, capsys
    ):
        assert _simulate_edited(
            small_scenario_file, tmp_path,
            _set("nodes", 1, "bias", {"relative_humidity": {"add": 40.0}})) == 0
        rh = {}
        for f in (tmp_path / "o").glob("measurements-*.txt"):
            for line in f.read_text().splitlines():
                fields = line.split(",")
                if fields[4] == "relative_humidity":
                    rh.setdefault(fields[1], []).append(float(fields[5]))
        assert set(rh["T1"]) == {100.0}
        assert max(rh["F2"]) < 100.0
        assert main(["indexes", str(tmp_path / "o"), "--out", str(tmp_path / "idx")]) == 0

    def test_stored_humidity_above_100_is_a_data_error(self, sim_dir, tmp_path, capsys):
        _corrupt_first_value(sim_dir, "T1", "relative_humidity", "100.5")
        day_file, lines = _first_day_file(sim_dir)
        lineno = next(i for i, line in enumerate(lines, 1) if ",100.5," in line)
        capsys.readouterr()
        rc = main(["indexes", str(sim_dir), "--out", str(tmp_path / "idx")])
        err = capsys.readouterr().err
        _assert_one_line_data_error(rc, err)
        assert err.startswith(f"data error: {day_file.name} line {lineno}: "
                              f"value: relative_humidity 100.5 outside [0, 100]")


class TestSimulateConfigErrors:
    def test_zero_plume_sigma_exits_1(self, small_scenario_file, tmp_path, capsys):
        def edit(raw):
            raw["field"]["plumes"] = {"co": [{"lat": 43.716, "lon": 10.3966, "sigma_m": 0, "amplitude": 1.5}]}

        assert _simulate_edited(small_scenario_file, tmp_path, edit) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "sigma_m" in err

    def test_negative_noise_sigma_exits_1(self, small_scenario_file, tmp_path, capsys):
        def edit(raw):
            raw["field"]["noise_sigma"]["o3"] = -2.5

        assert _simulate_edited(small_scenario_file, tmp_path, edit) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "noise_sigma" in err

    @pytest.mark.parametrize(
        "edit, needle",
        [
            (lambda raw: raw["nodes"][1].update(lat=95.0), "node T1: position: latitude 95.0"),
            (lambda raw: raw["sensors"].update(co2={"t90_s": 0}), "bad sensor spec for co2"),
            (
                lambda raw: raw["field"]["baseline"].update(temperature=float("nan")),
                "field.baseline.temperature must be finite",
            ),
            (
                lambda raw: raw["field"].update(plumes={"co": [
                    {"lat": 43.716, "lon": 10.3966, "sigma_m": 400, "amplitude": float("inf")}
                ]}),
                "amplitude must be finite",
            ),
            (lambda raw: raw.update(thermal_model="apparent"), "unknown keys ['thermal_model']"),
            *MALFORMED.values(),
        ],
        ids=["latitude", "t90", "nan-baseline", "inf-plume-amplitude", "thermal-model-key",
             *MALFORMED],
    )
    def test_bad_value_exits_1_with_one_line(self, small_scenario_file, tmp_path, capsys, edit, needle):
        assert _simulate_edited(small_scenario_file, tmp_path, edit) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("config error:") and needle in err
        assert "Traceback" not in err

    def test_humidity_resolution_past_100_is_refused_at_load(self, tmp_path, capsys):
        # 95 % humidity on a 6 % grid would reach 102 % mid-run; the scenario
        # is refused before any output directory is made.
        raw = yaml.safe_load((Path(citysense.__file__).parent / "data" / "pisa-default.yaml").read_text())
        raw.setdefault("sensors", {})["relative_humidity"] = {"resolution": 6}
        raw["field"]["baseline"]["relative_humidity"] = 95
        path = tmp_path / "rh.yaml"
        path.write_text(yaml.safe_dump(raw))
        out = tmp_path / "o"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "config error: sensors.relative_humidity: resolution 6 rounds 100 to 102, "
            "outside [0, 100]\n")
        assert not out.exists()

    def test_tiny_sensor_resolution_runs(self, small_scenario_file, tmp_path):
        # 400 / 1e-320 overflows a float: quantize must leave the value alone
        assert _simulate_edited(small_scenario_file, tmp_path, _set("sensors", "co2", "resolution", 1e-320)) == 0

    def test_resolution_near_the_largest_float_runs(self, small_scenario_file, tmp_path, capsys):
        # 1.5e308 rounds to 2e308 = inf: quantize must keep the value finite
        def edit(raw):
            _set("field", "baseline", "co2", 1.5e308)(raw)
            _set("sensors", "co2", "resolution", 1e308)(raw)

        rc = _simulate_edited(small_scenario_file, tmp_path, edit)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert rc == 0 or (rc == 1 and len(err.strip().splitlines()) == 1)

    @pytest.mark.parametrize("start, duration_s, latency_s, past", [
        ("9999-12-31T23:00:00Z", 7200, 2, 3303),  # samples into the year 10000
        ("9999-12-31T23:45:00Z", 900, 299, 0),  # the last arrival at 23:59:59
        ("9999-12-31T23:45:00Z", 900, 300, 1),
    ])
    def test_a_run_writing_past_year_9999_exits_1(
        self, small_scenario_file, tmp_path, capsys, start, duration_s, latency_s, past
    ):
        edit = _both(_set("start_time", start), _set("duration_s", duration_s),
                     _set("links", "wide_area", "latency_s", latency_s))
        rc = _simulate_edited(small_scenario_file, tmp_path, edit)
        if not past:
            assert rc == 0
            return
        assert rc == 1
        assert capsys.readouterr().err == (
            f"config error: the last reading arrives {past} s past 9999-12-31T23:59:59Z\n")
        assert not (tmp_path / "o").exists()

    def test_a_run_across_the_year_1000_is_stored_and_indexed(self, small_scenario_file, tmp_path):
        edit = _both(_set("start_time", "0999-12-31T23:00:00Z"), _set("duration_s", 7200))
        assert _simulate_edited(small_scenario_file, tmp_path, edit) == 0
        days = sorted(p.name for p in (tmp_path / "o").glob("measurements-*.txt"))
        assert days == ["measurements-0999-12-31.txt", "measurements-1000-01-01.txt"]
        out = tmp_path / "idx"
        assert main(["indexes", str(tmp_path / "o"), "--out", str(out)]) == 0
        first = (out / "indexes_T1.txt").read_text().splitlines()[0]
        assert first.split(",")[2] == "0999-12-31T23:15:00Z"

    @pytest.mark.parametrize("repeat, key", [
        ("duration_s: 3600\n", "duration_s"),
        ("  - {id: X9, kind: coordinator, lat: 43.716, lon: 10.3966, lat: 43.7,"
         " quantities: []}\n", "lat"),
        ("paths:\n  other: [[43.7195, 10.3966], [43.72, 10.3966]]\n", "paths"),
    ], ids=["top-level", "nested", "mapping"])
    def test_a_repeated_yaml_key_exits_1_naming_key_and_line(
        self, small_scenario_file, tmp_path, capsys, repeat, key
    ):
        # PyYAML keeps a repeated key's last value: 3600 s would be simulated.
        text = small_scenario_file.read_text()
        line = len(text.splitlines()) + 1  # the first line of ``repeat``
        small_scenario_file.write_text(text + repeat)
        out = tmp_path / "o"
        rc = main(["simulate", "--scenario", str(small_scenario_file), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and len(err.splitlines()) == 1
        assert err.startswith(f"config error: cannot read {small_scenario_file}: "
                              f"repeated key {key!r}")
        assert f"line {line}," in err
        assert not out.exists()

    def test_a_repeated_access_file_key_exits_1(self, tmp_path, capsys):
        p = tmp_path / "access.yaml"
        p.write_text("composition: {cars: 1.0}\ns_b: 1800\ns_b: 900\n")
        assert main(["traffic", str(p)]) == 1
        err = capsys.readouterr().err
        assert "repeated key 's_b'" in err and "line 3," in err

    def test_yaml_merge_keys_still_load(self, small_scenario_file, tmp_path):
        text = small_scenario_file.read_text().replace(
            "  co: {lod: 0.0}\n  co2: {lod: 0.0}", "  co: &lod {lod: 0.0}\n  co2: {<<: *lod}")
        small_scenario_file.write_text(text)
        assert main(["simulate", "--scenario", str(small_scenario_file),
                     "--out", str(tmp_path / "o")]) == 0

    def test_negative_seed_flag_exits_1(self, small_scenario_file, tmp_path, capsys):
        rc = main(["simulate", "--scenario", str(small_scenario_file),
                   "--out", str(tmp_path / "o"), "--seed", "-1"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("config error: seed")


class TestIndexes:
    def test_emits_per_station_records(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "idx"
        assert main(["indexes", str(sim_dir), "--out", str(out)]) == 0
        files = sorted(p.name for p in out.glob("indexes_*.txt"))
        assert "indexes_T1.txt" in files
        line = (out / "indexes_T1.txt").read_text().splitlines()[0]
        kind, station, stamp, value, color = line.split(",")
        assert kind in {"aqi_o3", "aqi_pm", "tci"}
        assert station == "T1"
        assert stamp.endswith("Z")
        assert "T1" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "inf", "-1.0"])
    def test_invalid_stored_value_is_data_error(self, sim_dir, tmp_path, capsys, value):
        _corrupt_first_value(sim_dir, "T1", "o3", value)
        capsys.readouterr()
        rc = main(["indexes", str(sim_dir), "--out", str(tmp_path / "idx")])
        _assert_one_line_data_error(rc, capsys.readouterr().err)
        assert not list((tmp_path / "idx").glob("indexes_*.txt"))

    @pytest.mark.parametrize("node_id", ["", "../evil", "T/1"])
    def test_node_id_outside_the_grammar_is_data_error(self, sim_dir, tmp_path, capsys, node_id):
        day_file, lines = _first_day_file(sim_dir)
        fields = lines[0].split(",")
        fields[1] = node_id
        day_file.write_text("\n".join([",".join(fields)] + lines[1:]) + "\n")
        capsys.readouterr()
        rc = main(["indexes", str(sim_dir), "--out", str(tmp_path / "idx")])
        err = capsys.readouterr().err
        _assert_one_line_data_error(rc, err)
        assert f"{day_file.name} line 1: node_id: bad identifier {node_id!r}" in err
        assert not (tmp_path / "idx").exists()

    def test_duplicate_record_is_data_error(self, sim_dir, tmp_path, capsys):
        day_file, lines = _first_day_file(sim_dir)
        day_file.write_text("\n".join(lines[:5] + [lines[4]] + lines[5:]) + "\n")
        capsys.readouterr()
        for argv in (["indexes", str(sim_dir), "--out", str(tmp_path / "idx")],
                     ["compare", str(sim_dir), "--mode", "paths", "--out", str(tmp_path / "cmp")]):
            rc = main(argv)
            err = capsys.readouterr().err
            _assert_one_line_data_error(rc, err)
            assert f"{day_file.name} line 6: duplicate record" in err

    @pytest.mark.parametrize("air", ["-237.7", "-237.71", "-300.0"])
    def test_air_at_or_below_the_magnus_pole_gives_an_unknown_tci(self, tmp_path, capsys, air):
        data = tmp_path / "data"
        data.mkdir()
        head = "2015-04-20T00:00:00Z,T1,43.716,10.393,"
        (data / "measurements-2015-04-20.txt").write_text(
            f"{head}radiant_temperature,15.0,degC,\n"
            f"{head}relative_humidity,70.0,%,\n"
            f"{head}temperature,{air},degC,\n"
            f"{head}wind_speed,0.7,m/s,\n")
        out = tmp_path / "idx"
        assert main(["indexes", str(data), "--out", str(out)]) == 0
        assert (out / "indexes_T1.txt").read_text() == "tci,T1,2015-04-20T00:15:00Z,nan,unknown\n"
        assert capsys.readouterr().out == "T1 tci: unknown\n"

    @pytest.mark.parametrize("stamp, past", [("23:44:59", 0), ("23:45:00", 1), ("23:55:00", 1)])
    def test_an_index_grid_ending_past_year_9999_is_data_error(
        self, sim_dir, tmp_path, capsys, stamp, past
    ):
        out = tmp_path / "idx"
        assert main(["indexes", str(sim_dir), "--out", str(out)]) == 0
        before = digest_tree(out)
        data = tmp_path / "late"
        data.mkdir()
        (data / "measurements-9999-12-31.txt").write_text(
            f"9999-12-31T{stamp}Z,T1,43.716,10.393,o3,50.0,ug/m3,\n")
        capsys.readouterr()
        rc = main(["indexes", str(data), "--out", str(out)])
        if not past:  # the grid's one point is the last second of the year 9999
            assert rc == 0
            assert (out / "indexes_T1.txt").read_text() == "aqi_o3,T1,9999-12-31T23:45:00Z,50.0,green\n"
            return
        err = capsys.readouterr().err
        _assert_one_line_data_error(rc, err)
        assert err == "data error: the index grid ends 1 s past 9999-12-31T23:59:59Z\n"
        assert digest_tree(out) == before

    def test_readings_indexes_does_not_read_still_bound_the_grid(self, tmp_path, capsys):
        # A weather station's pressure is the first reading, one sample period
        # before the first input, and the last: the grid runs from after the
        # first reading of any quantity through the first point after the last.
        data = tmp_path / "data"
        data.mkdir()
        (data / "measurements-2015-04-20.txt").write_text(
            "2015-04-20T00:00:00Z,W1,43.716,10.393,pressure,1013.0,hPa,\n"
            "2015-04-20T00:05:00Z,T1,43.716,10.393,o3,50.0,ug/m3,\n"
            "2015-04-20T00:35:00Z,W1,43.716,10.393,pressure,1013.5,hPa,\n")
        out = tmp_path / "idx"
        assert main(["indexes", str(data), "--out", str(out), "--uplink-period-s", "300"]) == 0
        assert (out / "indexes_T1.txt").read_text() == "".join(
            f"aqi_o3,T1,2015-04-20T00:{minute:02d}:00Z,50.0,green\n" for minute in range(10, 45, 5))
        assert sorted(p.name for p in out.iterdir()) == ["indexes_T1.txt"]
        assert capsys.readouterr().out == "T1 aqi_o3: green\n"

    def test_a_store_without_index_inputs_writes_no_index_file(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "measurements-2015-04-20.txt").write_text(
            "2015-04-20T00:00:00Z,T1,43.716,10.393,co,0.5,mg/m3,\n"
            "2015-04-20T00:00:00Z,W1,43.716,10.393,pressure,1013.0,hPa,\n")
        out = tmp_path / "idx"
        out.mkdir()
        (out / "indexes_T1.txt").write_text("previous\n")
        assert main(["indexes", str(data), "--out", str(out)]) == 0
        assert list(out.iterdir()) == []  # a whole set of no files replaced the old one
        assert capsys.readouterr() == ("", "")

    def test_empty_store_is_data_error(self, tmp_path):
        assert main(["indexes", str(tmp_path / "nothing"), "--out", str(tmp_path / "o")]) == 2

    def test_o3_values_whose_sum_overflows_give_finite_indexes(self, sim_dir, tmp_path):
        day_file, lines = _first_day_file(sim_dir)
        o3 = [i for i, line in enumerate(lines) if line.split(",")[1:5:3] == ["T1", "o3"]]
        for i in o3[::2]:
            fields = lines[i].split(",")
            fields[5] = "1.7e+308"
            lines[i] = ",".join(fields)
        day_file.write_text("\n".join(lines) + "\n")
        out = tmp_path / "idx"
        assert main(["indexes", str(sim_dir), "--out", str(out)]) == 0
        aqi_o3 = [
            float(line.split(",")[3])
            for line in (out / "indexes_T1.txt").read_text().splitlines()
            if line.startswith("aqi_o3,")
        ]
        assert len(o3) >= 2 and aqi_o3
        assert all(math.isfinite(v) for v in aqi_o3) and max(aqi_o3) > 1e307


def _edit_field(data_dir, lineno, index, text):
    """Put ``text`` into field ``index`` of line ``lineno`` of the first day
    file, which is split at newlines only; return the file's name."""
    day_file = sorted(data_dir.glob("measurements-*.txt"))[0]
    lines = day_file.read_text().split("\n")
    fields = lines[lineno - 1].split(",")
    fields[index] = text
    lines[lineno - 1] = ",".join(fields)
    day_file.write_text("\n".join(lines))
    return day_file.name


class TestFieldTextOutsideTheGrammar:
    @pytest.mark.parametrize(
        "index,text,message",
        [
            (5, "4_12.0", "value: bad number"),
            (5, " 412.0", "value: bad number"),
            (5, "412.0\x0c", "value: bad number"),
            (5, "41\u20282.0", "value: bad number"),
            (2, "4_3.716", "lat: bad number"),
            (3, "10.39\u202866", "lon: bad number"),
            (0, "2015-04-20T00:00:00Z\u2028", "timestamp "),
        ],
    )
    @pytest.mark.parametrize(
        "command", [["indexes"], ["compare", "--mode", "paths"], ["compare", "--mode", "mobile-fixed"]]
    )
    def test_read_steps_exit_2_naming_file_and_line(
        self, sim_dir, tmp_path, capsys, index, text, message, command
    ):
        name = _edit_field(sim_dir, 3, index, text)
        capsys.readouterr()
        rc = main([*command, str(sim_dir), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        _assert_one_line_data_error(rc, err)
        assert err.startswith(f"data error: {name} line 3: {message}")


class TestBytesOutsideUtf8:
    @pytest.mark.parametrize(
        "command", [["indexes"], ["compare", "--mode", "paths"], ["compare", "--mode", "mobile-fixed"]]
    )
    def test_a_stray_byte_is_named_by_file_and_line_whatever_the_locale(
        self, sim_dir, tmp_path, capsys, command
    ):
        # The byte lands in the unit of line 3, read the same in every locale.
        day_file, lines = _first_day_file(sim_dir)
        fields = lines[2].split(",")
        lines[2] = ",".join(fields[:6] + ["\udcff", *fields[7:]])
        day_file.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONPATH=os.pathsep.join(
            filter(None, [str(Path(citysense.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "citysense.cli", *command[:1], str(sim_dir), *command[1:],
             "--out", str(tmp_path / "o")], env=env, capture_output=True, text=True)
        _assert_one_line_data_error(proc.returncode, proc.stderr)
        assert proc.stderr == (f"data error: {day_file.name} line 3: unit '\\udcff' does not "
                               f"match quantity {fields[4]}\n")


class TestCompare:
    def test_mobile_fixed_mode(self, sim_dir, tmp_path):
        out = tmp_path / "cmp"
        rc = main(["compare", str(sim_dir), "--mode", "mobile-fixed", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "comparison.json").read_text())
        assert doc["labels"] == ["mobile", "fixed"]
        assert "co2" in doc["rows"]
        assert (out / "pmf_co2_mobile.dat").exists()
        assert (out / "pmf_co2_fixed.dat").exists()

    def test_paths_mode(self, sim_dir, tmp_path):
        out = tmp_path / "cmp"
        rc = main(["compare", str(sim_dir), "--mode", "paths", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "comparison.json").read_text())
        assert doc["labels"] == ["loop", "other"]

    def test_radius_flag_controls_association(self, sim_dir, tmp_path, capsys):
        counts = {}
        for radius in ("5", "500"):
            rc = main([
                "compare", str(sim_dir), "--mode", "mobile-fixed",
                "--out", str(tmp_path / f"cmp{radius}"), "--radius-m", radius,
            ])
            assert rc == 0
            first_line = capsys.readouterr().out.splitlines()[0]
            counts[radius] = int(first_line.split()[1])
        assert counts["5"] < counts["500"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-1.0"])
    def test_invalid_stored_value_is_data_error(self, sim_dir, tmp_path, capsys, value):
        _corrupt_first_value(sim_dir, "T1", "o3", value)
        capsys.readouterr()
        rc = main(["compare", str(sim_dir), "--mode", "paths", "--out", str(tmp_path / "cmp")])
        _assert_one_line_data_error(rc, capsys.readouterr().err)
        assert not (tmp_path / "cmp" / "comparison.json").exists()

    def test_pressures_whose_span_overflows_compare_finite(self, sim_dir, tmp_path):
        _corrupt_first_value(sim_dir, "T1", "pressure", "1e+308")
        _corrupt_first_value(sim_dir, "F2", "pressure", "-1e+308")
        out = tmp_path / "cmp"
        assert main(["compare", str(sim_dir), "--mode", "paths", "--out", str(out)]) == 0
        row = json.loads((out / "comparison.json").read_text())["rows"]["pressure"]
        assert all(math.isfinite(row[f"mean_{label}"]) for label in ("loop", "other"))
        for label in ("loop", "other"):
            pmf_lines = (out / f"pmf_pressure_{label}.dat").read_text().splitlines()
            columns = [line.split() for line in pmf_lines]
            assert len(columns) == 30
            assert all(math.isfinite(float(x)) for column in columns for x in column)
            assert float(columns[0][0]) < float(columns[-1][0])

    def test_missing_nodes_json_is_data_error(self, sim_dir, tmp_path, capsys):
        (sim_dir / "nodes.json").unlink()
        rc = main(["compare", str(sim_dir), "--mode", "paths", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "nodes.json" in capsys.readouterr().err

    def test_determinism(self, sim_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["compare", str(sim_dir), "--mode", "mobile-fixed", "--out", str(out)]) == 0
        assert digest_tree(a) == digest_tree(b)

    @pytest.mark.parametrize("mode", ["paths", "mobile-fixed"])
    @pytest.mark.parametrize("edit, needle", [
        (lambda doc: [], "expected an object of nodes, got list"),
        (lambda doc: {"T1": {"lat": 1}}, "node 'T1': unknown kind None"),
        (lambda doc: {**doc, "T1": 5}, "node 'T1': expected an object, got int"),
        (lambda doc: {**doc, "T1": {**doc["T1"], "lat": "43.7"}}, "lat and lon must be numbers"),
        (lambda doc: {**doc, "T1": {**doc["T1"], "lat": 91}}, "latitude 91 out of range"),
        (lambda doc: {**doc, "T1": {**doc["T1"], "path": 3}}, "path must be a string or null"),
        (lambda doc: {**doc, "T1": {**doc["T1"], "path": "heavy/traffic"}},
         "path 'heavy/traffic' does not match"),
    ], ids=["list", "no-kind", "node-not-an-object", "string-lat", "lat-91", "numeric-path",
            "path-name-slash"])
    def test_malformed_nodes_json_is_one_line_data_error(
        self, sim_dir, tmp_path, capsys, mode, edit, needle
    ):
        nodes_path = sim_dir / "nodes.json"
        nodes_path.write_text(json.dumps(edit(json.loads(nodes_path.read_text()))))
        out = tmp_path / "cmp"
        rc = main(["compare", str(sim_dir), "--mode", mode, "--out", str(out)])
        err = capsys.readouterr().err
        _assert_one_line_data_error(rc, err)
        assert "nodes.json" in err and needle in err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["paths", "mobile-fixed"])
    @pytest.mark.parametrize("cut, needle", [
        (lambda text: text[:8], "Expecting"),
        (lambda text: text.replace("{", "{\n  \"T1\": {},", 1), "repeated key 'T1'"),
        (lambda text: text.replace('"kind"', '"kind": "fixed", "kind"', 1), "repeated key 'kind'"),
        (lambda text: text.replace('"T1"', '"T\udcff1"', 1), "'utf-8' codec can't decode byte 0xff"),
    ], ids=["truncated", "repeated-node", "repeated-field", "not-utf-8"])
    def test_nodes_json_is_named_in_every_refusal(self, sim_dir, tmp_path, capsys, mode, cut,
                                                  needle):
        nodes_path = sim_dir / "nodes.json"
        nodes_path.write_bytes(cut(nodes_path.read_text()).encode("utf-8", "surrogateescape"))
        out = tmp_path / "cmp"
        rc = main(["compare", str(sim_dir), "--mode", mode, "--out", str(out)])
        err = capsys.readouterr().err
        _assert_one_line_data_error(rc, err)
        assert err.startswith(f"data error: {nodes_path}: ") and needle in err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["paths", "mobile-fixed"])
    def test_readings_of_a_node_missing_from_nodes_json_are_a_data_error(
        self, sim_dir, tmp_path, capsys, mode
    ):
        nodes_path = sim_dir / "nodes.json"
        doc = json.loads(nodes_path.read_text())
        del doc["T1"]
        nodes_path.write_text(json.dumps(doc))
        out = tmp_path / "cmp"
        rc = main(["compare", str(sim_dir), "--mode", mode, "--out", str(out)])
        err = capsys.readouterr().err
        _assert_one_line_data_error(rc, err)
        assert err == f"data error: {nodes_path} has no entry for T1\n"
        assert not out.exists()


class TestReadStepsBuildNoRows:
    def test_no_measurement_is_built_per_stored_line(self, tmp_path, monkeypatch):
        """The read steps take the store's channels, never its row view."""
        scenario = yaml.safe_load(
            (Path(citysense.__file__).parent / "data" / "pisa-default.yaml").read_text())
        scenario["duration_s"] = 3600
        scenario_path = tmp_path / "one-hour.yaml"
        scenario_path.write_text(yaml.safe_dump(scenario))
        sim = tmp_path / "sim"
        assert main(["simulate", "--scenario", str(scenario_path), "--out", str(sim)]) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("a read step built a Measurement")

        monkeypatch.setattr(domain.Measurement, "__init__", refuse)
        for argv in (["indexes"], ["compare", "--mode", "paths"], ["compare", "--mode", "mobile-fixed"]):
            assert main([*argv, str(sim), "--out", str(tmp_path / argv[-1])]) == 0, argv


class TestSimulateBuildsNoRows:
    def test_no_measurement_is_built_from_sensor_chain_to_day_files(self, monkeypatch, tmp_path):
        """``simulate`` hands node ticks from the sensor chain to the day
        files; only a sink that records rows, such as the tests' row
        recorder, makes rows of them."""
        cfg = load_scenario("pisa-default")
        links = {kind: dataclasses.replace(link, loss_prob=0.2) for kind, link in cfg.links.items()}
        cfg = dataclasses.replace(cfg, duration_s=7200, links=links)
        built = []
        real_init = domain.Measurement.__init__

        def counted_init(self, *args, **kwargs):
            built.append(type(self))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(domain.Measurement, "__init__", counted_init)
        tallies, received = cli.simulate(cfg, tmp_path / "sim")
        assert built == []
        assert 0 < received < sum(t.emitted for t in tallies.values())
        # the counters see the rows the row recorder builds
        assert len(record(cfg).server_measurements) == received
        assert len(built) >= received


def _failing_second(monkeypatch, prefix):
    """Make the second file named ``prefix...`` that an OutputSet opens fail
    with a full disk after its first line reached the temporary."""
    real_open = store.OutputSet.open
    opened = []

    @contextmanager
    def failing_open(self, name, **kwargs):
        with real_open(self, name, **kwargs) as f:
            if name.startswith(prefix):
                opened.append(name)
                if len(opened) == 2:
                    f.write("partial\n")
                    f.flush()
                    assert (self.directory / f".{name}.tmp").is_file()
                    raise OSError(28, "No space left on device")
            yield f

    monkeypatch.setattr(store.OutputSet, "open", failing_open)
    return opened


class TestWholeOutputSets:
    def test_failed_indexes_run_keeps_the_previous_index_set(
        self, sim_dir, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "idx"
        assert main(["indexes", str(sim_dir), "--out", str(out)]) == 0
        before = digest_tree(out)
        assert len(before) >= 2
        opened = _failing_second(monkeypatch, "indexes_")
        capsys.readouterr()
        # a different grid, so a set written by the failed run would differ
        rc = main(["indexes", str(sim_dir), "--out", str(out), "--uplink-period-s", "1800"])
        _assert_one_line_data_error(rc, capsys.readouterr().err)
        assert len(opened) == 2
        assert digest_tree(out) == before  # byte-identical, and no temporary

    def test_failed_compare_run_keeps_the_previous_comparison_set(
        self, sim_dir, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "cmp"
        assert main(["compare", str(sim_dir), "--mode", "paths", "--out", str(out)]) == 0
        before = digest_tree(out)
        opened = _failing_second(monkeypatch, "pmf_")
        capsys.readouterr()
        rc = main(["compare", str(sim_dir), "--mode", "mobile-fixed", "--out", str(out)])
        _assert_one_line_data_error(rc, capsys.readouterr().err)
        assert len(opened) == 2
        assert digest_tree(out) == before
        monkeypatch.undo()

        # A whole run replaces the set: no PMF of the paths mode is left.
        assert main(["compare", str(sim_dir), "--mode", "mobile-fixed", "--out", str(out)]) == 0
        names = set(digest_tree(out))
        assert "pmf_co2_mobile.dat" in names
        assert not any(n.endswith("_loop.dat") for n in names)

    @pytest.mark.parametrize(
        "command", [["indexes"], ["compare", "--mode", "paths"], ["compare", "--mode", "mobile-fixed"]],
        ids=["indexes", "compare-paths", "compare-mobile-fixed"],
    )
    def test_reordered_store_is_data_error_and_keeps_the_previous_set(
        self, sim_dir, tmp_path, capsys, command
    ):
        out = tmp_path / "o"
        assert main([*command, str(sim_dir), "--out", str(out)]) == 0
        before = digest_tree(out)
        day_file, lines = _first_day_file(sim_dir)
        lines[0], lines[1] = lines[1], lines[0]
        day_file.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main([*command, str(sim_dir), "--out", str(out)])
        err = capsys.readouterr().err
        _assert_one_line_data_error(rc, err)
        assert err.startswith(f"data error: {day_file.name} line 2: record out of order: ")
        assert digest_tree(out) == before

    @pytest.mark.parametrize(
        "command", [["indexes"], ["compare", "--mode", "paths"], ["compare", "--mode", "mobile-fixed"]],
        ids=["indexes", "compare-paths", "compare-mobile-fixed"],
    )
    @pytest.mark.parametrize("name", ["measurements-2015-04-21.txt", "measurements-notadate.txt"])
    def test_a_day_file_under_another_name_is_data_error(
        self, sim_dir, tmp_path, capsys, command, name
    ):
        day_file, _ = _first_day_file(sim_dir)
        day_file.rename(sim_dir / name)
        rc = main([*command, str(sim_dir), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        _assert_one_line_data_error(rc, err)
        if name == "measurements-notadate.txt":
            assert err == f"data error: {name}: not a day file name, measurements-YYYY-MM-DD.txt\n"
        else:
            assert err == (f"data error: {name} line 1: "
                           "timestamp 2015-04-20T00:00:00Z is not on 2015-04-21\n")
        assert not (tmp_path / "o").exists()

    def test_a_malformed_later_day_leaves_no_new_index_directory(
        self, sim_dir, tmp_path, capsys, monkeypatch
    ):
        # indexes writes the first day's lines before it reads the second file
        last = sorted(sim_dir.glob("measurements-*.txt"))[-1]
        next_day = domain.parse_utc(f"{last.name[13:23]}T00:00:00Z") + domain.SECONDS_PER_DAY
        bad = sim_dir / f"measurements-{domain.format_utc(next_day)[:10]}.txt"
        bad.write_text("not a record\n")
        real_open, opened = store.OutputSet.open, []

        def spied_open(self, name, **kwargs):
            opened.append(name)
            return real_open(self, name, **kwargs)

        monkeypatch.setattr(store.OutputSet, "open", spied_open)
        out = tmp_path / "new" / "idx"
        capsys.readouterr()
        rc = main(["indexes", str(sim_dir), "--out", str(out)])
        err = capsys.readouterr().err
        _assert_one_line_data_error(rc, err)
        assert err.startswith(f"data error: {bad.name} line 1: malformed record")
        assert opened  # the first day's index files were open when the second failed
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("command", [["indexes"], ["compare", "--mode", "paths"]])
    def test_missing_data_directory_is_data_error_and_not_created(
        self, tmp_path, capsys, command
    ):
        missing = tmp_path / "missing"
        rc = main([*command, str(missing), "--out", str(tmp_path / "o")])
        _assert_one_line_data_error(rc, capsys.readouterr().err)
        assert not missing.exists()
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "indexes", "compare"])
    def test_out_under_a_regular_file_is_data_error(
        self, sim_dir, small_scenario_file, tmp_path, capsys, command
    ):
        plain = tmp_path / "plain"
        plain.write_text("x\n")
        out = str(plain / "out")
        argv = {
            "simulate": ["simulate", "--scenario", str(small_scenario_file), "--out", out],
            "indexes": ["indexes", str(sim_dir), "--out", out],
            "compare": ["compare", str(sim_dir), "--mode", "paths", "--out", out],
        }[command]
        capsys.readouterr()
        rc = main(argv)
        _assert_one_line_data_error(rc, capsys.readouterr().err)
        assert plain.read_text() == "x\n"


class TestTraffic:
    def _write(self, tmp_path, text):
        p = tmp_path / "access.yaml"
        p.write_text(text)
        return p

    def test_prints_ti_and_factors(self, tmp_path, capsys):
        p = self._write(
            tmp_path,
            "composition: {cars: 0.5, motorcycles: 0.5}\n"
            "steepness_pct: 5\ngrade: uphill\nlocalization: business\n",
        )
        assert main(["traffic", str(p)]) == 0
        out = capsys.readouterr().out
        assert "K1" in out and "K4" in out
        assert "TI = 1955.6391" in out

    def test_all_cars_base_value(self, tmp_path, capsys):
        p = self._write(tmp_path, "composition: {cars: 1.0}\n")
        assert main(["traffic", str(p)]) == 0
        assert "TI = 1800.0000" in capsys.readouterr().out

    def test_bad_shares_config_error(self, tmp_path, capsys):
        p = self._write(tmp_path, "composition: {cars: 0.2}\n")
        assert main(["traffic", str(p)]) == 1

    def test_degenerate_composition_config_error(self, tmp_path):
        p = self._write(
            tmp_path,
            "composition: {cars: 1.0}\n"
            "maneuver_equivalents: {straight: 0.0, turning_right: 1.25, turning_left: 1.75}\n",
        )
        assert main(["traffic", str(p)]) == 1

    def test_missing_file(self, tmp_path):
        assert main(["traffic", str(tmp_path / "none.yaml")]) == 1

    @pytest.mark.parametrize(
        "text, needle",
        [
            ("composition: {cars: null}\n", "composition.cars"),
            ("composition: [1, 2]\n", "composition"),
            ("composition: {cars: 1.0}\nmaneuver_equivalents: [1]\n", "maneuver_equivalents"),
            ("composition: {cars: 1.0}\ns_b: .nan\n", "s_b"),
            ("composition: {cars: 1.0}\ns_b: -5\n", "s_b"),
            ("composition: {cars: 1.0}\nsteepness_pct: .inf\n", "steepness_pct"),
            ("composition: {cars: '1.0'}\n", "composition.cars"),
            ("grade: flat\n", "composition"),
            ("composition: {cars: 1.0}\nsteepness_pct: 50\ngrade: uphill\n", "steepness_pct"),
        ],
        ids=["share-null", "composition-list", "equivalents-list", "s_b-nan", "s_b-negative",
             "steepness-inf", "share-quoted", "no-composition", "steep-uphill"],
    )
    def test_malformed_value_exits_1(self, tmp_path, capsys, text, needle):
        assert main(["traffic", str(self._write(tmp_path, text))]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("config error:") and needle in err


class TestParser:
    def test_usage_error_exit_code_is_config(self):
        with pytest.raises(SystemExit) as e:
            main(["simulate"])  # missing required flags
        assert e.value.code == 1

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as e:
            main(["banana"])
        assert e.value.code == 1

    @pytest.mark.parametrize("argv, error", [
        (["indexes", "--uplink-period-s", "0"], "argument --uplink-period-s:"),
        (["indexes", "--uplink-period-s", "-900"], "argument --uplink-period-s:"),
        (["indexes", "--uplink-period-s", "15m"], "argument --uplink-period-s:"),
        (["compare", "--mode", "mobile-fixed", "--radius-m", "nan"], "argument --radius-m:"),
        (["compare", "--mode", "mobile-fixed", "--radius-m", "-5"], "argument --radius-m:"),
        (["compare", "--mode", "mobile-fixed", "--radius-m", "inf"], "argument --radius-m:"),
        (["indexes", "--thermal", "apparent"], "unrecognized arguments: --thermal apparent"),
    ], ids=["period-0", "period-negative", "period-text", "radius-nan", "radius-negative",
            "radius-inf", "thermal"])
    def test_bad_numeric_flag_exits_1_and_touches_no_file(
        self, sim_dir, tmp_path, capsys, argv, error
    ):
        out = tmp_path / "out"
        out.mkdir()
        (out / "indexes_T1.txt").write_text("previous\n")
        before = digest_tree(sim_dir), digest_tree(out)
        with pytest.raises(SystemExit) as e:
            main([argv[0], str(sim_dir), "--out", str(out), *argv[1:]])
        assert e.value.code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert f"error: {error}" in err
        assert (digest_tree(sim_dir), digest_tree(out)) == before


@pytest.fixture
def all_lost_hour(tmp_path):
    """One hour of the bundled scenario in which every link loses every
    message, so each of the four uplink windows is empty."""
    bundled = Path(citysense.__file__).parent / "data" / "pisa-default.yaml"
    scenario = yaml.safe_load(bundled.read_text())
    scenario["duration_s"] = 3600
    for link in scenario["links"].values():
        link["loss_prob"] = 1.0
    path = tmp_path / "all-lost.yaml"
    path.write_text(yaml.safe_dump(scenario))
    return path


class TestLogging:
    def test_empty_batch_warnings_print_nothing_to_stderr(self, all_lost_hour, tmp_path):
        # A fresh interpreter: under pytest a capture handler sits on the root
        # logger, and Python's last-resort handler would never be reached.
        env = dict(os.environ)
        src = str(Path(citysense.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "citysense.cli", "simulate", "--scenario",
             str(all_lost_hour), "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_empty_batch_warnings_still_reach_logging(self, all_lost_hour, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="citysense"):
            assert main(["simulate", "--scenario", str(all_lost_hour),
                         "--out", str(tmp_path / "out")]) == 0
        warnings = [r.getMessage() for r in caplog.records if r.name == "citysense.netsim"]
        assert warnings == [f"empty uplink batch at t={1429488000 + k * 900}" for k in (1, 2, 3, 4)]


class TestSimulateMemory:
    def test_peak_memory_does_not_grow_with_simulated_days(self, tmp_path, monkeypatch):
        # The day files stream window by window, so no list of every server
        # reading is built: 4 days may peak at most 1.2x what 1 day does.
        # Two caches grow with the days up to their own bounds, the field's
        # time-of-day memo (one day) and the format_utc stamps (16,384): an
        # untraced warm-up over the longest run fills both, from empty, with
        # all the measured runs use, so only what a run holds itself is
        # traced. Four of the bundled nodes, one of each kind, keep it short.
        scenario = yaml.safe_load(
            (Path(citysense.__file__).parent / "data" / "pisa-default.yaml").read_text())
        scenario["nodes"] = [n for n in scenario["nodes"] if n["id"] in ("C0", "T1", "M1", "W0")]

        def simulate(hours):
            scenario["duration_s"] = hours * 3600
            path = tmp_path / f"{hours}h.yaml"
            path.write_text(yaml.safe_dump(scenario))
            return main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")])

        def peak(hours):
            tracemalloc.start()
            try:
                return simulate(hours), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(domain, "_STAMPS", {})
        assert simulate(96) == 0
        (rc_1, peak_1), (rc_4, peak_4) = peak(24), peak(96)
        assert rc_1 == rc_4 == 0
        assert peak_4 <= 1.2 * peak_1, (peak_1, peak_4)


class TestReadStepMemory:
    def test_indexes_holds_a_day_at_a_time_and_compare_compact_channels(self, tmp_path, monkeypatch):
        # indexes reads one day file at a time and trims its windows, so 3
        # days may peak at most 1.25x what 1 day does; compare holds each
        # reading it keeps as a value and a flag code. A warm-up run over the
        # longest store fills, from empty, the format_utc stamps every
        # measured run uses (see TestSimulateMemory), so only what a run
        # holds itself is traced.
        cfg = with_seed(load_scenario("pisa-default"), 7)
        stored = {}
        for days in (1, 3):
            _, stored[days] = cli.simulate(
                dataclasses.replace(cfg, duration_s=days * 86400), tmp_path / f"{days}d")

        def peak(argv):
            tracemalloc.start()
            try:
                return main(argv), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def indexes(days):
            return ["indexes", str(tmp_path / f"{days}d"), "--out", str(tmp_path / "idx")]

        compare = ["compare", str(tmp_path / "3d"), "--mode", "mobile-fixed", "--out",
                   str(tmp_path / "cmp")]
        monkeypatch.setattr(domain, "_STAMPS", {})
        assert main(indexes(3)) == main(compare) == 0
        (rc_1, peak_1), (rc_3, peak_3) = peak(indexes(1)), peak(indexes(3))
        assert rc_1 == rc_3 == 0
        assert peak_3 <= 1.25 * peak_1, (peak_1, peak_3)
        rc, compare_peak = peak(compare)
        assert rc == 0
        assert compare_peak <= 32 * stored[3], (compare_peak, stored[3])
