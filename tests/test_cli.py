import hashlib
import json
import logging
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
from citysense import domain, netsim, store
from citysense.cli import main


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
        real_sample = netsim.sample
        ticks = []

        def failing_sample(*args):
            ticks.append(args)
            if len(ticks) == 10:  # of 18 sample ticks
                # The delivery log is being streamed while the run goes on.
                assert (sim_dir / ".delivery-log.txt.tmp").is_file()
                raise RuntimeError("sensor bus fault")
            return real_sample(*args)

        monkeypatch.setattr(netsim, "sample", failing_sample)
        with pytest.raises(RuntimeError, match="sensor bus fault"):
            main(["simulate", "--scenario", str(small_scenario_file), "--out", str(sim_dir)])
        assert len(ticks) == 10
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
        real_serialize = store.serialize_measurement
        serialized = []

        def failing_serialize(m):
            serialized.append(m)
            if len(serialized) == first_day + 1:
                raise OSError(28, "No space left on device")
            return real_serialize(m)

        monkeypatch.setattr(store, "serialize_measurement", failing_serialize)
        assert main(simulate + ["--seed", "8"]) == 2
        assert len(serialized) == first_day + 1
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

    def test_empty_store_is_data_error(self, tmp_path):
        assert main(["indexes", str(tmp_path / "nothing"), "--out", str(tmp_path / "o")]) == 2


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
    ], ids=["list", "no-kind", "node-not-an-object", "string-lat", "lat-91", "numeric-path"])
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


def _failing_second(monkeypatch, prefix):
    """Make the second file named ``prefix...`` that an OutputSet opens fail
    with a full disk after its first line reached the temporary."""
    real_open = store.OutputSet.open
    opened = []

    @contextmanager
    def failing_open(self, name):
        with real_open(self, name) as f:
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
        rc = main(["indexes", str(sim_dir), "--out", str(out), "--thermal", "identity"])
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

    @pytest.mark.parametrize("argv, flag", [
        (["indexes", "--uplink-period-s", "0"], "--uplink-period-s"),
        (["indexes", "--uplink-period-s", "-900"], "--uplink-period-s"),
        (["indexes", "--uplink-period-s", "15m"], "--uplink-period-s"),
        (["compare", "--mode", "mobile-fixed", "--radius-m", "nan"], "--radius-m"),
        (["compare", "--mode", "mobile-fixed", "--radius-m", "-5"], "--radius-m"),
        (["compare", "--mode", "mobile-fixed", "--radius-m", "inf"], "--radius-m"),
    ], ids=["period-0", "period-negative", "period-text", "radius-nan", "radius-negative",
            "radius-inf"])
    def test_bad_numeric_flag_exits_1_and_touches_no_file(
        self, sim_dir, tmp_path, capsys, argv, flag
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
        assert f"error: argument {flag}:" in err
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
