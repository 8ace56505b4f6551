from importlib import resources

import pytest
import yaml

from citysense import scenario
from citysense.domain import ConfigError, NodeKind, Quantity, Radio
from citysense.scenario import load_scenario, parse_scenario, with_seed


class TestBundledScenario:
    def test_loads_by_name(self):
        cfg = load_scenario("pisa-default")
        assert cfg.name == "pisa-default"
        kinds = [n.descriptor.kind for n in cfg.nodes]
        assert kinds.count(NodeKind.FIXED) == 7
        assert kinds.count(NodeKind.MOBILE) == 2
        assert kinds.count(NodeKind.COORDINATOR) == 1
        assert kinds.count(NodeKind.WEATHER_STATION) == 1

    def test_pm25_on_three_fixed_nodes(self):
        cfg = load_scenario("pisa-default")
        with_pm = [
            n.descriptor.node_id
            for n in cfg.nodes
            if Quantity.PM25 in n.descriptor.sensor_suite
        ]
        assert len(with_pm) == 3

    def test_station_spacing(self):
        from citysense.domain import haversine_distance

        cfg = load_scenario("pisa-default")
        pos = {
            n.descriptor.node_id: n.descriptor.home_position
            for n in cfg.nodes
            if n.descriptor.home_position
        }
        assert haversine_distance(pos["T1"], pos["T2"]) == pytest.approx(350.0, abs=1.0)
        assert haversine_distance(pos["T2"], pos["C0"]) == pytest.approx(350.0, abs=1.0)
        assert haversine_distance(pos["C0"], pos["F5"]) == pytest.approx(1000.0, abs=1.0)
        assert haversine_distance(pos["F5"], pos["F6"]) == pytest.approx(1000.0, abs=1.0)

    def test_gas_lod_disabled_for_ambient_levels(self):
        cfg = load_scenario("pisa-default")
        for q in (Quantity.CO, Quantity.CO2, Quantity.HC):
            assert cfg.sensor_overrides[q].lod == 0.0

    def test_missing_scenario(self):
        with pytest.raises(ConfigError):
            load_scenario("no-such-scenario")


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
class TestYamlLoaders:
    def test_libyaml_and_pure_python_loaders_agree(self, small_scenario_file):
        bundled = resources.files("citysense").joinpath("data/pisa-default.yaml")
        for text in (bundled.read_text(), small_scenario_file.read_text()):
            fast = yaml.load(text, Loader=yaml.CSafeLoader)
            assert fast == yaml.load(text, Loader=yaml.SafeLoader)
            assert fast["nodes"]
        assert scenario._YAML_LOADER is yaml.CSafeLoader


def test_a_yaml_error_names_the_file_and_line(small_scenario_file):
    text = small_scenario_file.read_text()
    line = len(text.splitlines()) + 1
    small_scenario_file.write_text(text + "duration_s: 3600\n")
    with pytest.raises(ConfigError) as e:
        load_scenario(small_scenario_file)
    assert str(e.value) == (f"cannot read {small_scenario_file}: repeated key 'duration_s' "
                            f'in "{small_scenario_file}", line {line}, column 1')


class TestValidation:
    def _raw(self, small_scenario_file):
        return yaml.safe_load(small_scenario_file.read_text())

    def test_small_scenario_parses(self, small_scenario_file):
        cfg = load_scenario(small_scenario_file)
        assert cfg.name == "mini"
        assert cfg.links[Radio.WIDE_AREA].latency_s == 2.0

    def test_unknown_route(self, small_scenario_file):
        raw = self._raw(small_scenario_file)
        raw["nodes"][-1]["route"] = "nowhere"
        with pytest.raises(ConfigError, match="nowhere"):
            parse_scenario(raw)

    def test_duration_must_align_with_uplink_period(self, small_scenario_file):
        raw = self._raw(small_scenario_file)
        raw["duration_s"] = 1000
        with pytest.raises(ConfigError, match="multiple"):
            parse_scenario(raw)

    def test_duplicate_node_id(self, small_scenario_file):
        raw = self._raw(small_scenario_file)
        raw["nodes"].append(dict(raw["nodes"][1]))
        with pytest.raises(ConfigError, match="duplicate"):
            parse_scenario(raw)

    def test_unknown_top_level_key(self, small_scenario_file):
        raw = self._raw(small_scenario_file)
        raw["feild"] = {}
        with pytest.raises(ConfigError, match="feild"):
            parse_scenario(raw)

    def test_unknown_quantity(self, small_scenario_file):
        raw = self._raw(small_scenario_file)
        raw["field"]["baseline"]["nox"] = 1.0
        with pytest.raises(ConfigError, match="nox"):
            parse_scenario(raw)

    def test_mobile_without_route(self, small_scenario_file):
        raw = self._raw(small_scenario_file)
        del raw["nodes"][-1]["route"]
        with pytest.raises(ConfigError, match="route"):
            parse_scenario(raw)

    def test_wind_speed_on_mobile_rejected(self, small_scenario_file):
        raw = self._raw(small_scenario_file)
        raw["nodes"][-1]["quantities"].append("wind_speed")
        with pytest.raises(Exception, match="wind_speed"):
            parse_scenario(raw)

    @pytest.mark.parametrize("sigma_m", [0.0, -400.0, float("nan")])
    def test_plume_sigma_must_be_positive(self, small_scenario_file, sigma_m):
        raw = self._raw(small_scenario_file)
        raw["field"]["plumes"] = {
            "co": [{"lat": 43.716, "lon": 10.3966, "sigma_m": sigma_m, "amplitude": 1.5}]
        }
        with pytest.raises(ConfigError, match="sigma_m"):
            parse_scenario(raw)

    @pytest.mark.parametrize("sigma", [-2.5, float("nan")])
    def test_noise_sigma_must_be_non_negative(self, small_scenario_file, sigma):
        raw = self._raw(small_scenario_file)
        raw["field"]["noise_sigma"]["o3"] = sigma
        with pytest.raises(ConfigError, match="noise_sigma"):
            parse_scenario(raw)

    def test_zero_noise_sigma_accepted(self, small_scenario_file):
        raw = self._raw(small_scenario_file)
        raw["field"]["noise_sigma"]["o3"] = 0.0
        assert parse_scenario(raw).field.noise_sigma[Quantity.O3] == 0.0

    def test_with_seed_reseeds_field_too(self, small_scenario_file):
        cfg = load_scenario(small_scenario_file)
        reseeded = with_seed(cfg, 12345)
        assert reseeded.seed == 12345
        assert reseeded.field.seed == 12345
        assert cfg.seed == 7  # original untouched
