import pytest

SMALL_SCENARIO = """\
name: mini
seed: 7
start_time: "2015-04-20T00:00:00Z"
duration_s: 1800
sample_period_s: 300
uplink_period_s: 900

field:
  baseline: {temperature: 15.0, co2: 451.1, o3: 51.33, relative_humidity: 70.0,
             wind_speed: 0.7, radiant_temperature: 15.5, hc: 3.12, co: 2.28,
             dew_point: 9.8, pressure: 1013.0}
  noise_sigma: {co2: 2.0, o3: 1.0}

paths:
  loop:
    - [43.716, 10.3930]
    - [43.716, 10.4000]

sensors:
  co: {lod: 0.0}
  co2: {lod: 0.0}
  hc: {lod: 0.0}

nodes:
  - {id: C0, kind: coordinator, lat: 43.716, lon: 10.3966, quantities: []}
  - id: T1
    kind: fixed
    lat: 43.716
    lon: 10.3930
    path: loop
    quantities: [temperature, relative_humidity, wind_speed, radiant_temperature,
                 co2, o3, hc, co, dew_point, pressure]
  - id: F2
    kind: fixed
    lat: 43.7195
    lon: 10.3966
    path: other
    quantities: [temperature, relative_humidity, wind_speed, radiant_temperature,
                 co2, o3, hc, co, dew_point, pressure]
  - id: M1
    kind: mobile
    route: loop
    speed_mps: 4.0
    quantities: [temperature, relative_humidity, co2, o3, hc, co, dew_point, pressure]

"""


@pytest.fixture
def small_scenario_file(tmp_path):
    # F2 carries the tag "other", so paths-mode comparison has two groups
    text = SMALL_SCENARIO.replace(
        "paths:\n  loop:",
        "paths:\n  other:\n    - [43.7195, 10.3966]\n    - [43.7200, 10.3966]\n  loop:",
    )
    p = tmp_path / "mini.yaml"
    p.write_text(text)
    return p
