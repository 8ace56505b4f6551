"""The three environmental indexes and their color bands.

AQI comes in two flavours (ozone over a trailing 8 h window, fine particles
over 24 h), the thermal comfort index bands the apparent temperature of air
and radiant temperature, wind and humidity, and the traffic index scales a
base saturation flow by composition, steepness, location, and maneuvering
factors.

Run: python demos/04_indexes.py
"""

from citysense.indexes import TrafficAccessConfig, aqi_o3, aqi_pm, tci, traffic_index

print("ozone sub-index (8 h mean, ug/m3):")
for mean in (50.0, 100.0, 200.0, 250.0):
    iv = aqi_o3([mean])
    print(f"  mean {mean:6.1f} -> {iv.color.value}")

print("\nfine-particle sub-index (24 h mean, ug/m3):")
for mean in (9.0, 14.8, 30.0, 60.0):
    iv = aqi_pm([mean])
    print(f"  mean {mean:6.1f} -> {iv.color.value}")

print("\nthermal comfort with the apparent-temperature model:")
cases = [
    ("mild spring noon", 15.0, 18.0, 0.7, 70.0),
    ("hot still summer", 33.0, 45.0, 0.2, 55.0),
    ("windy winter day", 2.0, 2.0, 8.0, 80.0),
]
for label, air, radiant, wind, rh in cases:
    iv = tci(air, radiant, wind, rh)
    print(f"  {label:18s} air {air:5.1f} -> perceived {iv.value:6.1f} degC ({iv.color.value})")

print("\ntraffic index at a city access:")
configs = [
    ("all cars, flat, residential", TrafficAccessConfig(composition={"cars": 1.0})),
    ("bus corridor", TrafficAccessConfig(composition={"buses": 1.0})),
    (
        "mixed uphill business street",
        TrafficAccessConfig(
            composition={"cars": 0.5, "motorcycles": 0.5},
            steepness_pct=5.0,
            grade="uphill",
            localization="business",
        ),
    ),
    (
        "left-turn heavy junction",
        TrafficAccessConfig(
            composition={"cars": 0.8, "trucks": 0.2},
            maneuver_shares={"straight": 0.4, "turning_left": 0.6},
        ),
    ),
]
for label, cfg in configs:
    k1, k2, k3, k4 = cfg.factors()
    iv = traffic_index(cfg)
    print(
        f"  {label:30s} K=({k1:5.3f},{k2:5.3f},{k3:5.3f},{k4:5.3f})  TI = {iv.value:8.2f} EV/s"
    )
