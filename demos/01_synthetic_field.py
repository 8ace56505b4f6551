"""A tour of the synthetic environment.

Every quantity gets a deterministic ground-truth field: a baseline, a daily
sinusoid, optional pollution hot spots (Gaussian plumes), and an optional
rush-hour coupling. Sensor noise lives in the node layer, not here, so the
same (position, time) query always returns the same number.

Run: python demos/01_synthetic_field.py
"""

from citysense.domain import GeoPoint, Quantity
from citysense.field import FieldModel, GaussianPlume

CENTER = GeoPoint(43.716, 10.3966)
NEAR_ROAD = GeoPoint(43.716, 10.401)  # ~355 m east
SUBURB = GeoPoint(43.73, 10.3966)     # ~1.6 km north

field = FieldModel(
    seed=42,
    baseline={Quantity.CO: 2.28, Quantity.TEMPERATURE: 14.7},
    diurnal_amplitude={Quantity.TEMPERATURE: 3.0},
    traffic_coupling={Quantity.CO: 0.9},
    plumes={Quantity.CO: (GaussianPlume(CENTER, sigma_m=300.0, amplitude=1.2),)},
)

print("temperature over one day at the city centre (peaks at local noon):")
for hour in range(0, 24, 3):
    v = field.value(Quantity.TEMPERATURE, CENTER, hour * 3600)
    bar = "#" * int((v - 10) * 4)
    print(f"  {hour:02d}:00  {v:6.2f} degC  {bar}")

print("\nCO across the city at 08:00 (rush hour) and 03:00 (night):")
for label, p in (("centre", CENTER), ("near road", NEAR_ROAD), ("suburb", SUBURB)):
    rush = field.value(Quantity.CO, p, 8 * 3600)
    night = field.value(Quantity.CO, p, 3 * 3600)
    print(f"  {label:10s}  rush {rush:5.2f}  night {night:5.2f}  mg/m3")

print("\ndeterminism: the same query twice ->",
      field.value(Quantity.CO, CENTER, 12345),
      "==",
      field.value(Quantity.CO, CENTER, 12345))
