"""What the sensor layer does to a perfect signal.

The multi-gas channels are slow and coarse: a first-order response with a
90%-rise time, a warm-up period after power-on, a detection limit, and 1 ppm
quantization. This script walks a single CO2 channel through all four.

Run: python demos/02_sensor_physics.py
"""

from citysense.domain import Flag, GeoPoint, NodeDescriptor, NodeKind, Quantity, co_ppm_to_mg_m3
from citysense.field import FieldModel
from citysense.nodes import NodeState, SensorChain, lag_factor, quantize

P = GeoPoint(43.716, 10.3966)

print("first-order tracking, t90 = 90 s, step 0 -> 100:")
level = 0.0
for step in range(1, 5):
    level = 100.0 + (level - 100.0) * lag_factor(dt=90.0, t90=90.0)
    print(f"  after {step * 90:3d} s: {level:7.3f}   (expected {100 * (1 - 10.0 ** -step):7.3f})")

print("\nquantization to 1 ppm, ties away from zero:")
for v in (3.4, 2.5, -2.5, 7.49999):
    print(f"  {v:8.5f} -> {quantize(v, 1.0):5.1f}")

print("\na CO2 node warming up (gas readings are flagged, never dropped):")
field = FieldModel(seed=1, baseline={Quantity.CO2: 451.1}, noise_sigma={Quantity.CO2: 3.0})
node = NodeState(
    descriptor=NodeDescriptor(
        "demo", NodeKind.FIXED, frozenset({Quantity.CO2}),
        home_position=P,
    ),
    field=field,
    powered_since=0,
)
chain = SensorChain([node], period=300)  # every channel of its nodes, one grid time at a time
for t in range(0, 1500, 300):
    (tick,) = chain.sample(t)
    (m,) = tick.rows()
    flags = ",".join(sorted(f.value for f in m.flags)) or "-"
    print(f"  t={t:4d}s  value={m.value:6.1f} ppmV  flags: {flags}")

print("\nbelow the detection limit (CO at 3 ppm against a 5 ppm LoD):")
field = FieldModel(seed=1, baseline={Quantity.CO: co_ppm_to_mg_m3(3.0)})
node = NodeState(
    descriptor=NodeDescriptor(
        "demo2", NodeKind.FIXED, frozenset({Quantity.CO}),
        home_position=P,
    ),
    field=field,
)
(tick,) = SensorChain([node], period=300).sample(0)
(m,) = tick.rows()
print(f"  value={m.value} mg/m3, flagged below_lod={Flag.BELOW_LOD in m.flags}")
