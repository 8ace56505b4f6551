"""Sensor-node behaviour: periodic sampling and the sensor-physics chain.

Each reading goes through, in order:

    raw  = field_value * bias_mul + bias_add + noise
    lag  = first-order tracking with 90%-rise time t90
    clamp to the physical range of the quantity (``domain.VALUE_RANGE``)
    LoD  : readings under the detection limit are zeroed and flagged
    quantize to the channel resolution (ties away from zero)

The multi-gas channels (CO, CO2, HC) additionally need a warm-up period
after power-on during which readings are emitted but flagged, never used
by the index pipelines.

The clamp keeps a finite reading within its quantity's range, and so do the
LoD zero (every range holds 0) and quantization, which is monotone:
``SensorSpec`` refuses a resolution that rounds the top of the range past it.
So ``sample`` checks only finiteness per reading, and the integer timestamp
once per call, and returns one ``NodeTick``, not a record per reading. A
node's channels are fixed when its ``NodeState`` is built; each one's noise
comes from a ``BlockDraws`` stream, which equals scalar draws of its generator.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field as dc_field
from functools import partial
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .domain import (
    VALUE_RANGE, Flag, GeoPoint, NodeDescriptor, NodeKind, NodeTick, Quantity,
    ValidationError, co_ppm_to_mg_m3,
)
from .field import BlockDraws, FieldModel, Path, noise_generator, path_position

GAS_WARMUP_S = 900.0
GAS_T90_S = 90.0


@dataclass(frozen=True)
class SensorSpec:
    """Per-channel physics parameters, all in the quantity's storage unit.
    The defaults are the multi-gas sensor's warm-up and response time."""

    quantity: Quantity
    warmup_s: float = GAS_WARMUP_S
    t90_s: float = GAS_T90_S
    lod: float = 0.0
    resolution: float = 0.0

    def __post_init__(self):
        if self.warmup_s < 0 or self.t90_s <= 0 or self.lod < 0 or self.resolution < 0:
            raise ValueError(f"bad sensor spec for {self.quantity.value}")
        low, high = VALUE_RANGE[self.quantity]  # quantize keeps each low end, 0 or -inf
        if quantize(high, self.resolution) > high:
            raise ValueError(f"resolution {self.resolution:g} rounds {high:g} to "
                             f"{quantize(high, self.resolution):g}, outside [{low:g}, {high:g}]")


def default_sensor_spec(quantity: Quantity) -> SensorSpec:
    """Datasheet defaults. The gas channels carry LoD and 1 ppm resolution;
    CO values are stored in mg/m3, so its ppm figures are converted. Every
    other channel is continuous, with no warm-up."""
    if quantity is Quantity.CO:
        return SensorSpec(quantity, lod=co_ppm_to_mg_m3(5.0), resolution=co_ppm_to_mg_m3(1.0))
    if quantity is Quantity.CO2:
        return SensorSpec(quantity, lod=10.0, resolution=1.0)
    if quantity is Quantity.HC:
        return SensorSpec(quantity, lod=5.0, resolution=1.0)
    return SensorSpec(quantity, warmup_s=0.0)


def lag_filter(prev: float, target: float, dt: float, t90: float) -> float:
    """First-order exponential tracking.

    The rate is ln(10)/t90, so a step reaches exactly 90% of its height
    after t90 seconds and 99% after 2*t90. Contraction: the output is never
    farther from the target than ``prev`` was.
    """
    return target + (prev - target) * 10.0 ** (-dt / t90)


def quantize(v: float, resolution: float) -> float:
    """Round to the nearest multiple of ``resolution``, ties away from zero.

    ``resolution == 0`` means a continuous channel: ``v`` is returned as is.
    So it is when ``abs(v) / resolution >= 2**53``: the resolution is then
    below the float spacing at ``v``, and the ratio may overflow. Where the
    rounded multiple would pass the largest float, the multiple toward zero
    is taken instead, so a finite ``v`` always gives a finite result.
    """
    if resolution == 0.0:
        return v
    steps = abs(v) / resolution
    if not steps < 2.0**53:
        return v
    n = math.floor(steps + 0.5)
    rounded = n * resolution
    if rounded == math.inf:
        rounded = (n - 1) * resolution
    return math.copysign(rounded, v)


class _Channel(NamedTuple):
    """One row of a node's channel table: everything ``sample`` needs about
    a quantity that does not change from one reading to the next."""

    quantity: Quantity
    spec: SensorSpec
    bias_mul: float
    bias_add: float
    noise: BlockDraws | None  # None when the channel has no noise
    floor: float  # the quantity's VALUE_RANGE
    ceiling: float


# Flag bits of one reading -> its flag set; readings share these 8 sets.
_WARMING_UP, _BELOW_LOD, _QUANTIZED = 1, 2, 4
_FLAG_SETS = tuple(
    frozenset(
        f for bit, f in ((_WARMING_UP, Flag.WARMING_UP), (_BELOW_LOD, Flag.BELOW_LOD),
                         (_QUANTIZED, Flag.QUANTIZED))
        if bits & bit
    )
    for bits in range(8)
)
_EMPTY: Mapping = MappingProxyType({})  # an absent override map


@dataclass
class NodeState:
    """Mutable per-node simulation state, owned by a single simulation actor.

    ``channels`` holds one row per quantity of the suite, in ``quantities``
    order (by ``Quantity.value``; every tick shares that tuple): its spec
    from ``sensors`` or the datasheet, its biases, its noise stream from
    ``field`` and its range. ``sensors`` and the biases are read only here.
    """

    descriptor: NodeDescriptor
    field: FieldModel = dc_field(repr=False)
    powered_since: int = 0
    sensors: InitVar[Mapping[Quantity, SensorSpec]] = _EMPTY
    trajectory: tuple[Path, float] | None = None  # (route, speed m/s)
    bias_add: InitVar[Mapping[Quantity, float]] = _EMPTY
    bias_mul: InitVar[Mapping[Quantity, float]] = _EMPTY
    last_filtered: dict[Quantity, float] = dc_field(default_factory=dict)
    channels: tuple[_Channel, ...] = dc_field(init=False, repr=False)
    quantities: tuple[Quantity, ...] = dc_field(init=False, repr=False)
    _last_sample_t: int | None = None

    def __post_init__(self, sensors, bias_add, bias_mul):
        if self.descriptor.kind is NodeKind.MOBILE and self.trajectory is None:
            raise ValueError(f"mobile node {self.descriptor.node_id} needs a trajectory")
        rows = []
        for q in sorted(self.descriptor.sensor_suite, key=lambda q: q.value):
            sigma = self.field.noise_sigma.get(q, 0.0)
            noise = None
            if sigma > 0.0:
                generator = noise_generator(self.field, self.descriptor.node_id, q)
                noise = BlockDraws(partial(generator.normal, 0.0, sigma))
            rows.append(_Channel(
                q, sensors.get(q) or default_sensor_spec(q), bias_mul.get(q, 1.0),
                bias_add.get(q, 0.0), noise, *VALUE_RANGE[q],
            ))
        self.channels = tuple(rows)
        self.quantities = tuple(row.quantity for row in rows)

    def position_at(self, t: float) -> GeoPoint:
        if self.trajectory is not None:
            route, speed = self.trajectory
            return path_position(route, speed, t - self.powered_since)
        return self.descriptor.home_position


def sample(node: NodeState, t: int) -> NodeTick:
    """One reading of every quantity in the node's suite at time ``t``, as a tick.

    ``t`` must lie on the node's sampling grid; timestamps are epoch seconds,
    and a ``t`` that is not an int raises ValidationError before any state
    changes. Degraded readings are emitted with flags rather than dropped, so
    the analytics layer sees the full population. A non-finite reading
    raises ValidationError naming its value.
    """
    if not isinstance(t, int):
        raise ValidationError("timestamp", "must be integer seconds UTC")
    dt = float(t - node._last_sample_t) if node._last_sample_t is not None else None
    node._last_sample_t = t
    node_id = node.descriptor.node_id
    f = node.field
    position = node.position_at(t)
    age = t - node.powered_since
    last_filtered = node.last_filtered
    isfinite = math.isfinite
    values: list[float] = []
    flags: list[frozenset[Flag]] = []
    for q, spec, bias_mul, bias_add, noise, floor, ceiling in node.channels:
        raw = f.value(q, position, t) * bias_mul + bias_add
        if noise is not None:
            raw += noise.random()
        prev = last_filtered.get(q)
        if prev is None or dt is None:
            value = raw  # sensor settles on its first reading
        else:
            value = lag_filter(prev, raw, dt, spec.t90_s)
        last_filtered[q] = value
        if value < floor:
            value = floor
        elif value > ceiling:
            value = ceiling
        bits = 0
        if spec.warmup_s > 0 and age < spec.warmup_s:
            bits = _WARMING_UP
        if spec.lod > 0.0 and value < spec.lod:
            value = 0.0
            bits |= _BELOW_LOD
        if spec.resolution > 0.0:
            quantized = quantize(value, spec.resolution)
            if quantized != value:
                bits |= _QUANTIZED
            value = quantized
        if not isfinite(value):
            raise ValidationError("value", f"not finite: {value!r}")
        values.append(value)
        flags.append(_FLAG_SETS[bits])
    return NodeTick(node_id, t, position, node.quantities, values, flags)
