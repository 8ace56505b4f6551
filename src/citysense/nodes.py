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

``SensorChain`` runs the chain vector-at-a-time (after Boncz, Zukowski and
Nes, "MonetDB/X100", CIDR 2005): one grid time at a time, over every
channel of every sensing node at once, as numpy columns. The clamp keeps a
finite reading within its quantity's range, and so do the LoD zero (every
range holds 0) and quantization, which is monotone: ``SensorSpec`` refuses
a resolution that rounds the top of the range past it. So the chain checks
only that each reading is finite. It hands on one ``NodeTick`` per node,
its flags one byte per reading: the reading's code in ``domain.FLAG_SETS``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import InitVar, dataclass, field as dc_field
from functools import cache, partial
from itertools import accumulate
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .domain import (
    FLAG_CODES, SECONDS_PER_DAY, VALUE_RANGE, ConfigError, Flag, GeoPoint, NodeDescriptor, NodeKind,
    NodeTick, Quantity, co_ppm_to_mg_m3,
)
from .field import DRAW_BLOCK, FieldModel, Path, noise_generator, path_position

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


@cache
def default_sensor_spec(quantity: Quantity) -> SensorSpec:
    """Datasheet defaults, one spec per quantity. The gas channels carry LoD
    and 1 ppm resolution; CO values are stored in mg/m3, so its ppm figures
    are converted. Every other channel is continuous, with no warm-up."""
    if quantity is Quantity.CO:
        return SensorSpec(quantity, lod=co_ppm_to_mg_m3(5.0), resolution=co_ppm_to_mg_m3(1.0))
    if quantity is Quantity.CO2:
        return SensorSpec(quantity, lod=10.0, resolution=1.0)
    if quantity is Quantity.HC:
        return SensorSpec(quantity, lod=5.0, resolution=1.0)
    return SensorSpec(quantity, warmup_s=0.0)


def lag_factor(dt: float, t90: float) -> float:
    """The weight first-order tracking leaves on the last reading after
    ``dt`` seconds, ``target + (last - target) * lag_factor``: at the rate
    ln(10)/t90 a step reaches 90% of its height after t90 and 99% after 2*t90."""
    return 10.0 ** (-dt / t90)


def quantize(v, resolution):
    """Round to the nearest multiple of ``resolution``, ties away from zero,
    elementwise (a float gives a 0-d array).

    ``resolution == 0`` means a continuous channel: ``v`` is returned as is.
    So it is when ``abs(v) / resolution >= 2**53``: the resolution is then
    below the float spacing at ``v``, and the ratio may overflow. Where the
    rounded multiple would pass the largest float, the multiple toward zero
    is taken instead, so a finite ``v`` always gives a finite result.
    """
    with np.errstate(all="ignore"):  # a ratio that is not below 2**53 is not used
        steps = np.abs(v) / resolution
        n = np.floor(steps + 0.5)
        rounded = n * resolution
        rounded = np.where(rounded == math.inf, (n - 1) * resolution, rounded)
        return np.where(steps < 2.0**53, np.copysign(rounded, v), v)


class _Channel(NamedTuple):
    """One row of a node's channel table: what the chain needs about a
    quantity that does not change from one reading to the next."""

    quantity: Quantity
    spec: SensorSpec
    bias_mul: float
    bias_add: float
    noise: Callable[[int], np.ndarray] | None  # the next n noise draws; None without noise


# The flag code (``domain.FLAG_SETS``) of each single flag; a reading's
# code is the sum of those of its flags.
_WARMING_UP, _BELOW_LOD, _QUANTIZED = (
    FLAG_CODES[frozenset({f})] for f in (Flag.WARMING_UP, Flag.BELOW_LOD, Flag.QUANTIZED))
_EMPTY: Mapping = MappingProxyType({})  # an absent override map


@dataclass
class NodeState:
    """One node's configuration, as the sensor chain reads it.

    ``channels`` holds one row per quantity of the suite, in ``quantities``
    order (by ``Quantity.value``; every tick shares that tuple): its spec
    from ``sensors`` or the datasheet, its biases and its noise stream from
    ``field``. ``sensors`` and the biases are read only here.
    """

    descriptor: NodeDescriptor
    field: FieldModel = dc_field(repr=False)
    powered_since: int = 0
    sensors: InitVar[Mapping[Quantity, SensorSpec]] = _EMPTY
    trajectory: tuple[Path, float] | None = None  # (route, speed m/s)
    bias_add: InitVar[Mapping[Quantity, float]] = _EMPTY
    bias_mul: InitVar[Mapping[Quantity, float]] = _EMPTY
    channels: tuple[_Channel, ...] = dc_field(init=False, repr=False)
    quantities: tuple[Quantity, ...] = dc_field(init=False, repr=False)

    def __post_init__(self, sensors, bias_add, bias_mul):
        if self.descriptor.kind is NodeKind.MOBILE and self.trajectory is None:
            raise ValueError(f"mobile node {self.descriptor.node_id} needs a trajectory")
        rows = []
        for q in sorted(self.descriptor.sensor_suite, key=lambda q: q.value):
            sigma = self.field.noise_sigma.get(q, 0.0)
            noise = None
            if sigma > 0.0:
                generator = noise_generator(self.field, self.descriptor.node_id, q)
                noise = partial(generator.normal, 0.0, sigma)
            rows.append(_Channel(q, sensors.get(q) or default_sensor_spec(q),
                                 bias_mul.get(q, 1.0), bias_add.get(q, 0.0), noise))
        self.channels = tuple(rows)
        self.quantities = tuple(row.quantity for row in rows)

    def position_at(self, t: float) -> GeoPoint:
        if self.trajectory is not None:
            route, speed = self.trajectory
            return path_position(route, speed, t - self.powered_since)
        return self.descriptor.home_position


class SensorChain:
    """The sensor chain of every channel of ``nodes`` that have a suite:
    one row of numpy columns per channel, in node order, then in its node's
    ``quantities`` order. ``sample`` is called at the grid times ``t0,
    t0 + period, ...`` in turn: each channel settles on its first reading,
    then tracks with ``lag_factor(period, t90)``, and takes one noise draw
    per grid time from a block of ``DRAW_BLOCK`` draws of its stream.
    Degraded readings are emitted with flags rather than dropped."""

    def __init__(self, nodes: Sequence[NodeState], period: int):
        self.nodes = [n for n in nodes if n.channels]
        rows = [(n, c) for n in self.nodes for c in n.channels]
        self._bounds = list(accumulate((len(n.channels) for n in self.nodes), initial=0))

        def column(value) -> np.ndarray:
            return np.array([value(n, c) for n, c in rows], dtype=float)

        # Each (field, quantity)'s time-of-day terms are read once per grid
        # time; a node that stays put adds its plumes' terms, constants, in
        # the field's order, and a moving node asks ``FieldModel.value``.
        fields = {id(n.field): n.field for n in self.nodes}
        keys = list(dict.fromkeys((id(n.field), c.quantity) for n, c in rows))
        self._terms = [(fields[field_id], q) for field_id, q in keys]
        self._term_of = np.array([keys.index((id(n.field), c.quantity)) for n, c in rows],
                                 dtype=np.intp)
        plumes = [[p.at(n.descriptor.home_position) for p in n.field.plumes.get(c.quantity, ())]
                  if n.trajectory is None else [] for n, c in rows]
        self._plumes = [
            (np.array([i for i, terms in enumerate(plumes) if len(terms) > j], dtype=np.intp),
             np.array([terms[j] for terms in plumes if len(terms) > j]))
            for j in range(max(map(len, plumes), default=0))
        ]
        self._moving = [(k, n) for k, n in enumerate(self.nodes) if n.trajectory is not None]
        self._moving_rows = column(lambda n, c: n.trajectory is not None).astype(bool)
        self._low, self._high = (column(lambda n, c, end=end: VALUE_RANGE[c.quantity][end])
                                 for end in (0, 1))
        self._bias_mul = column(lambda n, c: c.bias_mul)
        self._bias_add = column(lambda n, c: c.bias_add)
        self._noisy = np.array([i for i, (_, c) in enumerate(rows) if c.noise], dtype=np.intp)
        self._draws = [c.noise for _, c in rows if c.noise]
        self._noise = np.empty((DRAW_BLOCK, len(self._draws)))  # one row per grid time
        self._lag = column(lambda n, c: lag_factor(float(period), c.spec.t90_s))
        self._powered = column(lambda n, c: n.powered_since)
        self._warmup = column(lambda n, c: c.spec.warmup_s if c.spec.warmup_s > 0 else -math.inf)
        self._lod = column(lambda n, c: c.spec.lod if c.spec.lod > 0.0 else -math.inf)
        self._resolution = column(lambda n, c: c.spec.resolution)
        self._last: np.ndarray | None = None  # each channel's lag state, before the clamp
        self._k = 0  # grid times sampled

    def sample(self, t: int) -> list[NodeTick]:
        """Every node's tick at grid time ``t``, in node order. A reading
        that is not finite is a ConfigError naming the first node, in node
        order, that took one."""
        with np.errstate(all="ignore"):  # a reading that overflows is refused below
            tod = t % SECONDS_PER_DAY
            v = np.array([f.tod_terms(q, tod) for f, q in self._terms])[self._term_of]
            for rows, terms in self._plumes:
                v[rows] += terms
            v = np.where(v > self._low, v, self._low)  # max(low, v), then min(high, v)
            v = np.where(v < self._high, v, self._high)
            positions = [n.position_at(t) for n in self.nodes]
            if self._moving:
                v[self._moving_rows] = [n.field.value(q, positions[k], t)
                                        for k, n in self._moving for q in n.quantities]
            raw = v * self._bias_mul + self._bias_add
            if self._draws:
                draw = self._k % DRAW_BLOCK
                if draw == 0:
                    self._noise = np.array([noise(DRAW_BLOCK) for noise in self._draws]).T
                raw[self._noisy] += self._noise[draw]
            value = raw if self._last is None else raw + (self._last - raw) * self._lag
            self._last = value
            self._k += 1
            value = np.where(value < self._low, self._low,
                             np.where(value > self._high, self._high, value))
            below = value < self._lod
            value = np.where(below, 0.0, value)
        quantized = quantize(value, self._resolution)
        bits = ((t - self._powered < self._warmup) * _WARMING_UP + below * _BELOW_LOD
                + (quantized != value) * _QUANTIZED)
        bad = ~np.isfinite(quantized)
        bounds = self._bounds
        if bad.any():
            i = int(np.argmax(bad))
            node_id = self.nodes[bisect_right(bounds, i) - 1].descriptor.node_id
            raise ConfigError(f"node {node_id}: value: not finite: {float(quantized[i])!r}")
        values = quantized.tolist()
        flags = bits.astype(np.uint8).tobytes()
        return [NodeTick(n.descriptor.node_id, t, position, n.quantities,
                         values[a:b], flags[a:b])
                for n, position, a, b in zip(self.nodes, positions, bounds, bounds[1:])]
