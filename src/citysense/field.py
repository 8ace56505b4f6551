"""Synthetic ground-truth environment.

Every quantity gets a smooth, fully deterministic field

    value(q, p, t) = baseline
                   + diurnal_amplitude * sin(2*pi*(tod - 6h)/24h)
                   + sum of Gaussian plumes centred on hot spots
                   + traffic_coupling * rush_hour_profile(tod)

clamped to the physical range of the quantity (``domain.VALUE_RANGE``; a
NaN becomes the range's low end). The sinusoid peaks at local
noon and integrates to zero over whole days, so daily population means stay
at the configured baselines. The baseline, diurnal and rush-hour terms depend
only on the quantity and the time of day, so ``FieldModel.tod_terms``
computes their sum once per (quantity, t mod 86400) and keeps it in a
per-field LRU cache of the 16,384 most recently used entries; ``value`` adds
each plume's term (``GaussianPlume.at``) to it in order, so a value is the
same float whether or not its time of day was cached, and so is the sum of
the same terms that the sensor chain makes for a node that stays put.

Sensor noise is *not* part of the field: nodes draw it from per-(node,
quantity) streams so that runs are reproducible and streams are independent
(see :func:`noise_generator`), ``DRAW_BLOCK`` draws at a time. ``BlockDraws``
hands out the draws of a node's loss stream, a few at a time, from blocks
that numpy fills at once.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable

import numpy as np

from .domain import (
    GeoPoint,
    SECONDS_PER_DAY,
    VALUE_RANGE,
    Quantity,
    haversine_distance,
)


class UnknownQuantityError(KeyError):
    """The field has no configuration for the requested quantity."""


class EmptyPathError(ValueError):
    """A polyline with no vertices cannot be traversed."""


@dataclass(frozen=True)
class GaussianPlume:
    """A stationary hot spot: adds amplitude * exp(-d^2 / (2 sigma^2))."""

    center: GeoPoint
    sigma_m: float
    amplitude: float

    def __post_init__(self):
        if not self.sigma_m > 0:
            raise ValueError(f"sigma_m must be > 0, got {self.sigma_m}")

    def at(self, position: GeoPoint) -> float:
        """The plume's term at ``position``."""
        d = haversine_distance(position, self.center)
        return self.amplitude * math.exp(-0.5 * (d / self.sigma_m) ** 2)


def _rush_hour_profile(tod_s: float) -> float:
    # Two commuter peaks (08:00, 18:00), sigma 2.5 h, max ~1.
    morning = math.exp(-0.5 * ((tod_s - 8 * 3600.0) / 9000.0) ** 2)
    evening = math.exp(-0.5 * ((tod_s - 18 * 3600.0) / 9000.0) ** 2)
    return morning + evening


def _time_of_day_terms(baseline: dict, diurnal_amplitude: dict, traffic_coupling: dict,
                       quantity: Quantity, tod: int | float) -> float:
    """The baseline plus the diurnal and rush-hour terms at time of day ``tod``."""
    try:
        v = baseline[quantity]
    except KeyError:
        raise UnknownQuantityError(quantity) from None
    amp = diurnal_amplitude.get(quantity, 0.0)
    if amp:
        v += amp * math.sin(2.0 * math.pi * (tod - 6 * 3600.0) / SECONDS_PER_DAY)
    coupling = traffic_coupling.get(quantity, 0.0)
    if coupling:
        v += coupling * _rush_hour_profile(tod)
    return v


# Entries the time-of-day cache of one FieldModel holds, over all quantities:
# a 5-minute grid needs 288 per quantity.
_MAX_TOD_TERMS = 16384


@dataclass(frozen=True)
class FieldModel:
    """Deterministic generator of ground-truth values.

    Identical configuration (including ``seed``) yields identical values at
    every query. The configuration is read-only; the one mutable part is the
    cache of ``tod_terms``, which takes no part in comparison and which
    ``dataclasses.replace`` gives the new instance empty.
    """

    seed: int
    baseline: dict[Quantity, float]
    diurnal_amplitude: dict[Quantity, float] = field(default_factory=dict)
    traffic_coupling: dict[Quantity, float] = field(default_factory=dict)
    plumes: dict[Quantity, tuple[GaussianPlume, ...]] = field(default_factory=dict)
    noise_sigma: dict[Quantity, float] = field(default_factory=dict)

    def __post_init__(self):
        for q, sigma in self.noise_sigma.items():
            if not sigma >= 0:
                raise ValueError(f"noise_sigma.{q.value} must be >= 0, got {sigma}")

    def value(self, quantity: Quantity, position: GeoPoint, t: int | float) -> float:
        """Ground-truth value of ``quantity`` at ``position`` and epoch second ``t``."""
        v = self.tod_terms(quantity, t % SECONDS_PER_DAY)
        for plume in self.plumes.get(quantity, ()):
            v += plume.at(position)
        low, high = VALUE_RANGE[quantity]
        return min(high, max(low, v))

    @cached_property
    def tod_terms(self) -> Callable[[Quantity, int | float], float]:
        """``tod_terms(quantity, tod)``: ``_time_of_day_terms`` of this field's tables
        through an LRU cache that holds the tables, not the field: no reference cycle."""
        return lru_cache(maxsize=_MAX_TOD_TERMS)(partial(
            _time_of_day_terms, self.baseline, self.diurnal_amplitude, self.traffic_coupling))


def _stable_id_hash(node_id: str) -> int:
    # hash() is salted per process; measurements must not depend on that.
    return int.from_bytes(hashlib.blake2s(node_id.encode(), digest_size=8).digest(), "big")


def noise_generator(f: FieldModel, node_id: str, quantity: Quantity) -> np.random.Generator:
    """Independent, reproducible white-noise stream for one sensor channel."""
    q_index = list(Quantity).index(quantity)
    return np.random.default_rng([f.seed, _stable_id_hash(node_id), q_index])


def loss_generator(seed: int, node_id: str) -> np.random.Generator:
    """Reproducible Bernoulli stream deciding link losses for one node."""
    return np.random.default_rng([seed, _stable_id_hash(node_id), 0xF0551])


# Draws a noise block or ``BlockDraws`` asks numpy for at once. The sensor chain
# holds a block per noisy channel, so a wider block costs memory in a dense network.
DRAW_BLOCK = 32


class BlockDraws:
    """The draws of ``draw``, handed out in order by ``take(n)`` as a list
    of ``n`` Python floats. ``draw(k)`` returns a generator's next ``k``
    draws, as ``Generator.random`` does, and is called for at least
    ``DRAW_BLOCK`` at a time. numpy fills a block with the floats that as
    many scalar calls would return, in order, so the stream equals scalar
    draws however it is taken."""

    __slots__ = ("_draw", "_block", "_at")

    def __init__(self, draw: Callable[[int], np.ndarray]):
        self._draw, self._block, self._at = draw, [], 0  # ``_at``: the next draw's index

    def take(self, n: int) -> list[float]:
        at = self._at
        if at + n > len(self._block):
            self._block, at = self._block[at:] + self._draw(max(n, DRAW_BLOCK)).tolist(), 0
        self._at = at + n
        return self._block[at:at + n]


@dataclass(frozen=True)
class Path:
    """A named polyline in WGS84 coordinates."""

    name: str
    vertices: tuple[GeoPoint, ...]

    def __post_init__(self):
        if not self.vertices:
            raise EmptyPathError(f"path {self.name!r} has no vertices")

    @cached_property
    def _lengths(self) -> tuple[tuple[float, ...], float]:
        # Computed on first use and kept: the vertices never change.
        lengths = tuple(
            haversine_distance(a, b) for a, b in zip(self.vertices, self.vertices[1:])
        )
        return lengths, sum(lengths)

    def length(self) -> float:
        return self._lengths[1]


def _interpolate(a: GeoPoint, b: GeoPoint, frac: float) -> GeoPoint:
    # Linear in lat/lon; sub-kilometre segments make the chord error << 1 m.
    return GeoPoint(a.lat + (b.lat - a.lat) * frac, a.lon + (b.lon - a.lon) * frac)


def path_position(path: Path, speed_mps: float, t: float) -> GeoPoint:
    """Position after travelling along ``path`` for ``t`` seconds at constant speed.

    The path is arc-length parameterized and traversed back and forth
    (ping-pong): after reaching the far end the traveller turns around, so
    position is periodic with period ``2 * length / speed``.
    """
    if len(path.vertices) == 1:
        return path.vertices[0]
    if speed_mps <= 0.0:
        raise ValueError("speed must be positive")
    lengths, total = path._lengths
    if total == 0.0:
        return path.vertices[0]
    s = (speed_mps * t) % (2.0 * total)
    if s > total:
        s = 2.0 * total - s
    for (a, b), seg in zip(zip(path.vertices, path.vertices[1:]), lengths):
        if s <= seg or seg == 0.0:
            if seg == 0.0:
                continue
            return _interpolate(a, b, s / seg)
        s -= seg
    return path.vertices[-1]
