"""Scenario configuration: one human-editable YAML file describes the whole
deployment (field, paths, nodes, links, timing, seed).

Schema (all durations in seconds, all coordinates WGS84 decimal degrees):

    name: pisa-default
    seed: 20150420              # integer >= 0
    start_time: "2015-04-20T00:00:00Z"
    duration_s: 86400           # a multiple of uplink_period_s
    sample_period_s: 300        # per-node sampling cadence
    uplink_period_s: 900        # coordinator reporting cadence
    field:
      baseline:          {temperature: 14.7, co2: 451.1, ...}  # every measured quantity
      diurnal_amplitude: {temperature: 3.0, ...}        # optional
      traffic_coupling:  {co: 0.5, ...}                 # optional
      noise_sigma:       {temperature: 0.15, ...}       # optional
      plumes:                                           # optional
        co: [{lat: 43.716, lon: 10.3966, sigma_m: 400, amplitude: 1.5}]
    paths:
      heavy_traffic: [[lat, lon], [lat, lon], ...]
    links:                    # optional; latency_s within [0, 86400]
      short_range_fixed:  {loss_prob: 0.0, latency_s: 1}
      short_range_mobile: {range_m: 300, loss_prob: 0.0, latency_s: 1}
      wide_area:          {loss_prob: 0.0, latency_s: 2}
    sensors:                  # optional per-quantity overrides
      co: {lod: 0.0}
    nodes:
      - {id: T1, kind: fixed, lat: ..., lon: ..., path: heavy_traffic,
         quantities: [temperature, co2, ...]}
      - {id: M1, kind: mobile, route: heavy_traffic, speed_mps: 4.0,  # no lat/lon
         quantities: [...], bias: {hc: {mul: 1.0, add: 0.0}}}

``range_m`` is read only under ``short_range_mobile``: routing reads no
other radio's range. A malformed value (missing, null, quoted, a bool, a
fractional integer, non-finite, out of range) is a one-line ConfigError
naming the key; ``load_access`` reads traffic access files the same way.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from collections.abc import Hashable
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from enum import Enum
from importlib import resources
from pathlib import Path as FsPath

import yaml

from .domain import (
    LAST_STAMP, NODE_ID, ConfigError, GeoPoint, NodeDescriptor, NodeKind, Quantity, Radio,
    format_utc, parse_utc,
)
from .field import FieldModel, GaussianPlume, Path
from .indexes import TrafficAccessConfig, traffic_index
from .netsim import DEFAULT_LINKS, LinkModel
from .nodes import NodeState, SensorSpec, default_sensor_spec


@dataclass
class NodeSetup:
    """One node entry: its descriptor plus simulation-only attributes."""

    descriptor: NodeDescriptor
    route: str | None = None  # mobile route name in `paths`
    speed_mps: float = 4.0  # typical urban bicycle speed
    path_tag: str | None = None  # which monitored path a fixed node instruments
    bias_add: dict[Quantity, float] = dc_field(default_factory=dict)
    bias_mul: dict[Quantity, float] = dc_field(default_factory=dict)


@dataclass
class ScenarioConfig:
    name: str
    seed: int
    start_time: str  # ISO-8601 UTC
    duration_s: int
    field: FieldModel
    nodes: list[NodeSetup]
    paths: dict[str, Path] = dc_field(default_factory=dict)
    links: dict[Radio, LinkModel] = dc_field(default_factory=lambda: dict(DEFAULT_LINKS))
    sensor_overrides: dict[Quantity, SensorSpec] = dc_field(default_factory=dict)
    sample_period_s: int = 300
    uplink_period_s: int = 900

    @property
    def start_epoch(self) -> int:
        return parse_utc(self.start_time)

    def validate(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.duration_s < 0:
            raise ConfigError("duration_s must be >= 0")
        if self.sample_period_s <= 0 or self.uplink_period_s <= 0:
            raise ConfigError("periods must be positive")
        if self.uplink_period_s % self.sample_period_s != 0:
            raise ConfigError("uplink_period_s must be a multiple of sample_period_s")
        if self.duration_s % self.uplink_period_s != 0:
            raise ConfigError("duration_s must be a multiple of uplink_period_s")
        with _config_errors("start_time"):
            self.start_epoch
        seen: set[str] = set()
        coordinators = 0
        for n in self.nodes:
            nid = n.descriptor.node_id
            if nid in seen:
                raise ConfigError(f"duplicate node id {nid!r}")
            seen.add(nid)
            if n.descriptor.kind is NodeKind.COORDINATOR:
                coordinators += 1
            if n.descriptor.kind is NodeKind.MOBILE:
                if n.route is None:
                    raise ConfigError(f"mobile node {nid!r} needs a route")
                if n.route not in self.paths:
                    raise ConfigError(f"node {nid!r}: unknown route {n.route!r}")
                if n.speed_mps <= 0:
                    raise ConfigError(f"node {nid!r}: speed must be positive")
            if n.path_tag is not None and n.path_tag not in self.paths:
                raise ConfigError(f"node {nid!r}: unknown path tag {n.path_tag!r}")
            unset = sorted(q.value for q in n.descriptor.sensor_suite - set(self.field.baseline))
            if unset:
                raise ConfigError(f"node {nid!r}: no field.baseline for {unset}")
        if coordinators > 1:
            raise ConfigError("at most one coordinator is supported")
        missing = set(self.links) ^ set(Radio)
        if missing:
            raise ConfigError(f"links must configure every radio, missing {missing}")
        if self.duration_s:  # the latest stamp a run writes: its last reading's arrival
            last_sample = self.start_epoch + self.duration_s - self.sample_period_s
            latest = int(last_sample + max(link.latency_s for link in self.links.values()))
            if latest > LAST_STAMP:
                raise ConfigError(f"the last reading arrives {latest - LAST_STAMP} s "
                                  f"past {format_utc(LAST_STAMP)}")

    def build_node_states(self) -> list[NodeState]:
        """One state per node, each reading the scenario's field and sensor
        overrides and its own biases; ``NodeState`` takes its suite's share
        and fills in the datasheet defaults."""
        return [
            NodeState(
                descriptor=n.descriptor,
                field=self.field,
                powered_since=self.start_epoch,
                sensors=self.sensor_overrides,
                trajectory=(self.paths[n.route], n.speed_mps)
                if n.descriptor.kind is NodeKind.MOBILE else None,
                bias_add=n.bias_add,
                bias_mul=n.bias_mul,
            )
            for n in self.nodes
        ]


# ---------------------------------------------------------------------------
# The checked reader: every YAML value is read by one of these. They reject
# null, a wrong type, a non-finite number and a fractional integer, naming
# the key; range rules stay in the domain constructors (_config_errors).

_REQUIRED = object()


def _get(raw: dict, key: str, context: str, read, default=_REQUIRED, **kw):
    """``read(raw[key])``, or ``default`` when the key is absent."""
    name = f"{context}.{key}" if context else key
    if key not in raw:
        if default is _REQUIRED:
            raise ConfigError(f"{name} is required")
        return default
    return read(raw[key], name, **kw)


def _mapping(value, context: str, keys: set[str] | None = None) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{context} must be a mapping, got {value!r}")
    unknown = set(value) - keys if keys is not None else None
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown, key=str)}")
    return value


def _list(value, context: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{context} must be a list, got {value!r}")
    return value


def _text(value, context: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{context} must be a string, got {value!r}")
    return value


def _member(value, context: str, enum: type[Enum]):
    try:
        return enum(value)
    except ValueError:
        raise ConfigError(f"{context}: {value!r} is not one of {[m.value for m in enum]}") from None


def _number(value, context: str, integer: bool = False):
    """A finite float, or with ``integer`` an int (``3.0`` reads as 3)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{context} must be {kind}, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, +-inf or an int beyond the float range
        raise ConfigError(f"{context} must be finite, got {value}")
    if integer and value != int(value):
        raise ConfigError(f"{context} must be an integer, got {value}")
    return int(value) if integer else float(value)


def _number_map(value, context: str, keys: type[Enum] | None = None) -> dict:
    """A mapping of numbers keyed by strings, or by members of ``keys``."""
    return {
        _member(k, context, keys) if keys else _text(k, f"{context} key"): _number(v, f"{context}.{k}")
        for k, v in _mapping(value, context).items()
    }


@contextmanager
def _config_errors(context: str):
    """Report a domain check that fails while parsing (an out-of-range
    latitude, a bad sensor spec, ...) as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"{context}: {e}") from None


def _replace(base, raw: dict, context: str):
    """``base`` with the numbers in ``raw`` as fields, checked by its constructor."""
    with _config_errors(context):
        return dataclasses.replace(
            base, **{k: _number(v, f"{context}.{k}") for k, v in raw.items()}
        )


def _point(raw: dict, context: str) -> GeoPoint:
    lat, lon = (_get(raw, k, context, _number) for k in ("lat", "lon"))
    with _config_errors(context):
        return GeoPoint(lat, lon)


def _vertex(value, context: str) -> GeoPoint:
    pair = _list(value, context)
    if len(pair) != 2:
        raise ConfigError(f"{context} must be a [lat, lon] pair, got {value!r}")
    return _point(dict(zip(("lat", "lon"), pair)), context)


def _parse_plume(value, context: str) -> GaussianPlume:
    raw = _mapping(value, context, {"lat", "lon", "sigma_m", "amplitude"})
    sigma_m, amplitude = (_get(raw, k, context, _number) for k in ("sigma_m", "amplitude"))
    with _config_errors(context):
        return GaussianPlume(_point(raw, context), sigma_m, amplitude)


def _parse_field(value, context: str, seed: int) -> FieldModel:
    maps = ("diurnal_amplitude", "traffic_coupling", "noise_sigma")
    raw = _mapping(value, context, {"baseline", "plumes", *maps})
    plumes: dict[Quantity, tuple[GaussianPlume, ...]] = {}
    for code, entries in _get(raw, "plumes", context, _mapping, {}).items():
        where = f"{context}.plumes.{code}"
        plumes[_member(code, f"{context}.plumes", Quantity)] = tuple(
            _parse_plume(e, f"{where}[{i}]") for i, e in enumerate(_list(entries, where))
        )
    with _config_errors(context):
        return FieldModel(
            seed=seed,
            baseline=_get(raw, "baseline", context, _number_map, keys=Quantity),
            plumes=plumes,
            **{k: _get(raw, k, context, _number_map, {}, keys=Quantity) for k in maps},
        )


def _parse_links(value, context: str) -> dict[Radio, LinkModel]:
    links = dict(DEFAULT_LINKS)
    for code, cfg in _mapping(value, context).items():
        radio, where = _member(code, context, Radio), f"{context}.{code}"
        keys = {"loss_prob", "latency_s"}
        if radio is Radio.SHORT_RANGE_MOBILE:  # routing reads no other radio's range
            keys.add("range_m")
        links[radio] = _replace(links[radio], _mapping(cfg, where, keys), where)
    return links


def _parse_sensors(value, context: str) -> dict[Quantity, SensorSpec]:
    overrides = {}
    for code, cfg in _mapping(value, context).items():
        q, where = _member(code, context, Quantity), f"{context}.{code}"
        cfg = _mapping(cfg, where, {"warmup_s", "t90_s", "lod", "resolution"})
        overrides[q] = _replace(default_sensor_spec(q), cfg, where)
    return overrides


_NODE_KEYS = {"id", "kind", "lat", "lon", "quantities", "path", "route", "speed_mps", "bias"}


def _parse_node(value, context: str) -> NodeSetup:
    raw = _mapping(value, context, _NODE_KEYS)
    nid = _get(raw, "id", context, _text)
    context = f"node {nid}"
    kind = _get(raw, "kind", context, _member, enum=NodeKind)
    if kind is NodeKind.MOBILE:  # positioned by its route alone
        _mapping(raw, context, _NODE_KEYS - {"lat", "lon"})
        home = None
    else:
        home = _point(raw, context)
    codes = _get(raw, "quantities", context, _list, [])
    suite = frozenset(_member(q, f"{context}.quantities", Quantity) for q in codes)
    with _config_errors(context):
        descriptor = NodeDescriptor(nid, kind, suite, home)
    bias_add, bias_mul = {}, {}
    for code, b in _get(raw, "bias", context, _mapping, {}).items():
        q, where = _member(code, f"{context}.bias", Quantity), f"{context}.bias.{code}"
        b = _mapping(b, where, {"add", "mul"})
        for key, bias in (("add", bias_add), ("mul", bias_mul)):
            if key in b:
                bias[q] = _get(b, key, where, _number)
    return NodeSetup(
        descriptor=descriptor,
        route=_get(raw, "route", context, _text, None),
        speed_mps=_get(raw, "speed_mps", context, _number, NodeSetup.speed_mps),
        path_tag=_get(raw, "path", context, _text, None),
        bias_add=bias_add,
        bias_mul=bias_mul,
    )


_TOP_KEYS = {
    "name", "seed", "start_time", "duration_s", "sample_period_s", "uplink_period_s",
    "field", "paths", "links", "sensors", "nodes",
}


def parse_scenario(raw) -> ScenarioConfig:
    raw = _mapping(raw, "scenario", _TOP_KEYS)
    seed = _get(raw, "seed", "", _number, integer=True)
    paths = {}
    for name, vertices in _get(raw, "paths", "", _mapping, {}).items():
        where = f"paths.{name}"
        if not NODE_ID.fullmatch(str(name)):  # compare names output files after it
            raise ConfigError(f"{where}: name does not match {NODE_ID.pattern}")
        points = tuple(_vertex(v, f"{where}[{i}]") for i, v in enumerate(_list(vertices, where)))
        with _config_errors(where):
            paths[str(name)] = Path(str(name), points)
    cfg = ScenarioConfig(
        name=_get(raw, "name", "", _text),
        seed=seed,
        start_time=_get(raw, "start_time", "", _text),
        duration_s=_get(raw, "duration_s", "", _number, integer=True),
        field=_get(raw, "field", "", _parse_field, seed=seed),
        nodes=[_parse_node(n, f"nodes[{i}]") for i, n in enumerate(_get(raw, "nodes", "", _list))],
        paths=paths,
        links=_get(raw, "links", "", _parse_links, dict(DEFAULT_LINKS)),
        sensor_overrides=_get(raw, "sensors", "", _parse_sensors, {}),
        **{k: _get(raw, k, "", _number, getattr(ScenarioConfig, k), integer=True)
           for k in ("sample_period_s", "uplink_period_s")},
    )
    cfg.validate()
    return cfg


# libyaml's safe loader where this PyYAML build has it: it builds the same
# documents as the pure-Python one, several times faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class _UniqueKeyLoader(_YAML_LOADER):
    """``_YAML_LOADER`` refusing a repeated mapping key, not keeping its last value."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag != "tag:yaml.org,2002:merge":  # ``<<`` is merged by the base
                key = self.construct_object(key_node, deep=True)
                if isinstance(key, Hashable):  # the base refuses the others
                    if key in seen:
                        raise yaml.constructor.ConstructorError(
                            None, None, f"repeated key {key!r}", key_node.start_mark)
                    seen.add(key)
        return super().construct_mapping(node, deep)


def _read_yaml(path) -> object:
    """The YAML document in ``path``; a one-line ConfigError if unreadable.
    The open file goes to the loader, so a YAML error names ``path``."""
    try:
        with path.open() as f:
            return yaml.load(f, Loader=_UniqueKeyLoader)
    except (OSError, ValueError, yaml.YAMLError) as e:
        raise ConfigError(f"cannot read {path}: {' '.join(str(e).split())}") from None


def load_scenario(path_or_name: str | FsPath) -> ScenarioConfig:
    """Load a scenario YAML from a filesystem path, or one of the bundled
    scenarios by bare name (e.g. ``pisa-default``)."""
    path = FsPath(path_or_name)
    if not path.is_file():
        path = resources.files("citysense").joinpath(f"data/{path_or_name}.yaml")
        if not path.is_file():
            raise ConfigError(f"scenario file not found: {path_or_name}")
    return parse_scenario(_read_yaml(path))


# An access file holds TrafficAccessConfig's fields; absent ones keep its defaults.
_ACCESS_FIELDS = {
    "composition": _number_map, "maneuver_shares": _number_map,
    "maneuver_equivalents": _number_map, "steepness_pct": _number, "s_b": _number,
    "grade": _text, "localization": _text,
}


def load_access(path: str | FsPath) -> TrafficAccessConfig:
    """Load a ``citysense traffic`` access file through the same reader."""
    raw = _mapping(_read_yaml(FsPath(path)), "access file", set(_ACCESS_FIELDS))
    _get(raw, "composition", "", _mapping)
    with _config_errors("access file"):
        cfg = TrafficAccessConfig(
            **{k: read(raw[k], k) for k, read in _ACCESS_FIELDS.items() if k in raw}
        )
        # a mix with no defined traffic index, or one that overflows, is a config error too
        if not math.isfinite(ti := traffic_index(cfg).value):
            raise ValueError(f"traffic index is not finite: {ti}")
    return cfg


def with_seed(cfg: ScenarioConfig, seed: int) -> ScenarioConfig:
    """A copy of ``cfg`` with every stochastic stream re-seeded."""
    cfg = dataclasses.replace(cfg, seed=seed, field=dataclasses.replace(cfg.field, seed=seed))
    cfg.validate()
    return cfg
