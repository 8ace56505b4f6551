"""Scenario configuration: one human-editable YAML file describes the whole
deployment (field, paths, nodes, links, timing, seed).

Schema (all durations in seconds, all coordinates WGS84 decimal degrees):

    name: pisa-default
    seed: 20150420
    start_time: "2015-04-20T00:00:00Z"
    duration_s: 86400
    sample_period_s: 300        # per-node sampling cadence
    uplink_period_s: 900        # coordinator reporting cadence
    field:
      baseline:          {temperature: 14.7, co2: 451.1, ...}
      diurnal_amplitude: {temperature: 3.0, ...}        # optional
      traffic_coupling:  {co: 0.5, ...}                 # optional
      noise_sigma:       {temperature: 0.15, ...}       # optional
      plumes:                                           # optional
        co: [{lat: 43.716, lon: 10.3966, sigma_m: 400, amplitude: 1.5}]
    paths:
      heavy_traffic: [[lat, lon], [lat, lon], ...]
    links:
      short_range_fixed:  {range_m: 500, loss_prob: 0.0, latency_s: 1}
      short_range_mobile: {range_m: 300, loss_prob: 0.0, latency_s: 1}
      wide_area:          {range_m: .inf, loss_prob: 0.0, latency_s: 2}
    sensors:                  # optional per-quantity overrides
      co: {lod: 0.0}
    nodes:
      - {id: T1, kind: fixed, lat: ..., lon: ..., path: heavy_traffic,
         quantities: [temperature, co2, ...]}
      - {id: M1, kind: mobile, route: heavy_traffic, speed_mps: 4.0,
         quantities: [...], bias: {hc: {mul: 1.0, add: 0.0}}}
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from importlib import resources
from pathlib import Path as FsPath

import yaml

from .domain import (
    REQUIRED_RADIOS, GeoPoint, NodeDescriptor, NodeKind, Quantity, Radio, parse_utc,
)
from .field import FieldModel, GaussianPlume, Path
from .netsim import ConfigError, DEFAULT_LINKS, LinkModel
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
        if self.duration_s < 0:
            raise ConfigError("duration_s must be >= 0")
        if self.sample_period_s <= 0 or self.uplink_period_s <= 0:
            raise ConfigError("periods must be positive")
        if self.uplink_period_s % self.sample_period_s != 0:
            raise ConfigError("uplink_period_s must be a multiple of sample_period_s")
        if self.duration_s % self.uplink_period_s != 0:
            raise ConfigError("duration_s must be a multiple of uplink_period_s")
        try:
            self.start_epoch
        except ValueError as e:
            raise ConfigError(f"bad start_time: {e}") from None
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
        if coordinators > 1:
            raise ConfigError("at most one coordinator is supported")
        missing = set(self.links) ^ set(Radio)
        if missing:
            raise ConfigError(f"links must configure every radio, missing {missing}")

    def build_node_states(self) -> list[NodeState]:
        states = []
        for n in self.nodes:
            sensors = {}
            for q in n.descriptor.sensor_suite:
                sensors[q] = self.sensor_overrides.get(q, default_sensor_spec(q))
            trajectory = None
            if n.descriptor.kind is NodeKind.MOBILE:
                trajectory = (self.paths[n.route], n.speed_mps)
            states.append(
                NodeState(
                    descriptor=n.descriptor,
                    powered_since=self.start_epoch,
                    sensors=sensors,
                    trajectory=trajectory,
                    bias_add=dict(n.bias_add),
                    bias_mul=dict(n.bias_mul),
                )
            )
        return states


# ---------------------------------------------------------------------------
# YAML loading


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _check_keys(mapping: dict, allowed: set[str], context: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")


def _quantity(code: str, context: str) -> Quantity:
    try:
        return Quantity(code)
    except ValueError:
        raise ConfigError(f"{context}: unknown quantity {code!r}") from None


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


def _finite(value, context: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{context} must be finite, got {value}")
    return value


def _quantity_map(raw: dict | None, context: str) -> dict[Quantity, float]:
    return {_quantity(k, context): _finite(v, f"{context}.{k}") for k, v in (raw or {}).items()}


def _parse_field(raw: dict, seed: int) -> FieldModel:
    _check_keys(
        raw,
        {"baseline", "diurnal_amplitude", "traffic_coupling", "noise_sigma", "plumes"},
        "field",
    )
    plumes: dict[Quantity, tuple[GaussianPlume, ...]] = {}
    for code, entries in (raw.get("plumes") or {}).items():
        q = _quantity(code, "field.plumes")
        parsed = []
        for e in entries:
            _check_keys(e, {"lat", "lon", "sigma_m", "amplitude"}, "plume")
            sigma_m = float(e["sigma_m"])
            if not sigma_m > 0:
                raise ConfigError(f"field.plumes.{code}: sigma_m must be > 0, got {sigma_m}")
            parsed.append(
                GaussianPlume(
                    center=GeoPoint(float(e["lat"]), float(e["lon"])),
                    sigma_m=sigma_m,
                    amplitude=_finite(e["amplitude"], f"field.plumes.{code}: amplitude"),
                )
            )
        plumes[q] = tuple(parsed)
    noise_sigma = _quantity_map(raw.get("noise_sigma"), "field.noise_sigma")
    for q, sigma in noise_sigma.items():
        if not sigma >= 0:
            raise ConfigError(f"field.noise_sigma.{q.value} must be >= 0, got {sigma}")
    return FieldModel(
        seed=seed,
        baseline=_quantity_map(_require(raw, "baseline", "field"), "field.baseline"),
        diurnal_amplitude=_quantity_map(raw.get("diurnal_amplitude"), "field.diurnal_amplitude"),
        traffic_coupling=_quantity_map(raw.get("traffic_coupling"), "field.traffic_coupling"),
        noise_sigma=noise_sigma,
        plumes=plumes,
    )


def _parse_links(raw: dict | None) -> dict[Radio, LinkModel]:
    links = dict(DEFAULT_LINKS)
    for code, cfg in (raw or {}).items():
        try:
            radio = Radio(code)
        except ValueError:
            raise ConfigError(f"links: unknown radio {code!r}") from None
        _check_keys(cfg, {"range_m", "loss_prob", "latency_s"}, f"links.{code}")
        base = DEFAULT_LINKS[radio]
        links[radio] = LinkModel(
            kind=radio,
            range_m=float(cfg.get("range_m", base.range_m)),
            loss_prob=float(cfg.get("loss_prob", base.loss_prob)),
            latency_s=float(cfg.get("latency_s", base.latency_s)),
        )
    return links


def _parse_sensors(raw: dict | None) -> dict[Quantity, SensorSpec]:
    overrides = {}
    for code, cfg in (raw or {}).items():
        q = _quantity(code, "sensors")
        _check_keys(cfg, {"warmup_s", "t90_s", "lod", "resolution"}, f"sensors.{code}")
        base = default_sensor_spec(q)
        overrides[q] = SensorSpec(
            quantity=q,
            warmup_s=float(cfg.get("warmup_s", base.warmup_s)),
            t90_s=float(cfg.get("t90_s", base.t90_s)),
            lod=float(cfg.get("lod", base.lod)),
            resolution=float(cfg.get("resolution", base.resolution)),
        )
    return overrides


def _parse_node(raw: dict) -> NodeSetup:
    _check_keys(
        raw,
        {"id", "kind", "lat", "lon", "quantities", "path", "route", "speed_mps", "bias"},
        "node",
    )
    nid = str(_require(raw, "id", "node"))
    try:
        kind = NodeKind(_require(raw, "kind", f"node {nid}"))
    except ValueError:
        raise ConfigError(f"node {nid}: unknown kind {raw.get('kind')!r}") from None
    suite = frozenset(
        _quantity(q, f"node {nid}.quantities") for q in raw.get("quantities", [])
    )
    home = None
    with _config_errors(f"node {nid}"):
        if kind is not NodeKind.MOBILE:
            if "lat" not in raw or "lon" not in raw:
                raise ConfigError(f"node {nid}: {kind.value} nodes need lat/lon")
            home = GeoPoint(float(raw["lat"]), float(raw["lon"]))
        descriptor = NodeDescriptor(
            node_id=nid,
            kind=kind,
            sensor_suite=suite,
            radios=REQUIRED_RADIOS[kind],
            home_position=home,
        )
    bias_add: dict[Quantity, float] = {}
    bias_mul: dict[Quantity, float] = {}
    for code, b in (raw.get("bias") or {}).items():
        q = _quantity(code, f"node {nid}.bias")
        _check_keys(b, {"add", "mul"}, f"node {nid}.bias.{code}")
        if "add" in b:
            bias_add[q] = float(b["add"])
        if "mul" in b:
            bias_mul[q] = float(b["mul"])
    return NodeSetup(
        descriptor=descriptor,
        route=raw.get("route"),
        speed_mps=float(raw.get("speed_mps", 4.0)),
        path_tag=raw.get("path"),
        bias_add=bias_add,
        bias_mul=bias_mul,
    )


_TOP_KEYS = {
    "name",
    "seed",
    "start_time",
    "duration_s",
    "sample_period_s",
    "uplink_period_s",
    "field",
    "paths",
    "links",
    "sensors",
    "nodes",
}


def parse_scenario(raw: dict) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError("scenario file must contain a mapping")
    _check_keys(raw, _TOP_KEYS, "scenario")
    with _config_errors("scenario"):
        seed = int(_require(raw, "seed", "scenario"))
        paths = {}
        for name, vertices in (raw.get("paths") or {}).items():
            pts = tuple(GeoPoint(float(lat), float(lon)) for lat, lon in vertices)
            paths[str(name)] = Path(name=str(name), vertices=pts)
        cfg = ScenarioConfig(
            name=str(_require(raw, "name", "scenario")),
            seed=seed,
            start_time=str(_require(raw, "start_time", "scenario")),
            duration_s=int(_require(raw, "duration_s", "scenario")),
            field=_parse_field(_require(raw, "field", "scenario"), seed),
            nodes=[_parse_node(n) for n in _require(raw, "nodes", "scenario")],
            paths=paths,
            links=_parse_links(raw.get("links")),
            sensor_overrides=_parse_sensors(raw.get("sensors")),
            sample_period_s=int(raw.get("sample_period_s", 300)),
            uplink_period_s=int(raw.get("uplink_period_s", 900)),
        )
    cfg.validate()
    return cfg


def load_scenario(path_or_name: str | FsPath) -> ScenarioConfig:
    """Load a scenario YAML from a filesystem path, or one of the bundled
    scenarios by bare name (e.g. ``pisa-default``)."""
    p = FsPath(path_or_name)
    if p.exists():
        text = p.read_text()
        origin = str(p)
    else:
        candidate = resources.files("citysense").joinpath(f"data/{path_or_name}.yaml")
        if not candidate.is_file():
            raise ConfigError(f"scenario file not found: {path_or_name}")
        text = candidate.read_text()
        origin = f"bundled:{path_or_name}"
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ConfigError(f"{origin}: invalid YAML: {e}") from None
    return parse_scenario(raw)


def with_seed(cfg: ScenarioConfig, seed: int) -> ScenarioConfig:
    """A copy of ``cfg`` with every stochastic stream re-seeded."""
    return dataclasses.replace(
        cfg, seed=seed, field=dataclasses.replace(cfg.field, seed=seed)
    )
