"""Command line surface: run scenarios, recompute indexes, compare
populations, evaluate the traffic index.

Exit codes: 0 success, 1 configuration error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path as FsPath
from typing import TextIO

from .analytics import (
    DEFAULT_ASSOCIATION_RADIUS_M,
    NodeRow,
    NoOverlapError,
    compare_populations,
    mobile_fixed_populations,
    write_comparison_report,
)
from .domain import GeoPoint, Measurement, NodeKind, Radio
from .indexes import (
    IndexValue,
    apparent_temperature_model,
    compute_indexes,
    identity_thermal_model,
    index_record_line,
    traffic_index,
)
from .netsim import (
    ConfigError, DeliveryOutcome, DeliveryRecord, RunSink, SimulationResult, Tally, run,
)
from .scenario import ScenarioConfig, load_access, load_scenario, with_seed
from .store import DayFiles, MeasurementStore, OutputSet, StorageError, serialize_delivery

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are configuration errors, not data errors.
    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _radius(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="citysense", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario and persist its outputs")
    p_sim.add_argument("--scenario", required=True, help="scenario YAML path or bundled name")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    p_idx = sub.add_parser("indexes", help="recompute index records from stored data")
    p_idx.add_argument("data_dir", help="directory holding measurement files")
    p_idx.add_argument("--out", required=True, help="output directory")
    p_idx.add_argument("--uplink-period-s", type=_positive_int, default=900)
    p_idx.add_argument(
        "--thermal", choices=("identity", "apparent"), default="apparent",
        help="thermal model feeding the comfort index",
    )

    p_cmp = sub.add_parser("compare", help="compare two measurement populations")
    p_cmp.add_argument("data_dir", help="directory holding measurement files + nodes.json")
    p_cmp.add_argument("--mode", choices=("paths", "mobile-fixed"), required=True)
    p_cmp.add_argument("--out", required=True, help="output directory")
    p_cmp.add_argument(
        "--radius-m", type=_radius, default=DEFAULT_ASSOCIATION_RADIUS_M,
        help="association radius for mobile-fixed mode",
    )

    p_tr = sub.add_parser("traffic", help="evaluate the traffic index for an access")
    p_tr.add_argument("config", help="access configuration YAML")
    return parser


# ---------------------------------------------------------------------------
# simulate

# Member -> its delivery-log code; a dict lookup per line is cheaper than
# the ``.value`` descriptor call.
_OUTCOME_CODES = {o: o.value for o in DeliveryOutcome}
_RADIO_CODES = {r: r.value for r in Radio}


class _LogSink(RunSink):
    """Writes each reading's delivery-log line as the run routes it, and
    streams the readings the server receives into the day files, one
    watermark at a time."""

    def __init__(self, log: TextIO, days: DayFiles):
        self._write = log.write
        self._days = days

    def delivery(self, d: DeliveryRecord) -> None:
        m = d.measurement
        line = serialize_delivery(
            m.timestamp,
            m.node_id,
            m.quantity,
            _OUTCOME_CODES[d.outcome],
            _RADIO_CODES[d.link] if d.link else None,
            d.arrival_t,
        )
        self._write(f"{line}\n")

    def arrival(self, t: int, m: Measurement) -> None:
        self._days.add(m)

    def watermark(self, t: int) -> None:
        self._days.write_before(t)


def simulate(cfg: ScenarioConfig, out: str | FsPath) -> tuple[SimulationResult, int]:
    """Run ``cfg`` and replace the output set under ``out`` with its
    delivery log, day files and ``nodes.json``. Returns the run's tallies
    and the number of readings the server received. A run that fails
    part-way leaves every earlier output as it was."""
    nodes_doc = {
        n.descriptor.node_id: {
            "kind": n.descriptor.kind.value,
            "lat": n.descriptor.home_position.lat if n.descriptor.home_position else None,
            "lon": n.descriptor.home_position.lon if n.descriptor.home_position else None,
            "path": n.path_tag,
            "quantities": sorted(q.value for q in n.descriptor.sensor_suite),
        }
        for n in cfg.nodes
    }
    with OutputSet(out, "measurements-*.txt") as files:
        with files.open("delivery-log.txt") as log, DayFiles(files) as days:
            result = run(cfg, _LogSink(log, days))
        with files.open("nodes.json") as f:
            f.write(json.dumps(nodes_doc, indent=2, sort_keys=True) + "\n")
    return result, days.written


def _cmd_simulate(args) -> int:
    cfg = load_scenario(args.scenario)
    if args.seed is not None:
        cfg = with_seed(cfg, args.seed)
    result, received = simulate(cfg, args.out)

    print(f"scenario {cfg.name!r} seed {cfg.seed}: {cfg.duration_s} s simulated")
    per_node: dict[str, Tally] = {}
    for (node_id, _), t in result.tallies.items():
        per_node.setdefault(node_id, Tally()).add(t)
    total_emitted = total_undelivered = 0
    for node in cfg.nodes:
        tally = per_node.get(node.descriptor.node_id)
        if tally is None:  # a node without sensors emits nothing
            continue
        total_emitted += tally.emitted
        total_undelivered += tally.lost + tally.dropped
        print(
            f"  {node.descriptor.node_id}: emitted {tally.emitted}, "
            f"to coordinator {tally.to_coordinator}, direct {tally.to_server}, "
            f"lost {tally.lost}, dropped {tally.dropped}"
        )
    rate = total_undelivered / total_emitted if total_emitted else 0.0
    print(f"  server received {received} measurements, "
          f"loss rate {rate:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# indexes


def _cmd_indexes(args) -> int:
    try:
        store = MeasurementStore(args.data_dir)
    except (StorageError, ValueError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    records = store.all()
    if not records:
        print(f"data error: no measurements under {args.data_dir}", file=sys.stderr)
        return EXIT_DATA
    model = identity_thermal_model if args.thermal == "identity" else apparent_temperature_model
    by_station: dict[str, list[IndexValue]] = {}
    latest: dict[tuple[str, str], str] = {}
    for iv in compute_indexes(records, args.uplink_period_s, model):
        by_station.setdefault(iv.station_id, []).append(iv)
        latest[(iv.station_id, iv.kind.value)] = iv.color.value
    with OutputSet(args.out, "indexes_*.txt") as files:
        for station in sorted(by_station):
            with files.open(f"indexes_{station}.txt") as f:
                f.writelines(f"{index_record_line(iv)}\n" for iv in by_station[station])
    for (station, kind), color in sorted(latest.items()):
        print(f"{station} {kind}: {color}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare


def _load_nodes(data_dir: FsPath) -> dict[str, NodeRow]:
    """Read ``nodes.json`` as node id -> (kind, path tag, home position).
    Raises ValueError, naming the node, on a file ``simulate`` would not
    write."""
    nodes_path = data_dir / "nodes.json"
    if not nodes_path.is_file():
        raise StorageError(f"missing {nodes_path}; run `citysense simulate` first")
    doc = json.loads(nodes_path.read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"{nodes_path}: expected an object of nodes, got {type(doc).__name__}")
    nodes = {}
    for nid, meta in doc.items():
        where = f"{nodes_path}: node {nid!r}"
        if not isinstance(meta, dict):
            raise ValueError(f"{where}: expected an object, got {type(meta).__name__}")
        try:
            kind = NodeKind(meta.get("kind"))
        except ValueError:
            raise ValueError(f"{where}: unknown kind {meta.get('kind')!r}") from None
        path, lat, lon = meta.get("path"), meta.get("lat"), meta.get("lon")
        if path is not None and not isinstance(path, str):
            raise ValueError(f"{where}: path must be a string or null")
        position = None
        if kind is NodeKind.FIXED or lat is not None or lon is not None:
            if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (lat, lon)):
                raise ValueError(f"{where}: lat and lon must be numbers")
            try:
                position = GeoPoint(lat, lon)
            except ValueError as e:
                raise ValueError(f"{where}: {e}") from None
        nodes[nid] = (kind, path, position)
    return nodes


def _cmd_compare(args) -> int:
    data_dir = FsPath(args.data_dir)
    try:
        store = MeasurementStore(data_dir)
        nodes = _load_nodes(data_dir)
    except (StorageError, ValueError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    records = store.all()

    if args.mode == "paths":
        by_node: dict[str, list] = {}
        for m in records:
            by_node.setdefault(m.node_id, []).append(m)
        tags: dict[str, list[str]] = {}
        for nid, (kind, path, _) in nodes.items():
            if kind is NodeKind.FIXED and path:
                tags.setdefault(path, []).append(nid)
        if len(tags) != 2:
            print(
                f"data error: paths mode needs exactly two path tags, found {sorted(tags)}",
                file=sys.stderr,
            )
            return EXIT_DATA
        # Deterministic orientation: alphabetically first tag is population a,
        # second is the reference population b.
        tag_a, tag_b = sorted(tags)
        pop_a = [m for nid in tags[tag_a] for m in by_node.get(nid, [])]
        pop_b = [m for nid in tags[tag_b] for m in by_node.get(nid, [])]
        labels = (tag_a, tag_b)
    else:
        pop_a, pop_b, association = mobile_fixed_populations(records, nodes, args.radius_m)
        labels = ("mobile", "fixed")
        print(
            f"associated {len(pop_a)} mobile samples to "
            f"{len(association.by_station)} stations within {args.radius_m:.0f} m "
            f"({len(association.unassociated)} unassociated)"
        )
    try:
        report = compare_populations(pop_a, pop_b, labels=labels)
    except (NoOverlapError, ValueError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA

    write_comparison_report(report, args.out)
    print(f"{'quantity':22s} {'mean_' + labels[0]:>14s} {'mean_' + labels[1]:>14s} {'rel_err':>8s}")
    for row in report.rows:
        print(
            f"{row.quantity.value:22s} {row.mean_a:14.4f} {row.mean_b:14.4f} {row.eta:8.3f}"
        )
    if report.incomparable:
        print("incomparable:", ", ".join(q.value for q in report.incomparable))
    return EXIT_OK


# ---------------------------------------------------------------------------
# traffic


def _cmd_traffic(args) -> int:
    cfg = load_access(args.config)
    k1, k2, k3, k4 = cfg.factors()
    iv = traffic_index(cfg)
    print(f"composition factor  K1 = {k1:.6f}")
    print(f"steepness factor    K2 = {k2:.6f}")
    print(f"localization factor K3 = {k3:.6f}")
    print(f"maneuvering factor  K4 = {k4:.6f}")
    print(f"base factor         s_b = {cfg.s_b:.1f}")
    print(f"TI = {iv.value:.4f} EV/s")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "indexes": _cmd_indexes,
        "compare": _cmd_compare,
        "traffic": _cmd_traffic,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except StorageError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
