"""Run the bundled scenario end to end, in process.

Nine sensing nodes (seven fixed on two intersecting monitored paths, two on
bicycles), a coordinator at the path intersection batching reports every
15 minutes, and a weather station. The coordinator receives each node's
5-minute samples over short-range radio; out-of-range bicycles fall back to
the wide-area uplink. The run writes its files into a temporary directory,
and the server's day files are read back for the counts and indexes.

Run: python demos/03_run_campaign.py
"""

import tempfile

from citysense import compute_indexes, load_scenario
from citysense.cli import simulate
from citysense.domain import GAS_QUANTITIES
from citysense.netsim import DeliveryOutcome
from citysense.store import MeasurementStore, read_days

cfg = load_scenario("pisa-default")
print(f"scenario {cfg.name!r}: {len(cfg.nodes)} nodes, {cfg.duration_s // 3600} h, seed {cfg.seed}")

with tempfile.TemporaryDirectory() as out:
    tallies, received = simulate(cfg, out)
    channels = MeasurementStore(out).channels
    index_values = list(compute_indexes(read_days(out), cfg.uplink_period_s))

print(f"\nserver received {received} measurements "
      f"over {cfg.duration_s // cfg.uplink_period_s} uplink windows")

outcomes = {
    DeliveryOutcome.DELIVERED_TO_COORDINATOR: sum(t.to_coordinator for t in tallies.values()),
    DeliveryOutcome.DELIVERED_TO_SERVER: sum(t.to_server for t in tallies.values()),
    DeliveryOutcome.LOST: sum(t.lost for t in tallies.values()),
}
for outcome, count in outcomes.items():
    print(f"  {outcome.value:26s} {count:6d}")

# Distinct (node, stamp) gas reports the server holds per uplink window.
reports: dict[int, set[tuple[str, int]]] = {}
for (node_id, quantity), channel in channels.items():
    if quantity in GAS_QUANTITIES:
        for t in channel.timestamps:
            reports.setdefault((t - cfg.start_epoch) // cfg.uplink_period_s, set()).add((node_id, t))
counts = sorted({len(r) for r in reports.values()})
print(f"\ngas node-reports per 15-minute window: {counts} "
      f"(9 sensing nodes x 3 sampling slots = 27)")

print("\nlast index refresh of the day:")
final_t = max(iv.window_end for iv in index_values)
for iv in index_values:
    if iv.window_end == final_t and iv.station_id in ("T2", "F5", "M1"):
        print(f"  {iv.station_id:3s} {iv.kind.value:7s} value={iv.value:7.2f} -> {iv.color.value}")
