"""Run the bundled scenario end to end, in process.

Nine sensing nodes (seven fixed on two intersecting monitored paths, two on
bicycles), a coordinator at the path intersection batching reports every
15 minutes, and a weather station. The coordinator receives each node's
5-minute samples over short-range radio; out-of-range bicycles fall back to
the wide-area uplink.

Run: python demos/03_run_campaign.py
"""

import collections

from citysense import compute_indexes, load_scenario, run
from citysense.netsim import DeliveryOutcome
from citysense.store import channels_from

cfg = load_scenario("pisa-default")
print(f"scenario {cfg.name!r}: {len(cfg.nodes)} nodes, {cfg.duration_s // 3600} h, seed {cfg.seed}")

result = run(cfg)

print(f"\nserver received {len(result.server_measurements)} measurements "
      f"in {len(result.batches)} report batches")

outcomes = collections.Counter(d.outcome for d in result.deliveries)
for outcome in DeliveryOutcome:
    print(f"  {outcome.value:26s} {outcomes.get(outcome, 0):6d}")

per_window = result.gas_reports_per_window(cfg.uplink_period_s, cfg.start_epoch)
counts = sorted(set(per_window.values()))
print(f"\ngas node-reports per 15-minute window: {counts} "
      f"(9 sensing nodes x 3 sampling slots = 27)")

print("\nlast index refresh of the day:")
index_values = compute_indexes(
    channels_from(m for _, m in result.server_measurements), cfg.uplink_period_s)
final_t = max(iv.window_end for iv in index_values)
for iv in index_values:
    if iv.window_end == final_t and iv.station_id in ("T2", "F5", "M1"):
        print(f"  {iv.station_id:3s} {iv.kind.value:7s} value={iv.value:7.2f} -> {iv.color.value}")
