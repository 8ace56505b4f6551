"""Mobile-versus-fixed comparison, with and without a mounting-height bias.

Runs the bundled scenario twice over one day: once clean, once with the
bicycles' hydrocarbon channel biased 1.75x (a stand-in for sensors riding
close to exhaust level). Mobile samples are associated to the nearest fixed
station within 500 m, then the two populations are compared per quantity.
Each run writes its files into a temporary directory, and the populations
are formed from the day files read back.

Run: python demos/05_compare_populations.py [out-dir]
"""

import dataclasses
import sys
import tempfile
from pathlib import Path

from citysense import (
    Quantity,
    compare_populations,
    load_scenario,
    mobile_fixed_populations,
    write_comparison_report,
)
from citysense.cli import simulate
from citysense.domain import NodeKind
from citysense.store import MeasurementStore


def mobile_fixed_report(cfg):
    with tempfile.TemporaryDirectory() as out:
        simulate(cfg, out)
        channels = MeasurementStore(out).channels
    nodes = {n.descriptor.node_id: (n.descriptor.kind, n.path_tag, n.descriptor.home_position) for n in cfg.nodes}
    pop_mobile, pop_fixed, _, _ = mobile_fixed_populations(channels, nodes, radius_m=500.0)
    return compare_populations(pop_mobile, pop_fixed, labels=("mobile", "fixed"))


base = load_scenario("pisa-default")
biased_nodes = [
    dataclasses.replace(n, bias_mul={Quantity.HC: 1.75})
    if n.descriptor.kind is NodeKind.MOBILE
    else n
    for n in base.nodes
]
biased = dataclasses.replace(base, nodes=biased_nodes)

for label, cfg in (("unbiased", base), ("HC bias 1.75x on bicycles", biased)):
    report = mobile_fixed_report(cfg)
    print(f"\n=== {label} ===")
    print(f"{'quantity':20s} {'mobile':>10s} {'fixed':>10s} {'rel_err':>8s}")
    for row in report.rows:
        marker = "  <-- skew" if row.eta > 0.05 else ""
        print(
            f"{row.quantity.value:20s} {row.mean_a:10.3f} {row.mean_b:10.3f} "
            f"{row.eta:8.3f}{marker}"
        )

if len(sys.argv) > 1:
    out = Path(sys.argv[1])
    files = write_comparison_report(report, out)
    print(f"\nwrote {len(files)} files to {out} (comparison.json + PMF plot data)")
