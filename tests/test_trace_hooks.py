"""The names ``perfbench/spans.py`` wraps still exist in ``citysense``.

The tracer wraps functions and methods by name and lists each name it does
not find instead of failing, so a rename or removal in the package would
silently zero a traced metric. This runs one simulated hour of the bundled
scenario under the tracer, then ``indexes`` and both ``compare`` modes on
its output, in a fresh interpreter because installing it rebinds module
globals. It pins the absent names and the counters of the network, index
and analytics layers.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import yaml

import citysense

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(citysense.__file__).resolve().parents[1]

SCRIPT = """
import json, sys
from citysense import cli
from spans import Tracer

tracer = Tracer()
tracer.install()
sim, idx, paths, cmp = (sys.argv[2] + d for d in ("/sim", "/idx", "/paths", "/cmp"))
rc = {}
with tracer.step_span("simulate"):
    rc["simulate"] = cli.main(["simulate", "--scenario", sys.argv[1], "--out", sim])
with tracer.step_span("indexes"):
    rc["indexes"] = cli.main(["indexes", sim, "--out", idx])
with tracer.step_span("compare_paths"):
    rc["compare_paths"] = cli.main(["compare", sim, "--mode", "paths", "--out", paths])
with tracer.step_span("compare_mobile"):
    rc["compare_mobile"] = cli.main(["compare", sim, "--mode", "mobile-fixed", "--out", cmp])
print(json.dumps({"rc": rc, "missing": tracer.missing, "layers": tracer.metrics()}))
"""

# Absent on purpose, in the tracer's install order: nodes.sample and
# netsim.route_measurement, the sensor chain and the loss draw one reading at
# a time, were replaced by nodes.SensorChain, which samples every node of a
# grid time at once, and the per-tick loss mask of netsim.run (their time is
# now netsim.run's own); serialize_measurement, a one-record formatter that
# no CLI step called (store.bytes_written read 0 in every run before), was
# removed with the in-memory row output of run(); the writer the next three
# traced was replaced by store.OutputSet; and MeasurementStore.all, a row
# view that only tests called, was removed (store.all_s read 0 in every run
# before).
ABSENT = [
    "citysense.nodes.sample",
    "citysense.netsim.route_measurement",
    "citysense.store.serialize_measurement",
    "citysense.store.write_delivery_log",
    "MeasurementStore.append",
    "MeasurementStore.flush",
    "MeasurementStore.all",
]

# The per-layer metrics of the two absent names above, which read 0.
ZERO = [
    "nodes.sample_calls", "nodes.readings", "nodes.sample_self_s", "netsim.route_calls",
    "netsim.route_self_s", "netsim.delivered", "netsim.lost",
]


def test_tracer_finds_every_name_but_the_known_absent_ones(tmp_path):
    scenario = yaml.safe_load((SRC / "citysense" / "data" / "pisa-default.yaml").read_text())
    scenario["duration_s"] = 3600
    scenario_path = tmp_path / "one-hour.yaml"
    scenario_path.write_text(yaml.safe_dump(scenario))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), str(ROOT / "perfbench"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(scenario_path), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["rc"] == {"simulate": 0, "indexes": 0, "compare_paths": 0, "compare_mobile": 0}
    assert doc["missing"] == ABSENT
    layers = doc["layers"]
    assert layers["netsim.uplink_calls"] == 4  # one per 900 s window of the hour
    for name in ("netsim.uplink_scanned", "netsim.uplink_batched", "netsim.loop_self_s"):
        assert layers[name] > 0, name
    assert {name: layers[name] for name in ZERO} == dict.fromkeys(ZERO, 0)
    # Each emitted reading is one line of the delivery log, and simulate's
    # per-node lines count each one delivered or lost (a dropped reading
    # was delivered to the coordinator).
    sim = tmp_path / "out" / "sim"
    emitted = len((sim / "delivery-log.txt").read_text().splitlines())
    tallies = [tuple(map(int, re.findall(r"\d+", line.split(":", 1)[1])))
               for line in proc.stdout.splitlines() if line.startswith("  ") and ": emitted" in line]
    assert len(tallies) == 10  # every sensing node of pisa-default
    assert sum(t[0] for t in tallies) == emitted > 0
    assert sum(to_coordinator + direct + lost
               for _, to_coordinator, direct, lost, _ in tallies) == emitted
    assert layers["indexes.ingest_calls"] == 1  # compute_indexes ingests every record once
    for name in ("indexes.recompute_values", "analytics.associated", "analytics.compare_s"):
        assert layers[name] > 0, name
    # The pairs counted are every (distinct mobile position, fixed station):
    # the full scan's work, taken from the arguments. The association itself
    # measures only the stations its grid finds near each position.
    kinds = {nid: node["kind"] for nid, node in json.loads((sim / "nodes.json").read_text()).items()}
    mobile_positions = {
        (float(fields[2]), float(fields[3]))
        for day_file in sim.glob("measurements-*.txt")
        for fields in (line.split(",") for line in day_file.read_text().splitlines())
        if kinds[fields[1]] == "mobile"
    }
    fixed_stations = [nid for nid, kind in kinds.items() if kind == "fixed"]
    assert layers["analytics.associate_pairs"] == len(mobile_positions) * len(fixed_stations) > 0
