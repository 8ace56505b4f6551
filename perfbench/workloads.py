"""Scenario generators for the two benchmark workloads.

Both start from the bundled ``pisa-default`` deployment, read from the
checkout's source tree, and vary only its random streams (and, for the
dense city, a few metres of district placement) with the seed, so the
amount of work is the same for every seed.
"""

from __future__ import annotations

import copy
import random
from pathlib import Path

import yaml

BUNDLED_SCENARIO = Path("src/citysense/data/pisa-default.yaml")

# long-campaign: simulated days. Index windows and day files grow with
# days, and the in-run index update rescans whole histories.
LONG_CAMPAIGN_DAYS = 2

# dense-city: districts laid out on a DENSE_ROWS x DENSE_COLS grid, far
# enough apart that no district's radio range reaches another's nodes.
DENSE_ROWS = 2
DENSE_COLS = 3
DENSE_HOURS = 8
DISTRICT_DLAT = 0.04  # ~4.4 km between district rows (fitness path: 3 km)
DISTRICT_DLON = 0.03  # ~2.4 km between district columns (traffic path: 1.4 km)
DISTRICT_JITTER_DEG = 0.002  # seeded, per district, on each axis
LOSS_PROB = 0.05  # on every link

WORKLOADS = ("long-campaign", "dense-city")


def load_base(root: Path) -> dict:
    return yaml.safe_load((root / BUNDLED_SCENARIO).read_text())


def long_campaign(base: dict, seed: int) -> dict:
    scn = copy.deepcopy(base)
    scn["name"] = "long-campaign"
    scn["seed"] = seed
    scn["duration_s"] = LONG_CAMPAIGN_DAYS * 86400
    return scn


def _district_id(node_id: str, k: int) -> str:
    return f"{node_id}-d{k}"


def dense_city(base: dict, seed: int, rows: int = DENSE_ROWS, cols: int = DENSE_COLS,
               hours: int = DENSE_HOURS) -> dict:
    rng = random.Random(seed)
    scn = copy.deepcopy(base)
    scn["name"] = "dense-city"
    scn["seed"] = seed
    scn["duration_s"] = hours * 3600
    for link in scn["links"].values():
        link["loss_prob"] = LOSS_PROB
    base_paths = base["paths"]
    nodes = [copy.deepcopy(n) for n in base["nodes"] if n["kind"] == "coordinator"]
    for k in range(rows * cols):
        dlat = (k // cols) * DISTRICT_DLAT + rng.uniform(-DISTRICT_JITTER_DEG, DISTRICT_JITTER_DEG)
        dlon = (k % cols) * DISTRICT_DLON + rng.uniform(-DISTRICT_JITTER_DEG, DISTRICT_JITTER_DEG)
        for name, vertices in base_paths.items():
            scn["paths"][_district_id(name, k)] = [[lat + dlat, lon + dlon] for lat, lon in vertices]
        for n in base["nodes"]:
            if n["kind"] == "coordinator":
                continue
            n = copy.deepcopy(n)
            n["id"] = _district_id(n["id"], k)
            if n["kind"] == "mobile":
                n["route"] = _district_id(n["route"], k)
            else:
                n["lat"] += dlat
                n["lon"] += dlon
            nodes.append(n)
    scn["nodes"] = nodes
    return scn


def generate(workload: str, root: Path, seed: int) -> dict:
    base = load_base(root)
    if workload == "long-campaign":
        return long_campaign(base, seed)
    if workload == "dense-city":
        return dense_city(base, seed)
    raise ValueError(f"unknown workload {workload!r}")


def write_scenario(scn: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(scn, sort_keys=False))
