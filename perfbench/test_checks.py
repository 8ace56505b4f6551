"""Self-test of the benchmark's output checks.

Runs a small dense-city workload through the four CLI steps, shows that
every check passes on the real outputs, then corrupts one output of each
step and shows that its check fails. Run from the root of a checkout:

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import io
import json
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402
from citysense.cli import main  # noqa: E402
from round import check_all, steps  # noqa: E402


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A two-district, two-hour lossy city, run through all four steps."""
    out = tmp_path_factory.mktemp("bench")
    doc = workloads.dense_city(workloads.load_base(ROOT), seed=3, rows=1, cols=2, hours=2)
    workloads.write_scenario(doc, out / "scenario.yaml")
    for _, argv in steps(out):
        with redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    return doc, out


def test_real_outputs_pass(run):
    doc, out = run
    assert check_all(doc, out) == {step: [] for step, _ in steps(out)}


def test_workload_exercises_loss_and_association(run):
    doc, out = run
    scn = checks.Scenario(doc)
    log = (out / "sim" / "delivery-log.txt").read_text()
    assert ",lost," in log
    _, records = checks.check_simulate(scn, out / "sim")
    associated, stations = checks.associate(scn, records)
    assert associated and stations


# -- corruptions: step whose check must fail -> how to corrupt its output ------


def _edit_lines(path: Path, pick, change) -> None:
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if pick(line))
    lines[i] = change(lines[i])
    path.write_text("\n".join(lines) + "\n")


def _bump_field(index: int, delta: float):
    def change(line: str) -> str:
        parts = line.split(",")
        parts[index] = repr(float(parts[index]) + delta)
        return ",".join(parts)
    return change


def _change_digit(text: str) -> str:
    """Change the first digit after the decimal point."""
    i = text.index(".") + 1
    return text[:i] + ("1" if text[i] != "1" else "2") + text[i + 1:]


def stored_reading(out: Path) -> None:
    day = sorted((out / "sim").glob("measurements-*.txt"))[0]
    _edit_lines(day, lambda line: ",o3," in line, _bump_field(5, 40.0))


def delivery_outcome(out: Path) -> None:
    def to_lost(line: str) -> str:
        parts = line.split(",")
        parts[3], parts[5] = "lost", ""
        return ",".join(parts)
    _edit_lines(out / "sim" / "delivery-log.txt", lambda line: ",delivered_" in line, to_lost)


def index_value(out: Path) -> None:
    def change(line: str) -> str:
        parts = line.split(",")
        parts[3] = _change_digit(parts[3])
        return ",".join(parts)
    f = sorted((out / "idx").glob("indexes_*.txt"))[0]
    _edit_lines(f, lambda line: line.startswith("aqi_o3,"), change)


def missing_index_line(out: Path) -> None:
    f = sorted((out / "idx").glob("indexes_*.txt"))[0]
    lines = f.read_text().splitlines()
    f.write_text("\n".join(lines[:-1]) + "\n")


def _pmf_probability(cmp: str):
    def corrupt(out: Path) -> None:
        f = sorted((out / cmp).glob("pmf_*.dat"))[0]

        def change(line: str) -> str:
            centre, p = line.split(" ")
            return f"{centre} {float(p) + 0.01!r}"
        _edit_lines(f, lambda line: float(line.split(" ")[1]) > 0.05, change)
    return corrupt


def _comparison_mean(cmp: str, label: str):
    def corrupt(out: Path) -> None:
        path = out / cmp / "comparison.json"
        doc = json.loads(path.read_text())
        row = doc["rows"][sorted(doc["rows"])[0]]
        row[f"mean_{label}"] = float(_change_digit(repr(row[f"mean_{label}"])))
        path.write_text(json.dumps(doc))
    return corrupt


CORRUPTIONS = {
    "stored-reading": ("simulate", stored_reading),
    "delivery-outcome": ("simulate", delivery_outcome),
    "index-value-digit": ("indexes", index_value),
    "index-line-missing": ("indexes", missing_index_line),
    "pmf-probability-paths": ("compare_paths", _pmf_probability("cmp-paths")),
    "mean-paths": ("compare_paths", _comparison_mean("cmp-paths", "fitness")),
    "pmf-probability-mobile": ("compare_mobile", _pmf_probability("cmp-mobile")),
    "mean-mobile": ("compare_mobile", _comparison_mean("cmp-mobile", "mobile")),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupted_output_fails_its_check(run, tmp_path, case):
    doc, out = run
    step, corrupt = CORRUPTIONS[case]
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    corrupt(copy)
    assert check_all(doc, copy)[step], f"{case} went unnoticed by the {step} check"
