"""Properties over malformed configuration files.

Each example mutates a valid scenario or access file -- dropping keys and
replacing values with null, NaN, +-inf, negative numbers, bools, strings
and lists -- and runs the CLI on it. Whatever the mutation, the CLI must
exit 0, 1 or 2 without a traceback, and a nonzero exit prints one line.
"""

import contextlib
import copy
import io
import math

import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from citysense.cli import main

DROP = object()
MUTATIONS = [
    DROP, None, math.nan, math.inf, -math.inf, -1, -2.5, True, False, "7", "x", [], [1.0],
]

PROPERTY_SETTINGS = settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

ACCESS = {
    "composition": {"cars": 0.5, "motorcycles": 0.3, "trucks": 0.2},
    "maneuver_shares": {"straight": 0.6, "turning_left": 0.4},
    "maneuver_equivalents": {"straight": 1.0, "turning_right": 1.25, "turning_left": 1.75},
    "steepness_pct": 3,
    "grade": "uphill",
    "localization": "commercial",
    "s_b": 1800,
}


def _paths(node, prefix=()):
    """The key path of every value inside a YAML document, depth first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutated(base, data):
    """A copy of ``base`` with one to three values dropped or replaced."""
    doc = copy.deepcopy(base)
    paths = list(_paths(base))
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        path = data.draw(st.sampled_from(paths), label="path")
        value = data.draw(st.sampled_from(MUTATIONS), label="value")
        try:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if value is DROP:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed or replaced this path
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    err = err.getvalue()
    assert rc in (0, 1, 2)
    assert "Traceback" not in err
    if rc != 0:
        assert len(err.splitlines()) == 1, err
    return rc, out.getvalue()


@PROPERTY_SETTINGS
@given(data=st.data())
def test_mutated_scenario_exits_cleanly(small_scenario_file, tmp_path, data):
    doc = _mutated(yaml.safe_load(small_scenario_file.read_text()), data)
    path = tmp_path / "mutated.yaml"
    path.write_text(yaml.safe_dump(doc))
    _run(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")])


@PROPERTY_SETTINGS
@given(data=st.data())
def test_mutated_access_file_exits_cleanly(tmp_path, data):
    path = tmp_path / "access.yaml"
    path.write_text(yaml.safe_dump(_mutated(ACCESS, data)))
    rc, out = _run(["traffic", str(path)])
    if rc == 0:
        ti = float(out.split("TI = ")[1].split()[0])
        assert math.isfinite(ti)
