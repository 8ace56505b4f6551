"""The benchmark's output checks (``perfbench/checks.py``) as a tier-1 oracle.

The checks keep reference tables written out independently of the package;
the first test holds them equal to the package's own tables, so that a change
to either side shows here rather than as a failed benchmark round. The
property then runs the four CLI steps on drawn ``dense-city`` scenarios,
with LoD, resolution and warm-up overrides of the gas channels, and expects
every check to pass on what they write.
"""

import io
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from citysense import domain, netsim, nodes
from citysense.cli import main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import round as bench_round  # noqa: E402
import workloads  # noqa: E402


def test_reference_tables_equal_the_packages():
    assert checks.NON_NEGATIVE == {
        q.value for q, bounds in domain.VALUE_RANGE.items() if bounds == (0.0, math.inf)}
    assert checks.GAS_WARMUP_S == nodes.GAS_WARMUP_S
    assert checks.UNITS == {q.value: unit for q, unit in domain.UNITS.items()}
    assert checks.FLAGS == {f.value for f in domain.Flag}
    assert checks.EXCLUDED_FLAGS == {f.value for f in domain.EXCLUDED_FLAGS}
    assert checks.OUTCOMES == {o.value for o in netsim.DeliveryOutcome}


# (sample period, uplink period) pairs, the uplink a multiple of the sample
# period and a divisor of an hour, so that every drawn duration is whole windows.
PERIODS = [(s, s * k) for s in (150, 300, 600, 900) for k in (1, 2, 3, 4) if 3600 % (s * k) == 0]


@st.composite
def dense_cities(draw):
    districts = draw(st.integers(1, 4))
    doc = workloads.dense_city(workloads.load_base(BENCH.parent), seed=draw(st.integers(0, 2**31)),
                               rows=1, cols=districts, hours=draw(st.integers(1, 3)))
    doc["sample_period_s"], doc["uplink_period_s"] = draw(st.sampled_from(PERIODS))
    for radio, link in doc["links"].items():
        link["loss_prob"] = draw(st.floats(0.0, 0.5), label=f"{radio} loss")
        # A short-range reading that reaches the coordinator after its window
        # closed is dropped, but the delivery log calls it delivered, and the
        # checks compare the log's delivered lines with the day files. Below
        # one sample period no reading is late.
        latest = doc["sample_period_s"] - 1 if radio != "wide_area" else 3600
        link["latency_s"] = draw(st.integers(0, latest), label=f"{radio} latency")
    for q in GAS:
        doc["sensors"][q] = draw(gas_sensor(doc["field"], q), label=f"{q} sensor")
    return doc


GAS = ("co", "co2", "hc")


def gas_sensor(field: dict, q: str):
    """LoD, resolution and warm-up overrides of gas ``q``; an absent key
    keeps the datasheet's. A LoD is 0, the datasheet's or far from every
    reading, above or below. One near the readings would censor those below
    it, and the mean of the rest would sit above the truth by more than the
    checks' mean-residual bound: that draw cannot be judged."""
    spread = abs(field["diurnal_amplitude"].get(q, 0.0)) + 7.0 * field["noise_sigma"].get(q, 0.0)
    far = [field["baseline"][q] + 2.0 * spread, max(0.0, field["baseline"][q] - 2.0 * spread)]
    return st.fixed_dictionaries({}, optional={
        "lod": st.sampled_from([0.0, *far]),
        "resolution": st.sampled_from([0.0, 0.1, 0.5, 2.0]),
        "warmup_s": st.sampled_from([0.0, 300.0, 1000.5, 5400.0]),
    })


@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(doc=dense_cities())
def test_every_benchmark_check_passes_on_drawn_dense_cities(tmp_path_factory, doc):
    out = tmp_path_factory.mktemp("round")
    workloads.write_scenario(doc, out / "scenario.yaml")
    for step, argv in bench_round.steps(out):
        if step == "indexes":  # the checks put the index grid on the scenario's uplink period
            argv = [*argv, "--uplink-period-s", str(doc["uplink_period_s"])]
        with redirect_stdout(io.StringIO()):
            assert main(argv) == 0, step
    problems = bench_round.check_all(doc, out)
    assert problems == {step: [] for step, _ in bench_round.steps(out)}
