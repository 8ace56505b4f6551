"""Golden outputs: SHA-256 digests of every file the four CLI steps write
for the bundled ``pisa-default`` scenario, one simulated day, seed 7.

A change to any digest is an output change and needs an explicit
re-baseline in CHANGES.md. The ``simulate`` files are pinned as first
recorded; the ``indexes`` and ``compare`` files as re-baselined when means
became exact sums (``domain.mean``). A lossy two-hour variant pins the
``simulate`` files of the paths the lossless day does not take, and a
late-arrival variant pins the ``simulate`` files and stdout of a run that
drops readings arriving after their window was uplinked.
"""

import contextlib
import hashlib
import io
from importlib import resources

import pytest
import yaml

from citysense.analytics import compare_populations, mobile_fixed_populations, write_comparison_report
from citysense.cli import main
from citysense.indexes import compute_indexes, index_record_line
from citysense.scenario import load_scenario, with_seed
from tests.rows import channels_from, days_from, record

SEED = "7"

GOLDEN = {
    "simulate": {
        "delivery-log.txt": "2bf411cc13bf5f55d59907be8314d683c46e9d5c899da046add40b3ffa000ae0",
        "measurements-2015-04-20.txt": "80c0e56446e79c6976d3d4a15172919d637d23cf1bfa1ce9ab89db058089fe53",
        "nodes.json": "663daef0db0832366f0f744cc397319a85fef913b4e1e14d884f45fcafab4601",
    },
    "indexes": {
        "indexes_F5.txt": "1bbc306da1cdac8530725142796b6dec25c2694cf6240cea9f335332a24d2b0e",
        "indexes_F6.txt": "41e5761f7b8dcc0197f23e3409d54923ea47c90648991e095ddb4b0d800f5282",
        "indexes_F7.txt": "81b390e83efa151bd9bec3d945f90faa9b4e47c4187d95acd66e75f91eca9f28",
        "indexes_M1.txt": "3ab5f2973e90ac270e4812de215d2831ff291c7d657c51f5df867ff1ee4631cf",
        "indexes_M2.txt": "753b121dbc57fb49b493337711c2da0de2a06e37ec0236e16f4433c68bba13e0",
        "indexes_T1.txt": "c74604d54f406bd567598b85f564a7e8331408a608fcb8bf733e60a3ce9423d0",
        "indexes_T2.txt": "c647ffe17138eec95f8eab93fcde127f2483a1cc3a2582ac51ede18cd1b91b27",
        "indexes_T3.txt": "c7c0de8a0e9eb6efb2d99e9602cc3e2ef7edeee7f842c2676822b9d7cb09c82e",
        "indexes_T4.txt": "4b916d3e1a430033e3bdfdb7fa4546bc1938d4566a1443beb94ceb4c0365e7ab",
    },
    "compare-paths": {
        "comparison.json": "f387cb4f411ebca8a247e3420c31b1d663d4f3d19ca9e32ecc8411700f4b8622",
        "pmf_co2_fitness.dat": "7ddcf8e8207ff2121c6fed6a131a9458822eedca7672b64b082e05ddc4f9b863",
        "pmf_co2_heavy_traffic.dat": "c45ec7c87ecb6005bdf6513e5e6309e9cc11783544df0bad32f2564c5a87733e",
        "pmf_co_fitness.dat": "ea9fde1be384b9a11c330c378d404509042a4542cf683fc11d3e07402cbbd685",
        "pmf_co_heavy_traffic.dat": "7ae1ec77e9cb2b5fb351dc186e738f57983026d5357ba55dcc6e1cbecdb7fb28",
        "pmf_dew_point_fitness.dat": "fb2a6785f0e5b6f5832840b571017d55cb4350e857c24561d51c49ffa01b0890",
        "pmf_dew_point_heavy_traffic.dat": "7afa5e6c77d801ca90e61677d6a4fe1565f3cdf78a7474637c753b8b296e21d0",
        "pmf_hc_fitness.dat": "4feb43eb35c0255a78e093717b4c3ce9b949c01c8d8a8abcc19f2f6911d14a9c",
        "pmf_hc_heavy_traffic.dat": "2a169795457dd430a4d1b24dffd215946fd8ea812c0a1acace83b7fc8fd3f07b",
        "pmf_o3_fitness.dat": "556e5b2a7b6a65871f4552bb42045a64398090b9796ac4753bf14ada19737ff3",
        "pmf_o3_heavy_traffic.dat": "69cd319f8f04cdb21acd9b93156a49e51424d35285db9deaf4fac27a5efee61e",
        "pmf_pm25_fitness.dat": "c047c7c536f79b5a996d3730fcc4c4b10c9e7370a572f7266581c4fde5639ce3",
        "pmf_pm25_heavy_traffic.dat": "dcaf048d211071980a082f447cb00e6ba157ef0ab319a5ac09e072f34819bd19",
        "pmf_pressure_fitness.dat": "dec6bca666a443743b680060b987c40bc8e7e190ae5255a47b87f1e3dfe56af7",
        "pmf_pressure_heavy_traffic.dat": "3277d55ea272f6242b525484b032fd5b5b7fa5b2f89c1d52f084ad4dcbf5ec72",
        "pmf_radiant_temperature_fitness.dat": "fbb2f0b90f6c5771db9809fb3c87e26d77b3060507d3fa83d686a3fd1dc61880",
        "pmf_radiant_temperature_heavy_traffic.dat": "1a678ef633e3a6016ba4bdbe8ed1fd39a66bf0183f88e60531edcc0756a053c3",
        "pmf_relative_humidity_fitness.dat": "9130c7e4dd11d24730f6e6c63dfe789970bdcb55c19652618ebb08685ed9d9db",
        "pmf_relative_humidity_heavy_traffic.dat": "9873cdeb238cb552711fa34e202ed3e749d5c8dcbc1767e84388dbaff7f4693b",
        "pmf_temperature_fitness.dat": "93b4f589cb0340b572e5f8b6309d1c937c7682a3f7e1a49431d14abe1ddc57c2",
        "pmf_temperature_heavy_traffic.dat": "032290f8a8073f35bbb474641ab16625804a7f18193e2c2cb22269819f8194db",
        "pmf_wind_speed_fitness.dat": "51c407ea28437bee8846682f7948f2691e30f325e66fda97baa56736f5146026",
        "pmf_wind_speed_heavy_traffic.dat": "73614518897fc73889bdf040206d251643cf061cba10470cce8f676470d8e05e",
    },
    "compare-mobile-fixed": {
        "comparison.json": "83e0741367ab22628aa63eaff49d0d36896125743fc27e3a9e53346746df310d",
        "pmf_co2_fixed.dat": "06253ea307493c499d9845656b45113f9e38c51b16c59dc10d8712ac34ce7c0b",
        "pmf_co2_mobile.dat": "c6d65a822b10b73884c1b5b3f9d790e35a043d4cb117dcba2c9077c884c3880b",
        "pmf_co_fixed.dat": "4d55a681cbd85c557ee41c2efcfe791241517b6fd040f20f326ee2e0c041e9be",
        "pmf_co_mobile.dat": "1a0a50707ad8a7689a68ab3ff5a7b5bae2654584f5dba423612672088fa44ec2",
        "pmf_dew_point_fixed.dat": "fdbb8c407f5ab1f7c219b014f0322e52452ea7a79c2fb9b021344e90fe35bcb7",
        "pmf_dew_point_mobile.dat": "42d48a3c898726b86b3d04831c922ab3a52e546e66cf445b706b896423da25a8",
        "pmf_hc_fixed.dat": "79709d6823efad43779b62d9955feb6ab2e2cb01921cd0027c3a006a29e6b5e8",
        "pmf_hc_mobile.dat": "38816d67ee6c7107af1fce4f447f8b6fa078aa943662a8114c1ae359bb6d32cb",
        "pmf_o3_fixed.dat": "ebeabe43be6f483865f498409242cc1b7d2dbd92c115ea2cedc51673a78ef2e5",
        "pmf_o3_mobile.dat": "d4858b100fc1287cadb39ff48f4e262622befec980733a094adbfc755db7c051",
        "pmf_pressure_fixed.dat": "9c1210eae1cb998a8bd9ecd7126de479862d2ccf2fe5d870b4d4f91fb2c72a5f",
        "pmf_pressure_mobile.dat": "9ae8478f7375a66e24498ec83f3e9d9066344d81e1f7f799398a55ce25eee6cd",
        "pmf_relative_humidity_fixed.dat": "f03275b56e777e4ba953138c36245b4ed725477ae1b9a82c6ae3150adbc96328",
        "pmf_relative_humidity_mobile.dat": "0a1d253787a05344d4591fb44a8c2c7a740efbe76f820fcd0e10b1e062ba51aa",
        "pmf_temperature_fixed.dat": "5c7a246b9b69c9b9c977a858680987422e9438e6d4bf8db66d96e3b87dca321b",
        "pmf_temperature_mobile.dat": "5c38c332ac9977c9442f78200ff1cad96573d5ef38bb6a0eeedbc1ca1bcf956b",
    },
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    data = str(root / "simulate")
    steps = {
        "simulate": ["simulate", "--scenario", "pisa-default", "--seed", SEED],
        "indexes": ["indexes", data],
        "compare-paths": ["compare", data, "--mode", "paths"],
        "compare-mobile-fixed": ["compare", data, "--mode", "mobile-fixed"],
    }
    for step, argv in steps.items():
        assert main([*argv, "--out", str(root / step)]) == 0, step
    return root


@pytest.mark.parametrize("step", list(GOLDEN))
def test_output_digests(outputs, step):
    written = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted((outputs / step).iterdir())
    }
    assert written == GOLDEN[step]


def test_compute_indexes_over_run_equals_indexes_step(outputs):
    """``compute_indexes`` over the channels of the records ``run()`` hands
    the server (``tests.rows.days_from``) gives exactly the lines
    ``citysense indexes`` writes from the channels of the stored day files,
    so in-memory records and the store round trip give the same indexes."""
    cfg = with_seed(load_scenario("pisa-default"), int(SEED))
    result = record(cfg)
    values = list(compute_indexes(
        days_from(m for _, m in result.server_measurements), cfg.uplink_period_s))
    in_memory: dict[str, list[str]] = {}
    for iv in values:
        in_memory.setdefault(iv.station_id, []).append(index_record_line(iv))
    written = {
        p.name[len("indexes_"):-len(".txt")]: p.read_text().splitlines()
        for p in (outputs / "indexes").glob("indexes_*.txt")
    }
    assert len(values) == sum(map(len, written.values())) == 1824
    assert in_memory == written


def test_mobile_fixed_rule_over_run_equals_compare_step(tmp_path):
    """The mobile-fixed rule and ``compare_populations`` over the channels of
    the records ``run()`` hands the server write exactly the files of
    ``citysense compare --mode mobile-fixed``, so the in-memory path (the
    acceptance test) and the CLI path form the same populations."""
    cfg = with_seed(load_scenario("pisa-default"), int(SEED))
    nodes = {n.descriptor.node_id: (n.descriptor.kind, n.path_tag, n.descriptor.home_position) for n in cfg.nodes}
    records = channels_from(m for _, m in record(cfg).server_measurements)
    mobile, fixed, _, _ = mobile_fixed_populations(records, nodes)
    write_comparison_report(compare_populations(mobile, fixed, labels=("mobile", "fixed")), tmp_path)
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())}
    assert written == GOLDEN["compare-mobile-fixed"]


# ``pisa-default`` for 2 hours with 5 % loss on every link and the datasheet
# LoD on every gas channel (its ``sensors`` overrides removed): it pins the
# loss draws and ``below_lod`` readings, which the lossless run above never
# makes, together with the mobile range decisions (M2 leaves short range
# between the F anchors).
LOSSY_SIMULATE = {
    "delivery-log.txt": "936e0accb492ed25f47ebd5fab047c2a3bc4c310e01cd3acd500079ed22b380c",
    "measurements-2015-04-20.txt": "50982f07fc0101adbac32303898c84ef50b22bfc67c2221e11fbd62853bc58cd",
    "nodes.json": "663daef0db0832366f0f744cc397319a85fef913b4e1e14d884f45fcafab4601",
}


def _simulate_edited(root, edit, *argv):
    """Run ``simulate`` on ``pisa-default`` for 2 hours with 5 % loss on
    every link, after ``edit`` changed it further; return its output
    directory and its stdout."""
    doc = yaml.safe_load(
        resources.files("citysense").joinpath("data/pisa-default.yaml").read_text()
    )
    doc["duration_s"] = 7200
    for link in doc["links"].values():
        link["loss_prob"] = 0.05
    edit(doc)
    scenario = root / "scenario.yaml"
    scenario.write_text(yaml.safe_dump(doc))
    out = root / "simulate"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["simulate", "--scenario", str(scenario), *argv, "--out", str(out)]) == 0
    return out, stdout.getvalue()


@pytest.fixture(scope="module")
def lossy_outputs(tmp_path_factory):
    def edit(doc):
        del doc["sensors"]

    return _simulate_edited(tmp_path_factory.mktemp("golden-lossy"), edit, "--seed", SEED)[0]


def test_lossy_simulate_digests(lossy_outputs):
    written = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(lossy_outputs.iterdir())
    }
    assert written == LOSSY_SIMULATE
    log = (lossy_outputs / "delivery-log.txt").read_text()
    day = (lossy_outputs / "measurements-2015-04-20.txt").read_text()
    assert ",lost," in log and ",short_range_mobile," in log and ",wide_area," in log
    assert ",below_lod" in day or ";below_lod" in day


# ``pisa-default`` (its own seed) for 2 hours with 5 % loss on every link,
# fixed-site readings 450 s and mobile ones 2.5 s on the short-range link:
# every fixed-site node drops 75-85 readings that reach the coordinator
# after their window was uplinked, so these files pin which window ``run``
# gives each reading.
LATE_SIMULATE = {
    "delivery-log.txt": "34aebacd27a4669feff7bc7525c6d7b68549c2d2cf28a5a555aeb447f07d8508",
    "measurements-2015-04-20.txt": "3f82fbacdd05ec1b8bd8a4dc9b9cdba3fe3a2aae10d04cae0a26e1b547e54ce6",
    "nodes.json": "663daef0db0832366f0f744cc397319a85fef913b4e1e14d884f45fcafab4601",
    "stdout": "5ecd2997b55538386a4edce88389c27eda2fa919c660d45539f3fe76d2581ec0",
}


@pytest.fixture(scope="module")
def late_outputs(tmp_path_factory):
    def edit(doc):
        doc["links"]["short_range_fixed"]["latency_s"] = 450
        doc["links"]["short_range_mobile"]["latency_s"] = 2.5

    return _simulate_edited(tmp_path_factory.mktemp("golden-late"), edit)


def test_late_arrival_simulate_digests(late_outputs):
    out, stdout = late_outputs
    written = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
    }
    written["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
    assert written == LATE_SIMULATE
    assert "T1: emitted 240, to coordinator 230, direct 0, lost 10, dropped 76" in stdout
