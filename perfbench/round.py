"""One benchmark round, in a fresh process.

Sets up (imports and the workload's scenario file), runs the four steps a
CLI user runs through ``citysense.cli.main``, records each step's wall time
and the process's peak resident memory, then checks every output. Prints one
JSON document as its last line. ``run.py`` starts one of these per round;
to run one by hand, from the root of a checkout:

    python3 perfbench/round.py --workload dense-city --seed 1 \\
        --out .bench_out/dense-city --verdicts .bench_out/dense-city.verdicts.json
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path


# Output directory of each step, under the round's output directory.
OUTPUT_DIRS = {"simulate": "sim", "indexes": "idx",
               "compare_paths": "cmp-paths", "compare_mobile": "cmp-mobile"}


def steps(out: Path) -> list[tuple[str, list[str]]]:
    """(step, argv) of the four CLI invocations of a round."""
    sim, idx, cmp_paths, cmp_mobile = (str(out / d) for d in OUTPUT_DIRS.values())
    return [
        ("simulate", ["simulate", "--scenario", str(out / "scenario.yaml"), "--out", sim]),
        ("indexes", ["indexes", sim, "--out", idx]),
        ("compare_paths", ["compare", sim, "--mode", "paths", "--out", cmp_paths]),
        ("compare_mobile", ["compare", sim, "--mode", "mobile-fixed", "--out", cmp_mobile]),
    ]


def run_step(main, argv: list[str]) -> tuple[int, str]:
    """Exit code and captured output of one CLI invocation."""
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(buf):
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except Exception:  # a crash is a failed operation, not a failed round
            traceback.print_exc()
            rc = 1
    return rc, buf.getvalue()


def digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.rglob("*")) if path.is_dir() else [path]:
        if f.is_file():
            h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def check_all(scenario: dict, out: Path) -> dict[str, list[str]]:
    """Problems found in each step's outputs."""
    import checks

    scn = checks.Scenario(scenario)
    problems = {}
    problems["simulate"], records = checks.check_simulate(scn, out / OUTPUT_DIRS["simulate"])
    for step, check in (("indexes", checks.check_indexes),
                        ("compare_paths", checks.check_compare_paths),
                        ("compare_mobile", checks.check_compare_mobile)):
        problems[step] = check(scn, records, out / OUTPUT_DIRS[step])
    return problems


def check_outputs(scenario: dict, out: Path, verdicts: Path) -> dict[str, list[str]]:
    """``check_all``, except that outputs byte-identical to outputs already
    checked in this run (``verdicts`` holds their digests) share their
    verdict, so only the first round of a run pays for the full checks."""
    key = [digest(out / "scenario.yaml")] + [digest(out / d) for d in OUTPUT_DIRS.values()]
    if verdicts.is_file():
        seen = json.loads(verdicts.read_text())
        if seen["key"] == key:
            return seen["problems"]
    problems = check_all(scenario, out)
    verdicts.write_text(json.dumps({"key": key, "problems": problems}))
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--verdicts", type=Path, required=True,
                    help="file keeping the digests and check results of this run's outputs")
    ap.add_argument("--cpu", type=int, help="pin this process to one CPU")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    root = Path.cwd()
    src = root / "src"
    sys.path.insert(0, str(src))
    from citysense import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"citysense imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    scenario = workloads.generate(args.workload, root, args.seed)
    workloads.write_scenario(scenario, args.out / "scenario.yaml")
    ready = time.monotonic()

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    results = {}
    for name, argv in steps(args.out):
        with tracer.step_span(name) if tracer else nullcontext():
            t0 = time.perf_counter()
            rc, output = run_step(cli.main, argv)
            seconds = time.perf_counter() - t0
        results[name] = {"rc": rc, "seconds": seconds, "output_tail": output[-2000:] if rc else ""}
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    for name, problems in check_outputs(scenario, args.out, args.verdicts).items():
        results[name]["problems"] = problems
    doc = {"ready": ready, "steps": results, "peak_rss_kb": peak_rss_kb}
    if tracer:
        doc["layers"] = tracer.metrics()
        doc["untraced_names"] = tracer.missing
        tracer.write(args.out / "spans.npz")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
