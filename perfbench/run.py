"""End-to-end benchmark of the citysense CLI: simulate -> indexes -> compare.

Run from the root of a checkout:

    python3 perfbench/run.py --workload long-campaign --seed 1 --seconds 50 --trace 0

Each round runs in a fresh process (``round.py``): it sets up, runs the four
steps a CLI user runs, and checks every output. Rounds repeat until
``--seconds`` have passed, on one lane per CPU (at most two), each lane's
processes pinned to its CPU; every round is the same four operations. With
``--trace 0`` the last line reports the medians of the end-to-end metrics
over all rounds; with ``--trace 1`` each lane alternates untraced and
traced rounds, the last line reports the per-layer metrics of the traced
rounds, and the tracing overhead of each step is printed above it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from spans import PER_LAYER, STEPS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

STEP_METRICS = {
    "simulate": "simulate_s",
    "indexes": "indexes_s",
    "compare_paths": "compare_paths_s",
    "compare_mobile": "compare_mobile_s",
}
END_TO_END = {
    "setup_s": "s",
    **{m: "s" for m in STEP_METRICS.values()},
    "peak_rss_mb": "MB",
}
OUTPUT_ROOT = Path(".bench_out")
# Every process this benchmark starts ends before this many seconds pass.
DEADLINE_S = 170.0
# Each virtual CPU of the shared host this was tuned on changes speed by up
# to 2x, in phases of seconds to minutes and independently of the other:
# rounds on both CPUs average two independent phase patterns per run.
MAX_LANES = 2


class Lane:
    """Rounds pinned to one CPU, in their own output directory."""

    def __init__(self, workload: str, seed: int, cpu: int, deadline: float):
        self.workload, self.seed, self.cpu, self.deadline = workload, seed, cpu, deadline
        self.out = OUTPUT_ROOT / workload / f"cpu{cpu}"
        self.verdicts = OUTPUT_ROOT / workload / f"cpu{cpu}.verdicts.json"
        self.verdicts.unlink(missing_ok=True)

    def round(self, trace: bool) -> dict | None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        cmd = [sys.executable, str(BENCH_DIR / "round.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--out", str(self.out), "--cpu", str(self.cpu),
               "--verdicts", str(self.verdicts)] + (["--trace"] if trace else [])
        # A fixed string-hash seed keeps dict and set layouts, and so their
        # speed, the same from round to round.
        env = dict(os.environ, PYTHONHASHSEED="0")
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                                  timeout=max(1.0, self.deadline - started))
        except subprocess.TimeoutExpired:
            print(f"cpu{self.cpu}: round timed out", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"cpu{self.cpu}: round exited {proc.returncode}:\n{proc.stderr[-3000:]}",
                  file=sys.stderr)
            return None
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        doc["setup_s"] = doc["ready"] - started
        return doc


def failed_steps(doc: dict | None) -> list[str]:
    if doc is None:
        return list(STEPS)
    return [s for s in STEPS if doc["steps"][s]["rc"] != 0 or doc["steps"][s]["problems"]]


def end_to_end(doc: dict) -> dict[str, float]:
    m = {"setup_s": doc["setup_s"], "peak_rss_mb": doc["peak_rss_kb"] / 1024.0}
    for step, name in STEP_METRICS.items():
        m[name] = doc["steps"][step]["seconds"]
    return m


def describe(values: list[float]) -> str:
    med = statistics.median(values)
    if len(values) < 2:
        return f"{med:.4f} (1 round)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{med:.4f} [q1 {q1:.4f}, q3 {q3:.4f}, {len(values)} rounds]"


def report(lock: threading.Lock, lane: Lane, kind: str, n: int, doc: dict | None) -> None:
    bad = failed_steps(doc)
    line = "crashed" if doc is None else " ".join(
        f"{k} {v:.3f}" for k, v in end_to_end(doc).items())
    with lock:
        print(f"cpu{lane.cpu} {kind} {n}: {line}{'  FAILED ' + ','.join(bad) if bad else ''}")
        for step in bad if doc else ():
            for msg in doc["steps"][step]["problems"]:
                print(f"  {step}: {msg}", file=sys.stderr)
            if doc["steps"][step]["rc"]:
                print(f"  {step} exit {doc['steps'][step]['rc']}:\n"
                      f"{doc['steps'][step]['output_tail']}", file=sys.stderr)


def run_lane(lane: Lane, seconds: float, trace: bool, t_start: float,
             lock: threading.Lock) -> tuple[list, list]:
    plain: list[dict | None] = []
    traced: list[dict | None] = []
    while not plain or time.monotonic() - t_start < seconds:
        for is_traced in (False, True) if trace else (False,):
            rounds = traced if is_traced else plain
            rounds.append(lane.round(is_traced))
            report(lock, lane, "traced" if is_traced else "round", len(rounds), rounds[-1])
        if time.monotonic() > lane.deadline:
            break
    return plain, traced


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not Path("src/citysense/cli.py").is_file():
        print("error: run from the root of a citysense checkout "
              "(src/citysense/cli.py not found)", file=sys.stderr)
        return 2
    seed = args.seed % 2**31  # scenario seeds are non-negative

    t_start = time.monotonic()
    deadline = t_start + DEADLINE_S
    cpus = sorted(os.sched_getaffinity(0))[:MAX_LANES]
    lanes = [Lane(args.workload, seed, cpu, deadline) for cpu in cpus]
    lock = threading.Lock()
    plain: list[dict | None] = []
    traced: list[dict | None] = []
    with ThreadPoolExecutor(max_workers=len(lanes)) as pool:
        futures = [pool.submit(run_lane, lane, args.seconds, bool(args.trace), t_start, lock)
                   for lane in lanes]
        for future in futures:
            p, t = future.result()
            plain += p
            traced += t

    rounds = plain + traced
    attempted = len(STEPS) * len(rounds)
    failed = sum(len(failed_steps(d)) for d in rounds)
    correct = all(d is not None for d in rounds)
    ok_plain = [end_to_end(d) for d in plain if d is not None]
    metrics: dict[str, dict] = {}
    if not args.trace:
        for name, unit in END_TO_END.items():
            values = [m[name] for m in ok_plain]
            if values:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
                print(f"{name:18s} {describe(values)} {unit}")
    else:
        ok = [d for d in traced if d is not None]
        for d in ok[:1]:
            if d["untraced_names"]:
                print(f"not traced (absent): {', '.join(d['untraced_names'])}", file=sys.stderr)
        for name, unit in PER_LAYER.items():
            values = [d["layers"][name] for d in ok]
            if not values:
                break
            if unit == "s":
                value = statistics.median(values)
            else:
                value = values[0]
                if any(v != value for v in values):
                    print(f"{name}: counts differ between traced rounds: {values}",
                          file=sys.stderr)
                    correct = False
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:30s} {value:.6g} {unit}")
        ok_traced = [end_to_end(d) for d in ok]
        for name in STEP_METRICS.values():
            if ok_plain and ok_traced:
                on = statistics.median(m[name] for m in ok_traced)
                off = statistics.median(m[name] for m in ok_plain)
                print(f"tracing overhead {name}: {on - off:+.3f} s "
                      f"(traced {on:.3f} s, untraced {off:.3f} s)")
    correct = correct and len(metrics) == len(PER_LAYER if args.trace else END_TO_END)
    print(f"workload {args.workload} seed {seed}: {attempted} operations attempted, {failed} failed")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
