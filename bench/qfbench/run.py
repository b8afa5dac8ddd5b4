#!/usr/bin/env python3
"""qfbench: build the load generator, run workloads, check them, compare runs.

Run from the repository root (stdlib only):

  python3 bench/qfbench/run.py                    # every workload, untraced
  python3 bench/qfbench/run.py --trace            # every workload, traced
  python3 bench/qfbench/run.py --workload bulk_gb --seed 3 --seconds 20 --trace 0
  python3 bench/qfbench/run.py --repeat 3 --out a.json b.json
  python3 bench/qfbench/run.py --compare a.json b.json
  python3 bench/qfbench/run.py --smoke

Each workload runs in a fresh qfbench process (built from ../../src into
build/qfbench/cmake on first use). Every metric is printed by name with its
unit; results go to build/qfbench/<workload>.json (<workload>.traced.json
and the Perfetto trace <workload>.trace.json for traced runs).

With --workload the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end_to_end metrics of
BENCHMARK.json, or its per_layer metrics with --trace 1.

--repeat N --out A [B ...] runs N repetitions into each results file,
round-robin (A, B, A, B, ...) so the sets interleave in time; each
repetition alternates the workload order and uses seed --seed + repetition.
Existing files are appended to, so runs of two checkouts can be interleaved
by alternating invocations. --compare A B prints, per workload and metric,
each side's median and quartiles and a verdict against the BENCHMARK.json
bounds.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NoReturn

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
OUT_DIR = ROOT / "build" / "qfbench"
CMAKE_DIR = OUT_DIR / "cmake"
BINARY = CMAKE_DIR / "qfbench"
SPEC_PATH = ROOT / "BENCHMARK.json"

RUN_TIMEOUT_S = 170
BUILD_JOBS = 4
# A gain is claimed only over at least this many parent/change pairs.
MIN_GAIN_PAIRS = 10

# End-to-end metrics --compare judges beside BENCHMARK.json's, which cannot
# carry them: write_p95_us exists only on adaptive_drift, and failed_frac
# reads 0 on every healthy run. failed_frac's bound is absolute: any rise
# in failures is a regression.
EXTRA_END_TO_END = [
    {"name": "write_p95_us", "unit": "us", "better": "lower", "bound": 0.10},
    {"name": "failed_frac", "unit": "ratio", "better": "lower", "bound": 0.0},
]


def fail(message: str) -> NoReturn:
    print(f"qfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec() -> dict:
    try:
        return json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {SPEC_PATH}: {e}")


def build() -> None:
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"{ROOT / 'src'} is missing; run from a full checkout")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    log = OUT_DIR / "build.log"
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(CMAKE_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (CMAKE_DIR / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    steps = [["cmake", "--build", str(CMAKE_DIR), "-j", str(BUILD_JOBS)]]
    if not (CMAKE_DIR / "CMakeCache.txt").exists():
        steps.insert(0, configure)
    with log.open("w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed; full log in {log}")


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> dict:
    """Runs one workload in a fresh process; returns its parsed result."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd += ["--trace-out", str(OUT_DIR / f"{workload}.trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S}s")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload}: exit {proc.returncode} without a result")
    if proc.returncode != 0 and result.get("correct", False):
        fail(f"{workload}: exit {proc.returncode}")
    name = f"{workload}.traced.json" if trace else f"{workload}.json"
    (OUT_DIR / name).write_text(json.dumps(result, indent=1) + "\n")
    return result


def print_metrics(result: dict) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, "
          f"{'traced' if result['trace'] else 'untraced'}): "
          f"correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    if result.get("problems"):
        print(f"   problems: {result['problems']}")
    for name, m in result["metrics"].items():
        print(f"   {name:<36} {m['value']:>16.6g} {m['unit']}")


def contract_metrics(result: dict, names: list[str]) -> tuple[dict, list]:
    """The named metrics of a result, and the names it lacks."""
    metrics = result["metrics"]
    missing = [n for n in names if n not in metrics]
    return {n: metrics[n] for n in names if n in metrics}, missing


def metric_names(spec: dict, trace: bool) -> list[str]:
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def cmd_single(args, spec: dict) -> int:
    build()
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.smoke)
    print_metrics(result)
    metrics, missing = contract_metrics(result,
                                        metric_names(spec, bool(args.trace)))
    correct = bool(result["correct"]) and not missing
    if missing:
        print(f"qfbench: result lacks {missing}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def workload_names(spec: dict) -> list[str]:
    return [w["name"] for w in spec["workloads"]]


def cmd_all(args, spec: dict) -> int:
    build()
    ok = True
    for workload in workload_names(spec):
        result = run_one(workload, args.seed, args.seconds, bool(args.trace),
                         args.smoke)
        print_metrics(result)
        ok = ok and bool(result["correct"])
    return 0 if ok else 1


def cmd_repeat(args, spec: dict) -> int:
    build()
    sets = []
    for path in args.out:
        p = Path(path)
        sets.append(json.loads(p.read_text()) if p.exists()
                    else {"version": 1, "runs": []})
    workloads = workload_names(spec)
    ok = True
    for rep in range(args.repeat):
        for i, path in enumerate(args.out):
            order = workloads if (rep * len(args.out) + i) % 2 == 0 \
                else workloads[::-1]
            for workload in order:
                result = run_one(workload, args.seed + rep, args.seconds,
                                 bool(args.trace), args.smoke)
                print_metrics(result)
                ok = ok and bool(result["correct"])
                sets[i]["runs"].append(result)
                Path(path).write_text(json.dumps(sets[i], indent=1) + "\n")
    return 0 if ok else 1


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """Judges B (the change) against A (the base); runs pair up by seed.

    regressed: B's median is worse by more than the bound, and either the
    spread (quartile distance over median) is within the bound or every run
    of B reads worse than every run of A. A zero bound tolerates no
    worsening at all. unresolved: the spread is wider than the bound and
    B's runs do not all read better than A's. improved: at least
    MIN_GAIN_PAIRS pairs, B wins at least 9 in 10 of them, and the medians
    differ by more than A's quartile distance.
    """
    sign = 1.0 if better == "higher" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    ma, mb = qa[1], qb[1]
    # > 0: B is better; relative to A, or absolute where A's median is 0.
    gain = sign * (mb - ma) / (abs(ma) if ma else 1.0) + 0.0  # no -0.0
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb))
    if sign > 0:
        all_better, all_worse = min(b) > max(a), max(b) < min(a)
    else:
        all_better, all_worse = max(b) < min(a), min(b) > max(a)
    if a == b:
        return "identical", gain
    if gain < -bound and (spread <= bound or all_worse or bound == 0):
        return "regressed", gain
    if spread > bound and not all_better:
        return "unresolved", gain
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if (gain > 0 and len(pairs) >= MIN_GAIN_PAIRS
            and wins >= 0.9 * len(pairs) and abs(mb - ma) > qa[2] - qa[0]):
        return "improved", gain
    return "unchanged", gain


def runs_by_workload(path: str) -> dict:
    by: dict = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        by.setdefault(run["workload"], []).append(run)
    for runs in by.values():
        runs.sort(key=lambda r: r["seed"])
    return by


def cmd_compare(args, spec: dict) -> int:
    a_runs, b_runs = runs_by_workload(args.compare[0]), \
        runs_by_workload(args.compare[1])
    regressed = False
    for workload in workload_names(spec):
        a, b = a_runs.get(workload, []), b_runs.get(workload, [])
        if not a or not b:
            print(f"== {workload}: missing from "
                  f"{args.compare[0] if not a else args.compare[1]}")
            continue
        print(f"== {workload}: {len(a)} runs vs {len(b)} runs")
        for side, runs in (("A", a), ("B", b)):
            bad = [r["seed"] for r in runs if not r["correct"] or r["failed"]]
            if bad:
                print(f"   {side}: incorrect or failed requests at seeds {bad}")
                regressed = regressed or side == "B"
        print(f"   {'metric':<16} {'A median [q1, q3]':<34} "
              f"{'B median [q1, q3]':<34} {'B vs A':>8} {'bound':>6}  verdict")
        for m in spec["end_to_end"] + EXTRA_END_TO_END:
            name = m["name"]
            va = [r["metrics"][name]["value"] for r in a if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
            if not va or not vb:
                continue
            v, gain = verdict(va, vb, m["better"], m["bound"])
            regressed = regressed or v == "regressed"
            cells = [f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
                     for q in (quartiles(va), quartiles(vb))]
            print(f"   {name:<16} {cells[0]:<34} {cells[1]:<34} "
                  f"{100 * gain:>+7.2f}% {100 * m['bound']:>5.1f}%  {v}")
    print("(B vs A: positive is better)")
    return 1 if regressed else 0


def cmd_smoke(args, spec: dict) -> int:
    """Reduced sizes, 2 s per workload, traced and untraced; checks that the
    emitted JSON names exactly BENCHMARK.json's workloads and metrics."""
    build()
    emitted: dict = {}
    ok = True
    for workload in workload_names(spec):
        emitted[workload] = {}
        for trace in (False, True):
            result = run_one(workload, args.seed, 2, trace, smoke=True)
            print_metrics(result)
            metrics, missing = contract_metrics(result,
                                                metric_names(spec, trace))
            if missing:
                print(f"qfbench: {workload} lacks {missing}", file=sys.stderr)
            ok = ok and bool(result["correct"]) and not missing
            emitted[workload].update(metrics)
    (OUT_DIR / "smoke.json").write_text(json.dumps(emitted, indent=1) + "\n")
    want = set(metric_names(spec, False)) | set(metric_names(spec, True))
    if set(emitted) != set(workload_names(spec)):
        ok = False
        print("qfbench: smoke workloads differ from BENCHMARK.json",
              file=sys.stderr)
    for workload, metrics in emitted.items():
        if set(metrics) != want:
            ok = False
            print(f"qfbench: {workload} metric names differ from "
                  f"BENCHMARK.json: {sorted(set(metrics) ^ want)}",
                  file=sys.stderr)
    print(f"smoke: {'ok' if ok else 'FAILED'} "
          f"({len(emitted)} workloads, {len(want)} metrics each)")
    return 0 if ok else 1


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workload_names(spec))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--out", nargs="+")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        return cmd_compare(args, spec)
    if args.repeat or args.out:
        if args.repeat < 1 or not args.out:
            parser.error("--repeat N needs --out FILE [FILE ...]")
        return cmd_repeat(args, spec)
    if args.smoke and not args.workload:
        return cmd_smoke(args, spec)
    if args.workload:
        return cmd_single(args, spec)
    return cmd_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
