"""Benchmark for taxtrace: one seeded workload per process, stdlib only.

    python3 bench/run.py --workload query --seed 1 --seconds 25 --trace 0

prints progress on stderr and, as the last line of stdout, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` its per-layer ones, from a separate traced round.

    python3 bench/run.py --smoke
    python3 bench/run.py --repeat 5 --workload edit

run every workload at a tiny size with every check, or one workload in N
fresh processes with seeds 1..N, printing each metric's median and
quartiles next to its bound.  Run from the root of a checkout; the
library is imported from ``src/`` there, not from an installed copy.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RESULTS = os.path.join(BENCH, "results")
WORKLOADS = ("query", "edit", "review")


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def workload_class(name: str):
    if not os.path.isdir(os.path.join(ROOT, "src", "taxtrace")):
        sys.exit(f"no taxtrace sources under {os.path.join(ROOT, 'src')}")
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), BENCH]
    # Only this workload's module is imported, so that another's imports
    # do not count in this one's peak RSS.
    module = importlib.import_module(f"wl_{name}")
    return getattr(module, name.capitalize())


def run_one(args) -> int:
    cls = workload_class(args.workload)
    import gen
    import harness
    import tracer

    os.environ["TTL_NOW"] = gen.NOW

    bench = spec()
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    workdir = os.path.join(BENCH, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = cls(args.seed, args.size, workdir)
        spans = tracer.Tracer() if args.trace else None
        outcome = harness.run(workload, args.seconds, spans)
        if spans is not None:
            spans.write(os.path.join(RESULTS, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in outcome.errors[:20] + outcome.failures[:20]:
        print(line, file=sys.stderr)
    metrics = {m["name"]: {"value": outcome.metrics.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": not outcome.errors, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


def child(workload: str, seed: int, seconds: float, trace: int = 0,
          size: str = "full") -> tuple[dict, str]:
    """Run one workload in a fresh process; return its result and its standard error."""
    argv = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--size", size]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stderr


def smoke() -> int:
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            start = time.perf_counter()
            result, _ = child(workload, 1, 0, trace, "tiny")
            ok = result["correct"] and result["failed"] == 0
            bad += not ok
            print(f"{workload} trace={trace}: {'ok' if ok else 'FAILED'} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"({time.perf_counter() - start:.1f} s)")
    return 1 if bad else 0


def repeat(args) -> int:
    bench = spec()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    runs = []
    for seed in range(1, args.repeat + 1):
        result, err = child(args.workload, seed, seconds)
        runs.append(result)
        speed = [line for line in err.splitlines() if line.startswith("reference work")]
        print(f"seed {seed}: {json.dumps(result)}\n  {' '.join(speed)}", file=sys.stderr)
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"repeat-{args.workload}.json"), "w", encoding="utf-8") as f:
        json.dump(runs, f, indent=1)
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"{args.workload}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
          f"failed shares {sorted(shares)}")
    print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        print(f"{m['name']:<14}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.3f}"
              f"{m['bound']:>7}{'' if spread <= m['bound'] / 3 else '  above a third of the bound'}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, metavar="N")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.repeat:
        return repeat(args)
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
