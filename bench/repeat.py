"""Run one workload several times, one seed per run, and summarise the spread.

    python3 bench/repeat.py --workload sto-steer --runs 10 --first-seed 1 --seconds 28

Each run is a separate ``bench/run.py`` process.  For every metric this prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median, which is what the bounds in BENCHMARK.json are set
against, and writes the same to ``BENCH_<workload>.json`` in the current
directory.  ``--probe`` also times a fixed 400x400 matmul loop before and
after the runs, to show how much the machine itself drifts.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def probe(repeats=10):
    """Seconds per 50 products of two fixed 400x400 matrices, one thread."""
    code = (
        "import time, numpy as np\n"
        "a = np.random.default_rng(0).standard_normal((400, 400))\n"
        f"for _ in range({repeats}):\n"
        "    t = time.perf_counter()\n"
        "    for _ in range(50): a @ a\n"
        "    print(time.perf_counter() - t)\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return [float(v) for v in out.split()]


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"),
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    record = {"workload": args.workload, "seconds": args.seconds, "runs": []}
    if args.probe:
        record["probe_before_s"] = probe()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            raise SystemExit(f"seed {seed}: run.py exited {proc.returncode}")
        result = json.loads(lines[-1])
        result.update(seed=seed, elapsed_s=time.perf_counter() - start)
        record["runs"].append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              f"elapsed {result['elapsed_s']:.1f} s "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
        if proc.stderr.strip():
            print(proc.stderr.strip(), file=sys.stderr)
    if args.probe:
        record["probe_after_s"] = probe()
        for key in ("probe_before_s", "probe_after_s"):
            p = record[key]
            print(f"{key}: min {min(p):.4f} median {statistics.median(p):.4f} "
                  f"max {max(p):.4f}")

    runs = record["runs"]
    record["failed_share"] = sorted({r["failed"] / r["attempted"] for r in runs})
    record["metrics"] = {}
    for name in runs[0]["metrics"]:
        stats = summary([r["metrics"][name]["value"] for r in runs])
        record["metrics"][name] = stats
        print(f"{name:40s} median {stats['median']:.5g}  q1 {stats['q1']:.5g}  "
              f"q3 {stats['q3']:.5g}  spread {100 * stats['spread']:.1f}%")
    print(f"failed share per run: {record['failed_share']}")
    with open(f"BENCH_{args.workload}.json", "w") as fh:
        json.dump(record, fh, indent=1)


if __name__ == "__main__":
    main()
