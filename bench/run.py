"""Benchmark entry point: one workload through the ``avgflow`` command line.

    python3 bench/run.py --workload det-transport --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from ``src/`` and
driven in process through ``avgflow.cli.main``, one fresh output directory per
pass.  One warm-up pass is run and discarded; timed passes follow until
``--seconds`` have elapsed (at least ``MIN_PASSES`` of them).  Every timed
pass must write the same bytes as the warm-up pass, whose outputs are checked
against the closed-form oracle.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer ones.
"""

import os
import sys

# Fixed hashing and one BLAS thread; set before numpy is first imported.
ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1",
       "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
if any(os.environ.get(k) != v for k, v in ENV.items()):
    os.environ.update(ENV)
    os.execv(sys.executable, [sys.executable] + sys.argv)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, BENCH)

from checks import CheckFailed  # noqa: E402
from spans import Tracer, metric_units, read_bytes  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Path-parallel worker threads passed to every command; with one BLAS thread
# the run uses one core.
THREADS = 1
MIN_PASSES = 3
SETUP_CODE = (
    "import avgflow.cli\n"
    "from avgflow import TimeGrid, build_kernel_table, build_theta_ensemble\n"
    "build_kernel_table(build_theta_ensemble('ou2d', 64), TimeGrid(1.0, {n}))\n"
)
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "output_mb": "MB"}
# The machine probe's time at the reference speed; timings are reported as
# seconds at that speed (see ``machine_probe``).
REFERENCE_PROBE_S = 0.3
PROBE_MATRIX = np.random.default_rng(0).standard_normal((300, 300))


def machine_probe():
    """Seconds for a fixed mix of 300x300 matrix products and interpreter
    work.  On a shared 2-core host the speed drifts by a third over minutes,
    and the probe drifts with it, so each timing is scaled by
    REFERENCE_PROBE_S over the mean of the probes taken just before and just
    after it."""
    start = time.perf_counter()
    for _ in range(300):
        PROBE_MATRIX @ PROBE_MATRIX
    total = 0
    for i in range(600_000):
        total += i * i
    return time.perf_counter() - start


def scaled(seconds, probe_before, probe_after):
    return seconds * REFERENCE_PROBE_S / (0.5 * (probe_before + probe_after))


def measure_setup(n_steps):
    """Seconds for a fresh interpreter to import avgflow and build the kernel
    table, timed from before it starts until it has exited."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE.format(n=n_steps)],
                   env=env, cwd=ROOT, check=True, timeout=120)
    return time.perf_counter() - start


def output_digest(out_dir):
    """{relative path: (size, sha256)} for every file a pass wrote."""
    digest = {}
    for base, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                digest[os.path.relpath(path, out_dir)] = (
                    os.path.getsize(path), hashlib.sha256(fh.read()).hexdigest())
    return digest


def run_pass(cli, workload, seed, pass_dir, tracer, pass_index):
    """Run the workload's commands once inside ``pass_dir``.

    Configs name run directories relative to ``pass_dir``, so every pass of a
    seed sees identical configs and must write identical bytes.
    """
    shutil.rmtree(pass_dir, ignore_errors=True)
    os.makedirs(os.path.join(pass_dir, "cfg"))
    os.chdir(pass_dir)
    os.environ["AVGFLOW_OUT"] = "out"
    run_dirs, codes, seconds, op_ids = {}, {}, 0.0, []
    read_before = read_bytes()
    try:
        for op in workload.ops():
            cfg_path = os.path.join("cfg", f"{op.label}.json")
            with open(cfg_path, "w") as fh:
                json.dump(op.config(seed, run_dirs), fh, indent=1)
            argv = [op.command, "--config", cfg_path, "--threads", str(THREADS)]
            before = set(os.listdir("out")) if os.path.isdir("out") else set()
            op_id = f"{pass_index}:{op.label}"
            op_ids.append(op_id)
            if tracer:
                tracer.begin_op(op_id)
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                codes[op.label] = cli.main(argv)
            seconds += time.perf_counter() - start
            new = sorted(set(os.listdir("out")) - before) if os.path.isdir("out") else []
            run_dirs[op.label] = os.path.join("out", new[0]) if len(new) == 1 else None
    finally:
        os.chdir(ROOT)
    read_after = read_bytes()
    read_mb = (read_after - read_before) / 1e6 if read_before is not None else 0.0
    out = os.path.join(pass_dir, "out")
    return {"seconds": seconds, "codes": codes, "op_ids": op_ids, "read_mb": read_mb,
            "run_dirs": {k: v and os.path.join(pass_dir, v) for k, v in run_dirs.items()},
            "digest": output_digest(out) if os.path.isdir(out) else {}}


def median_metrics(rows, units):
    return {name: {"value": statistics.median(r[name] for r in rows), "unit": unit}
            for name, unit in units.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if not os.path.isfile(os.path.join(SRC, "avgflow", "cli.py")):
        print(f"error: no avgflow sources under {SRC}", file=sys.stderr)
        return 2

    probe = machine_probe()
    setup_s = scaled(measure_setup(workload.n_steps), probe, machine_probe())
    sys.path.insert(0, SRC)
    import avgflow.cli as cli
    import avgflow.sim as sim

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install({"cli": cli, "sim": sim})
    tag = f"{workload.name}-{args.seed}-{'trace' if args.trace else 'time'}"
    work = os.path.join(WORK, tag)
    shutil.rmtree(work, ignore_errors=True)
    problems = []

    warm = run_pass(cli, workload, args.seed, os.path.join(work, "warm"), tracer, 0)
    passes = []
    start = time.perf_counter()
    probe = machine_probe()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        done = run_pass(cli, workload, args.seed, os.path.join(work, "pass"),
                        tracer, len(passes) + 1)
        before, probe = probe, machine_probe()
        done["wall_s"] = scaled(done["seconds"], before, probe)
        if done["digest"] != warm["digest"]:
            problems.append(f"pass {len(passes) + 1} wrote other bytes than the warm-up")
        done["output_mb"] = sum(size for size, _ in done["digest"].values()) / 1e6
        passes.append(done)
        print(f"pass {len(passes)}: {done['seconds']:.3f} s, "
              f"{done['wall_s']:.3f} s at reference speed", flush=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed_labels = {label for label, code in warm["codes"].items() if code != 0}
    try:
        failed_labels |= workload.verify(args.seed, warm["run_dirs"])
    except (CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
    failed = 0
    for p in passes:
        failed += sum(1 for label, code in p["codes"].items()
                      if code != 0 or label in failed_labels)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if tracer:
        tracer.uninstall()
        rows = [tracer.layer_metrics(p["op_ids"], p["seconds"], p["read_mb"])
                for p in passes]
        metrics = median_metrics(rows, metric_units())
        tracer.dump(os.path.join(WORK, f"trace-{workload.name}-{args.seed}.json"),
                    {"pass_seconds": [p["seconds"] for p in passes],
                     "pass_wall_s": [p["wall_s"] for p in passes]})
    else:
        rows = [{"wall_s": p["wall_s"], "setup_s": setup_s,
                 "peak_rss_mb": peak_rss_mb, "output_mb": p["output_mb"]}
                for p in passes]
        metrics = median_metrics(rows, END_TO_END)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": not problems,
                      "attempted": len(passes) * len(workload.ops()),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
