#!/usr/bin/env python3
"""End-to-end benchmark of the TDG/ExoCore pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-cold --seed 0 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

Each run makes private directories under ``.perfbench/`` (HOME,
TMPDIR, kernel build directory, sweep cache), times three cold set-ups
in fresh interpreters, then runs the measured closed loop in one more
interpreter that reuses the last set-up's kernel and cache.  It prints
every metric with its unit and, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (spans are written to
``.perfbench/traces/``).  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench import spec     # noqa: E402

#: Cold set-ups timed per run; setup_s is their median.
SETUP_REPEATS = 3

#: Every run finishes within this many seconds.
RUN_LIMIT_S = 175.0

OUT_DIR = ROOT / ".perfbench"


def load_benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


class RunError(Exception):
    pass


def child_env(run_dir, workload):
    """Environment of every child: private HOME/TMPDIR/caches, no
    inherited REPRO_* knobs, and no C compiler for sweep-nokernel."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    home = run_dir / "home"
    tmp = run_dir / "tmp"
    for path in (home, tmp):
        path.mkdir(parents=True, exist_ok=True)
    env.update({
        "HOME": str(home),
        "TMPDIR": str(tmp),
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        "PYTHONHASHSEED": "0",
        "PYTHONDONTWRITEBYTECODE": "1",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "REPRO_CACHE_DIR": str(run_dir / "default-cache"),
        # Fixed provenance stamps: explore payloads are reproducible
        # and no git subprocess runs inside a timed operation.
        "REPRO_COMMIT": "perfbench",
        "REPRO_EXPLORE_DATE": "2000-01-01",
    })
    if workload == "sweep-nokernel":
        empty_bin = run_dir / "empty-bin"
        empty_bin.mkdir(exist_ok=True)
        env["PATH"] = str(empty_bin)
    return env


def run_child(argv, env, deadline):
    """Run one worker interpreter; returns its JSON result line."""
    timeout = deadline - time.monotonic()
    if timeout <= 1.0:
        raise RunError("out of time before starting a child")
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.worker"] + argv, cwd=str(ROOT),
        env=env, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunError(f"worker {argv[0]} timed out")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RunError(f"worker {argv[0]} exited with {proc.returncode}")
    lines = [line for line in out.decode().splitlines() if line.strip()]
    if not lines:
        raise RunError(f"worker {argv[0]} printed no result")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, deadline):
    """One benchmark run; returns the result object to print."""
    bench = load_benchmark_spec()
    group = bench["per_layer"] if trace else bench["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in group}
    run_dir = OUT_DIR / "runs" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        env = child_env(run_dir, workload)
        setups = []
        for index in range(1 if trace else SETUP_REPEATS):
            # Each set-up starts cold: empty kernel build dir and cache.
            kernel_dir = run_dir / f"kernel-{index}"
            cache_dir = run_dir / f"cache-{index}"
            kernel_dir.mkdir()
            env["REPRO_FASTPATH_CACHE"] = str(kernel_dir)
            result = run_child(
                ["setup", "--workload", workload, "--seed", str(seed),
                 "--cache-dir", str(cache_dir),
                 "--work-dir", str(run_dir)], env, deadline)
            setups.append(result["setup_s"])
        trace_out = OUT_DIR / "traces" / f"{workload}-seed{seed}.json"
        result = run_child(
            ["measure", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--cache-dir", str(cache_dir), "--work-dir", str(run_dir),
             "--trace-out", str(trace_out)], env, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    metrics = dict(result["metrics"])
    if not trace:
        metrics["setup_s"] = statistics.median(setups)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RunError(f"worker did not report {missing}")
    attempted = int(result["attempted"])
    failed = int(result["failed"])
    return {
        "correct": attempted >= 1 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }


def print_metrics(workload, result):
    print(f"{workload}: correct={str(result['correct']).lower()} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"failed_frac={result['failed'] / result['attempted']:.4g}")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    sys.stdout.flush()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=spec.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured seconds per run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no repro sources under {ROOT}/src; "
                         "run from a checkout of the repository\n")
        return 2
    seconds = args.seconds or load_benchmark_spec()["run_seconds"]
    workloads = spec.WORKLOADS if args.workload == "all" \
        else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    for workload in workloads:
        deadline = time.monotonic() + RUN_LIMIT_S
        try:
            result = run_workload(workload, args.seed, seconds,
                                  args.trace, deadline)
        except (RunError, OSError, ValueError, KeyError) as exc:
            sys.stderr.write(f"perfbench: {workload}: {exc}\n")
            return 1
        print_metrics(workload, result)
        if len(workloads) == 1:
            combined = result
            break
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
