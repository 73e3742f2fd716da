"""Benchmark worker, run by ``run.py`` in a fresh interpreter.

``python -m perfbench.worker setup ...`` performs one cold set-up
(import, C-kernel compile and load, and for the service workload
service start and cache prefill) and prints its duration.

``python -m perfbench.worker measure ...`` reuses the kernel and cache
the last set-up left behind, runs the workload's closed loop for the
requested seconds, checks every output against the stored references
and prints one JSON result line.

The program is driven only through its public Python API: ``run_sweep``,
``run_explore`` and ``EvaluationService`` + ``ServiceClient``.

The worker and every process it starts run on one vCPU.  Every
end-to-end time is scaled to a reference host speed by a ``SpeedProbe``
on that vCPU (see ``perfbench/probe.py``): the worker's own for set-up,
sweeps and explores, the load generator's for service-mixed.  Raw wall
times are logged on stderr; traced runs report plain wall time.
"""

import os
import time

_STARTED = time.perf_counter()      # set-up is timed from here

from perfbench.probe import SpeedProbe, Stopwatch   # noqa: E402

#: main() puts every thread of the worker, and every process it starts,
#: on vCPU CPU, so that the probe samples the speed of the vCPU the work
#: runs on.  (service-mixed moves its pool worker to the others.)
ALL_CPUS = os.sched_getaffinity(0)
CPU = max(ALL_CPUS)

#: Started by main().
PROBE = SpeedProbe()

import argparse                     # noqa: E402
import asyncio                      # noqa: E402
import collections                  # noqa: E402
import gc                           # noqa: E402
import json                         # noqa: E402
import resource                     # noqa: E402
import shutil                       # noqa: E402
import statistics                   # noqa: E402
import subprocess                   # noqa: E402
import sys                          # noqa: E402
import threading                    # noqa: E402
from pathlib import Path            # noqa: E402

from perfbench import check, probe, spec, stats     # noqa: E402
from perfbench.tracer import HOOKS, TIME_LAYERS, Tracer  # noqa: E402

#: Fewest timed operations a sweep or explore run reports a median of.
MIN_OPS = 3

#: Fewest hit requests a service-mixed run sends, so that its p99 has
#: at least ten samples beyond it.
MIN_REQUESTS = 1010

#: Seconds per window in which service-mixed's times are scaled.
SERVICE_WINDOW_S = 1.0

#: Hit requests and fresh pairs per phase of a traced service-mixed
#: run, per second asked.
TRACED_HITS_PER_SECOND = 60
TRACED_PAIRS_PER_SECOND = 1


class BenchError(Exception):
    """The benchmark cannot run as specified (not an output mismatch)."""


def emit(payload):
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()


def log(message):
    sys.stderr.write(f"[perfbench] {message}\n")
    sys.stderr.flush()


def peak_rss_mb():
    """Peak resident memory of this process plus that of its largest
    reaped child (the service's pool worker or load generator), MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def require_kernel(workload):
    from repro.tdg.fastpath import kernel_available

    available = kernel_available()
    if workload == "sweep-nokernel" and available:
        raise BenchError("sweep-nokernel emulates a host without a C "
                         "compiler, but kernel_available() is True")
    if workload != "sweep-nokernel" and not available:
        raise BenchError(f"{workload} needs the C timing kernel, but "
                         "kernel_available() is False (no C compiler?)")


def import_program(workload):
    if workload == "explore-full":
        import repro.explore            # noqa: F401
    elif workload == "service-mixed":
        import repro.service.app        # noqa: F401
        import repro.service.client     # noqa: F401
    import repro.dse                    # noqa: F401


# -- service harness ------------------------------------------------------------

class ServiceHarness:
    """An in-process EvaluationService on its own event-loop thread."""

    def __init__(self, cache_dir):
        from repro.service.app import EvaluationService, ServiceConfig

        self.service = EvaluationService(ServiceConfig(
            host="127.0.0.1", port=0,
            workers=spec.SERVICE_POOL_WORKERS, cache_dir=str(cache_dir)))
        self._ready = threading.Event()
        self._error = None
        self._thread = threading.Thread(
            target=self._main, name="perfbench-service", daemon=True)

    def _main(self):
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self.service.start(warm=True))
            self._ready.set()
            loop.run_until_complete(self.service.wait_stopped())
            loop.run_until_complete(
                self.service.shutdown(drain_timeout=10.0))
        except Exception as exc:        # reported by start()/stop()
            self._error = exc
            self._ready.set()
        finally:
            loop.close()

    @property
    def url(self):
        return f"http://127.0.0.1:{self.service.port}"

    def start(self, timeout=60.0):
        self._thread.start()
        if not self._ready.wait(timeout):
            raise BenchError("service did not start")
        if self._error is not None:
            raise BenchError(f"service failed to start: {self._error!r}")

    def stop(self, timeout=60.0):
        self.service.request_stop_threadsafe()
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise BenchError("service did not shut down")
        if self._error is not None:
            raise BenchError(f"service failed: {self._error!r}")


def prefill(url):
    from repro.service.client import ServiceClient

    client = ServiceClient(url, timeout=60.0, retries=0)
    for name in spec.SERVICE_HOT:
        client.evaluate(name, scale=spec.SERVICE_SCALE,
                        max_invocations=spec.SERVICE_HOT_INVOCATIONS)


# -- set-up ------------------------------------------------------------------

def run_setup(args):
    import_program(args.workload)
    require_kernel(args.workload)
    if args.workload == "service-mixed":
        harness = ServiceHarness(args.cache_dir)
        harness.start()
        try:
            prefill(harness.url)
            ended, probe_cpu = time.perf_counter(), PROBE.cpu_s()
        finally:
            harness.stop()
    else:
        ended, probe_cpu = time.perf_counter(), PROBE.cpu_s()
    wall = ended - _STARTED
    # Wall time without the probe's own CPU time, at reference speed.
    setup_s = (wall - probe_cpu) * PROBE.factor(_STARTED, ended)
    log(f"set-up took {wall:.3f}s wall, {setup_s:.3f}s scaled")
    emit({"setup_s": setup_s})


# -- sweep and explore workloads -----------------------------------------------

#: ``seconds`` is the call's process CPU time at reference speed when
#: untraced, its wall time when traced; ``wall`` is its wall time.
Op = collections.namedtuple("Op", "seconds points ok wall")


def timed(tracer, fn, *args, **kwargs):
    """``(result, seconds, wall seconds)`` of one call, traced when
    *tracer* is set."""
    if tracer is not None:
        tracer.install()
        try:
            started = time.perf_counter()
            result = fn(*args, **kwargs)
            wall = time.perf_counter() - started
            return result, wall, wall
        finally:
            tracer.uninstall()
    with Stopwatch(PROBE) as watch:
        result = fn(*args, **kwargs)
    return result, watch.scaled_cpu_s, watch.wall_s


class SweepWorkload:
    """run_sweep over the seed's slice, cold cache, one caller."""

    def __init__(self, args):
        self.seed = args.seed
        self.scale = spec.SWEEP_SCALE[args.workload]
        self.reference = check.load_reference(f"sweep-{self.scale}")
        self.work_dir = Path(args.work_dir)

    def op(self, index, tracer=None):
        from repro.dse import record_to_json, run_sweep

        names = spec.sweep_slice(self.seed + index)
        cache_dir = self.work_dir / f"sweep-cache-{index}"
        sweep, elapsed, wall = timed(
            tracer, run_sweep, list(names), scale=self.scale, workers=1,
            cache_dir=cache_dir)
        shutil.rmtree(cache_dir, ignore_errors=True)
        ok = not sweep.stats.failures
        points = 0
        for name in names:
            record = sweep.results.get(name)
            if record is None:
                log(f"op {index}: {name} missing from the sweep")
                ok = False
                continue
            diffs = check.mismatches(check.normalize(record_to_json(record)),
                                     self.reference[name])
            if diffs:
                log(f"op {index}: {name} differs from reference: {diffs}")
                ok = False
            else:
                points += len(record.oracle)
        return Op(elapsed, points, ok, wall)


class ExploreWorkload:
    """run_explore over the full DesignSpace, fixed budget, one caller."""

    def __init__(self, args):
        self.seed = args.seed
        self.reference = check.load_reference("explore")
        self.work_dir = Path(args.work_dir)

    def op(self, index, tracer=None):
        from repro.artifacts import canonical_fields
        from repro.explore import run_explore
        from repro.explore.space import DesignSpace

        explore_seed = spec.explore_seed(self.seed, index)
        cache_dir = self.work_dir / f"explore-cache-{index}"
        payload, elapsed, wall = timed(
            tracer, run_explore, DesignSpace(),
            benchmarks=(spec.EXPLORE_BENCHMARK,),
            budget=spec.EXPLORE_BUDGET, seed=explore_seed,
            scale=spec.EXPLORE_SCALE, workers=1, cache_dir=cache_dir)
        shutil.rmtree(cache_dir, ignore_errors=True)
        diffs = check.mismatches(check.normalize(canonical_fields(payload)),
                                 self.reference[str(explore_seed)])
        if diffs:
            log(f"op {index} (explore seed {explore_seed}) differs from "
                f"reference: {diffs}")
            return Op(elapsed, 0, False, wall)
        return Op(elapsed, payload["budget"]["spent"], True, wall)


def run_ops(workload, seconds):
    """Closed loop, one caller: ops back to back for *seconds*."""
    ops = []
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if len(ops) >= MIN_OPS and elapsed >= seconds:
            break
        if elapsed >= spec.HARD_LIMIT_S:
            raise BenchError(f"only {len(ops)} operations in "
                             f"{spec.HARD_LIMIT_S:.0f}s")
        gc.collect()
        ops.append(workload.op(len(ops)))
    good = [op for op in ops if op.ok]
    log(f"{len(ops)} ops, scaled CPU / wall: "
        + ", ".join(f"{op.seconds:.3f}/{op.wall:.3f}s" for op in ops))
    metrics = {
        "design_points_per_s": statistics.median(
            [op.points / op.seconds for op in good]) if good else 0.0,
        "op_p50_ms": statistics.median([op.seconds for op in ops]) * 1000.0,
    }
    return len(ops), len(ops) - len(good), metrics


def run_ops_traced(workload, seconds, trace_path):
    """Alternate untraced and traced runs of operation 0.

    Operation 0 is the same inputs every time, so the work counters of
    every traced run must agree; the untraced runs give the wall time
    the tracing overhead is measured against.
    """
    tracer = Tracer(HOOKS)
    untraced, traced, profiles, spans = [], [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        if time.perf_counter() - started >= spec.HARD_LIMIT_S:
            raise BenchError("traced run exceeded its time limit")
        for tracing in (False, True):
            gc.collect()
            tracer.reset()
            tracer.op = attempted
            op = workload.op(0, tracer if tracing else None)
            attempted += 1
            failed += not op.ok
            if tracing:
                traced.append(op.seconds - tracer.excluded_s)
                profiles.append(layer_profile(tracer, op.seconds))
                spans.extend(tracer.spans)
            else:
                untraced.append(op.wall)
    metrics = average_profiles(profiles)
    metrics.update(service_profile([]))     # no requests in this workload
    metrics["trace_overhead_frac"] = \
        statistics.median(traced) / statistics.median(untraced) - 1.0
    write_trace(trace_path, tracer, spans, metrics)
    return attempted, failed, metrics


# -- per-layer profile ------------------------------------------------------------

TIME_METRICS = {layer: ("analysis.s" if layer == "analysis"
                        else f"{layer}_s") for layer in TIME_LAYERS}


def share_name(metric):
    return metric[:-2] + ("_share" if metric.endswith("_s") else ".share")


def _unique_frac(tracer, name, calls):
    total = tracer.counts.get(calls, 0)
    return len(tracer.digests.get(name, ())) / total if total else 0.0


def layer_profile(tracer, wall):
    """Per-layer metrics of one traced interval of *wall* seconds."""
    wall = wall - tracer.excluded_s
    profile = {}
    for layer, metric in TIME_METRICS.items():
        seconds = tracer.self_s.get(layer, 0.0)
        profile[metric] = seconds
        profile[share_name(metric)] = seconds / wall
    unattributed = wall - sum(tracer.self_s.values())
    profile["unattributed_s"] = unattributed
    profile["unattributed_share"] = unattributed / wall
    profile.update(work_counts(tracer))
    return profile


def work_counts(tracer):
    """The deterministic work counters and unique fractions."""
    counts = tracer.counts
    programs = len(tracer.digests.get("tdg.programs", ()))
    loads = counts.get("dse.cache_loads", 0)
    return {
        "sim.insts_interpreted": counts.get("sim.insts_interpreted", 0),
        "tdg.constructs_per_benchmark":
            counts.get("tdg.constructs", 0) / programs if programs else 0,
        "accel.insts_transformed": counts.get("accel.insts_transformed", 0),
        "accel.transform_unique_frac":
            _unique_frac(tracer, "accel.transform", "accel.transforms"),
        "tdg.insts_lowered": counts.get("tdg.insts_lowered", 0),
        "tdg.lower_unique_frac":
            _unique_frac(tracer, "tdg.lower", "tdg.lowerings"),
        "tdg.engine_runs": counts.get("tdg.engine_runs", 0),
        "tdg.insts_timed": counts.get("tdg.insts_timed", 0),
        "energy.insts_priced": counts.get("energy.insts_priced", 0),
        "energy.price_unique_frac":
            _unique_frac(tracer, "energy.price", "energy.pricings"),
        "exocore.schedules": counts.get("exocore.schedules", 0),
        "dse.cache_hit_frac":
            counts.get("dse.cache_hits", 0) / loads if loads else 0.0,
        "service.pool_evals": counts.get("service.pool_evals", 0),
    }


COUNT_METRICS = tuple(work_counts(Tracer()))


def average_profiles(profiles):
    """Mean times over traced runs; counts from the first (they must
    repeat exactly, which is checked here)."""
    merged = {}
    for name in profiles[0]:
        if name in COUNT_METRICS:
            values = {profile[name] for profile in profiles}
            if len(values) > 1:
                log(f"warning: {name} differs between traced runs of the "
                    f"same inputs: {sorted(values)}")
            merged[name] = profiles[0][name]
        else:
            merged[name] = sum(p[name] for p in profiles) / len(profiles)
    return merged


def write_trace(path, tracer, spans, metrics):
    """Spans are kept in memory during the run and written once here."""
    if tracer.absent:
        log(f"absent hooks: {', '.join(tracer.absent)}")
    for layer, error in sorted(tracer.observer_errors.items()):
        log(f"observer for {layer} failed: {error}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump({
            "absent_hooks": tracer.absent,
            "observer_errors": tracer.observer_errors,
            "calls_per_layer": tracer.calls,
            "metrics": metrics,
            "span_fields": ["op", "id", "parent", "layer", "start", "end"],
            "spans": spans,
        }, handle)
    log(f"trace written to {path}")


# -- service-mixed ---------------------------------------------------------------

class ServiceWorkload:
    """The in-process service under the load generator's hit clients
    and cold sender."""

    def __init__(self, args):
        self.seed = args.seed
        self.cache_dir = Path(args.cache_dir)

    def phase(self, url, *limits):
        """One load-generator run; returns its result object (see
        ``perfbench/loadgen.py``)."""
        argv = [sys.executable, "-m", "perfbench.loadgen", "--url", url,
                "--seed", str(self.seed)] + [str(arg) for arg in limits]
        proc = subprocess.run(argv, stdout=subprocess.PIPE,
                              timeout=spec.HARD_LIMIT_S + 20.0)
        if proc.returncode != 0:
            raise BenchError(f"load generator exited {proc.returncode}")
        return json.loads(proc.stdout.decode().splitlines()[-1])

    def reset_cache(self, keep):
        """Drop entries a phase computed, back to the prefilled state."""
        for path in self.cache_dir.rglob("*.json"):
            if path not in keep:
                path.unlink()

    def run(self, seconds, trace_path=None):
        harness = ServiceHarness(self.cache_dir)
        harness.start()
        # The service's threads and the load generator share one vCPU,
        # so a hit's round trip never waits for an idle vCPU to be
        # woken; the pool worker, started by now, computes on the others.
        move_children_off_cpu()
        try:
            if trace_path is None:
                return self._untraced(harness.url, seconds)
            return self._traced(harness.url, seconds, trace_path)
        finally:
            harness.stop()

    def _untraced(self, url, seconds):
        result = self.phase(url, "--seconds", seconds,
                            "--min-requests", MIN_REQUESTS)
        samples, wall = result["samples"], result["wall"]
        metrics, factors = scaled_service_metrics(result)
        latencies = [s[0] for s in samples]
        tail = stats.tail_percentile(len(latencies))
        by_source = {}
        for sample in samples:
            by_source[sample[1]] = by_source.get(sample[1], 0) + 1
        log(f"{len(samples)} requests in {wall:.2f}s wall "
            f"({len(samples) / wall:.1f} req/s), by source {by_source}, "
            f"p50 {statistics.median(latencies) * 1000:.2f} ms, "
            f"p{tail:g} {stats.percentile(latencies, tail) * 1000:.2f} ms; "
            f"speed factor {min(factors):.3f}-{max(factors):.3f}")
        return len(samples), sum(1 for s in samples if not s[3]), metrics

    def _traced(self, url, seconds, trace_path):
        """The same requests twice from the same prefilled cache:
        untraced, then traced.  The overhead is that of the hit clients;
        the cold sender's pace is set by the clock."""
        limits = ("--hits", TRACED_HITS_PER_SECOND * int(seconds),
                  "--pairs", TRACED_PAIRS_PER_SECOND * int(seconds))
        keep = set(self.cache_dir.rglob("*.json"))
        untraced = self.phase(url, *limits)
        self.reset_cache(keep)
        tracer = Tracer(HOOKS)
        tracer.install()
        try:
            traced = self.phase(url, *limits)
        finally:
            tracer.uninstall()
        self.reset_cache(keep)
        samples, wall, hit_wall = \
            traced["samples"], traced["wall"], traced["hit_wall"]
        untraced_hit_wall = untraced["hit_wall"]
        log(f"hit clients took {untraced_hit_wall:.3f}s untraced, "
            f"{hit_wall:.3f}s traced ({tracer.excluded_s:.3f}s hashing)")
        metrics = layer_profile(tracer, wall)
        metrics.update(service_profile(samples))
        metrics["trace_overhead_frac"] = \
            (hit_wall - tracer.excluded_s) / untraced_hit_wall - 1.0
        write_trace(trace_path, tracer, tracer.spans, metrics)
        everything = untraced["samples"] + samples
        return len(everything), sum(1 for s in everything if not s[3]), \
            metrics


def scaled_service_metrics(result):
    """End-to-end metrics of one load-generator *result*, scaled window
    by window with its probe, which shares the service's vCPU.

    The run is cut into SERVICE_WINDOW_S windows.  A request's latency
    is scaled by the factor of the window it completed in, and the rate
    is the median over windows of each window's scaled rate: the host's
    speed changes within seconds, so one factor for the whole run would
    weigh its fast and slow stretches wrongly.  Returns ``(metrics,
    factor per window)``.
    """
    samples, started = result["samples"], result["started"]
    windows = max(1, int(result["wall"] // SERVICE_WINDOW_S))
    factors = [probe.factor(result["probe"],
                            started + w * SERVICE_WINDOW_S,
                            started + (w + 1) * SERVICE_WINDOW_S)
               for w in range(windows)]
    points = [0] * windows
    latencies = []
    for sample in samples:
        w = min(windows - 1, int((sample[5] - started) // SERVICE_WINDOW_S))
        points[w] += sample[4]
        latencies.append(sample[0] * factors[w])
    return {
        "design_points_per_s": statistics.median(
            count / (SERVICE_WINDOW_S * f)
            for count, f in zip(points, factors)),
        "op_p50_ms": statistics.median(latencies) * 1000.0,
    }, factors


def service_profile(samples):
    def p50_ms(values):
        return statistics.median(values) * 1000.0 if values else 0.0

    latencies = [s[0] for s in samples]
    tail = stats.tail_percentile(len(latencies))
    computed = [s for s in samples if s[1] == "computed"]
    coalesced = [s for s in samples if s[1] == "coalesced"]
    cold = len(computed) + len(coalesced)
    return {
        "service.hit_ms_p50": p50_ms([s[0] for s in samples
                                      if s[1] == "cache"]),
        "service.computed_ms_p50": p50_ms([s[0] for s in computed]),
        "service.overhead_ms_p50": p50_ms([s[0] - s[2] for s in samples
                                           if s[1] != "failed"]),
        "service.coalesced_frac": len(coalesced) / cold if cold else 0.0,
        "service.req_tail_ms": (stats.percentile(latencies, tail) * 1000.0
                                if tail is not None else 0.0),
    }


# -- measure -------------------------------------------------------------------

def move_children_off_cpu():
    """Move the processes this one has started (the service's pool
    worker) to the vCPUs other than CPU, if there are any."""
    others = ALL_CPUS - {CPU}
    if not others:
        return
    try:
        for tid in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{tid}/children") as handle:
                pids = handle.read().split()
            for pid in pids:
                for child_tid in os.listdir(f"/proc/{pid}/task"):
                    os.sched_setaffinity(int(child_tid), others)
    except OSError as exc:      # no /proc/.../children, or a child left
        log(f"could not move the pool worker off vCPU {CPU}: {exc}")


def run_measure(args):
    import_program(args.workload)
    require_kernel(args.workload)
    trace_path = args.trace_out if args.trace else None
    if trace_path is not None or args.workload == "service-mixed":
        # Per-layer times are plain wall time, and service-mixed is
        # scaled by the load generator's own probe.
        PROBE.stop()
    if args.workload == "service-mixed":
        attempted, failed, metrics = ServiceWorkload(args).run(
            args.seconds, trace_path)
    else:
        workload = (ExploreWorkload(args)
                    if args.workload == "explore-full"
                    else SweepWorkload(args))
        if trace_path is None:
            attempted, failed, metrics = run_ops(workload, args.seconds)
        else:
            attempted, failed, metrics = run_ops_traced(
                workload, args.seconds, trace_path)
    if not args.trace:
        metrics["peak_rss_mb"] = peak_rss_mb()
    emit({"attempted": attempted, "failed": failed, "metrics": metrics})


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m perfbench.worker")
    parser.add_argument("role", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True,
                        choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {CPU})
    PROBE.start()
    try:
        if args.role == "setup":
            run_setup(args)
        else:
            run_measure(args)
    except BenchError as exc:
        log(f"error: {exc}")
        return 2
    finally:
        PROBE.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
