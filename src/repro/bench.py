"""Perf-trajectory benchmark harness (``repro bench``).

The fastpath engine (:mod:`repro.tdg.fastpath`) exists for throughput,
so throughput is a tracked artifact: each run produces a canonical
``BENCH_<date>.json`` recording per-stage nanoseconds for a smoke
workload, the object/fast speedup ratios, and full-sweep throughput in
engine-evaluations per second.  Checked-in BENCH files form the perf
trajectory of the repo; CI re-runs the smoke bench and fails when the
*ratios* regress more than a tolerance against the newest checked-in
baseline (ratios, not absolute nanoseconds — those are machine-bound,
the ratios are not).

Stage timings are measured with obs spans (:func:`repro.obs.span`)
under an isolated recorder, so a bench run never pollutes — and is
never polluted by — ambient observability state.  The minimum duration
across repetitions is reported, the standard estimator for the noise
floor of a hot loop.

Schema (``"schema": 1``)::

    commit       git revision the numbers belong to
    date         YYYY-MM-DD (override: $REPRO_BENCH_DATE)
    engine       {numpy, kernel, default} capability snapshot
                 (default is "fast" iff the kernel is available)
    workload     {name, core, scale, instructions, reps}
    stages_ns    {construct, lower, eval_object, eval_fast,
                  eval_fast_cold} minimum wall ns per stage
    per_inst_ns  {object, fast} single-evaluation ns per instruction
    speedup      {single_eval, cold_eval} object/fast ratios
    sweep        {names, scale, max_invocations, engine_runs,
                  evals_per_sec_object, evals_per_sec_fast}
    obs          {on_ns, off_ns, overhead_fraction} cost of full
                 observability (spans + flight recorder) on an
                 object-engine run, gated at OBS_OVERHEAD_CEILING

Everything except the timing numbers is deterministic on a given
machine; :func:`canonical_fields` strips the timing fields so tests
can assert exactly that.
"""

import contextlib
import importlib.util
import json
import os
import time

from repro.artifacts import (
    artifact_filename, commit as _commit, dumps_artifact,
    latest_artifact, write_artifact,
)
from repro.obs import isolated, span

#: Bump when the payload shape changes incompatibly.
SCHEMA_VERSION = 1

#: Smoke workload: small, exercises the full accel path, fast enough
#: for CI (the golden-regression suite uses the same benchmarks).
DEFAULT_WORKLOAD = "conv"
DEFAULT_CORE = "OOO2"
DEFAULT_SCALE = 0.1
DEFAULT_REPS = 5
DEFAULT_SWEEP_NAMES = ("conv",)

#: Acceptance floor: the lowered-stream hot path must beat the object
#: engine by at least this factor on the smoke workload.
SINGLE_EVAL_FLOOR = 5.0

#: Ceiling on the fractional cost of observability v2 (span recording
#: plus a flight-recorder event) around one object-engine run.  The
#: probe is deliberately the *object* engine: it runs for
#: milliseconds, so the gate measures instrumentation against real
#: work, not against a microsecond fastpath call where any fixed cost
#: looks enormous.
OBS_OVERHEAD_CEILING = 0.02

#: Why the bench refuses to run without the compiled kernel.
KERNEL_REQUIRED = (
    "the compiled timing kernel is unavailable (no C compiler on "
    "PATH, or $REPRO_NO_KERNEL is set); the bench times it against "
    "the object engine")

#: Stages reported in ``stages_ns``, in pipeline order.
STAGES = ("construct", "lower", "eval_object", "eval_fast",
          "eval_fast_cold")

_RATIO_KEYS = ("single_eval", "cold_eval")


def _bench_date():
    from repro.artifacts import artifact_date
    return artifact_date("REPRO_BENCH_DATE")


def _min_span_ns(recorder, name):
    """Minimum duration of all spans called *name*, in integer ns."""
    durs = [r["dur"] for r in recorder.export() if r["name"] == name]
    if not durs:
        raise RuntimeError(f"bench stage {name!r} recorded no spans")
    return int(min(durs) * 1000)       # recorder stores microseconds


def _measure_obs_overhead(engine, trace, reps):
    """Min-of-*reps* cost of an instrumented vs bare engine run.

    "On" wraps the run in a span and records one flight-recorder
    event — the per-task instrumentation the sweep adds; "off" is the
    bare run with span recording disabled.  Minimum over repetitions
    on both sides keeps scheduler noise out of the fraction (which
    can still come out slightly negative; the gate clamps at zero).
    """
    from repro.obs import (
        disable, enable, flight_event, is_enabled, isolated, span,
    )
    reps = max(1, int(reps))
    on_ns = off_ns = None
    with isolated():
        for _ in range(reps):
            started = time.perf_counter_ns()
            with span("bench.obs_probe"):
                engine.run(trace)
            flight_event("bench.obs_probe")
            elapsed = time.perf_counter_ns() - started
            on_ns = elapsed if on_ns is None else min(on_ns, elapsed)
    was_enabled = is_enabled()
    disable()
    try:
        for _ in range(reps):
            started = time.perf_counter_ns()
            engine.run(trace)
            elapsed = time.perf_counter_ns() - started
            off_ns = elapsed if off_ns is None \
                else min(off_ns, elapsed)
    finally:
        if was_enabled:
            enable()
    return {
        "on_ns": on_ns,
        "off_ns": off_ns,
        "overhead_fraction": (on_ns / off_ns - 1.0) if off_ns else 0.0,
    }


@contextlib.contextmanager
def _object_engine_forced():
    """Run the body with ``$REPRO_NO_KERNEL=1``, so every
    :func:`~repro.tdg.fastpath.make_engine` call returns the object
    engine; the variable and the memoized kernel are restored after."""
    from repro.tdg.fastpath import _reset_kernel

    saved = os.environ.get("REPRO_NO_KERNEL")
    os.environ["REPRO_NO_KERNEL"] = "1"
    _reset_kernel()
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_NO_KERNEL", None)
        else:
            os.environ["REPRO_NO_KERNEL"] = saved
        _reset_kernel()


def collect_bench(workload=DEFAULT_WORKLOAD, core=DEFAULT_CORE,
                  scale=DEFAULT_SCALE, reps=DEFAULT_REPS,
                  sweep_names=DEFAULT_SWEEP_NAMES,
                  sweep_scale=DEFAULT_SCALE, max_invocations=2):
    """Run the smoke bench and return the BENCH payload dict.

    Raises :class:`RuntimeError` (:data:`KERNEL_REQUIRED`) when the
    compiled kernel is unavailable.
    """
    from repro.core_model import core_by_name
    from repro.dse.sweep import run_sweep
    from repro.tdg.engine import TimingEngine
    from repro.tdg.fastpath import (
        FastTimingEngine, kernel_available, lower_stream,
    )
    from repro.workloads import WORKLOADS

    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}")
    if not kernel_available():
        raise RuntimeError(KERNEL_REQUIRED)
    reps = max(1, int(reps))
    config = core_by_name(core)

    with isolated() as (_registry, recorder):
        with span("bench.construct", workload=workload, scale=scale):
            tdg = WORKLOADS[workload].construct_tdg(scale=scale)
        trace = list(tdg.trace.instructions)

        lowered = None
        for _ in range(reps):
            with span("bench.lower"):
                lowered = lower_stream(trace)

        object_engine = TimingEngine(config)
        fast_engine = FastTimingEngine(config)
        result_object = result_fast = None
        for _ in range(reps):
            with span("bench.eval_object"):
                result_object = object_engine.run(trace)
        # The fast path is so cheap (tens of microseconds) that its
        # minimum needs many more samples to escape scheduler noise —
        # and 10x reps of it still costs less than one object run.
        for _ in range(reps * 10):
            with span("bench.eval_fast"):
                result_fast = fast_engine.run(lowered)
        for _ in range(reps):
            with span("bench.eval_fast_cold"):
                FastTimingEngine(config).run(trace)

        if result_object.cycles != result_fast.cycles:
            raise RuntimeError(
                f"engines disagree on {workload!r}: object="
                f"{result_object.cycles} fast={result_fast.cycles} "
                "(refusing to publish a bench for broken numbers)")

        stages_ns = {stage: _min_span_ns(recorder, f"bench.{stage}")
                     for stage in STAGES}

    instructions = len(trace)
    per_inst_ns = {
        "object": stages_ns["eval_object"] / max(1, instructions),
        "fast": stages_ns["eval_fast"] / max(1, instructions),
    }
    speedup = {
        "single_eval": stages_ns["eval_object"]
        / max(1, stages_ns["eval_fast"]),
        "cold_eval": stages_ns["eval_object"]
        / max(1, stages_ns["eval_fast_cold"]),
    }

    # Full-sweep throughput: cold run per engine, counting engine
    # invocations via the obs registry so "evals" means actual timing
    # runs (baselines + region estimates), not benchmarks.  The object
    # row forces the reference engine; the fast row is the default.
    sweep_info = {
        "names": sorted(sweep_names),
        "scale": sweep_scale,
        "max_invocations": max_invocations,
    }
    for label, forced in (("object", _object_engine_forced),
                          ("fast", contextlib.nullcontext)):
        with isolated() as (registry, _recorder), forced():
            started = time.perf_counter_ns()
            run_sweep(names=sorted(sweep_names), scale=sweep_scale,
                      max_invocations=max_invocations,
                      with_amdahl=False, use_cache=False)
            elapsed_ns = time.perf_counter_ns() - started
            runs = registry.total("repro_engine_runs_total")
        sweep_info["engine_runs"] = runs
        sweep_info[f"evals_per_sec_{label}"] = \
            runs / (elapsed_ns / 1e9) if elapsed_ns else 0.0

    obs_info = _measure_obs_overhead(object_engine, trace, reps)

    return {
        "schema": SCHEMA_VERSION,
        "commit": _commit(),
        "date": _bench_date(),
        "engine": {
            "numpy": importlib.util.find_spec("numpy") is not None,
            "kernel": kernel_available(),
            "default": "fast" if kernel_available() else "object",
        },
        "workload": {
            "name": workload,
            "core": core,
            "scale": scale,
            "instructions": instructions,
            "reps": reps,
        },
        "stages_ns": stages_ns,
        "per_inst_ns": per_inst_ns,
        "speedup": speedup,
        "sweep": sweep_info,
        "obs": obs_info,
    }


# ---------------------------------------------------------------------------
# Canonical serialization and the BENCH_<date>.json convention.

def dumps_bench(payload):
    """Canonical serialization (:func:`repro.artifacts.dumps_artifact`)."""
    return dumps_artifact(payload)


def canonical_fields(payload):
    """The machine-deterministic subset of a BENCH payload.

    Strips every wall-clock-derived number (stage timings, ratios,
    throughput); what remains must be identical across back-to-back
    runs on one machine — the property the harness tests assert.
    """
    out = {k: v for k, v in payload.items()
           if k not in ("stages_ns", "per_inst_ns", "speedup", "obs")}
    sweep = dict(payload.get("sweep", {}))
    for key in list(sweep):
        if key.startswith("evals_per_sec"):
            del sweep[key]
    out["sweep"] = sweep
    return out


def bench_filename(when=None):
    return artifact_filename("BENCH", when, env_var="REPRO_BENCH_DATE")


def write_bench(payload, directory="."):
    """Write the canonical BENCH_<date>.json; returns its path."""
    return write_artifact(payload, "BENCH", directory,
                          env_var="REPRO_BENCH_DATE")


def load_bench(path):
    with open(path) as handle:
        return json.load(handle)


def latest_bench(directory="."):
    """Newest checked-in BENCH_*.json by date-in-name, or ``None``."""
    return latest_artifact("BENCH", directory)


# ---------------------------------------------------------------------------
# Regression gate.

def _sweep_ratio(payload):
    sweep = payload.get("sweep", {})
    obj = sweep.get("evals_per_sec_object", 0.0)
    fast = sweep.get("evals_per_sec_fast", 0.0)
    return (fast / obj) if obj else None


def check_regression(current, baseline, tolerance=0.30):
    """Compare *current* against *baseline*; return failure strings.

    Only dimensionless ratios are gated (single-eval speedup,
    cold-eval speedup, sweep-throughput ratio): absolute nanoseconds
    depend on the machine, the ratios on the code.  A ratio may fall
    up to *tolerance* (fractional) below the baseline before it
    counts as a regression; the single-eval speedup additionally has
    the hard acceptance floor :data:`SINGLE_EVAL_FLOOR`.
    """
    failures = []
    if current.get("schema") != baseline.get("schema"):
        failures.append(
            f"schema mismatch: current={current.get('schema')} "
            f"baseline={baseline.get('schema')}")
        return failures

    single = current.get("speedup", {}).get("single_eval", 0.0)
    if single < SINGLE_EVAL_FLOOR:
        failures.append(
            f"single_eval speedup {single:.2f}x is below the "
            f"{SINGLE_EVAL_FLOOR:.0f}x acceptance floor")

    for key in _RATIO_KEYS:
        base = baseline.get("speedup", {}).get(key)
        cur = current.get("speedup", {}).get(key)
        if base is None or cur is None:
            continue
        if cur < base * (1.0 - tolerance):
            failures.append(
                f"{key} speedup regressed: {cur:.2f}x vs baseline "
                f"{base:.2f}x (tolerance {tolerance:.0%})")

    obs = current.get("obs")
    if obs is not None:
        overhead = max(0.0, obs.get("overhead_fraction", 0.0))
        if overhead > OBS_OVERHEAD_CEILING:
            failures.append(
                f"observability overhead {overhead:.1%} exceeds the "
                f"{OBS_OVERHEAD_CEILING:.0%} ceiling")

    base_ratio = _sweep_ratio(baseline)
    cur_ratio = _sweep_ratio(current)
    if base_ratio is not None and cur_ratio is not None \
            and cur_ratio < base_ratio * (1.0 - tolerance):
        failures.append(
            f"sweep throughput ratio regressed: {cur_ratio:.2f}x vs "
            f"baseline {base_ratio:.2f}x (tolerance {tolerance:.0%})")
    return failures


def format_bench(payload):
    """Human-readable one-screen summary (stderr of ``repro bench``)."""
    stages = payload["stages_ns"]
    lines = [
        f"workload {payload['workload']['name']} "
        f"({payload['workload']['instructions']} insts, "
        f"core {payload['workload']['core']}, "
        f"scale {payload['workload']['scale']}, "
        f"min of {payload['workload']['reps']} reps)",
        f"engine: numpy={payload['engine']['numpy']} "
        f"kernel={payload['engine']['kernel']} "
        f"default={payload['engine']['default']}",
    ]
    for stage in STAGES:
        lines.append(f"  {stage:<16} {stages[stage] / 1000:>12.1f} us")
    lines.append(
        f"  per-inst: object {payload['per_inst_ns']['object']:.1f} ns"
        f", fast {payload['per_inst_ns']['fast']:.1f} ns")
    lines.append(
        f"  speedup: single_eval "
        f"{payload['speedup']['single_eval']:.1f}x, cold_eval "
        f"{payload['speedup']['cold_eval']:.2f}x")
    sweep = payload["sweep"]
    lines.append(
        f"  sweep [{', '.join(sweep['names'])}] "
        f"{sweep['engine_runs']} engine runs: "
        f"{sweep['evals_per_sec_object']:.1f} evals/s object, "
        f"{sweep['evals_per_sec_fast']:.1f} evals/s fast")
    obs = payload.get("obs")
    if obs:
        lines.append(
            f"  obs overhead: {obs['overhead_fraction']:+.2%} "
            f"(ceiling {OBS_OVERHEAD_CEILING:.0%})")
    return "\n".join(lines)
