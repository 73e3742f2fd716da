"""Process-pool fan-out for the design-space sweep.

Benchmarks are embarrassingly parallel — each one builds its own TDG
and never shares state with the others — so the sweep shards them
across worker processes.  Workers
return plain JSON-able record payloads (the same form the on-disk
cache stores), which the parent merges deterministically regardless of
completion order.

Observability crosses the same boundary: when a task carries
``"obs": True``, the worker runs it under an isolated span recorder
and metrics registry (:func:`repro.obs.isolated`) and ships the
JSON snapshots back alongside the record, so the parent can merge
worker metrics (commutative sums — shard order cannot perturb them)
and splice worker spans onto its own trace timeline.

Fault tolerance is delegated to :mod:`repro.resilience`: tasks are
driven by a :class:`~repro.resilience.runner.ResilientRunner` (bounded
retries, per-task wall-clock timeouts, ``BrokenProcessPool`` respawn,
inline degradation) over its pool supervisor, and the worker entry
point consults the deterministic fault-injection harness so chaos
tests can crash, hang or flake a specific task attempt.
"""

import time


def make_task(name, core_names, subsets, scale=1.0, max_invocations=8,
              with_amdahl=True, arbitration=None):
    """Canonical picklable task payload for one benchmark evaluation.

    This is the codec shared by every consumer of the worker boundary:
    the sweep's process pool, the on-disk cache's key material, and the
    evaluation service's warm workers.  Keeping construction in one
    place guarantees a task built by any of them hashes and evaluates
    identically.  (The optional ``obs``, ``attempt`` and ``pooled``
    keys are injected by :func:`run_tasks` / the resilient runner,
    never by callers — they shape what the worker reports and which
    injected faults fire, not what it computes.)

    The timing engine is not a task field: each worker's stream
    builders pick it (:meth:`repro.tdg.fastpath.StreamBuilder.finish`
    lowers for the kernel when it loads), and both engines produce
    byte-identical records.

    ``max_invocations`` is one window depth (the historical codec,
    which the service and the fleet send) or a tuple of depths (the
    sweep's), which the worker costs from one evaluation
    (:func:`~repro.dse.sweep.evaluate_one_benchmark`) and answers with
    ``{depth: record_payload}``.

    ``arbitration`` is a :meth:`~repro.fidelity.arbiter.ModelArbiter.
    to_spec` dict (or ``None``).  It changes results, so it travels in
    the task AND in the cache key — but the key is only present when
    arbitration is on, keeping the disabled codec byte-for-byte
    identical to the historical one.
    """
    task = {
        "name": name,
        "core_names": tuple(core_names),
        "subsets": tuple(tuple(s) for s in subsets),
        "scale": float(scale),
        "max_invocations": tuple(map(int, max_invocations))
        if isinstance(max_invocations, tuple) else int(max_invocations),
        "with_amdahl": bool(with_amdahl),
    }
    if arbitration is not None:
        if hasattr(arbitration, "to_spec"):
            arbitration = arbitration.to_spec()
        task["arbitration"] = arbitration
    return task


def evaluate_task(task):
    """Worker entry point: evaluate one benchmark.

    *task* is a plain dict (picklable across the pool boundary) with
    keys ``name``, ``core_names``, ``subsets``, ``scale``,
    ``max_invocations`` and ``with_amdahl``.  Returns
    ``(name, record_payload, seconds, obs_payload)`` where
    *record_payload* is the JSON form of a
    :class:`~repro.dse.sweep.BenchmarkResult` (``{depth: payload}``
    for a tuple of depths) and *obs_payload* is
    ``None``, or ``{"spans": [...], "metrics": {...}, "trace": {...}}``
    when the task carried ``"obs": True`` (``trace`` echoes the
    dispatcher's ``{"id", "parent"}`` context so the parent can graft
    the worker's spans under the dispatching span).  A ``"profile"``
    task key additionally attaches a sampling profiler for the task's
    duration and ships its folded stacks as ``obs_payload["profile"]``.
    """
    # Imported lazily: workers under the ``spawn`` start method import
    # this module before the rest of the package is loaded.
    from repro.dse.sweep import evaluate_one_benchmark, record_to_json
    from repro.resilience.faultinject import apply_task_faults

    # Deterministic chaos hook: crash/hang/flake this exact attempt
    # when $REPRO_FAULT_SPEC says so; a no-op otherwise.
    apply_task_faults(task["name"], attempt=task.get("attempt", 0),
                      pooled=task.get("pooled", False))

    def evaluate():
        return evaluate_one_benchmark(
            task["name"],
            core_names=tuple(task["core_names"]),
            subsets=tuple(tuple(s) for s in task["subsets"]),
            scale=task["scale"],
            max_invocations=task["max_invocations"],
            with_amdahl=task["with_amdahl"],
            arbitration=task.get("arbitration"),
        )

    profiler = None
    if task.get("profile"):
        from repro.obs.profiler import StackProfiler

        profiler = StackProfiler(
            interval=task["profile"].get("interval", 0.005))
        profiler.start()

    started = time.perf_counter()
    obs_payload = None
    try:
        if task.get("obs"):
            from repro.obs import isolated, span, trace_context

            trace = task.get("trace") or {}
            with isolated() as (registry, recorder):
                # Re-bind the dispatcher's trace id in this process and
                # root the worker's spans under one task span; absorb()
                # in the parent grafts that root onto the dispatching
                # span, completing the cross-process parent link.
                with trace_context(trace.get("id")):
                    with span("dse.worker.task", cat="worker",
                              benchmark=task["name"],
                              attempt=task.get("attempt", 0)):
                        record = evaluate()
                obs_payload = {"spans": recorder.export(),
                               "metrics": registry.snapshot(),
                               "trace": trace}
        else:
            record = evaluate()
    finally:
        elapsed = time.perf_counter() - started
        if profiler is not None:
            profiler.stop()
    if profiler is not None:
        obs_payload = dict(obs_payload or {})
        obs_payload["profile"] = profiler.folded()
    if isinstance(task["max_invocations"], tuple):
        payload = {depth: record_to_json(each)
                   for depth, each in record.items()}
    else:
        payload = record_to_json(record)
    return task["name"], payload, elapsed, obs_payload


def evaluate_payload(task):
    """Worker entry point returning ``(payload, seconds)`` only.

    The evaluation service's pool wants the record payload without the
    redundant name echo; kept module-level so it pickles across a
    ``ProcessPoolExecutor`` boundary.
    """
    _name, payload, elapsed, _obs = evaluate_task(task)
    return payload, elapsed


def run_tasks(tasks, workers=1, on_result=None, obs=False,
              policy=None, timeout=None, max_pool_restarts=2,
              on_failure=None, profile=None):
    """Evaluate *tasks*, fanning out across *workers* processes.

    ``workers <= 1`` runs inline (no subprocesses, easier debugging).
    *on_result* is called as ``on_result(name, payload, seconds,
    obs_payload)`` as each benchmark completes — in submission order
    when serial, in completion order when parallel — which is what
    lets the sweep persist finished benchmarks immediately
    (incremental resume).

    With *obs*, pool tasks are flagged to record spans/metrics in the
    worker and ship them back (*obs_payload*); inline tasks record
    straight into the caller's enabled recorder/registry instead, so
    ``obs_payload`` is ``None`` for them.

    Failure handling (see :mod:`repro.resilience`): transient errors
    retry under *policy* (default :class:`RetryPolicy`), tasks that
    exceed *timeout* seconds are cancelled by killing their worker, a
    dead pool is respawned up to *max_pool_restarts* times before
    degrading to inline execution.  Terminal failures are delivered as
    ``on_failure(TaskFailure)``; when *on_failure* is ``None`` the
    first terminal failure re-raises (the historical fail-fast
    contract).

    Returns ``{name: payload}`` for the tasks that succeeded; ordering
    is NOT significant — callers must merge deterministically (the
    sweep sorts by name).
    """
    from repro.resilience.runner import ResilientRunner

    tasks = list(tasks)
    results = {}

    def deliver(result):
        name, payload, elapsed, obs_payload = result
        results[name] = payload
        if on_result is not None:
            on_result(name, payload, elapsed, obs_payload)

    if profile:
        spec = profile if isinstance(profile, dict) else {}
        tasks = [dict(task, profile=spec) for task in tasks]
    workers = min(workers, len(tasks))
    if obs and workers > 1:
        from repro.obs import current_span_id, current_trace_id, \
            new_trace_id

        # One trace id for the whole fan-out; each worker roots its
        # spans under the parent's current span via absorb().
        trace = {"id": current_trace_id() or new_trace_id(),
                 "parent": current_span_id()}
        tasks = [dict(task, obs=True, trace=trace) for task in tasks]
    runner = ResilientRunner(
        evaluate_task, workers=workers, policy=policy, timeout=timeout,
        max_pool_restarts=max_pool_restarts)
    runner.run(tasks, on_result=deliver, on_failure=on_failure)
    return results
