"""Command-line interface: ``python -m repro <command>``.

Commands
--------
list                      enumerate the workload suite (Table 3)
trace NAME                simulate one benchmark, print trace stats
run NAME                  evaluate one benchmark on ExoCores
classify NAME             behavior classes of its loops (Fig. 6)
sweep [NAMES...]          design-space exploration (Figs. 10-13)
explore [NAMES...]        surrogate-assisted search of the extended
                          design space (EXPLORE_*.json)
cache export              dump the sweep cache as JSONL training records
validate                  regenerate the Table 1 validation summary
serve                     long-lived HTTP evaluation service
                          (``--worker-of URL`` joins a fleet)
coordinate [NAMES...]     coordinate a sweep across worker nodes
                          (lease-based dispatch, heartbeat eviction)
obs report                run-history health report (trends + EWMA
                          regression flags from the runlog)
profile NAMES...          sampling stack profiler over evaluations;
                          flamegraph-folded output

Every command exits 0 on success and nonzero on failure; operational
errors (unknown benchmark, unreachable service, ...) print one
``repro <command>: error: ...`` line instead of a traceback.  Set
``REPRO_DEBUG=1`` to re-raise with the full traceback.
"""

import argparse
import os
import sys

ALL_BSAS = ("simd", "dp_cgra", "ns_df", "trace_p")


class CLIError(Exception):
    """Operational failure with a user-facing message (exit code 1)."""


def _workload(name):
    from repro.workloads import WORKLOADS
    try:
        return WORKLOADS[name]
    except KeyError:
        raise CLIError(f"unknown benchmark {name!r} "
                       "(run `repro list` for the suite)") from None


def _cmd_list(_args):
    from repro.workloads import WORKLOADS, SUITE_CATEGORY
    print(f"{'name':<14} {'suite':<12} {'category':<12} description")
    print("-" * 78)
    for name in sorted(WORKLOADS):
        w = WORKLOADS[name]
        print(f"{name:<14} {w.suite:<12} {w.category:<12} "
              f"{w.description}")
    print(f"\n{len(WORKLOADS)} benchmarks across "
          f"{len(SUITE_CATEGORY)} suites")
    return 0


def _cmd_trace(args):
    if args.out:
        return _cmd_trace_export(args)
    tdg = _workload(args.name).construct_tdg(scale=args.scale)
    trace = tdg.trace
    print(f"{args.name}: {len(trace)} dynamic instructions, "
          f"{len(tdg.program)} static")
    print(f"loops: {len(tdg.loop_tree)}  "
          f"(roots: {len(tdg.loop_tree.roots)})")
    print(f"memory accesses: {trace.memory_access_count()}")
    print(f"branch mispredicts: {trace.mispredict_count()}")
    counts = sorted(trace.count_opcodes().items(),
                    key=lambda kv: -kv[1])[:10]
    print("top opcodes:", ", ".join(
        f"{op.value}={n}" for op, n in counts))
    return 0


def _cmd_trace_export(args):
    """``repro trace NAME --out t.json``: Perfetto-loadable trace.

    Records the whole pipeline (build -> simulate -> TDG -> evaluate
    -> schedule) as spans, then appends the modeled switching timeline
    (paper Fig. 14) as a separate track whose time axis is baseline
    cycles, and writes one Chrome trace-event JSON file.
    """
    from repro.exocore import evaluate_benchmark, oracle_schedule
    from repro.obs import (
        enable, get_recorder, modeled_timeline_events, span_summary,
        write_chrome_trace,
    )

    bsas = tuple(args.bsas.split(",")) if args.bsas else ALL_BSAS
    unknown = [b for b in bsas if b not in ALL_BSAS]
    if unknown:
        raise CLIError(f"unknown BSAs {unknown!r} "
                       f"(known: {', '.join(ALL_BSAS)})")
    workload = _workload(args.name)
    enable(reset=True)
    tdg = workload.construct_tdg(scale=args.scale)
    evaluation = evaluate_benchmark(
        tdg, core_names=(args.core,), bsa_names=bsas, name=args.name)
    schedule = oracle_schedule(evaluation, args.core, bsas)
    modeled = modeled_timeline_events(
        evaluation, schedule, core_name=args.core,
        benchmark=args.name)
    write_chrome_trace(args.out, extra_events=modeled,
                       label=f"repro pipeline: {args.name}")
    recorder = get_recorder()
    print(f"[trace] {args.name}: {len(recorder)} pipeline spans + "
          f"{len(modeled)} modeled-timeline events -> {args.out}")
    for row in span_summary(recorder, top=5):
        print(f"[trace]   {row['span']:<28} x{row['count']:<4} "
              f"total {row['total_ms']:.1f} ms")
    print(f"[trace] open in https://ui.perfetto.dev "
          f"(or chrome://tracing)")
    return 0


def _cmd_run(args):
    from repro.core_model import core_by_name
    from repro.energy import exocore_area
    from repro.exocore import evaluate_benchmark, oracle_schedule

    bsas = tuple(args.bsas.split(",")) if args.bsas else ALL_BSAS
    unknown = [b for b in bsas if b not in ALL_BSAS]
    if unknown:
        raise CLIError(f"unknown BSAs {unknown!r} "
                       f"(known: {', '.join(ALL_BSAS)})")
    tdg = _workload(args.name).construct_tdg(scale=args.scale)
    evaluation = evaluate_benchmark(tdg, name=args.name)
    print(f"{'design':<16} {'cycles':>10} {'nJ':>10} {'speedup':>8} "
          f"{'energyX':>8} {'area':>6}")
    for core in ("IO2", "OOO2", "OOO4", "OOO6"):
        base = evaluation.baseline(core)
        schedule = oracle_schedule(evaluation, core, bsas)
        area = exocore_area(core_by_name(core), bsas)
        print(f"{core + '-Exo':<16} {schedule.cycles:>10} "
              f"{schedule.energy_pj / 1000:>10.1f} "
              f"{base.cycles / schedule.cycles:>8.2f} "
              f"{base.energy_pj / schedule.energy_pj:>8.2f} "
              f"{area:>6.2f}")
    schedule = oracle_schedule(evaluation, "OOO2", bsas)
    print("\nOOO2 assignment:")
    for key, unit in sorted(schedule.assignment.items()):
        print(f"  {key[0]}/{key[1]:<14} -> {unit}")
    return 0


def _cmd_classify(args):
    from repro.accel import AnalysisContext
    from repro.analysis import classify_loop
    tdg = _workload(args.name).construct_tdg(scale=args.scale)
    ctx = AnalysisContext(tdg)
    for loop in ctx.forest:
        if not loop.is_inner:
            continue
        behavior = classify_loop(ctx.dep_info(loop),
                                 ctx.path_profiles[loop.key],
                                 ctx.slice_info(loop))
        profile = ctx.path_profiles[loop.key]
        print(f"{loop.header:<14} {behavior.value:<34} "
              f"(iters={profile.iterations}, "
              f"hot={profile.hot_path_probability:.2f})")
    return 0


def _resolve_arbitration(max_error, fidelity_file, command):
    """``--max-error``/``--fidelity-file`` -> arbitration spec or None.

    Shared by ``repro sweep`` and ``repro explore``: both route exact
    evaluations through the same engine, so both accept the same
    bounded-error model-arbitration knobs.
    """
    if max_error is None:
        if fidelity_file:
            raise CLIError("--fidelity-file does nothing without "
                           "--max-error")
        return None
    from repro.fidelity import (
        ModelArbiter, latest_fidelity, load_fidelity,
    )
    fidelity_path = fidelity_file or latest_fidelity()
    if fidelity_path is None:
        raise CLIError(
            "--max-error needs measured error bounds: no "
            "FIDELITY_*.json found (run 'repro validate "
            "--fidelity' first, or pass --fidelity-file)")
    try:
        fidelity = load_fidelity(fidelity_path)
    except (OSError, ValueError) as exc:
        raise CLIError(f"cannot read fidelity file "
                       f"{fidelity_path}: {exc}") from None
    print(f"[{command}] model arbitration on: bounds from "
          f"{fidelity_path}, budget {max_error}", file=sys.stderr)
    return ModelArbiter.from_payload(fidelity, max_error).to_spec()


def _cmd_sweep(args):
    from repro.dse import run_sweep, fig10_table, fig12_table
    from repro.dse.report import (
        render_table, span_summary_table, sweep_failures_table,
        sweep_stats_summary, sweep_stats_table,
    )
    from repro.dse.plots import frontier_plot
    names = args.names or None
    obs_on = (args.obs or bool(args.obs_out)) and not args.no_obs
    if obs_on:
        from repro.obs import enable
        enable(reset=True)
    if args.fault_spec:
        from repro.resilience.faultinject import (
            ENV_VAR, FaultSpecError, parse_fault_spec, reset_plan,
        )
        try:
            parse_fault_spec(args.fault_spec)
        except FaultSpecError as exc:
            raise CLIError(f"--fault-spec: {exc}") from None
        # Through the environment so pool workers inherit the spec.
        os.environ[ENV_VAR] = args.fault_spec
        reset_plan()
    retry_policy = None
    if args.retries is not None:
        from repro.resilience import RetryPolicy
        retry_policy = RetryPolicy(max_attempts=max(1, args.retries + 1))
    if args.resume and args.no_cache:
        raise CLIError("--resume needs the cache (drop --no-cache)")
    arbitration = _resolve_arbitration(args.max_error,
                                       args.fidelity_file, "sweep")
    sweep = run_sweep(names=names, scale=args.scale,
                      with_amdahl=False,
                      workers=args.workers,
                      cache_dir=args.cache_dir,
                      use_cache=not args.no_cache,
                      retry_policy=retry_policy,
                      task_timeout=args.task_timeout,
                      max_pool_restarts=args.max_pool_restarts,
                      resume=args.resume,
                      arbitration=arbitration,
                      progress=lambda n: print("  ...", n,
                                               file=sys.stderr))
    if arbitration is not None:
        from repro.dse.report import arbitration_table
        print("[sweep] model arbitration decisions:", file=sys.stderr)
        print(render_table(arbitration_table(sweep)), file=sys.stderr)
    summary = sweep_stats_summary(sweep)
    extras = ""
    if summary["resumed"]:
        extras += f", resumed={summary['resumed']}"
    if summary["failures"]:
        extras += f", failures={summary['failures']}"
    print(f"[sweep] {summary['benchmarks']} benchmarks in "
          f"{summary['total_seconds']:.1f}s "
          f"(workers={summary['workers']}, "
          f"cache hits={summary['cache_hits']}, "
          f"misses={summary['cache_misses']}{extras}, "
          f"dir={summary['cache_dir']})", file=sys.stderr)
    if summary["failures"]:
        print("[sweep] failed benchmarks (artifact covers the "
              "survivors):", file=sys.stderr)
        print(render_table(sweep_failures_table(sweep)),
              file=sys.stderr)
    if args.timings:
        print(render_table(sweep_stats_table(sweep)), file=sys.stderr)
        if obs_on:
            print("[sweep] slowest spans:", file=sys.stderr)
            print(render_table(span_summary_table(top=10)),
                  file=sys.stderr)
    if args.obs_out:
        from repro.obs import write_chrome_trace
        write_chrome_trace(args.obs_out, label="repro sweep")
        print(f"[sweep] trace written to {args.obs_out}",
              file=sys.stderr)
    print("== Fig 10: tradeoffs ==")
    print(render_table(fig10_table(sweep)))
    rows = fig12_table(sweep)
    print("\n== Fig 12: 64 design points ==")
    print(render_table(rows, columns=("design", "speedup",
                                      "energy_eff", "area")))
    from repro.dse.report import frontier_table
    print("\n== Pareto frontier (speedup x energy efficiency) ==")
    print(render_table(frontier_table(rows),
                       columns=("frontier_rank", "design", "speedup",
                                "energy_eff", "area")))
    print("\n== energy-performance space ==")
    print(frontier_plot(rows))
    if args.dump_recorder:
        from repro.obs import dump_blackbox
        path = dump_blackbox("dump-recorder")
        if path is not None:
            print(f"[sweep] flight recorder dumped to {path}",
                  file=sys.stderr)
    return 0


def _cmd_explore(args):
    from repro.explore import (
        dumps_explore, run_explore, write_explore,
    )
    from repro.explore.artifact import format_explore
    from repro.explore.space import DesignSpace

    benchmarks = tuple(args.names) if args.names else ("conv",)
    if args.paper:
        space = DesignSpace.paper(
            max_invocations=(args.max_invocations,))
    else:
        space = DesignSpace()
    arbitration = _resolve_arbitration(args.max_error,
                                       args.fidelity_file, "explore")

    train_records = None
    if args.train_from:
        import json
        try:
            with open(args.train_from) as handle:
                train_records = [json.loads(line)
                                 for line in handle if line.strip()]
        except (OSError, ValueError) as exc:
            raise CLIError(f"cannot read training records "
                           f"{args.train_from}: {exc}") from None
        print(f"[explore] warm-starting the surrogate from "
              f"{len(train_records)} cache records", file=sys.stderr)

    optional = {}
    if args.explore_fraction is not None:
        optional["explore_fraction"] = args.explore_fraction
    if args.candidate_pool is not None:
        optional["candidate_pool"] = args.candidate_pool
    payload = run_explore(
        space=space, benchmarks=benchmarks, budget=args.budget,
        seed=args.seed, batch_size=args.batch_size, init=args.init,
        scale=args.scale, workers=args.workers,
        cache_dir=args.cache_dir,
        use_cache=None if not args.no_cache else False,
        arbitration=arbitration, train_records=train_records,
        progress=lambda spent, budget: print(
            f"  ... {spent}/{budget} exact evaluations",
            file=sys.stderr),
        **optional)
    print(format_explore(payload), file=sys.stderr)
    if args.no_write:
        print(dumps_explore(payload), end="")
    else:
        path = write_explore(payload, args.out_dir)
        print(f"[explore] wrote {path}", file=sys.stderr)
    return 0


def _cmd_cache(args):
    from repro.dse.cache import (
        SweepCache, default_cache_dir, export_records,
    )
    import json

    root = args.cache_dir if args.cache_dir else default_cache_dir()
    cache = SweepCache(root)
    if args.cache_command != "export":
        raise CLIError(f"unknown cache command {args.cache_command!r}")
    handle = sys.stdout
    if args.out:
        handle = open(args.out, "w")
    rows = 0
    with_meta = 0
    try:
        for row in export_records(cache):
            rows += 1
            if row["benchmark"] is not None:
                with_meta += 1
            handle.write(json.dumps(row, sort_keys=True,
                                    separators=(",", ":")) + "\n")
    finally:
        if handle is not sys.stdout:
            handle.close()
    destination = args.out if args.out else "stdout"
    print(f"[cache] exported {rows} training records "
          f"({with_meta} with evaluation meta) from {root} "
          f"-> {destination}", file=sys.stderr)
    return 0


def _cmd_serve(args):
    from repro.service import ServiceConfig, serve
    if args.node_name and not args.worker_of:
        raise CLIError("--node-name does nothing without --worker-of")
    config = ServiceConfig(
        host=args.host, port=args.port, workers=args.workers,
        pool_mode=args.pool, max_pending=args.queue_depth,
        max_jobs=args.max_jobs, cache_dir=args.cache_dir,
        use_cache=not args.no_cache, drain_timeout=args.drain_timeout,
        task_timeout=args.task_timeout,
        max_pool_restarts=args.max_pool_restarts,
        worker_of=args.worker_of, node_name=args.node_name)
    return serve(config)


def _cmd_coordinate(args):
    """``repro coordinate``: drive a sweep over a worker fleet."""
    from repro.cluster import (
        CoordinatorConfig, announce_stderr, run_coordinated,
    )
    from repro.dse import fig10_table
    from repro.dse.report import (
        render_table, sweep_failures_table, sweep_stats_summary,
    )

    if args.fault_spec:
        from repro.resilience.faultinject import (
            ENV_VAR, FaultSpecError, parse_fault_spec, reset_plan,
        )
        try:
            parse_fault_spec(args.fault_spec)
        except FaultSpecError as exc:
            raise CLIError(f"--fault-spec: {exc}") from None
        os.environ[ENV_VAR] = args.fault_spec
        reset_plan()
    arbitration = _resolve_arbitration(args.max_error,
                                       args.fidelity_file, "coordinate")
    config = CoordinatorConfig(
        host=args.host, port=args.port,
        names=args.names or None, scale=args.scale,
        with_amdahl=False, arbitration=arbitration,
        cache_dir=args.cache_dir,
        lease_ttl=args.lease_ttl, heartbeat_ttl=args.heartbeat_ttl,
        hedge_after=args.hedge_after, timeout=args.timeout)
    try:
        sweep = run_coordinated(config, announce=announce_stderr)
    except TimeoutError as exc:
        raise CLIError(str(exc)) from None
    except OSError as exc:
        raise CLIError(f"cannot bind {args.host}:{args.port}: "
                       f"{exc}") from None
    summary = sweep_stats_summary(sweep)
    print(f"[coordinate] {summary['benchmarks']} benchmarks resolved "
          f"in {summary['total_seconds']:.1f}s "
          f"(nodes={summary['workers']}, "
          f"cache hits={summary['cache_hits']}, "
          f"computed={summary['cache_misses']}, "
          f"failures={summary['failures']}, "
          f"dir={summary['cache_dir']})", file=sys.stderr)
    if summary["failures"]:
        print("[coordinate] failed benchmarks (artifact covers the "
              "survivors):", file=sys.stderr)
        print(render_table(sweep_failures_table(sweep)),
              file=sys.stderr)
    print("== Fig 10: tradeoffs ==")
    print(render_table(fig10_table(sweep)))
    return 1 if summary["failures"] else 0


def _cmd_obs(args):
    """``repro obs report``: run-history health report."""
    if args.obs_command != "report":
        raise CLIError(f"unknown obs command {args.obs_command!r}")
    from repro.dse.cache import default_cache_dir
    from repro.obs import build_report, format_report

    root = args.cache_dir if args.cache_dir else default_cache_dir()
    report = build_report(root, window=args.window, gate=args.gate)
    print(format_report(report))
    return 1 if (report["regressions"] and args.strict) else 0


def _cmd_profile(args):
    """``repro profile``: sample evaluation stacks, emit folded text."""
    from repro.dse.parallel import make_task, run_tasks
    from repro.dse.sweep import ALL_SUBSETS, DSE_CORES
    from repro.obs import StackProfiler, merge_folded, top_stacks

    names = tuple(args.names) if args.names else ("conv",)
    for name in names:
        _workload(name)
    tasks = [make_task(name, DSE_CORES, ALL_SUBSETS, scale=args.scale)
             for name in names]
    parts = []

    def on_result(name, payload, seconds, obs_payload=None):
        folded = (obs_payload or {}).get("profile")
        if folded:
            parts.append(folded)
        print(f"[profile] {name}: {seconds:.2f}s, "
              f"{sum((folded or {}).values())} samples",
              file=sys.stderr)

    # The dispatcher thread is sampled too: with workers the heavy
    # frames live in the pool, but inline runs (workers=1) do the
    # evaluation right here and the task-side profiler covers it.
    with StackProfiler(interval=args.interval) as dispatcher:
        run_tasks(tasks, workers=args.workers, on_result=on_result,
                  profile={"interval": args.interval})
    merged = merge_folded(parts + [dispatcher.folded()])
    total = sum(merged.values())
    if not total:
        print("[profile] no samples collected (work finished under "
              "one sampling interval; try a larger --scale)",
              file=sys.stderr)
    lines = [f"{stack} {count}" for stack, count
             in sorted(merged.items(),
                       key=lambda item: (-item[1], item[0]))]
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"[profile] {total} samples -> {args.out} "
              f"(flamegraph.pl / speedscope ready)", file=sys.stderr)
    else:
        print(text, end="")
    if total:
        print(f"[profile] hottest frames:", file=sys.stderr)
        for leaf, count in top_stacks(merged, n=args.top):
            print(f"[profile]   {count:>6}  {leaf}", file=sys.stderr)
    return 0


def _cmd_validate(args):
    if args.fidelity:
        return _cmd_validate_fidelity(args)
    from repro.validation import table1
    rows = table1(scale=args.scale if args.scale is not None else 0.3)
    print(f"{'Accel.':>8} {'Base':>5} {'P Err.':>7} {'E Err.':>7}")
    for row in rows:
        print(f"{row['accel']:>8} {row['base']:>5} "
              f"{row['perf_err'] * 100:>6.1f}% "
              f"{row['energy_err'] * 100:>6.1f}%")
    return 0


def _cmd_validate_fidelity(args):
    """The fidelity sweep: FIDELITY_<date>.json + regression gate."""
    from repro.fidelity import (
        DEFAULT_BENCHES, DEFAULT_BSAS, DEFAULT_CORES, ModelArbiter,
        check_fidelity, dumps_fidelity, format_fidelity,
        latest_fidelity, load_fidelity, run_fidelity_sweep,
        write_fidelity,
    )
    from repro.dse.report import arbitration_table, render_table
    from repro.fidelity import DEFAULT_SCALE

    benches = tuple(args.benches.split(",")) if args.benches \
        else DEFAULT_BENCHES
    cores = tuple(args.cores.split(",")) if args.cores \
        else DEFAULT_CORES
    bsas = tuple(args.bsas.split(",")) if args.bsas else DEFAULT_BSAS
    scale = args.scale if args.scale is not None else DEFAULT_SCALE
    try:
        payload = run_fidelity_sweep(
            benchmarks=benches, cores=cores, bsas=bsas,
            scale=scale, workers=args.workers,
            progress=lambda n: print("  ...", n, file=sys.stderr))
    except KeyError as exc:
        raise CLIError(str(exc)) from None
    print(format_fidelity(payload), file=sys.stderr)

    baseline = None
    baseline_path = args.baseline
    if baseline_path == "auto":
        found = latest_fidelity(args.out_dir)
        baseline_path = str(found) if found is not None else None
        if baseline_path is None:
            print("[validate] no FIDELITY_*.json baseline found; "
                  "gating against the absolute ceilings only",
                  file=sys.stderr)
    if baseline_path:
        try:
            baseline = load_fidelity(baseline_path)
        except (OSError, ValueError) as exc:
            raise CLIError(
                f"cannot read baseline {baseline_path}: {exc}"
            ) from None
    failures = check_fidelity(payload, baseline,
                              tolerance=args.tolerance)
    for failure in failures:
        print(f"[validate] FIDELITY FAILURE: {failure}",
              file=sys.stderr)
    if not failures:
        against = f" vs {baseline_path}" if baseline_path \
            else " (absolute ceilings)"
        print(f"[validate] fidelity gate passed{against}",
              file=sys.stderr)

    if args.max_error is not None:
        arbiter = ModelArbiter.from_payload(payload, args.max_error)
        print(f"[validate] arbitration under --max-error "
              f"{args.max_error}:", file=sys.stderr)
        print(render_table(arbitration_table(arbiter.to_spec(),
                                             bsas=bsas)),
              file=sys.stderr)

    if args.no_write:
        print(dumps_fidelity(payload), end="")
    else:
        path = write_fidelity(payload, args.out_dir)
        print(f"[validate] wrote {path}", file=sys.stderr)
    return 1 if failures else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TDG modeling and ExoCore exploration "
                    "(ASPLOS 2016 reproduction)")
    from repro import __version__
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads")

    p = sub.add_parser("trace", help="trace statistics / trace export")
    p.add_argument("name")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--out", default=None,
                   help="write a Chrome trace-event JSON file "
                        "(pipeline spans + modeled timeline) instead "
                        "of printing statistics")
    p.add_argument("--core", default="OOO2",
                   help="core config for the modeled timeline "
                        "(with --out; default OOO2)")
    p.add_argument("--bsas", default=None,
                   help="comma-separated BSA subset for the modeled "
                        "timeline (with --out; default: all four)")

    p = sub.add_parser("run", help="evaluate one benchmark")
    p.add_argument("name")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--bsas", default=None,
                   help="comma-separated subset (default: all four)")

    p = sub.add_parser("classify", help="behavior taxonomy")
    p.add_argument("name")
    p.add_argument("--scale", type=float, default=0.5)

    p = sub.add_parser("sweep", help="design-space exploration")
    p.add_argument("names", nargs="*")
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--workers", type=int, default=1,
                   help="benchmark-evaluation process pool width "
                        "(results are identical for any value)")
    p.add_argument("--no-cache", action="store_true",
                   help="force a cold run: neither read nor write "
                        "the on-disk evaluation cache")
    p.add_argument("--cache-dir", default=None,
                   help="cache directory (default: $REPRO_CACHE_DIR "
                        "or ~/.cache/repro-dse)")
    p.add_argument("--resume", action="store_true",
                   help="resume an interrupted run of this exact "
                        "sweep from its checkpoint manifest "
                        "(skips finished benchmarks, retries "
                        "failures; needs the cache)")
    p.add_argument("--task-timeout", type=float, default=None,
                   help="per-benchmark wall-clock budget in seconds; "
                        "a benchmark over budget is reported as a "
                        "failure, the rest keep running (needs "
                        "--workers > 1)")
    p.add_argument("--retries", type=int, default=None,
                   help="retries per benchmark after a transient or "
                        "pool failure (default 2)")
    p.add_argument("--max-pool-restarts", type=int, default=2,
                   help="worker-pool deaths tolerated before "
                        "degrading to inline execution")
    p.add_argument("--fault-spec", default=None,
                   help="deterministic fault injection, e.g. "
                        "'crash:task=NAME,flaky:task=NAME' "
                        "(chaos testing; see docs/resilience.md)")
    p.add_argument("--timings", action="store_true",
                   help="print the per-benchmark timing table")
    p.add_argument("--obs", action="store_true",
                   help="record pipeline spans (workers ship theirs "
                        "back; results are unchanged)")
    p.add_argument("--no-obs", action="store_true",
                   help="force span recording off")
    p.add_argument("--obs-out", default=None,
                   help="write the recorded spans as Chrome "
                        "trace-event JSON (implies --obs)")
    p.add_argument("--dump-recorder", action="store_true",
                   help="dump the flight-recorder ring to "
                        "<cache>/blackbox/<trace_id>.json after the "
                        "run (always happens on crash/timeout)")
    p.add_argument("--max-error", type=float, default=None,
                   help="bounded-error model arbitration: evaluate "
                        "each BSA with the cheapest model whose "
                        "measured fidelity error stays under this "
                        "budget (bounds from --fidelity-file)")
    p.add_argument("--fidelity-file", default=None,
                   help="FIDELITY_<date>.json with measured error "
                        "bounds (default: newest checked-in one)")

    p = sub.add_parser("explore",
                       help="surrogate-assisted design-space search")
    p.add_argument("names", nargs="*",
                   help="benchmarks to geomean over (default: conv)")
    p.add_argument("--budget", type=int, default=64,
                   help="exact-evaluation budget (default 64)")
    p.add_argument("--seed", type=int, default=0,
                   help="exploration seed; same seed + budget -> "
                        "byte-identical EXPLORE payload")
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--paper", action="store_true",
                   help="restrict to the 64-point Fig. 12 space "
                        "(4 cores x 16 subsets, nominal frequency "
                        "and sizing) instead of the full "
                        "million-point space")
    p.add_argument("--max-invocations", type=int, default=8,
                   help="invocation window for --paper (default 8)")
    p.add_argument("--batch-size", type=int, default=None,
                   help="exact evaluations per acquisition round "
                        "(default: budget // 5)")
    p.add_argument("--init", type=int, default=None,
                   help="seed-sample size before the first surrogate "
                        "fit (default: 3 * budget // 8)")
    p.add_argument("--explore-fraction", type=float, default=None,
                   help="fraction of each batch spent on the most "
                        "uncertain candidates rather than the "
                        "predicted frontier (default 0.5)")
    p.add_argument("--candidate-pool", type=int, default=None,
                   help="surrogate-ranked candidates per round "
                        "(default 2048)")
    p.add_argument("--train-from", default=None,
                   help="JSONL records from 'repro cache export' to "
                        "warm-start the surrogate")
    p.add_argument("--workers", type=int, default=1,
                   help="sweep-engine pool width (payload is "
                        "byte-identical for any value)")
    p.add_argument("--no-cache", action="store_true",
                   help="force cold exact evaluations")
    p.add_argument("--cache-dir", default=None,
                   help="cache directory (default: $REPRO_CACHE_DIR "
                        "or ~/.cache/repro-dse)")
    p.add_argument("--max-error", type=float, default=None,
                   help="bounded-error model arbitration for the "
                        "exact evaluations (see 'repro sweep')")
    p.add_argument("--fidelity-file", default=None,
                   help="FIDELITY_<date>.json with measured error "
                        "bounds (default: newest checked-in one)")
    p.add_argument("--out-dir", default=".",
                   help="directory for EXPLORE_<date>.json (default .)")
    p.add_argument("--no-write", action="store_true",
                   help="print the payload to stdout instead of "
                        "writing EXPLORE_<date>.json")

    p = sub.add_parser("cache", help="sweep-cache maintenance")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    p = cache_sub.add_parser(
        "export",
        help="dump the cache as JSONL surrogate-training records")
    p.add_argument("--cache-dir", default=None,
                   help="cache directory (default: $REPRO_CACHE_DIR "
                        "or ~/.cache/repro-dse)")
    p.add_argument("--out", default=None,
                   help="output file (default: stdout)")

    p = sub.add_parser("validate",
                       help="Table 1 validation / fidelity sweep")
    p.add_argument("--scale", type=float, default=None,
                   help="workload scale (default 0.3, or 0.2 with "
                        "--fidelity)")
    p.add_argument("--fidelity", action="store_true",
                   help="run the systematic fidelity sweep and emit "
                        "the canonical FIDELITY_<date>.json instead "
                        "of the Table 1 summary")
    p.add_argument("--benches", default=None,
                   help="comma-separated benchmarks for --fidelity "
                        "(default: the checked-in slice)")
    p.add_argument("--cores", default=None,
                   help="comma-separated cores for the engine-vs-"
                        "cycle tier (default IO2,OOO2,OOO4)")
    p.add_argument("--bsas", default=None,
                   help="comma-separated BSAs for the fast-vs-"
                        "detailed tier (default: all four)")
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool width for --fidelity (payload "
                        "is byte-identical for any value)")
    p.add_argument("--out-dir", default=".",
                   help="directory for FIDELITY_<date>.json "
                        "(default .)")
    p.add_argument("--no-write", action="store_true",
                   help="print the payload to stdout instead of "
                        "writing FIDELITY_<date>.json")
    p.add_argument("--baseline", default=None,
                   help="FIDELITY file to gate against ('auto' picks "
                        "the newest FIDELITY_*.json in --out-dir); "
                        "any regression exits 1")
    p.add_argument("--tolerance", type=float, default=0.25,
                   help="fractional error growth tolerated vs the "
                        "baseline (default 0.25)")
    p.add_argument("--max-error", type=float, default=None,
                   help="also print the model-arbitration decisions "
                        "this error budget would produce")

    p = sub.add_parser("obs", help="observability maintenance")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    p = obs_sub.add_parser(
        "report",
        help="run-history health report: sweep/serve trends, "
             "artifact trajectories, EWMA regression flags")
    p.add_argument("--cache-dir", default=None,
                   help="cache directory holding runlog.jsonl "
                        "(default: $REPRO_CACHE_DIR or "
                        "~/.cache/repro-dse)")
    p.add_argument("--window", type=int, default=20,
                   help="runs per table (newest last; default 20)")
    p.add_argument("--gate", type=float, default=0.25,
                   help="fractional EWMA drift that flags a "
                        "regression (default 0.25)")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when any regression is flagged")

    p = sub.add_parser("profile",
                       help="sampling stack profiler over benchmark "
                            "evaluations (collapsed-stack output)")
    p.add_argument("names", nargs="*",
                   help="benchmarks to evaluate (default: conv)")
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--interval", type=float, default=0.005,
                   help="sampling period in seconds (default 0.005)")
    p.add_argument("--workers", type=int, default=1,
                   help="evaluation pool width; worker-side folded "
                        "stacks are merged into the output")
    p.add_argument("--out", default=None,
                   help="write collapsed stacks to this file "
                        "(default: stdout)")
    p.add_argument("--top", type=int, default=10,
                   help="hottest leaf frames to summarize "
                        "(default 10)")

    p = sub.add_parser("serve", help="HTTP evaluation service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765,
                   help="listen port (0 picks a free one)")
    p.add_argument("--workers", type=int, default=2,
                   help="warm evaluation workers")
    p.add_argument("--pool", choices=("process", "thread"),
                   default="process",
                   help="worker pool kind (thread: debugging)")
    p.add_argument("--queue-depth", type=int, default=8,
                   help="max in-flight evaluations before 429")
    p.add_argument("--max-jobs", type=int, default=4,
                   help="max concurrently active sweep jobs")
    p.add_argument("--no-cache", action="store_true",
                   help="serve without the on-disk evaluation cache")
    p.add_argument("--cache-dir", default=None,
                   help="cache directory (default: $REPRO_CACHE_DIR "
                        "or ~/.cache/repro-dse)")
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   help="seconds to wait for in-flight work on "
                        "shutdown")
    p.add_argument("--task-timeout", type=float, default=None,
                   help="per-evaluation wall-clock budget in "
                        "seconds; over budget kills the worker and "
                        "answers 504")
    p.add_argument("--max-pool-restarts", type=int, default=2,
                   help="worker-pool deaths tolerated before "
                        "degrading to a single-worker pool")
    p.add_argument("--worker-of", default=None, metavar="URL",
                   help="join the coordinator at URL as a fleet "
                        "worker: pull shard leases, evaluate them "
                        "locally, push verified results (the service "
                        "keeps answering its own HTTP traffic too)")
    p.add_argument("--node-name", default=None,
                   help="advertised node name when joining a fleet "
                        "(default: host:pid)")

    p = sub.add_parser("coordinate",
                       help="coordinate a sweep across worker nodes")
    p.add_argument("names", nargs="*",
                   help="benchmarks to sweep (default: all)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8900,
                   help="listen port (0 picks a free one)")
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--cache-dir", default=None,
                   help="shared store directory (default: "
                        "$REPRO_CACHE_DIR or ~/.cache/repro-dse)")
    p.add_argument("--lease-ttl", type=float, default=30.0,
                   help="seconds before an unanswered shard lease "
                        "expires and re-dispatches (default 30)")
    p.add_argument("--heartbeat-ttl", type=float, default=5.0,
                   help="seconds of heartbeat silence before a node "
                        "is evicted and its leases released "
                        "(default 5)")
    p.add_argument("--hedge-after", type=float, default=10.0,
                   help="seconds a shard must have been running "
                        "before an idle node duplicates it "
                        "(straggler hedging; default 10)")
    p.add_argument("--timeout", type=float, default=None,
                   help="overall wall-clock budget; unresolved "
                        "shards past it abort the run (default: "
                        "wait forever)")
    p.add_argument("--fault-spec", default=None,
                   help="deterministic fault injection in the "
                        "coordinator process (see docs/cluster.md)")
    p.add_argument("--max-error", type=float, default=None,
                   help="bounded-error model arbitration (see "
                        "'repro sweep')")
    p.add_argument("--fidelity-file", default=None,
                   help="FIDELITY_<date>.json with measured error "
                        "bounds (default: newest checked-in one)")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "list": _cmd_list,
        "trace": _cmd_trace,
        "run": _cmd_run,
        "classify": _cmd_classify,
        "sweep": _cmd_sweep,
        "explore": _cmd_explore,
        "cache": _cmd_cache,
        "validate": _cmd_validate,
        "serve": _cmd_serve,
        "coordinate": _cmd_coordinate,
        "obs": _cmd_obs,
        "profile": _cmd_profile,
    }[args.command]
    # Every CLI entry point is a distributed-trace root: spans this
    # command records (and requests it issues via ServiceClient)
    # carry one correlating trace id end to end.
    from repro.obs import trace_context
    try:
        with trace_context():
            return handler(args)
    except KeyboardInterrupt:
        print(f"repro {args.command}: interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        return 1
    except Exception as exc:
        if os.environ.get("REPRO_DEBUG"):
            raise
        message = str(exc) or type(exc).__name__
        if not isinstance(exc, CLIError):
            message = f"{type(exc).__name__}: {message}"
        print(f"repro {args.command}: error: {message}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
