#!/usr/bin/env python
"""Chaos smoke: fault-injected sweep must recover cleanly (CI).

Runs the same two-worker sweep three times — clean, with a worker
crash plus a transient error injected, and again from the cache the
injected run filled — and asserts the recovery invariants the
resilience layer promises:

1. the fault-injected run produces the byte-identical artifact of the
   clean run (retries converge, failures stay out of the bytes);
2. the fault-tolerance counters are nonzero — the faults really fired
   and were really absorbed (``repro_retries_total``,
   ``repro_pool_restarts_total``);
3. a rerun recomputes nothing that was already cached: every
   benchmark is a cache hit and the bytes equal the clean run's.

Exits nonzero with a message on any violation.

Usage: python scripts/chaos_smoke.py [--names conv,fft,mm] [--scale 0.1]
"""

import argparse
import os
import shutil
import sys
import tempfile


def fail(message):
    print(f"[chaos] FAIL: {message}", file=sys.stderr)
    return 1


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--names", default="conv,fft,mm")
    parser.add_argument("--scale", type=float, default=0.1)
    args = parser.parse_args(argv)
    names = [n for n in args.names.split(",") if n]

    from repro.dse import dumps_sweep, run_sweep
    from repro.obs import get_registry
    from repro.resilience import RetryPolicy
    from repro.resilience.faultinject import ENV_VAR, reset_plan

    kw = dict(scale=args.scale, max_invocations=2, with_amdahl=False)
    policy = RetryPolicy(base_backoff=0.05, max_backoff=0.2)

    print(f"[chaos] clean reference sweep: {names}")
    clean = dumps_sweep(run_sweep(names=names, workers=2, **kw))

    spec = f"crash:task={names[0]},flaky:task={names[1]}"
    print(f"[chaos] fault-injected sweep: {spec}")
    os.environ[ENV_VAR] = spec
    reset_plan()
    workdir = tempfile.mkdtemp(prefix="chaos-smoke-")
    try:
        chaotic = run_sweep(names=names, workers=2, cache_dir=workdir,
                            retry_policy=policy, **kw)
        if chaotic.stats.failures:
            return fail(f"injected faults were not absorbed: "
                        f"{chaotic.stats.failures}")
        if dumps_sweep(chaotic) != clean:
            return fail("fault-injected artifact differs from the "
                        "clean run")
        registry = get_registry()
        counters = {
            name: registry.total(name)
            for name in ("repro_retries_total",
                         "repro_pool_restarts_total")
        }
        print(f"[chaos] recovered byte-identical; counters={counters}")
        # (The injected-fault counters themselves die with the
        # sacrificial workers; the parent-side retry/restart counters
        # are the proof the faults fired and were absorbed.)
        zero = [name for name, value in counters.items() if value < 1]
        if zero:
            return fail(f"expected nonzero counters: {zero}")

        os.environ.pop(ENV_VAR, None)
        reset_plan()
        print("[chaos] rerun from the populated cache")
        rerun = run_sweep(names=names, workers=2, cache_dir=workdir,
                          **kw)
        if rerun.stats.hits != len(names) or rerun.stats.misses:
            return fail(f"rerun recomputed work: "
                        f"hits={rerun.stats.hits} "
                        f"misses={rerun.stats.misses}")
        if dumps_sweep(rerun) != clean:
            return fail("rerun artifact differs from the clean run")
        print(f"[chaos] rerun ok: {rerun.stats.hits} cached, "
              f"0 recomputed")
    finally:
        os.environ.pop(ENV_VAR, None)
        reset_plan()
        shutil.rmtree(workdir, ignore_errors=True)
    print("[chaos] OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
