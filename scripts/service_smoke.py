#!/usr/bin/env python
"""Smoke-drive a running `repro serve` instance (used by CI).

Issues an evaluate request, repeats it to prove the second hit is
served from cache/coalescing without recomputation, submits a sweep
job and waits for it, then checks the metrics counters add up — in
both the JSON snapshot and the Prometheus text exposition
(``/v1/metrics?format=prom``), which is validated syntactically — and
that ``GET /v1/dash`` serves the self-contained HTML dashboard.
Exits nonzero with a message on any violation.  The server lifecycle
(start, SIGTERM, exit-code check) belongs to the caller.

With ``--expect-timeout NAME`` (the caller started the server with
``--task-timeout`` under a ``REPRO_FAULT_SPEC`` that hangs that
benchmark's worker) the script asserts NAME answers 504, that the
next request computes on the respawned pool, and that
``/v1/healthz`` counts the restart.

With ``--expect-crash NAME`` (the caller started the server under a
``REPRO_FAULT_SPEC`` that crashes that benchmark's worker) the script
additionally drives the crash path *last* — repeated crashes degrade
the pool — asserting the evaluation fails AND that the service's
flight recorder left a blackbox dump under ``--blackbox-dir``
mentioning the failing task.

Usage: python scripts/service_smoke.py --url http://127.0.0.1:8901
"""

import argparse
import json
import pathlib
import sys
import urllib.request


def fail(message):
    print(f"[smoke] FAIL: {message}", file=sys.stderr)
    return 1


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--url", required=True)
    parser.add_argument("--benchmark", default="conv")
    parser.add_argument("--sweep", default="conv,fft")
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--expect-crash", default=None,
                        help="benchmark whose worker the server's "
                             "fault spec crashes; evaluated last, "
                             "must fail and leave a blackbox dump")
    parser.add_argument("--expect-timeout", default=None,
                        help="benchmark whose worker the server's "
                             "fault spec hangs past --task-timeout; "
                             "must answer 504, then the pool must "
                             "serve the next request")
    parser.add_argument("--blackbox-dir", default=None,
                        help="server-side flight-recorder dump "
                             "directory (with --expect-crash)")
    args = parser.parse_args(argv)

    from repro.service import ServiceClient
    client = ServiceClient(args.url, timeout=300, retries=8,
                           backoff=0.25)
    kw = dict(scale=args.scale, max_invocations=2, with_amdahl=False)

    health = client.healthz()
    if health["status"] != "ok":
        return fail(f"unhealthy: {health}")
    print(f"[smoke] healthz ok (uptime {health['uptime_seconds']}s)")

    cold = client.evaluate(args.benchmark, **kw)
    print(f"[smoke] cold evaluate: source={cold['source']} "
          f"({cold['seconds']:.2f}s)")

    warm = client.evaluate(args.benchmark, **kw)
    print(f"[smoke] warm evaluate: source={warm['source']} "
          f"({warm['seconds']:.2f}s)")
    if warm["source"] not in ("cache", "coalesced"):
        return fail(f"warm request recomputed (source="
                    f"{warm['source']!r}); cache is not serving")
    if warm["record"] != cold["record"]:
        return fail("warm record differs from cold record")

    names = [n for n in args.sweep.split(",") if n]
    job_id = client.sweep(names, **kw)
    print(f"[smoke] sweep job {job_id} submitted for {names}")
    job = client.wait_job(job_id, poll_interval=0.25, timeout=600)
    progress = job["progress"]
    if progress["done"] != len(names):
        return fail(f"sweep incomplete: {progress}")
    sources = job["result"]["sources"]
    if sources["cache"] < 1:
        return fail(f"sweep should have reused the warm benchmark "
                    f"from cache: {sources}")
    job_trace = job.get("trace_id", "")
    if len(job_trace) != 16:
        return fail(f"job record lost its originating trace id: "
                    f"{job_trace!r}")
    print(f"[smoke] sweep done: {sources} (trace id {job_trace})")

    metrics = client.metrics()
    if metrics["computations_total"] < 1:
        return fail("no computations recorded")
    if metrics["cache"]["hits"] < 1:
        return fail(f"no cache hits recorded: {metrics['cache']}")
    print(f"[smoke] metrics: computations="
          f"{metrics['computations_total']} "
          f"cache={metrics['cache']} "
          f"rejected={metrics['rejected_total']}")

    from repro.obs import validate_prom_text
    request = urllib.request.Request(
        f"{args.url}/v1/metrics?format=prom")
    with urllib.request.urlopen(request, timeout=60) as response:
        content_type = response.headers.get("Content-Type", "")
        trace_id = response.headers.get("X-Trace-Id", "")
        prom_text = response.read().decode("utf-8")
    if not content_type.startswith("text/plain"):
        return fail(f"prom endpoint content type: {content_type!r}")
    if len(trace_id) != 16:
        return fail(f"bad X-Trace-Id header: {trace_id!r}")
    try:
        samples = validate_prom_text(prom_text)
    except ValueError as exc:
        return fail(f"invalid Prometheus exposition: {exc}")
    if "# TYPE service_computations_total counter" not in prom_text:
        return fail("service counters missing from prom exposition")
    print(f"[smoke] prom exposition ok ({samples} samples, "
          f"trace id {trace_id})")

    request = urllib.request.Request(f"{args.url}/v1/dash")
    with urllib.request.urlopen(request, timeout=60) as response:
        content_type = response.headers.get("Content-Type", "")
        dash_html = response.read().decode("utf-8")
    if not content_type.startswith("text/html"):
        return fail(f"dash content type: {content_type!r}")
    for marker in ("<!DOCTYPE html>", "/v1/metrics", "/v1/healthz",
                   "repro service"):
        if marker not in dash_html:
            return fail(f"dashboard HTML is missing {marker!r}")
    print(f"[smoke] dashboard ok ({len(dash_html)} bytes, "
          "self-contained)")

    if args.expect_timeout:
        from repro.service import ServiceError
        try:
            result = client.evaluate(args.expect_timeout, **kw)
        except ServiceError as exc:
            if exc.status != 504:
                return fail(f"hung {args.expect_timeout} answered "
                            f"HTTP {exc.status}, expected 504")
            print(f"[smoke] hung benchmark timed out as expected: "
                  f"{exc}")
        else:
            return fail(f"evaluation of {args.expect_timeout} should "
                        f"have timed out, got source="
                        f"{result['source']!r}")
        # A knob no earlier request used: a fresh key, so this one
        # must run on the respawned pool.
        after = client.evaluate(args.benchmark, scale=args.scale,
                                max_invocations=1, with_amdahl=False)
        if after["source"] != "computed":
            return fail(f"request after the timeout was not computed "
                        f"(source={after['source']!r})")
        restarts = client.healthz()["pool"]["restarts"]
        if restarts < 1:
            return fail(f"healthz pool.restarts={restarts} after a "
                        f"killed timeout")
        print(f"[smoke] pool respawned after the timeout "
              f"(restarts={restarts}); next request computed")

    if args.expect_crash:
        # Last on purpose: every try crashes the worker, and enough
        # crashes degrade the pool for everything that follows.
        from repro.service import ServiceError
        try:
            result = client.evaluate(args.expect_crash, **kw)
        except ServiceError as exc:
            print(f"[smoke] crash benchmark failed as expected: "
                  f"{exc}")
        else:
            return fail(f"evaluation of {args.expect_crash} should "
                        f"have crashed, got source="
                        f"{result['source']!r}")
        if args.blackbox_dir:
            dumps = sorted(
                pathlib.Path(args.blackbox_dir).glob("*.json"))
            if not dumps:
                return fail(f"no blackbox dump in "
                            f"{args.blackbox_dir} after the crash")
            mentioned = False
            for path in dumps:
                payload = json.loads(path.read_text())
                if any(event.get("fields", {}).get("task")
                       == args.expect_crash
                       for event in payload.get("events", [])):
                    mentioned = True
                    break
            if not mentioned:
                return fail(f"no blackbox dump mentions the crashed "
                            f"task {args.expect_crash!r}")
            print(f"[smoke] blackbox dump ok ({len(dumps)} dump(s), "
                  f"crashed task recorded)")

    print("[smoke] OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
