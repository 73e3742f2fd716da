"""Load generator for service-mixed, run by the worker in its own
interpreter::

    python -m perfbench.loadgen --url URL --seed N \\
        (--seconds S [--min-requests N] | --hits N --pairs P)

SERVICE_CLIENTS threads send the seed's hot keys closed loop (each
sends its next request when its last one has answered).  One cold
sender starts a fresh key every SERVICE_COLD_INTERVAL_S as a pair of
concurrent requests, or as soon as the previous pair has answered if
that took longer.  Every response goes through ``ServiceClient`` and is
checked against the reference.  It runs outside the service's
interpreter, as real clients do, so client work does not compete with
the service for the interpreter lock.

With ``--seconds`` both streams stop once that time has passed (the hit
clients only after ``--min-requests`` requests in all); with ``--hits``
and ``--pairs`` they send exactly that many.  It prints one JSON line:
the perf_counter time it started at, the wall time, the time the hit clients took, the samples of a
``SpeedProbe`` run alongside (see ``perfbench/probe.py``), and one
sample per request, ``[latency_s, source, server_seconds, ok,
design_points, perf_counter at completion]``.
"""

import argparse
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from perfbench import check, spec
from perfbench.probe import SpeedProbe


class Expected:
    """Reference records by ``(benchmark, max_invocations)``."""

    def __init__(self):
        reference = check.load_reference("service")
        self.records = {key: reference["records"][digest]
                        for key, digest in reference["keys"].items()}

    def check(self, name, max_invocations, response):
        """``(ok, design points)``; exact equality is the fast path and
        the tolerance comparison decides when a record is not equal."""
        if response.get("benchmark") != name or response.get("source") \
                not in ("cache", "coalesced", "computed"):
            return False, 0
        record = response.get("record")
        expected = self.records.get(f"{name}|{max_invocations}")
        if expected is None or not isinstance(record, dict):
            return False, 0
        if record != expected:
            diffs = check.mismatches(record, expected)
            if diffs:
                log(f"{name} max_invocations={max_invocations} differs "
                    f"from reference: {diffs}")
                return False, 0
        return True, len(record.get("oracle", ()))


def log(message):
    sys.stderr.write(f"[perfbench] {message}\n")
    sys.stderr.flush()


def run(url, seed, hits_done, pairs_done):
    """Send hits until *hits_done(sent, elapsed)* and fresh pairs until
    *pairs_done(sent, elapsed)*; returns ``(samples, perf_counter at the
    start, wall seconds, hit clients' wall seconds)``."""
    from repro.service.client import ServiceClient, ServiceError

    expected = Expected()
    hits = spec.service_hits(seed)
    fresh = iter(spec.service_fresh(seed))
    lock = threading.Lock()
    samples = []
    hits_sent = [0]
    hit_wall = [0.0]
    started = time.perf_counter()

    def request(client, name, max_invocations):
        began = time.perf_counter()
        try:
            response = client.evaluate(
                name, scale=spec.SERVICE_SCALE,
                max_invocations=max_invocations)
        except ServiceError as exc:
            log(f"request {name}/{max_invocations} failed: {exc}")
            ended = time.perf_counter()
            samples.append([ended - began, "failed", 0.0, False, 0, ended])
            return
        latency = time.perf_counter() - began
        ok, points = expected.check(name, max_invocations, response)
        samples.append([latency, response.get("source"),
                        float(response.get("seconds", 0.0)), ok, points,
                        began + latency])

    def hit_loop():
        # No retries: a refused request (429/503) counts as failed.
        client = ServiceClient(url, timeout=60.0, retries=0)
        while True:
            with lock:
                elapsed = time.perf_counter() - started
                if hits_done(hits_sent[0], elapsed) \
                        or elapsed >= spec.HARD_LIMIT_S:
                    hit_wall[0] = max(hit_wall[0], elapsed)
                    return
                hits_sent[0] += 1
                name, max_invocations = next(hits)
            request(client, name, max_invocations)

    def cold_loop():
        clients = [ServiceClient(url, timeout=60.0, retries=0)
                   for _ in range(2)]
        with ThreadPoolExecutor(2, "perfbench-cold") as pool:
            for sent, (name, max_invocations) in enumerate(fresh):
                due = started + sent * spec.SERVICE_COLD_INTERVAL_S
                time.sleep(max(0.0, due - time.perf_counter()))
                elapsed = time.perf_counter() - started
                if pairs_done(sent, elapsed) \
                        or elapsed >= spec.HARD_LIMIT_S:
                    return
                pair = [pool.submit(request, client, name, max_invocations)
                        for client in clients]
                for future in pair:
                    future.result()

    threads = [threading.Thread(target=hit_loop,
                                name=f"perfbench-client-{index}")
               for index in range(spec.SERVICE_CLIENTS)]
    threads.append(threading.Thread(target=cold_loop,
                                    name="perfbench-cold-sender"))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(spec.HARD_LIMIT_S + 60.0)
        if thread.is_alive():
            raise RuntimeError("client thread did not finish")
    return samples, started, time.perf_counter() - started, hit_wall[0]


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m perfbench.loadgen")
    parser.add_argument("--url", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--min-requests", type=int, default=0)
    parser.add_argument("--hits", type=int)
    parser.add_argument("--pairs", type=int)
    args = parser.parse_args(argv)
    if args.seconds is not None:
        def hits_done(sent, elapsed):
            return elapsed >= args.seconds and sent >= args.min_requests

        def pairs_done(sent, elapsed):
            return elapsed >= args.seconds
    else:
        def hits_done(sent, elapsed):
            return sent >= args.hits

        def pairs_done(sent, elapsed):
            return sent >= args.pairs
    probe = SpeedProbe().start()
    samples, started, wall, hit_wall = run(args.url, args.seed, hits_done,
                                           pairs_done)
    probe.stop()
    sys.stdout.write(json.dumps({"started": started, "wall": wall,
                                 "hit_wall": hit_wall,
                                 "probe": probe.samples,
                                 "samples": samples}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
