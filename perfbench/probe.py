"""Host-speed probe: scales measured times to a reference host speed.

On a small shared VM the speed of a vCPU drifts with what the host's
other tenants run: a fixed pure-Python loop can take twice as long a
minute later, with process CPU time equal to wall time.  That drift is
larger than any change the benchmark is meant to catch, and it happens
on a time scale of seconds to minutes, so longer runs do not average it
out.

A ``SpeedProbe`` is a daemon thread in a measuring process.  Every
PERIOD_S it runs ``probe_loop`` and records the loop's thread CPU time.
It runs pinned to the vCPU the measured work runs on, interleaved with
that work in time, so the loop slows down when the work does.
``factor()`` is the mean of REFERENCE_CHUNK_S / loop time over the
samples in a window: a time measured in that window times the factor
is the time the same work takes on a host where the loop takes
REFERENCE_CHUNK_S.  (The mean of the ratios rather than the ratio to
the median loop time, because the host's speed changes within seconds
and the work done in an interval is the integral of the speed over it.)
The loop is not ``repro`` code, so a change to the program cannot move
it.

The loop mixes integer arithmetic with allocating, hashing and sorting
small objects, because the two halves alone track the program's
slowdown with slopes of about 1.2 and 0.9 (log-log, 62 sweeps on a
2-vCPU VM whose sweep time varied with a CV of 0.2); together the slope
is 1.0 and a sweep's CPU time divided by the probe's varies by 6%.

The probe costs about a tenth of one CPU; ``Stopwatch`` subtracts its
CPU time from the times it scales.
"""

import statistics
import threading
import time

#: Seconds ``probe_loop`` takes on the reference host (the median on a
#: 2 GHz Xeon vCPU).  Scaled times are in seconds of that host.
REFERENCE_CHUNK_S = 0.0023

#: Seconds between the end of one probe loop and the start of the next.
PERIOD_S = 0.025


class _Item:
    __slots__ = ("key", "weight")

    def __init__(self, key, weight):
        self.key = key
        self.weight = weight


def probe_loop():
    """A fixed slice of interpreter work: arithmetic, then allocating,
    hashing and sorting small objects."""
    total = 0
    for i in range(10000):
        total += i * i % 7
    items = [_Item(i, i * 2) for i in range(2000)]
    buckets = {}
    for item in items:
        buckets[item.key % 97] = buckets.get(item.key % 97, 0) + item.weight
    items.sort(key=lambda item: -item.weight)
    return total + len(buckets)


class SpeedProbe:
    """Samples this process's vCPU speed every PERIOD_S seconds."""

    def __init__(self):
        #: ``(perf_counter at the end of the loop, loop CPU seconds)``.
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._main,
                                        name="perfbench-probe", daemon=True)
        self._clock = None

    def _main(self):
        while True:
            began = time.thread_time()
            probe_loop()
            self.samples.append((time.perf_counter(),
                                 time.thread_time() - began))
            if self._stop.wait(PERIOD_S):
                return

    def start(self):
        self._thread.start()
        self._clock = time.pthread_getcpuclockid(self._thread.ident)
        return self

    def stop(self):
        self._stop.set()
        self._thread.join()

    def cpu_s(self):
        """CPU seconds the probe thread has used so far."""
        if not self._thread.is_alive():
            return sum(cpu for _t, cpu in self.samples)
        return time.clock_gettime(self._clock)

    def factor(self, since=None, until=None):
        return factor(list(self.samples), since, until)


def factor(samples, since=None, until=None):
    """Mean of REFERENCE_CHUNK_S / loop time over the *samples* taken in
    ``[since, until]`` (perf_counter times, which every process on the
    host shares).  A window too short to hold a sample falls back to
    every sample."""
    chunks = [cpu for at, cpu in samples
              if (since is None or at >= since)
              and (until is None or at <= until)] \
        or [cpu for _at, cpu in samples]
    if not chunks:
        raise RuntimeError("the speed probe has no samples")
    return statistics.fmean(REFERENCE_CHUNK_S / cpu for cpu in chunks)


class Stopwatch:
    """Times one interval in process CPU and wall time, minus the
    probe's own CPU time, and scales it by the probe's factor for the
    interval."""

    def __init__(self, probe):
        self.probe = probe

    def __enter__(self):
        self.wall0 = time.perf_counter()
        self.cpu0 = time.process_time()
        self.probe0 = self.probe.cpu_s()
        return self

    def __exit__(self, *exc):
        self.wall1 = time.perf_counter()
        probe_cpu = self.probe.cpu_s() - self.probe0
        self.wall_s = self.wall1 - self.wall0
        self.cpu_s = time.process_time() - self.cpu0 - probe_cpu
        self.factor = self.probe.factor(self.wall0, self.wall1)
        return False

    @property
    def scaled_cpu_s(self):
        """Process CPU seconds of the interval (probe excluded) at the
        reference host's speed."""
        return self.cpu_s * self.factor
