"""Chaos tests for the fault-tolerant execution layer.

Deterministic fault injection (``$REPRO_FAULT_SPEC``) drives worker
crashes, hangs, transient errors and torn cache writes through the
real sweep engine, asserting the invariants ``docs/resilience.md``
promises:

- a crashed or flaky worker retries and the final artifact is
  byte-identical to a clean run;
- a hung benchmark is killed at its wall-clock budget and reported in
  ``SweepStats.failures`` without aborting its siblings;
- ``resume=True`` after a mid-run SIGKILL recomputes nothing that was
  already cached (checkpoint-verified, reported as ``resumed``);
- corrupt cache entries are quarantined, not destroyed, and the
  benchmark recomputes.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.dse import dumps_sweep, run_sweep
from repro.dse.cache import SweepCache
from repro.obs import get_registry
from repro.resilience import (
    EvaluationTimeout, ResilientRunner, RetryPolicy, SweepCheckpoint,
    TransientError, parse_fault_spec, sweep_signature,
)
from repro.resilience.faultinject import (
    ENV_VAR, FaultSpecError, reset_plan,
)

#: Three fast benchmarks (one per workload category).
NAMES = ("conv", "fft", "mm")

#: Tiny evaluation knobs shared by every sweep in this module.
KW = dict(scale=0.05, max_invocations=2, with_amdahl=False)

#: Fast backoff so injected retries don't slow the suite down.
FAST_POLICY = RetryPolicy(base_backoff=0.01, max_backoff=0.05)


@pytest.fixture(scope="module")
def clean_bytes():
    """Canonical artifact of a clean serial run (the reference)."""
    return dumps_sweep(run_sweep(names=NAMES, workers=1, **KW))


@pytest.fixture
def fault_spec(monkeypatch):
    """Set ``$REPRO_FAULT_SPEC`` and reload the plan (reset after)."""

    def activate(text):
        monkeypatch.setenv(ENV_VAR, text)
        reset_plan()

    yield activate
    monkeypatch.delenv(ENV_VAR, raising=False)
    reset_plan()


def counter_total(name):
    return get_registry().total(name)


# ---------------------------------------------------------------------------
# Unit layer: policy, spec parsing, inline runner.


class TestRetryPolicy:
    def test_delay_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_backoff=0.25, max_backoff=8.0)
        first = policy.delay("conv", 1)
        assert first == policy.delay("conv", 1)
        assert first != policy.delay("conv", 2)
        assert first != policy.delay("fft", 1)
        for attempt in range(1, 12):
            delay = policy.delay("conv", attempt)
            assert 0.0 < delay <= 8.0

    def test_classification(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(TransientError("x"), 1)
        assert not policy.should_retry(TransientError("x"), 3)
        assert not policy.should_retry(ValueError("x"), 1)
        # Pool deaths always retry within budget; timeouts never do by
        # default (a hang will hang again).
        assert policy.should_retry(RuntimeError("x"), 1, kind="pool")
        assert not policy.should_retry(
            EvaluationTimeout("x"), 1, kind="timeout")
        assert RetryPolicy(retry_timeouts=True).should_retry(
            EvaluationTimeout("x"), 1, kind="timeout")


class TestFaultSpec:
    def test_parses_all_kinds(self):
        faults = parse_fault_spec(
            "crash:task=conv,hang:task=fft:seconds=2,"
            "flaky:task=mm:attempt=*,torn:store=3")
        kinds = [fault.kind for fault in faults]
        assert kinds == ["crash", "hang", "flaky", "torn"]
        assert faults[1].seconds == 2.0
        assert faults[2].attempt is None
        assert faults[3].store == 3

    @pytest.mark.parametrize("text", [
        "explode:task=conv",          # unknown kind
        "crash",                      # missing task
        "torn:task=conv",             # torn needs store=
        "crash:task=conv:attempt=x",  # bad number
        "crash:task=conv:bogus=1",    # unknown field
    ])
    def test_rejects_malformed_specs(self, text):
        with pytest.raises(FaultSpecError):
            parse_fault_spec(text)


class TestInlineRunner:
    def test_transient_error_retries_then_succeeds(self):
        attempts = []

        def worker(task):
            attempts.append(task["attempt"])
            if task["attempt"] < 2:
                raise TransientError("flaky")
            return task["name"]

        results = []
        failures = ResilientRunner(
            worker, workers=1, policy=FAST_POLICY,
            sleep=lambda s: None).run(
            [{"name": "a"}], on_result=results.append)
        assert results == ["a"]
        assert failures == []
        assert attempts == [0, 1, 2]

    def test_retry_reruns_before_the_next_task(self):
        calls = []

        def worker(task):
            calls.append((task["name"], task["attempt"]))
            if task["name"] == "a" and task["attempt"] == 0:
                raise TransientError("flaky")
            return task["name"]

        results = []
        ResilientRunner(worker, workers=1, policy=FAST_POLICY,
                        sleep=lambda s: None).run(
            [{"name": "a"}, {"name": "b"}], on_result=results.append)
        assert calls == [("a", 0), ("a", 1), ("b", 0)]
        assert results == ["a", "b"]

    def test_fatal_error_is_not_retried(self):
        calls = []

        def worker(task):
            calls.append(task["name"])
            raise ValueError("broken input")

        failures = ResilientRunner(
            worker, workers=1, policy=FAST_POLICY,
            sleep=lambda s: None).run(
            [{"name": "a"}], on_failure=lambda f: None)
        assert calls == ["a"]
        assert len(failures) == 1
        assert failures[0].error == "ValueError"

    def test_exhausted_retries_contained_and_siblings_run(self):
        def worker(task):
            if task["name"] == "bad":
                raise TransientError("always")
            return task["name"]

        results, reported = [], []
        failures = ResilientRunner(
            worker, workers=1, policy=FAST_POLICY,
            sleep=lambda s: None).run(
            [{"name": "bad"}, {"name": "good"}],
            on_result=results.append, on_failure=reported.append)
        assert results == ["good"]
        assert [f.name for f in failures] == ["bad"]
        assert reported == failures
        assert failures[0].attempts == FAST_POLICY.max_attempts

    def test_fail_fast_without_on_failure(self):
        def worker(task):
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            ResilientRunner(worker, workers=1, policy=FAST_POLICY,
                            sleep=lambda s: None).run([{"name": "a"}])


# ---------------------------------------------------------------------------
# Chaos layer: faults through the real sweep engine.


class TestChaosSweep:
    def test_crash_mid_sweep_retries_to_identical_bytes(
            self, fault_spec, clean_bytes):
        """Acceptance: a worker crash (pool death) is absorbed and the
        artifact is byte-identical to a clean run."""
        restarts0 = counter_total("repro_pool_restarts_total")
        retries0 = counter_total("repro_retries_total")
        fault_spec("crash:task=conv")
        sweep = run_sweep(names=NAMES, workers=2,
                          retry_policy=FAST_POLICY, **KW)
        assert dumps_sweep(sweep) == clean_bytes
        assert sweep.stats.failures == []
        assert counter_total("repro_pool_restarts_total") > restarts0
        assert counter_total("repro_retries_total") > retries0

    def test_flaky_task_retries_inline_to_identical_bytes(
            self, fault_spec, clean_bytes):
        retries0 = counter_total("repro_retries_total")
        faults0 = counter_total("repro_faults_injected_total")
        fault_spec("flaky:task=fft")
        sweep = run_sweep(names=NAMES, workers=1,
                          retry_policy=FAST_POLICY, **KW)
        assert dumps_sweep(sweep) == clean_bytes
        assert sweep.stats.failures == []
        assert counter_total("repro_retries_total") == retries0 + 1
        assert counter_total("repro_faults_injected_total") \
            == faults0 + 1

    def test_timeout_reported_not_fatal(self, fault_spec):
        """A hung benchmark is killed at its budget; siblings finish
        and the artifact deterministically covers the survivors."""
        timeouts0 = counter_total("repro_task_timeouts_total")
        fault_spec("hang:task=conv:attempt=*:seconds=60")
        sweep = run_sweep(names=NAMES, workers=2, task_timeout=3.0,
                          retry_policy=FAST_POLICY, **KW)
        assert [f["name"] for f in sweep.stats.failures] == ["conv"]
        failure = sweep.stats.failures[0]
        assert failure["kind"] == "timeout"
        assert failure["error"] == "EvaluationTimeout"
        survivors = [r.name for r in sweep.benchmarks()]
        assert survivors == ["fft", "mm"]
        assert counter_total("repro_task_timeouts_total") > timeouts0
        # Byte-stable over the surviving subset.
        partial = run_sweep(names=("fft", "mm"), workers=1, **KW)
        assert dumps_sweep(sweep) == dumps_sweep(partial)

    def test_permanent_failure_contained(self, fault_spec):
        """A benchmark that fails every attempt exhausts its retry
        budget and lands in ``stats.failures``; the sweep survives."""
        fault_spec("flaky:task=mm:attempt=*")
        sweep = run_sweep(names=NAMES, workers=1,
                          retry_policy=FAST_POLICY, **KW)
        assert [f["name"] for f in sweep.stats.failures] == ["mm"]
        assert sweep.stats.failures[0]["error"] == "TransientError"
        assert sweep.stats.failures[0]["attempts"] \
            == FAST_POLICY.max_attempts
        assert [r.name for r in sweep.benchmarks()] == ["conv", "fft"]


# ---------------------------------------------------------------------------
# Checkpointed resume.


class TestCheckpointResume:
    def test_resume_requires_cache(self):
        with pytest.raises(ValueError, match="resume requires"):
            run_sweep(names=NAMES, resume=True, use_cache=False, **KW)

    def test_signature_distinguishes_configurations(self):
        base = sweep_signature(NAMES, 0.05, ("IO2",), (("simd",),),
                               2, False, engine_hash="abc")
        other_scale = sweep_signature(NAMES, 0.1, ("IO2",),
                                      (("simd",),), 2, False,
                                      engine_hash="abc")
        other_engine = sweep_signature(NAMES, 0.05, ("IO2",),
                                       (("simd",),), 2, False,
                                       engine_hash="def")
        assert base != other_scale
        assert base != other_engine
        assert base == sweep_signature(
            tuple(reversed(NAMES)), 0.05, ("IO2",), (("simd",),),
            2, False, engine_hash="abc")   # order-insensitive

    def test_manifest_roundtrip_and_staleness(self, tmp_path):
        checkpoint = SweepCheckpoint(tmp_path, "sig-a")
        checkpoint.mark_failed({"name": "fft", "kind": "error",
                                "error": "ValueError", "message": "x",
                                "attempts": 3, "seconds": 0.1})
        checkpoint.mark_done("conv", "key-1")
        checkpoint.mark_done("fft", "key-2")    # clears the failure

        fresh = SweepCheckpoint(tmp_path, "sig-a")
        state = fresh.load()
        assert state["completed"] == {"conv": "key-1", "fft": "key-2"}
        assert state["failures"] == []
        assert fresh.completed_key("conv") == "key-1"
        # A different signature never matches this manifest.
        assert SweepCheckpoint(tmp_path, "sig-b").load() is None

    def test_resume_after_sigkill_recomputes_nothing_cached(
            self, tmp_path, clean_bytes):
        """Acceptance: SIGKILL a sweep mid-run, resume, and verify the
        finished benchmarks come back from the cache (``resumed``)."""
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + env.get("PYTHONPATH", "").split(os.pathsep))
        script = (
            "from repro.dse import run_sweep\n"
            f"run_sweep(names={NAMES!r}, workers=1, "
            f"cache_dir={str(tmp_path)!r}, **{KW!r})\n"
        )
        proc = subprocess.Popen([sys.executable, "-c", script],
                                env=env)
        manifest_dir = tmp_path / "sweeps"

        def completed_count():
            for path in (manifest_dir.glob("*.json")
                         if manifest_dir.is_dir() else ()):
                try:
                    return len(json.loads(path.read_text())
                               .get("completed", {}))
                except (OSError, ValueError):
                    pass
            return 0

        deadline = time.monotonic() + 120
        while completed_count() < 1 and proc.poll() is None \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        done_before_kill = completed_count()
        assert proc.poll() is None, \
            "sweep finished before it could be killed; use a slower KW"
        proc.send_signal(signal.SIGKILL)
        proc.wait(30)
        assert 1 <= done_before_kill < len(NAMES)
        # Payloads land in the cache an instant before the manifest
        # entry, so the kill can leave cache >= manifest by one.
        cached_files = len(list(tmp_path.glob("??/*.json")))
        assert cached_files >= done_before_kill

        resumed = run_sweep(names=NAMES, workers=1,
                            cache_dir=tmp_path, resume=True, **KW)
        assert resumed.stats.resumed >= done_before_kill
        # Nothing that survived the kill recomputes: every cached
        # payload is served, only the missing ones are evaluated.
        assert resumed.stats.hits == cached_files
        assert resumed.stats.misses == len(NAMES) - cached_files
        assert dumps_sweep(resumed) == clean_bytes
        # A second resume is fully warm: nothing recomputes.
        warm = run_sweep(names=NAMES, workers=1, cache_dir=tmp_path,
                         resume=True, **KW)
        assert warm.stats.resumed == len(NAMES)
        assert warm.stats.misses == 0
        assert dumps_sweep(warm) == clean_bytes


# ---------------------------------------------------------------------------
# Cache quarantine + torn writes.


class TestQuarantine:
    def _store_one(self, cache, key="a" * 64):
        cache.store(key, {"benchmark": "conv"})
        return key

    def test_corrupt_entry_is_quarantined(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = self._store_one(cache)
        path = cache.path_for(key)
        path.write_text('{"format": 1, "record"')     # truncated
        quarantined0 = counter_total("repro_cache_quarantined_total")
        with pytest.warns(RuntimeWarning, match="corrupt sweep cache"):
            assert cache.load(key) is None
        assert not path.exists()
        moved = list(cache.quarantine_dir.iterdir())
        assert [p.name for p in moved] == [path.name]
        assert counter_total("repro_cache_quarantined_total") \
            == quarantined0 + 1
        # The entry can be rewritten and served again.
        cache.store(key, {"benchmark": "conv"})
        assert cache.load(key) == {"benchmark": "conv"}

    def test_quarantine_cap_deletes_overflow(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.quarantine_dir.mkdir(parents=True)
        for index in range(SweepCache.QUARANTINE_CAP):
            (cache.quarantine_dir / f"old-{index}.json").write_text("x")
        key = self._store_one(cache)
        path = cache.path_for(key)
        path.write_text("not json")
        with pytest.warns(RuntimeWarning, match="corrupt sweep cache"):
            assert cache.load(key) is None
        assert not path.exists()                      # deleted, not kept
        assert len(list(cache.quarantine_dir.iterdir())) \
            == SweepCache.QUARANTINE_CAP

    def test_torn_store_fault_roundtrips_through_quarantine(
            self, tmp_path, fault_spec):
        """A torn cache write (fault-injected) is caught on the next
        load, quarantined, and the entry recomputes cleanly."""
        fault_spec("torn:store=0")
        cache = SweepCache(tmp_path)
        key = self._store_one(cache)                  # store #0: torn
        with pytest.warns(RuntimeWarning, match="corrupt sweep cache"):
            assert cache.load(key) is None
        assert len(list(cache.quarantine_dir.iterdir())) == 1
        self._store_one(cache)                        # store #1: clean
        assert cache.load(key) == {"benchmark": "conv"}

    def test_torn_sweep_store_recovers_on_rerun(self, tmp_path,
                                                fault_spec,
                                                clean_bytes):
        """End to end: one torn write during a sweep, the warm rerun
        quarantines it, recomputes that benchmark, and still emits
        byte-identical results."""
        fault_spec("torn:store=1")
        first = run_sweep(names=NAMES, workers=1, cache_dir=tmp_path,
                          **KW)
        assert dumps_sweep(first) == clean_bytes      # in-memory fine
        with pytest.warns(RuntimeWarning, match="corrupt sweep cache"):
            second = run_sweep(names=NAMES, workers=1,
                               cache_dir=tmp_path, **KW)
        assert dumps_sweep(second) == clean_bytes
        assert second.stats.hits == len(NAMES) - 1
        assert second.stats.misses == 1
