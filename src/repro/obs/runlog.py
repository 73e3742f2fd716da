"""Append-only run history + EWMA health report.

Every substantial run (a sweep, a service lifetime) appends one JSON
line to ``<cache>/runlog.jsonl`` summarizing what happened: throughput,
cache hit rate, retry/timeout counters, latency quantiles.  The log is
longitudinal where the checked-in ``FIDELITY_*/EXPLORE_*`` artifacts
are per-commit: together they answer "is this system getting
faster or flakier over time?" without re-running anything.

``repro obs report`` renders both sources as trend tables and flags
regressions with an exponentially weighted moving average: the newest
sample is compared against the EWMA of its predecessors, so a single
noisy run moves the needle a little and a sustained drift trips the
flag.
"""

import json
import os
from pathlib import Path

from repro.artifacts import load_artifact, repo_root, stamp

#: Bump when the entry shape changes incompatibly.
RUNLOG_SCHEMA = 1

#: Size cap on the active runlog: an append that would push the file
#: past this rolls it to ``runlog.jsonl.1`` first (one generation
#: kept, so disk use is bounded at ~2x the cap per cache directory).
DEFAULT_MAX_BYTES = 256 * 1024

#: EWMA smoothing factor: ~last 5 runs dominate.
EWMA_ALPHA = 0.3

#: Relative drift beyond which a metric is flagged.
DEFAULT_GATE = 0.25


def runlog_entry(kind, **fields):
    """One stamped run-history entry (plain dict, JSON-able)."""
    entry = stamp(RUNLOG_SCHEMA)
    entry["kind"] = kind
    entry.update(fields)
    return entry


class RunLog:
    """Append-only JSONL history under a cache directory.

    Appends are a single ``write()`` of one line, so concurrent
    writers interleave whole records on POSIX; reads skip lines that
    fail to parse rather than dying on a torn tail.

    The log is size-capped: an append that would push the active file
    past ``max_bytes`` first rolls it to ``runlog.jsonl.1`` (atomic
    rename, replacing the previous generation).  Reads merge the
    rotated file before the active one, so history stays contiguous
    across a rollover and total disk stays bounded.
    """

    FILENAME = "runlog.jsonl"

    def __init__(self, root, max_bytes=DEFAULT_MAX_BYTES):
        self.path = Path(root) / self.FILENAME
        self.rotated_path = self.path.with_name(self.FILENAME + ".1")
        self.max_bytes = max_bytes

    def append(self, entry):
        """Append one entry; returns it.  Never raises on I/O."""
        line = json.dumps(entry, sort_keys=True) + "\n"
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._rotate_if_needed(len(line))
            with open(self.path, "a") as handle:
                handle.write(line)
        except OSError:
            pass
        return entry

    def _rotate_if_needed(self, incoming_bytes):
        """Roll the active file aside when the cap would be crossed."""
        if not self.max_bytes:
            return
        try:
            size = self.path.stat().st_size
        except OSError:
            return
        if size and size + incoming_bytes > self.max_bytes:
            os.replace(self.path, self.rotated_path)

    def read(self, kind=None, limit=None):
        """Entries oldest-first, optionally filtered and tail-limited.

        Merges the rotated generation (older) before the active file,
        so windows spanning a rollover see one contiguous history.
        """
        entries = []
        for path in (self.rotated_path, self.path):
            try:
                lines = path.read_text().splitlines()
            except OSError:
                continue
            for line in lines:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue
                if isinstance(entry, dict) and (
                        kind is None or entry.get("kind") == kind):
                    entries.append(entry)
        if limit is not None:
            entries = entries[-limit:]
        return entries

    def __len__(self):
        return len(self.read())


# ---------------------------------------------------------------------------
# EWMA regression detection.

def ewma(values, alpha=EWMA_ALPHA):
    """Exponentially weighted moving average (None when empty)."""
    acc = None
    for value in values:
        acc = value if acc is None else alpha * value + (1 - alpha) * acc
    return acc


def detect_regressions(series, gate=DEFAULT_GATE, alpha=EWMA_ALPHA):
    """Flag metrics whose newest sample drifts beyond *gate*.

    *series* maps metric name to ``(direction, [values...])`` where
    direction is ``"higher"`` (bigger is better: throughput) or
    ``"lower"`` (bigger is worse: errors, retries, latency).  The last
    value is compared against the EWMA of everything before it; the
    relative drift in the *bad* direction must exceed *gate* to flag.
    Returns ``[{metric, baseline, current, drift}, ...]``.
    """
    flags = []
    for metric, (direction, values) in sorted(series.items()):
        values = [v for v in values if v is not None]
        if len(values) < 2:
            continue
        baseline = ewma(values[:-1], alpha)
        current = values[-1]
        if baseline is None:
            continue
        if direction == "higher":
            if baseline <= 0:
                continue
            drift = (baseline - current) / baseline
        else:
            scale = baseline if baseline > 0 else 1.0
            drift = (current - baseline) / scale
        if drift > gate:
            flags.append({"metric": metric, "baseline": baseline,
                          "current": current, "drift": drift})
    return flags


# ---------------------------------------------------------------------------
# Report rendering.

def _fmt(value, precision=3):
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{precision}g}"
    return str(value)


def _table(headers, rows):
    """Plain fixed-width table (stdlib only, no wrapping)."""
    cells = [[str(h) for h in headers]]
    cells += [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells)
              for i in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths))
                     .rstrip())
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _artifact_series(prefix, directory, pick):
    """``(dates, values)`` across all checked-in ``<prefix>_*`` files."""
    dates, values = [], []
    for path in sorted(Path(directory).glob(f"{prefix}_*.json")):
        try:
            payload = load_artifact(path)
        except (OSError, ValueError):
            continue
        dates.append(payload.get("date", path.stem))
        values.append(pick(payload))
    return dates, values


def _fidelity_error(payload):
    """Worst per-class max relative error across every tier/metric."""
    worst = None
    for tier in (payload.get("summary") or {}).values():
        if not isinstance(tier, dict):
            continue
        for metric in tier.values():
            classes = metric.get("by_class") \
                if isinstance(metric, dict) else None
            for stats in (classes or {}).values():
                value = stats.get("max")
                if value is not None:
                    worst = value if worst is None \
                        else max(worst, value)
    return worst


def _explore_error(payload):
    """Final surrogate cross-validation error of the exploration."""
    return (payload.get("surrogate") or {}).get("error")


def build_report(cache_root, artifacts_dir=None, window=20,
                 gate=DEFAULT_GATE):
    """Assemble the health report as structured data.

    Returns ``{"sweeps": [...], "serves": [...], "artifacts": {...},
    "regressions": [...]}`` — :func:`format_report` renders it.
    """
    if artifacts_dir is None:
        artifacts_dir = repo_root()
    log = RunLog(cache_root)
    sweeps = log.read(kind="sweep", limit=window)
    serves = log.read(kind="serve", limit=window)

    series = {}
    if sweeps:
        series["sweep.evals_per_sec"] = (
            "higher", [e.get("evals_per_sec") for e in sweeps])
        series["sweep.retries"] = (
            "lower", [e.get("retries", 0) for e in sweeps])
        series["sweep.timeouts"] = (
            "lower", [e.get("timeouts", 0) for e in sweeps])
        series["sweep.failures"] = (
            "lower", [e.get("failures", 0) for e in sweeps])
    if serves:
        series["serve.errors"] = (
            "lower", [e.get("errors", 0) for e in serves])
        series["serve.p95_ms"] = (
            "lower", [e.get("latency_p95_ms") for e in serves])

    artifacts = {}
    for prefix, pick in (("FIDELITY", _fidelity_error),
                         ("EXPLORE", _explore_error)):
        dates, values = _artifact_series(prefix, artifacts_dir, pick)
        if dates:
            artifacts[prefix] = {"dates": dates, "values": values}
            clean = [v for v in values if v is not None]
            if len(clean) >= 2:
                series[f"artifact.{prefix.lower()}"] = ("lower", clean)

    return {
        "cache_root": str(cache_root),
        "sweeps": sweeps,
        "serves": serves,
        "artifacts": artifacts,
        "regressions": detect_regressions(series, gate=gate),
    }


def format_report(report):
    """Human-readable rendering of :func:`build_report` output."""
    out = [f"repro health report — cache {report['cache_root']}"]

    sweeps = report["sweeps"]
    if sweeps:
        out.append("")
        out.append(f"Sweep runs (last {len(sweeps)}):")
        out.append(_table(
            ["date", "benchmarks", "evals/s", "hit rate", "retries",
             "timeouts", "failures", "workers"],
            [[e.get("date", "-"), e.get("benchmarks"),
              e.get("evals_per_sec"), e.get("cache_hit_rate"),
              e.get("retries", 0), e.get("timeouts", 0),
              e.get("failures", 0), e.get("workers")]
             for e in sweeps]))
    else:
        out.append("")
        out.append("Sweep runs: none recorded yet.")

    serves = report["serves"]
    if serves:
        out.append("")
        out.append(f"Service runs (last {len(serves)}):")
        out.append(_table(
            ["date", "requests", "computations", "errors", "p50 ms",
             "p95 ms", "restarts"],
            [[e.get("date", "-"), e.get("requests"),
              e.get("computations"), e.get("errors", 0),
              e.get("latency_p50_ms"), e.get("latency_p95_ms"),
              e.get("pool_restarts", 0)]
             for e in serves]))

    for prefix, label in (("FIDELITY", "worst max rel error"),
                          ("EXPLORE", "surrogate error")):
        trail = report["artifacts"].get(prefix)
        if not trail:
            continue
        out.append("")
        out.append(f"{prefix} artifacts ({label}):")
        out.append(_table(
            ["date", "value"],
            list(zip(trail["dates"], trail["values"]))))

    out.append("")
    regressions = report["regressions"]
    if regressions:
        out.append("REGRESSIONS FLAGGED:")
        out.append(_table(
            ["metric", "baseline (EWMA)", "current", "drift"],
            [[r["metric"], r["baseline"], r["current"],
              f"{r['drift']:+.1%}"] for r in regressions]))
    else:
        out.append("No regressions flagged.")
    return "\n".join(out) + "\n"
