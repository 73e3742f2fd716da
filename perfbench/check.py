"""Output check: compare program outputs with stored references.

Integers, strings, booleans and structure (keys, lengths, oracle
assignments) must match exactly; floats match within REL_TOL relative.
"""

import json
import math
from pathlib import Path

#: Float tolerance: the bound a deliberate numeric re-baseline of the
#: model (e.g. n*c instead of adding c n times) is held to.
REL_TOL = 1e-9

#: Differences listed per mismatching output.
LIMIT = 5

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def mismatches(actual, expected):
    """List up to LIMIT human-readable differences (empty = equal)."""
    found = []
    _compare(actual, expected, "$", found)
    return found


def _compare(actual, expected, path, found):
    if len(found) >= LIMIT:
        return
    if isinstance(expected, bool) or isinstance(actual, bool):
        if actual is not expected:
            found.append(f"{path}: {actual!r} != {expected!r}")
        return
    if isinstance(expected, float) or isinstance(actual, float):
        if not isinstance(actual, (int, float)) \
                or not isinstance(expected, (int, float)):
            found.append(f"{path}: {actual!r} != {expected!r}")
        elif not _close(float(actual), float(expected)):
            found.append(f"{path}: {actual!r} != {expected!r} "
                         f"(rel tol {REL_TOL:g})")
        return
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            found.append(f"{path}: expected an object")
            return
        if set(actual) != set(expected):
            missing = sorted(set(expected) - set(actual))[:3]
            extra = sorted(set(actual) - set(expected))[:3]
            found.append(f"{path}: keys differ (missing {missing}, "
                         f"extra {extra})")
            return
        for key in sorted(expected):
            _compare(actual[key], expected[key], f"{path}.{key}", found)
        return
    if isinstance(expected, (list, tuple)):
        if not isinstance(actual, (list, tuple)) \
                or len(actual) != len(expected):
            found.append(f"{path}: expected a list of {len(expected)}")
            return
        for index, (a, e) in enumerate(zip(actual, expected)):
            _compare(a, e, f"{path}[{index}]", found)
        return
    if actual != expected or type(actual) is not type(expected):
        found.append(f"{path}: {actual!r} != {expected!r}")


def _close(a, b):
    if math.isnan(a) or math.isnan(b):
        return False
    if a == b:
        return True
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def normalize(value):
    """Round-trip through JSON so tuples and lists compare alike."""
    return json.loads(json.dumps(value))


def load_reference(name):
    with open(REFERENCE_DIR / f"{name}.json") as handle:
        return json.load(handle)


def dump_reference(name, payload):
    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    with open(REFERENCE_DIR / f"{name}.json", "w") as handle:
        json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
