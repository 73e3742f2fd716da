"""Regenerate the reference outputs the benchmark checks against.

Run from the repository root, at a commit whose outputs are trusted::

    PYTHONPATH=src:. python3 -m perfbench.make_reference

It evaluates every input any seed can produce (see ``spec.py``) and
writes ``perfbench/reference/*.json``.  A change that alters model
outputs on purpose regenerates these files in the same commit.
"""

import hashlib
import json
import sys

from perfbench import check, spec


def sweep_reference(scale):
    from repro.dse import evaluate_one_benchmark, record_to_json

    return {name: check.normalize(record_to_json(
                evaluate_one_benchmark(name, scale=scale)))
            for name in sorted(spec.sweep_pool_members())}


def explore_reference():
    from repro.artifacts import canonical_fields
    from repro.explore import run_explore
    from repro.explore.space import DesignSpace

    return {str(seed): check.normalize(canonical_fields(run_explore(
                DesignSpace(), benchmarks=(spec.EXPLORE_BENCHMARK,),
                budget=spec.EXPLORE_BUDGET, seed=seed,
                scale=spec.EXPLORE_SCALE)))
            for seed in range(spec.EXPLORE_SEED_POOL)}


def service_reference():
    """Records deduplicated by digest: many fresh keys share one."""
    from repro.dse import evaluate_one_benchmark, record_to_json

    records, keys = {}, {}
    for name, max_invocations in spec.service_keys():
        record = check.normalize(record_to_json(evaluate_one_benchmark(
            name, scale=spec.SERVICE_SCALE,
            max_invocations=max_invocations)))
        digest = hashlib.sha256(json.dumps(
            record, sort_keys=True).encode()).hexdigest()
        records[digest] = record
        keys[f"{name}|{max_invocations}"] = digest
    return {"records": records, "keys": keys}


def main():
    for scale in sorted(set(spec.SWEEP_SCALE.values())):
        check.dump_reference(f"sweep-{scale}", sweep_reference(scale))
    check.dump_reference("service", service_reference())
    check.dump_reference("explore", explore_reference())
    return 0


if __name__ == "__main__":
    sys.exit(main())
