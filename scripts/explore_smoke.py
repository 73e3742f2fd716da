#!/usr/bin/env python3
"""CI smoke test for the surrogate-assisted exploration loop.

Runs ``repro.explore`` on the paper's exact 64-point Fig. 12 subspace,
where the true Pareto frontier is cheap to compute exhaustively, and
asserts the loop's acceptance properties end to end:

- **frontier recall** — spending exact evaluations on at most
  ``--max-exact-fraction`` of the space (default 25%), the discovered
  frontier must epsilon-cover at least ``--min-recall`` (default 90%)
  of the exhaustively-computed true frontier;
- **byte determinism** — the canonical payload (minus the
  commit/date provenance stamps) must be byte-identical between the
  serial and the ``--workers N`` run.

The exhaustive ground-truth pass shares the exploration's sweep
cache.  The explorer sweeps every core x subset of the space on the
first point at a window depth, so the budgeted run already evaluated
every cell and the serial rerun and the truth pass are fully warm (CI
checks that the cache's run log records a single miss).  Exits
non-zero with the gate's failure strings on any violation; writes the canonical ``EXPLORE_<date>.json`` to
``--out-dir`` for artifact upload either way.
"""

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.explore import run_explore                # noqa: E402
from repro.explore.artifact import (                 # noqa: E402
    canonical_fields, check_explore, dumps_explore, format_explore,
    frontier_recall, write_explore,
)
from repro.explore.space import DesignSpace          # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmarks", nargs="+", default=["conv"])
    parser.add_argument("--budget", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--max-invocations", type=int, default=8)
    parser.add_argument("--min-recall", type=float, default=0.9)
    parser.add_argument("--max-exact-fraction", type=float,
                        default=0.25)
    parser.add_argument("--cache-dir", default=".explore-cache")
    parser.add_argument("--out-dir", default=".")
    args = parser.parse_args(argv)

    space = DesignSpace.paper(
        max_invocations=(args.max_invocations,))
    explore_kw = dict(
        space=space, benchmarks=tuple(args.benchmarks),
        budget=args.budget, seed=args.seed, scale=args.scale,
        cache_dir=args.cache_dir)

    print(f"explore smoke: {space.size}-point paper space, budget "
          f"{args.budget}, seed {args.seed}, scale {args.scale}")
    payload = run_explore(workers=args.workers, **explore_kw)

    print("re-running serially for the determinism check ...")
    serial = run_explore(workers=1, **explore_kw)
    parallel_bytes = dumps_explore(canonical_fields(payload))
    serial_bytes = dumps_explore(canonical_fields(serial))
    if parallel_bytes != serial_bytes:
        print("FAIL: worker count changed the canonical payload",
              file=sys.stderr)
        return 1
    print(f"determinism ok: {len(parallel_bytes)} canonical bytes "
          f"at workers=1 and workers={args.workers}")

    print("computing the exhaustive ground-truth frontier ...")
    exhaustive = run_explore(
        workers=args.workers,
        **dict(explore_kw, budget=space.size))
    true_frontier = exhaustive["frontier"]

    failures = check_explore(
        payload, true_frontier=true_frontier,
        min_recall=args.min_recall,
        max_exact_fraction=args.max_exact_fraction)
    recall = frontier_recall(payload, true_frontier)
    print(f"frontier recall {recall:.3f} "
          f"({len(payload['frontier'])} found / "
          f"{len(true_frontier)} true points) at "
          f"{100.0 * payload['budget']['exact_fraction']:.2f}% "
          "exact spend")
    print(format_explore(payload))

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = write_explore(payload, out_dir)
    print(f"wrote {path}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("explore smoke ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
