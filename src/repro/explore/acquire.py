"""Acquisition: which points deserve exact evaluation next.

The loop ranks surrogate predictions and spends its budget where it
pays: mostly on the **predicted Pareto front** (exploitation — points
the model believes are non-dominated in speedup x energy efficiency),
partly on the **most uncertain** candidates (exploration — points the
bootstrap ensemble disagrees about, where one exact evaluation buys
the most model improvement).

Front ranking reuses :func:`repro.dse.report.pareto_frontier` by
*peeling*: rank 1 is the predicted frontier, rank 2 the frontier of
what remains, and so on — standard NSGA-style non-dominated sorting,
but implemented as repeated deterministic scans so the order is
reproducible for any input order.  :func:`fronts` peels lazily, so the
selector computes only the fronts its exploit share reaches.  Every
tie anywhere breaks on the canonical point key; nothing here consults
an RNG, so acquisition is a pure function of (predictions, batch size,
explore fraction).
"""

from repro.dse.report import pareto_frontier

#: Fraction of each batch reserved for highest-uncertainty picks.
#: An even explore/exploit split measures best on the paper space:
#: its objective landscape is plateau-heavy, so half the budget goes
#: to regions the surrogate has no information about.
DEFAULT_EXPLORE_FRACTION = 0.5

#: A candidate predicted within this multiplicative margin of an
#: already-evaluated point (on both objectives) is "covered": exact
#: evaluation would re-measure a known region of the objective space.
DEFAULT_COVERED_TOLERANCE = 0.05


def fronts(rows, x_key="speedup", y_key="energy_eff", tie_key="key"):
    """Yield the peeled Pareto fronts of *rows*, rank 1 first, each
    computed only when the caller asks for it."""
    remaining = {row[tie_key]: row for row in rows}
    while remaining:
        front = pareto_frontier(list(remaining.values()),
                                x_key=x_key, y_key=y_key,
                                tie_key=tie_key)
        for row in front:
            del remaining[row[tie_key]]
        yield front


def _spread(members, need, x_key, tie_key):
    """Evenly-spaced picks across one front, ordered by *x_key*.

    A predicted front spans the whole speedup range; evaluating only
    its most-certain corner leaves the rest of the true frontier
    undiscovered.  Spacing picks by predicted speedup covers the
    front's full extent with however many evaluations are left.
    """
    members = sorted(members, key=lambda r: (r[x_key], r[tie_key]))
    if len(members) <= need:
        return [row[tie_key] for row in members]
    if need == 1:
        return [members[0][tie_key]]
    span = len(members) - 1
    indices = sorted({round(i * span / (need - 1))
                      for i in range(need)})
    return [members[i][tie_key] for i in indices]


def uncovered(rows, evaluated, tolerance=DEFAULT_COVERED_TOLERANCE,
              x_key="speedup", y_key="energy_eff"):
    """Rows whose predicted objectives are NOT epsilon-covered by any
    already-evaluated exact point.

    Objective landscapes over BSA subsets are plateau-heavy (one BSA
    saturates region coverage and nearby subsets measure identically);
    spending exact budget on a candidate predicted inside a plateau
    the loop has already measured buys nothing.  Filtering those out
    of the exploit share redirects the budget toward predicted
    frontier *extensions*.
    """
    if not evaluated:
        return list(rows)
    scale = 1.0 + tolerance
    kept = []
    for row in rows:
        if any(ev[x_key] * scale >= row[x_key]
               and ev[y_key] * scale >= row[y_key]
               for ev in evaluated):
            continue
        kept.append(row)
    return kept


def select_batch(rows, batch_size,
                 explore_fraction=DEFAULT_EXPLORE_FRACTION,
                 evaluated=(),
                 covered_tolerance=DEFAULT_COVERED_TOLERANCE,
                 x_key="speedup", y_key="energy_eff", tie_key="key"):
    """Pick *batch_size* keys from prediction *rows*.

    Each row carries the surrogate's predicted metrics and
    ``uncertainty`` (ensemble spread + training-set-distance novelty).
    The exploit share of the batch walks the peeled predicted fronts
    rank by rank — after dropping candidates already epsilon-covered
    by *evaluated* exact points (:func:`uncovered`) — taking
    evenly-spaced members across each front (coverage of the
    predicted frontier beats depth on one corner of it when budget is
    scarce); the explore tail takes the highest-uncertainty rows.
    Deterministic for any input order; returns sorted keys.
    """
    batch_size = min(int(batch_size), len(rows))
    if batch_size <= 0:
        return []
    n_explore = int(round(batch_size * explore_fraction))
    n_exploit = batch_size - n_explore

    informative = uncovered(rows, evaluated,
                            tolerance=covered_tolerance,
                            x_key=x_key, y_key=y_key)
    chosen = set()
    if n_exploit > 0:
        for front in fronts(informative or rows, x_key=x_key,
                            y_key=y_key, tie_key=tie_key):
            chosen.update(_spread(front, n_exploit - len(chosen),
                                  x_key, tie_key))
            if len(chosen) >= n_exploit:
                break

    # The tail scans every row, so no later pass could add a key:
    # each peeled row is one of *rows*.  That is why the fronts stop
    # as soon as the exploit share is met.
    for row in sorted(rows, key=lambda r: (-r["uncertainty"],
                                           r[tie_key])):
        if len(chosen) >= batch_size:
            break
        chosen.add(row[tie_key])
    return sorted(chosen)
