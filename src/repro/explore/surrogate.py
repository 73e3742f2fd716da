"""Deterministic learned surrogate over the design space.

A regularized linear model (ridge regression) over the hand-rolled
features of :mod:`repro.explore.space`, fit in **log space** — speedup
and energy efficiency are ratio metrics, multiplicative by nature, and
a linear model in logs captures "width helps, but less each time" far
better than one in raw ratios.  Uncertainty comes from a small
bootstrap ensemble: K members share the feature pipeline, member 0
fits the full training set and members 1..K-1 fit seeded bootstrap
resamples; the spread of their predictions (std in log space) is the
acquisition function's uncertainty signal.

Everything is stdlib: the normal equations are assembled with
:func:`math.fsum` (correctly rounded, order-independent) and solved by
Gaussian elimination with partial pivoting.  No numpy in the math path
means the surrogate produces **bit-identical** coefficients and
predictions whether or not numpy is installed, at any worker count, on
any platform with IEEE-754 doubles — the property the EXPLORE
artifact's byte-reproducibility rests on.  (Feature vectors may arrive
as tuples, ``array('d')`` or numpy arrays; scoring converts each
distinct value to a Python float once, which is exact for all three.)

Scoring is the explorer's inner loop (thousands of candidates per
round), so :meth:`SurrogateEnsemble.predict` and
:meth:`~SurrogateEnsemble.novelty` take a **batch** of feature vectors
and work column by column.  Every feature takes only a few values (at
most 8 per column on the default space), so each distinct (column,
value) gets a small integer code, its *slot*, and everything a value
decides becomes a **column table** entry at that slot: the
standardized value (once per distinct member geometry, the (means,
scales) that member k of every target shares), each member's linear
term ``weights[j] * value``, the exact partials of the pre-scaled
stump leaves the value selects, and its gap ``|value - train_j|`` to
each training row.  The tables belong to the fit and grow only when a
batch brings a value no earlier batch had.  A candidate's member
estimate is then two :func:`math.fsum` calls over table lookups.
:func:`math.fsum` is correctly rounded, so it depends only on the
exact sum of its terms: feeding it a split feature's exact leaf
partials instead of the leaves themselves gives the same float, and
the batch path is bit-identical to scoring member by member.

Bootstrap resampling uses integer-seeded :class:`random.Random`
instances only — never hash-based or global-state randomness.
"""

import math
import random
from itertools import chain, repeat
from operator import concat, itemgetter, mul, neg, sub, truediv

#: Floor for log-space targets: a non-positive metric (degenerate
#: benchmark) trains as "very bad", not as a crash.
_LOG_FLOOR = 1e-9

#: Ridge default: small enough not to bias a well-sampled axis,
#: large enough to keep near-collinear features (subset one-hots vs
#: subset_size) from blowing up the solve.
DEFAULT_L2 = 1e-3

#: Default ensemble width (member 0 = full fit + 4 bootstraps).
DEFAULT_MEMBERS = 5

#: Boosted-stump residual corrector defaults: enough rounds at this
#: shrinkage to memorize a handful of plateaus, few enough not to
#: chase noise on a dozen training rows.
DEFAULT_BOOST_ROUNDS = 40
DEFAULT_BOOST_LR = 0.3
#: A stump split must leave this many rows on each side.
_MIN_LEAF = 2


class _Stump:
    """One depth-1 regression tree on a single standardized feature."""

    __slots__ = ("feature", "threshold", "left", "right")

    def __init__(self, feature, threshold, left, right):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right

    def value(self, row):
        return self.left if row[self.feature] <= self.threshold \
            else self.right


def _partitions(rows):
    """The distinct row splits a stump can make on *rows*, each once.

    ``[(feature, threshold, left row ids, right row ids), ...]``.
    Thresholds are midpoints of consecutive sorted distinct feature
    values, scanned feature by feature in fixed order; a split another
    (feature, threshold) already made is kept only at its first.  Its
    later copies sum the same residuals (:func:`math.fsum` is exact in
    any order), so their SSE equals the first's and can never pass
    :func:`_best_stump`'s strict test: scoring each split once picks
    the stump the full scan would.  The splits depend on *rows* only,
    so one fit computes them once for all its boosting rounds.
    """
    n = len(rows)
    seen = set()
    partitions = []
    for j in range(len(rows[0])):
        order = sorted(range(n), key=lambda i: (rows[i][j], i))
        for cut in range(_MIN_LEAF, n - _MIN_LEAF + 1):
            lo = rows[order[cut - 1]][j]
            hi = rows[order[cut]][j]
            if lo == hi:
                continue
            left_ids = frozenset(order[:cut])
            if left_ids in seen:
                continue
            seen.add(left_ids)
            partitions.append((j, (lo + hi) / 2.0, tuple(order[:cut]),
                               tuple(order[cut:])))
    return partitions


def _best_stump(partitions, residuals):
    """The SSE-minimizing stump over *partitions* (:func:`_partitions`),
    ties broken on scan order (feature, then threshold).

    Deterministic: every reduction is :func:`math.fsum`.
    """
    best = None
    best_sse = None
    for feature, threshold, left_ids, right_ids in partitions:
        left = math.fsum(residuals[i] for i in left_ids) / len(left_ids)
        right = math.fsum(residuals[i] for i in right_ids) \
            / len(right_ids)
        sse = math.fsum(
            (residuals[i] - left) ** 2 for i in left_ids) \
            + math.fsum(
                (residuals[i] - right) ** 2 for i in right_ids)
        if best_sse is None or sse < best_sse - 1e-15:
            best_sse = sse
            best = _Stump(feature, threshold, left, right)
    return best


def _standardize(features, means, scales):
    return [(x - mean) / scale
            for x, mean, scale in zip(features, means, scales)]


def _exact_parts(values):
    """Floats whose exact sum is the exact sum of the list *values*.

    The first part is the correctly rounded sum (:func:`math.fsum`),
    each next one the correctly rounded remainder.  A remainder is at
    most half an ulp of the part before it, so a few parts bring it to
    zero.  :func:`math.fsum` depends only on the exact sum of its
    terms, so any sum that takes these parts in place of *values*
    rounds to the same float.
    """
    parts = []
    while True:
        part = math.fsum(chain(values, map(neg, parts)))
        if not part:
            return tuple(parts)
        parts.append(part)


def _solve(matrix, rhs):
    """Solve ``matrix @ x = rhs`` by Gaussian elimination with partial
    pivoting.  *matrix* is a list of row-lists (modified in place)."""
    n = len(matrix)
    for row, value in zip(matrix, rhs):
        row.append(value)
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(matrix[r][col]))
        if abs(matrix[pivot][col]) < 1e-30:
            raise ArithmeticError("singular normal matrix")
        if pivot != col:
            matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        head = matrix[col]
        for r in range(col + 1, n):
            row = matrix[r]
            factor = row[col] / head[col]
            if factor == 0.0:
                continue
            for c in range(col, n + 1):
                row[c] -= factor * head[c]
    solution = [0.0] * n
    for row_index in range(n - 1, -1, -1):
        row = matrix[row_index]
        acc = math.fsum(row[c] * solution[c]
                        for c in range(row_index + 1, n))
        solution[row_index] = (row[n] - acc) / row[row_index]
    return solution


class RidgeModel:
    """One member: ridge fit + boosted-stump residual corrector.

    The ridge captures the smooth log-space trends (width helps,
    frequency trades energy for time); the stumps capture what a
    linear model cannot — plateaus where one BSA saturates region
    coverage and nearby designs measure identically.  Standardized
    features + bias; *boost_rounds* = 0 disables the corrector.
    """

    def __init__(self, l2=DEFAULT_L2,
                 boost_rounds=DEFAULT_BOOST_ROUNDS,
                 boost_lr=DEFAULT_BOOST_LR):
        self.l2 = float(l2)
        self.boost_rounds = int(boost_rounds)
        self.boost_lr = float(boost_lr)
        self.means = None
        self.scales = None
        self.weights = None         # bias last
        self.stumps = []
        self.splits = {}    # feature -> [(threshold, lr*left, lr*right)]

    def fit(self, rows, targets):
        if not rows:
            raise ValueError("cannot fit on zero rows")
        n_features = len(rows[0])
        n = len(rows)
        self.means = [
            math.fsum(row[j] for row in rows) / n
            for j in range(n_features)
        ]
        self.scales = []
        for j in range(n_features):
            mean = self.means[j]
            var = math.fsum((row[j] - mean) ** 2 for row in rows) / n
            std = math.sqrt(var)
            self.scales.append(std if std > 1e-12 else 1.0)

        standardized = [
            _standardize(row, self.means, self.scales) + [1.0]
            for row in rows
        ]
        logs = [math.log(max(t, _LOG_FLOOR)) for t in targets]

        dim = n_features + 1
        normal = [
            [math.fsum(row[a] * row[b] for row in standardized)
             for b in range(dim)]
            for a in range(dim)
        ]
        ridge = self.l2 * n
        for j in range(n_features):    # never regularize the bias
            normal[j][j] += ridge
        rhs = [
            math.fsum(row[a] * log for row, log
                      in zip(standardized, logs))
            for a in range(dim)
        ]
        self.weights = _solve(normal, rhs)

        self.stumps = []
        if self.boost_rounds > 0 and n >= 2 * _MIN_LEAF:
            plain = [row[:-1] for row in standardized]
            residuals = [
                log - math.fsum(map(mul, self.weights, row))
                for row, log in zip(standardized, logs)
            ]
            partitions = _partitions(plain)
            for _ in range(self.boost_rounds):
                stump = _best_stump(partitions, residuals)
                if stump is None:
                    break
                self.stumps.append(stump)
                for i, row in enumerate(plain):
                    residuals[i] -= self.boost_lr * stump.value(row)
        self.splits = {}
        for stump in self.stumps:
            self.splits.setdefault(stump.feature, []).append(
                (stump.threshold, self.boost_lr * stump.left,
                 self.boost_lr * stump.right))
        return self

    def geometry(self):
        """``(means, scales)``: the standardization of this fit."""
        return tuple(self.means), tuple(self.scales)


class _MemberTables:
    """One member's slot tables (see :class:`SurrogateEnsemble`),
    grown as new slots arrive: per slot, the linear term ``weights[j] *
    value`` (slot 0 holds the bias term ``weights[-1] * 1.0``) and the
    exact partials (:func:`_exact_parts`) of the pre-scaled leaves the
    value selects among the stumps that split its column."""

    __slots__ = ("model", "geometry", "products", "leaves")

    def __init__(self, model, geometry):
        self.model = model
        self.geometry = geometry
        self.products = []
        self.leaves = []

    def logs(self, standardized, columns, slots, batch):
        """Predicted log-space values of a batch.

        *standardized* is the slot table of this member's geometry and
        *columns* each slot's column; *slots* and *batch* are
        :meth:`SurrogateEnsemble._slots_of`'s.  Per row, the linear
        part is the :func:`math.fsum` of ``weights[j] * value`` and
        the bias term; the log is the :func:`math.fsum` of the linear
        part and each split feature's leaf partials.  Both sums have
        the exact totals of a member-by-member scorer's, so they round
        the same.
        """
        weights = self.model.weights
        splits = self.model.splits
        new = range(len(self.products), len(standardized))
        self.products.extend([weights[columns[k]] * standardized[k]
                              for k in new])
        self.leaves.extend(
            _exact_parts([left if standardized[k] <= threshold
                          else right for threshold, left, right
                          in splits.get(columns[k], ())])
            for k in new)
        terms = zip(map(math.fsum, map(itemgetter.__call__, batch,
                                       repeat(self.products))))
        for feature in splits:
            terms = map(concat, terms,
                        map(self.leaves.__getitem__, slots[feature]))
        return list(map(math.fsum, terms))


class SurrogateEnsemble:
    """K ridge members -> (prediction, uncertainty) per target.

    Member 0 fits the full training set; members ``1..K-1`` fit
    bootstrap resamples drawn by ``random.Random(seed * 1000003 + k)``.
    Prediction is the exp of the mean member log-estimate; uncertainty
    is the std of the member log-estimates (0.0 when K == 1).  Scoring
    grows the fit's slot tables, so one ensemble is not scored from
    two threads at once.
    """

    def __init__(self, target_names=("speedup", "energy_eff"),
                 n_members=DEFAULT_MEMBERS, l2=DEFAULT_L2, seed=0,
                 boost_rounds=DEFAULT_BOOST_ROUNDS,
                 boost_lr=DEFAULT_BOOST_LR):
        self.target_names = tuple(target_names)
        self.n_members = max(1, int(n_members))
        self.l2 = float(l2)
        self.seed = int(seed)
        self.boost_rounds = int(boost_rounds)
        self.boost_lr = float(boost_lr)
        self.members = {}           # target -> [RidgeModel, ...]
        self.n_trained = 0
        self._train_rows = []       # standardized + bias 1.0, for novelty()
        self._geometries = []       # distinct member (means, scales);
                                    # [0] is the anchor's
        self._scorers = {}          # target -> [_MemberTables, ...]
        # Slot tables of this fit (see _slots_of).
        self._slot_index = []       # per column: value -> slot
        self._slot_columns = []     # per slot: its column
        self._slot_values = []      # per slot: its value
        self._standardized = []     # per geometry: per slot
        self._gaps = []             # per training row: per slot

    def fit(self, rows, targets_by_name):
        """Fit every member of every target.

        *rows* is a list of feature vectors; *targets_by_name* maps
        each target name to its list of values (aligned with *rows*).
        """
        if not rows:
            raise ValueError("cannot fit on zero rows")
        n = len(rows)
        indices_per_member = [list(range(n))]
        for k in range(1, self.n_members):
            rng = random.Random(self.seed * 1000003 + k)
            indices_per_member.append(
                [rng.randrange(n) for _ in range(n)])

        self.members = {}
        for name in self.target_names:
            targets = targets_by_name[name]
            if len(targets) != n:
                raise ValueError(
                    f"target {name!r} has {len(targets)} values "
                    f"for {n} rows")
            fits = []
            for indices in indices_per_member:
                member_rows = [rows[i] for i in indices]
                member_targets = [targets[i] for i in indices]
                model = RidgeModel(l2=self.l2,
                                   boost_rounds=self.boost_rounds,
                                   boost_lr=self.boost_lr)
                try:
                    model.fit(member_rows, member_targets)
                except ArithmeticError:
                    # A degenerate bootstrap (e.g. all-identical rows)
                    # falls back to the full-data member's geometry.
                    model.fit(rows, targets)
                fits.append(model)
            self.members[name] = fits
        self.n_trained = n
        anchor = self.members[self.target_names[0]][0]
        self._train_rows = [
            _standardize([float(x) for x in row], anchor.means,
                         anchor.scales) + [1.0]
            for row in rows]

        index_of = {}
        self._scorers = {}
        for name in self.target_names:
            self._scorers[name] = [
                _MemberTables(model, index_of.setdefault(
                    model.geometry(), len(index_of)))
                for model in self.members[name]]
        self._geometries = list(index_of)
        width = len(anchor.means)
        self._slot_index = [{} for _ in range(width)]
        self._slot_columns = [width]
        self._slot_values = [1.0]
        self._standardized = [[1.0] for _ in self._geometries]
        self._gaps = [[0.0] for _ in self._train_rows]
        return self

    def _slots_of(self, rows):
        """The batch *rows* as ``(slots, batch)``.

        Every distinct (column, value) the ensemble has scored since
        its fit owns a **slot**; slot 0 is the bias column's constant
        ``1.0``.  The scoring tables (standardized values, each
        member's terms and leaf partials, each training row's gaps)
        are lists indexed by slot, so a slot's entries are computed
        once per fit.  *slots* holds each column's slots for the rows;
        *batch* holds, per row, an :func:`~operator.itemgetter` of
        slot 0 and its slots, which picks a row's terms out of a
        table in column order.

        Equal values share a slot, so ``0.0`` and ``-0.0`` do too.
        That cannot change a score: standardizing them differs at most
        in the sign of a zero, and every use of a standardized value
        is a comparison, an ``abs`` of a difference or a product
        summed by :func:`math.fsum`, none of which shows that sign.
        """
        slots = []
        for j, (column, index) in enumerate(zip(zip(*rows),
                                                self._slot_index)):
            try:
                slots.append(list(map(index.__getitem__, column)))
            except KeyError:
                for x in column:
                    if x not in index:
                        index[x] = len(self._slot_values)
                        self._slot_columns.append(j)
                        self._slot_values.append(float(x))
                slots.append(list(map(index.__getitem__, column)))
        return slots, list(map(itemgetter, repeat(0), *slots))

    def _standardized_in(self, geometry):
        """The slot table of values standardized in the *geometry*-th
        distinct member geometry."""
        table = self._standardized[geometry]
        means, scales = self._geometries[geometry]
        columns = self._slot_columns
        table.extend([(self._slot_values[k] - means[columns[k]])
                      / scales[columns[k]]
                      for k in range(len(table), len(columns))])
        return table

    def novelty(self, rows):
        """Min standardized L1 distance to the training set, one per
        feature vector of the batch *rows*.

        Bootstrap spread measures *variance* — members disagreeing —
        but a region no training point touches produces confident,
        identically-biased members (the ensemble has no information to
        disagree about).  Distance to the nearest training row in the
        standardized feature space is the complementary *coverage*
        signal: acquisition adds it to the ensemble spread so unseen
        (core, subset) regions get explored even when the model is
        confidently wrong about them.

        Standardized in the anchor's (member 0 of the first target)
        geometry; each training row keeps a slot table of gaps
        ``|value - train_j|``.
        """
        if not rows:
            return []
        if not self._train_rows:
            return [0.0] * len(rows)
        slots, batch = self._slots_of(rows)
        standardized = self._standardized_in(0)
        columns = self._slot_columns
        width = len(self._slot_index)
        nearest = None
        for train_row, gaps in zip(self._train_rows, self._gaps):
            gaps.extend([abs(standardized[k] - train_row[columns[k]])
                         for k in range(len(gaps), len(columns))])
            distances = [total / width for total in map(
                math.fsum, map(itemgetter.__call__, batch,
                               repeat(gaps)))]
            nearest = distances if nearest is None \
                else list(map(min, nearest, distances))
        return nearest

    def predict(self, rows):
        """``{target: (predicted_value, log_space_uncertainty)}`` for
        each feature vector of the batch *rows*."""
        if not rows:
            return []
        slots, batch = self._slots_of(rows)
        standardized = [self._standardized_in(geometry)
                        for geometry in range(len(self._geometries))]
        by_target = []
        for name in self.target_names:
            member_logs = [
                member.logs(standardized[member.geometry],
                            self._slot_columns, slots, batch)
                for member in self._scorers[name]]
            k = len(member_logs)
            means = list(map(truediv, map(math.fsum, zip(*member_logs)),
                             repeat(k)))
            stds = repeat(0.0)
            if k > 1:
                squares = [map(pow, map(sub, logs, means), repeat(2))
                           for logs in member_logs]
                stds = map(math.sqrt, map(truediv, map(
                    math.fsum, zip(*squares)), repeat(k)))
            by_target.append(zip(map(math.exp, means), stds))
        return [dict(zip(self.target_names, row))
                for row in zip(*by_target)]

    def mean_abs_log_error(self, rows, targets_by_name):
        """Mean |log(pred) - log(actual)| across rows and targets —
        the out-of-sample error statistic the EXPLORE artifact
        records per round."""
        errors = []
        for i, predicted in enumerate(self.predict(rows)):
            for name in self.target_names:
                actual = max(targets_by_name[name][i], _LOG_FLOOR)
                errors.append(abs(math.log(predicted[name][0])
                                  - math.log(actual)))
        if not errors:
            return 0.0
        return math.fsum(errors) / len(errors)
