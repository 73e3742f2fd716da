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
as tuples, ``array('d')`` or numpy arrays; scoring converts them to
Python floats once, which is exact for all three.)

Scoring is the explorer's inner loop (thousands of candidates per
round), so :meth:`SurrogateEnsemble.predict` standardizes a candidate
once per distinct member *geometry* — the (means, scales) of a fit,
shared by member k of every target because they fit the same bootstrap
rows — and each member's stump leaves are pre-scaled by ``boost_lr``.
Every :func:`math.fsum` keeps its exact term multiset, so the fast
path is bit-identical to scoring member by member.

Bootstrap resampling uses integer-seeded :class:`random.Random`
instances only — never hash-based or global-state randomness.
"""

import math
import random
from operator import mul, sub

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
        self._leaves = ()           # (feature, threshold, lr*left, lr*right)

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
        self._leaves = tuple(
            (stump.feature, stump.threshold,
             self.boost_lr * stump.left, self.boost_lr * stump.right)
            for stump in self.stumps)
        return self

    def geometry(self):
        """``(means, scales)``: the standardization of this fit."""
        return tuple(self.means), tuple(self.scales)

    def standardize(self, features):
        """One feature vector in this fit's standardized coordinates."""
        return _standardize([float(x) for x in features],
                            self.means, self.scales)

    def log_of(self, row):
        """Predicted log-space value of one standardized *row* that
        ends in the bias slot ``1.0``.

        The linear part sums ``weights[j] * row[j]`` with the bias
        term ``weights[-1] * 1.0``; the boosted part adds one
        pre-scaled leaf per stump.
        """
        terms = [math.fsum(map(mul, self.weights, row))]
        for feature, threshold, left, right in self._leaves:
            terms.append(left if row[feature] <= threshold else right)
        return math.fsum(terms)


class SurrogateEnsemble:
    """K ridge members -> (prediction, uncertainty) per target.

    Member 0 fits the full training set; members ``1..K-1`` fit
    bootstrap resamples drawn by ``random.Random(seed * 1000003 + k)``.
    Prediction is the exp of the mean member log-estimate; uncertainty
    is the std of the member log-estimates (0.0 when K == 1).
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
        self._train_rows = []       # standardized, for novelty()
        self._geometries = []       # distinct member (means, scales)
        self._scorers = {}          # target -> [(geometry, model), ...]

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
        self._train_rows = [anchor.standardize(row) for row in rows]

        index_of = {}
        self._scorers = {}
        for name in self.target_names:
            self._scorers[name] = [
                (index_of.setdefault(model.geometry(), len(index_of)),
                 model)
                for model in self.members[name]]
        self._geometries = list(index_of)
        return self

    def novelty(self, features):
        """Min standardized L1 distance to the training set.

        Bootstrap spread measures *variance* — members disagreeing —
        but a region no training point touches produces confident,
        identically-biased members (the ensemble has no information to
        disagree about).  Distance to the nearest training row in the
        standardized feature space is the complementary *coverage*
        signal: acquisition adds it to the ensemble spread so unseen
        (core, subset) regions get explored even when the model is
        confidently wrong about them.
        """
        if not self._train_rows:
            return 0.0
        anchor = self.members[self.target_names[0]][0]
        row = anchor.standardize(features)
        n_features = len(row)
        return min(
            math.fsum(map(abs, map(sub, row, train_row))) / n_features
            for train_row in self._train_rows)

    def predict(self, features):
        """``{target: (predicted_value, log_space_uncertainty)}``."""
        features = [float(x) for x in features]
        rows = [_standardize(features, means, scales) + [1.0]
                for means, scales in self._geometries]
        out = {}
        for name in self.target_names:
            logs = [model.log_of(rows[geometry])
                    for geometry, model in self._scorers[name]]
            mean = math.fsum(logs) / len(logs)
            if len(logs) > 1:
                var = math.fsum((v - mean) ** 2 for v in logs) \
                    / len(logs)
                std = math.sqrt(var)
            else:
                std = 0.0
            out[name] = (math.exp(mean), std)
        return out

    def mean_abs_log_error(self, rows, targets_by_name):
        """Mean |log(pred) - log(actual)| across rows and targets —
        the out-of-sample error statistic the EXPLORE artifact
        records per round."""
        errors = []
        for i, features in enumerate(rows):
            predicted = self.predict(features)
            for name in self.target_names:
                actual = max(targets_by_name[name][i], _LOG_FLOOR)
                errors.append(abs(math.log(predicted[name][0])
                                  - math.log(actual)))
        if not errors:
            return 0.0
        return math.fsum(errors) / len(errors)
