"""Incremental Hoeffding tree (VFDT) classifier.

Numeric features only; binary splits chosen by information gain with
Gaussian per-class estimators and a fixed grid of candidate thresholds.
The tree is fully deterministic: the same instance sequence always
produces the same tree.

A leaf keeps its statistics as Python float lists and updates them in
one loop over the instance. On the narrow streams the benchmarks run
(4 features) that beats whole-row numpy ufuncs: about ten numpy calls
per update, whose fixed per-call overhead sets their cost, against
about 0.15-0.3 µs per feature in Python. On a 2-vCPU x86-64 VM (Python
3.11, numpy 2.4), one leaf update took 1.1 µs as lists against 3.9 µs
as numpy rows at d = 4 and 2.9 against 3.6 at d = 16, but 5.2 against
3.7 at d = 32, 9.1 against 3.8 at d = 54 and 85 against 6.1 at d = 499:
on wide streams the loop is the slower of the two.
"""

from __future__ import annotations

import math

import numpy as np

from .detector import check_labels

GRACE_PERIOD = 200        # instances a leaf sees between split evaluations
SPLIT_CONFIDENCE = 1e-7   # delta of the Hoeffding bound
TIE_THRESHOLD = 0.05      # split anyway once the bound is this tight
N_SPLIT_POINTS = 10       # candidate thresholds per feature


def hoeffding_bound(value_range: float, delta: float, n: int) -> float:
    """Confidence radius sqrt(R^2 * ln(1/delta) / (2n))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must be in (0, 1]")
    if value_range <= 0.0:
        raise ValueError("value_range must be positive")
    return math.sqrt(value_range**2 * math.log(1.0 / delta) / (2.0 * n))


def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def _normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


class _LeafStats:
    """Sufficient statistics kept at a leaf, as Python float lists.

    Every feature of an instance is seen with its class, so one count
    per class serves all of that class's per-feature accumulators.
    ``majority`` is the leaf's prediction: the lowest-index most counted
    class, or the fallback label while the leaf is empty.
    """

    def __init__(self, n_features: int, n_classes: int, majority: int = 0):
        self.class_counts = [0.0] * n_classes
        self.majority = majority
        # per-class Welford accumulators, one row of features per class
        self.means = [[0.0] * n_features for _ in range(n_classes)]
        self.m2 = [[0.0] * n_features for _ in range(n_classes)]
        self.feat_min = [math.inf] * n_features
        self.feat_max = [-math.inf] * n_features

    def update(self, x: np.ndarray, y: int) -> None:
        counts = self.class_counts
        n = counts[y] + 1.0
        counts[y] = n
        # only counts[y] grew, so it is the new majority if it overtook
        # the old one, or drew level with it from a lower index
        top = counts[self.majority]
        if n > top or (n == top and y < self.majority):
            self.majority = y
        lo, hi, means, m2 = self.feat_min, self.feat_max, self.means[y], self.m2[y]
        for f, v in enumerate(x.tolist()):
            # a NaN is held once seen, so the split search skips its feature
            if v < lo[f] or v != v:
                lo[f] = v
            if v > hi[f] or v != v:
                hi[f] = v
            mean = means[f]
            delta = v - mean
            mean += delta / n
            means[f] = mean
            m2[f] += delta * (v - mean)

    def std(self, feature: int, label: int) -> float:
        n = self.class_counts[label]
        if n < 2:
            return 0.0
        return math.sqrt(self.m2[label][feature] / n)


class _Node:
    __slots__ = ("stats", "split_feature", "split_threshold", "left", "right",
                 "seen_since_eval")

    def __init__(self, n_features: int, n_classes: int, fallback_label: int = 0):
        self.stats = _LeafStats(n_features, n_classes, fallback_label)
        self.split_feature = None
        self.split_threshold = None
        self.left = None
        self.right = None
        self.seen_since_eval = 0

    def is_leaf(self) -> bool:
        return self.split_feature is None

    def sort(self, x: np.ndarray) -> "_Node":
        node = self
        while node.split_feature is not None:
            if x[node.split_feature] <= node.split_threshold:
                node = node.left
            else:
                node = node.right
        return node


class HoeffdingTreeClassifier:
    """Very Fast Decision Tree for streaming classification.

    The settings are the usual streaming-library defaults: evaluate
    splits every ``GRACE_PERIOD`` instances at a leaf, split when the
    information-gain gap beats the Hoeffding bound at confidence
    ``SPLIT_CONFIDENCE``, or force the better split when the bound falls
    under ``TIE_THRESHOLD``.
    """

    def __init__(self, n_features: int, n_classes: int):
        if n_features < 1 or n_classes < 1:
            raise ValueError("n_features and n_classes must be positive")
        self.n_features = n_features
        self.n_classes = n_classes
        self.reset()

    def reset(self) -> None:
        """Return to the cold-start state (single empty leaf)."""
        self._root = _Node(self.n_features, self.n_classes)

    def _check_x(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.n_features,):
            raise ValueError(
                f"expected {self.n_features} features, got shape {arr.shape}"
            )
        return arr

    def predict(self, x) -> int:
        """Majority label of the leaf that x routes to (ties: lowest label)."""
        arr = self._check_x(x)
        return self._root.sort(arr).stats.majority

    def partial_fit(self, x, y: int) -> None:
        arr = self._check_x(x)
        y = int(y)
        if not 0 <= y < self.n_classes:
            raise ValueError(f"label {y} outside 0..{self.n_classes - 1}")
        leaf = self._root.sort(arr)
        leaf.stats.update(arr, y)
        leaf.seen_since_eval += 1
        if leaf.seen_since_eval >= GRACE_PERIOD:
            leaf.seen_since_eval = 0
            self._try_split(leaf)

    def check_block(self, X, y) -> None:
        """A ValueError unless ``partial_fit`` takes every row of ``X``
        with its label in ``y``: one label per row, rows of
        ``n_features``, labels in ``0..n_classes-1``. A block is checked
        whole, before any of its rows is learned, so a refused block
        changes nothing."""
        check_labels(X, y)
        if len(X) and np.shape(X)[1:] != (self.n_features,):
            raise ValueError(f"expected rows of {self.n_features} features, "
                             f"got shape {np.shape(X)}")
        labels = np.asarray(y, dtype=np.int64)
        outside = (labels < 0) | (labels >= self.n_classes)
        if outside.any():
            raise ValueError(f"label {labels[outside][0]} outside "
                             f"0..{self.n_classes - 1}")

    def fit_many(self, X, y) -> None:
        """``partial_fit`` over rows ``X`` with labels ``y``, in order. A
        block that ``check_block`` refuses is a ValueError before any row
        is learned."""
        self.check_block(X, y)
        for x, label in zip(X, y):
            self.partial_fit(x, label)

    # -- split machinery ----------------------------------------------------

    def _try_split(self, leaf: _Node) -> None:
        stats = leaf.stats
        counts = np.array(stats.class_counts)
        if np.count_nonzero(counts) < 2:
            return
        merits = []  # (gain, feature, threshold), best per feature
        parent_entropy = _entropy(counts)
        total = counts.sum()
        for f in range(self.n_features):
            best = None
            lo, hi = stats.feat_min[f], stats.feat_max[f]
            if not lo < hi:
                continue
            step = (hi - lo) / (N_SPLIT_POINTS + 1)
            for i in range(1, N_SPLIT_POINTS + 1):
                t = lo + i * step
                left = self._left_counts(stats, f, t)
                right = counts - left
                nl, nr = left.sum(), right.sum()
                if nl <= 0 or nr <= 0:
                    continue
                gain = parent_entropy - (
                    nl * _entropy(left) + nr * _entropy(right)
                ) / total
                if best is None or gain > best[0]:
                    best = (gain, f, t)
            if best is not None:
                merits.append(best)
        if not merits:
            return
        merits.sort(key=lambda m: (-m[0], m[1]))
        best_gain = merits[0][0]
        second_gain = merits[1][0] if len(merits) > 1 else 0.0
        if best_gain <= 0.0:
            return
        value_range = math.log2(self.n_classes) if self.n_classes > 1 else 1.0
        bound = hoeffding_bound(value_range, SPLIT_CONFIDENCE, int(total))
        if best_gain - second_gain > bound or bound < TIE_THRESHOLD:
            self._split(leaf, merits[0][1], merits[0][2])

    def _left_counts(self, stats: _LeafStats, feature: int, t: float) -> np.ndarray:
        left = np.zeros(self.n_classes)
        for c, n in enumerate(stats.class_counts):
            if n <= 0:
                continue
            sd = stats.std(feature, c)
            mean = stats.means[c][feature]
            if sd <= 0.0:
                frac = 1.0 if mean <= t else 0.0
            else:
                frac = _normal_cdf((t - mean) / sd)
            left[c] = n * frac
        return left

    def _split(self, leaf: _Node, feature: int, threshold: float) -> None:
        fallback = leaf.stats.majority
        leaf.split_feature = feature
        leaf.split_threshold = threshold
        leaf.left = _Node(self.n_features, self.n_classes, fallback)
        leaf.right = _Node(self.n_features, self.n_classes, fallback)
        leaf.stats = None

    # -- introspection ------------------------------------------------------

    def n_nodes(self) -> int:
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf():
                stack.extend((node.left, node.right))
        return count
