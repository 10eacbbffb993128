"""Incremental Hoeffding tree (VFDT) classifier.

Numeric features only; binary splits chosen by information gain with
Gaussian per-class estimators and a fixed grid of candidate thresholds.
The tree is fully deterministic: the same instance sequence always
produces the same tree.
"""

from __future__ import annotations

import math

import numpy as np

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
    """Sufficient statistics kept at a leaf.

    Every feature of an instance is seen with its class, so one count
    per class serves all of that class's per-feature accumulators.
    """

    def __init__(self, n_features: int, n_classes: int):
        self.class_counts = np.zeros(n_classes)
        # per-class Welford accumulators, one row of features per class
        self.means = np.zeros((n_classes, n_features))
        self.m2 = np.zeros((n_classes, n_features))
        self.feat_min = np.full(n_features, np.inf)
        self.feat_max = np.full(n_features, -np.inf)

    def update(self, x: np.ndarray, y: int) -> None:
        self.class_counts[y] += 1
        np.minimum(self.feat_min, x, out=self.feat_min)
        np.maximum(self.feat_max, x, out=self.feat_max)
        means = self.means[y]
        delta = x - means
        means += delta / self.class_counts[y]
        self.m2[y] += delta * (x - means)

    def std(self, feature: int, label: int) -> float:
        n = self.class_counts[label]
        if n < 2:
            return 0.0
        return math.sqrt(self.m2[label, feature] / n)


class _Node:
    __slots__ = ("stats", "split_feature", "split_threshold", "left", "right",
                 "fallback_label", "seen_since_eval")

    def __init__(self, n_features: int, n_classes: int, fallback_label: int = 0):
        self.stats = _LeafStats(n_features, n_classes)
        self.split_feature = None
        self.split_threshold = None
        self.left = None
        self.right = None
        self.fallback_label = fallback_label
        self.seen_since_eval = 0

    def is_leaf(self) -> bool:
        return self.split_feature is None

    def sort(self, x: np.ndarray) -> "_Node":
        node = self
        while not node.is_leaf():
            if x[node.split_feature] <= node.split_threshold:
                node = node.left
            else:
                node = node.right
        return node

    def majority(self) -> int:
        counts = self.stats.class_counts
        if not counts.any():
            return self.fallback_label
        return int(counts.argmax())


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
        return self._root.sort(arr).majority()

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

    def fit_many(self, instances) -> None:
        """partial_fit over an iterable of (x, y) pairs."""
        for x, y in instances:
            self.partial_fit(x, y)

    # -- split machinery ----------------------------------------------------

    def _try_split(self, leaf: _Node) -> None:
        stats = leaf.stats
        if np.count_nonzero(stats.class_counts) < 2:
            return
        merits = []  # (gain, feature, threshold), best per feature
        parent_entropy = _entropy(stats.class_counts)
        total = stats.class_counts.sum()
        for f in range(self.n_features):
            best = None
            lo, hi = stats.feat_min[f], stats.feat_max[f]
            if not lo < hi:
                continue
            step = (hi - lo) / (N_SPLIT_POINTS + 1)
            for i in range(1, N_SPLIT_POINTS + 1):
                t = lo + i * step
                left = self._left_counts(stats, f, t)
                right = stats.class_counts - left
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
        for c in range(self.n_classes):
            n = stats.class_counts[c]
            if n <= 0:
                continue
            sd = stats.std(feature, c)
            if sd <= 0.0:
                frac = 1.0 if stats.means[c, feature] <= t else 0.0
            else:
                frac = _normal_cdf((t - stats.means[c, feature]) / sd)
            left[c] = n * frac
        return left

    def _split(self, leaf: _Node, feature: int, threshold: float) -> None:
        fallback = leaf.majority()
        leaf.split_feature = feature
        leaf.split_threshold = threshold
        leaf.left = _Node(self.n_features, self.n_classes, fallback)
        leaf.right = _Node(self.n_features, self.n_classes, fallback)
        leaf.stats = _LeafStats(self.n_features, self.n_classes)

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
