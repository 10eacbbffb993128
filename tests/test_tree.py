"""Unit tests for the incremental Hoeffding tree."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftbench import tree as tree_module
from driftbench.tree import (
    HoeffdingTreeClassifier,
    _LeafStats,
    _normal_cdf,
    hoeffding_bound,
)


def test_hoeffding_bound_oracle():
    # independent recomputation of sqrt(R^2 ln(1/delta) / 2n)
    expected = math.sqrt(1.0 * math.log(1e7) / 2000.0)
    assert abs(hoeffding_bound(1.0, 1e-7, 1000) - expected) < 1e-12
    assert abs(hoeffding_bound(1.0, 1e-7, 1000) - 0.089772) < 1e-6


def test_hoeffding_bound_quadruple_n_halves_exactly():
    for n in (1, 10, 1000):
        assert hoeffding_bound(2.0, 1e-7, 4 * n) == hoeffding_bound(2.0, 1e-7, n) / 2


def test_hoeffding_bound_validation():
    with pytest.raises(ValueError):
        hoeffding_bound(1.0, 1e-7, 0)
    with pytest.raises(ValueError):
        hoeffding_bound(1.0, 0.0, 10)
    with pytest.raises(ValueError):
        hoeffding_bound(0.0, 1e-7, 10)


def test_cold_start_predicts_label_zero():
    tree = HoeffdingTreeClassifier(n_features=3, n_classes=4)
    assert tree.predict(np.zeros(3)) == 0


def test_majority_vote_before_any_split():
    tree = HoeffdingTreeClassifier(n_features=1, n_classes=2)
    for _ in range(5):
        tree.partial_fit([0.0], 1)
    tree.partial_fit([0.0], 0)
    assert tree.predict([123.0]) == 1


def rule_stream(n, seed=0):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1.0, 1.0, size=(n, 1))
    ys = (xs[:, 0] > 0).astype(int)
    return xs, ys


def test_noiseless_rule_stream_prequential_accuracy():
    tree = HoeffdingTreeClassifier(n_features=1, n_classes=2)
    xs, ys = rule_stream(5000)
    correct = 0
    for x, y in zip(xs, ys):
        correct += tree.predict(x) == y
        tree.partial_fit(x, y)
    assert correct / len(xs) >= 0.95
    assert tree.n_nodes() > 1


def test_deterministic_replay():
    xs, ys = rule_stream(3000, seed=5)
    preds = []
    for _ in range(2):
        tree = HoeffdingTreeClassifier(n_features=1, n_classes=2)
        run = []
        for x, y in zip(xs, ys):
            run.append(tree.predict(x))
            tree.partial_fit(x, y)
        preds.append(run)
    assert preds[0] == preds[1]


def test_no_split_before_grace_period():
    tree = HoeffdingTreeClassifier(n_features=1, n_classes=2)
    xs, ys = rule_stream(199)
    tree.fit_many(xs, ys)
    assert tree.n_nodes() == 1


def test_gain_gap_splits_at_first_evaluation():
    # one dominant feature, one weak, two pure-noise features: the
    # best-vs-second gain gap beats the bound as soon as grace elapses
    rng = np.random.default_rng(3)
    means = np.array([[6.0, 0.5, 0.0, 0.0], [-6.0, -0.5, 0.0, 0.0]])
    tree = HoeffdingTreeClassifier(n_features=4, n_classes=2)
    for _ in range(200):
        y = rng.integers(0, 2)
        tree.partial_fit(means[y] + rng.normal(0, 0.5, 4), y)
    assert tree.n_nodes() == 3
    # the split must be on the dominant feature
    assert tree._root.split_feature == 0


def test_reset_returns_to_cold_start():
    tree = HoeffdingTreeClassifier(n_features=1, n_classes=2)
    xs, ys = rule_stream(1000)
    tree.fit_many(xs, ys)
    assert tree.n_nodes() > 1
    tree.reset()
    assert tree.n_nodes() == 1
    assert tree.predict([0.5]) == 0


def test_fit_many_needs_one_label_per_row_before_it_learns_any():
    tree = HoeffdingTreeClassifier(n_features=1, n_classes=2)
    xs, ys = rule_stream(1000)
    tree.fit_many(xs[:100], ys[:100])
    nodes, prediction = tree.n_nodes(), tree.predict([-0.5])
    # had its 899 labeled rows been learned, the tree would have split
    with pytest.raises(ValueError,
                       match="need one label per row, got 900 rows and 899 labels"):
        tree.fit_many(xs[100:], ys[100:-1])
    assert tree.n_nodes() == nodes == 1
    assert tree.predict([-0.5]) == prediction


def test_input_validation():
    tree = HoeffdingTreeClassifier(n_features=2, n_classes=2)
    with pytest.raises(ValueError):
        tree.partial_fit([1.0], 0)  # wrong feature count
    with pytest.raises(ValueError):
        tree.partial_fit([1.0, 2.0], 2)  # label out of range
    with pytest.raises(ValueError):
        HoeffdingTreeClassifier(n_features=0, n_classes=2)


# -- the leaf layout against the per-(feature, class) reference ---------------


class ReferenceLeafStats:
    """The per-(feature, class) Welford leaf, with a count per pair, and
    the majority taken by argmax (the fallback label while empty)."""

    def __init__(self, n_features, n_classes, fallback_label=0):
        self.class_counts = np.zeros(n_classes)
        self.counts = np.zeros((n_features, n_classes))
        self.means = np.zeros((n_features, n_classes))
        self.m2 = np.zeros((n_features, n_classes))
        self.feat_min = np.full(n_features, np.inf)
        self.feat_max = np.full(n_features, -np.inf)
        self.fallback_label = fallback_label

    def update(self, x, y):
        self.class_counts[y] += 1
        self.feat_min = np.minimum(self.feat_min, x)
        self.feat_max = np.maximum(self.feat_max, x)
        self.counts[:, y] += 1
        delta = x - self.means[:, y]
        self.means[:, y] += delta / self.counts[:, y]
        self.m2[:, y] += delta * (x - self.means[:, y])

    @property
    def majority(self):
        if not self.class_counts.any():
            return self.fallback_label
        return int(self.class_counts.argmax())

    def std(self, feature, label):
        n = self.counts[feature, label]
        if n < 2:
            return 0.0
        return math.sqrt(self.m2[feature, label] / n)


def reference_entropy(counts):
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


class ReferenceTree(HoeffdingTreeClassifier):
    """A tree whose split search reads the reference leaf layout, one
    candidate threshold at a time: each takes its own left counts and
    entropies. It skips a feature whose range is not finite, as the
    tree does."""

    def _try_split(self, leaf):
        counts = np.array(leaf.stats.class_counts)
        merits = self._merits(leaf.stats)
        if not merits:
            return
        merits.sort(key=lambda m: (-m[0], m[1]))
        best_gain = merits[0][0]
        second_gain = merits[1][0] if len(merits) > 1 else 0.0
        if best_gain <= 0.0:
            return
        value_range = math.log2(self.n_classes) if self.n_classes > 1 else 1.0
        bound = hoeffding_bound(value_range, tree_module.SPLIT_CONFIDENCE,
                                int(counts.sum()))
        if best_gain - second_gain > bound or bound < tree_module.TIE_THRESHOLD:
            self._split(leaf, merits[0][1], merits[0][2])

    def _merits(self, stats):
        counts = np.array(stats.class_counts)
        if np.count_nonzero(counts) < 2:
            return []
        merits = []  # (gain, feature, threshold), best per feature
        parent_entropy = reference_entropy(counts)
        total = counts.sum()
        for f in range(self.n_features):
            best = None
            lo, hi = stats.feat_min[f], stats.feat_max[f]
            if not (lo < hi and math.isfinite(hi - lo)):
                continue
            step = (hi - lo) / (tree_module.N_SPLIT_POINTS + 1)
            for i in range(1, tree_module.N_SPLIT_POINTS + 1):
                t = lo + i * step
                left = self._left_counts(stats, f, t)
                right = counts - left
                nl, nr = left.sum(), right.sum()
                if nl <= 0 or nr <= 0:
                    continue
                gain = parent_entropy - (
                    nl * reference_entropy(left) + nr * reference_entropy(right)
                ) / total
                if best is None or gain > best[0]:
                    best = (gain, f, t)
            if best is not None:
                merits.append(best)
        return merits

    def _left_counts(self, stats, feature, t):
        left = np.zeros(self.n_classes)
        for c in range(self.n_classes):
            if stats.counts[feature, c] <= 0:
                continue
            sd = stats.std(feature, c)
            if sd <= 0.0:
                frac = 1.0 if stats.means[feature, c] <= t else 0.0
            else:
                frac = _normal_cdf((t - stats.means[feature, c]) / sd)
            left[c] = stats.class_counts[c] * frac
        return left


def three_class_stream(n, seed=0):
    """Three classes set by nested thresholds on three of four features
    (the fourth is noise on another scale), with 5% of labels redrawn."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1.0, 1.0, size=(n, 4)) * [1.0, 2.0, 0.5, 1e3]
    ys = np.where(xs[:, 0] < -0.3, 0, np.where(xs[:, 1] < 0.5, 1, 2))
    ys[(xs[:, 0] > 0.6) & (xs[:, 2] > 0.0)] = 0
    flip = rng.random(n) < 0.05
    ys[flip] = rng.integers(0, 3, size=flip.sum())
    return xs, ys


def nan_blind_bytes(values):
    """The bytes of ``values`` with every NaN made the same NaN. Given two
    NaNs, ``+`` and ``*`` may return either one: compilers order the
    operands of a commutative operation freely, and CPython's float
    arithmetic and numpy's loops pick different ones. No comparison in
    the tree can tell two NaNs apart."""
    values = np.asarray(values, dtype=float)
    return np.where(np.isnan(values), np.nan, values).tobytes()


def assert_same_stats(stats, ref):
    """A leaf's statistics against the reference: counts by their bytes,
    the Welford sums and stds by their bytes up to NaN, minima and maxima
    by value (NaN equal to NaN). Which zero of a +-0.0 tie and which of
    two NaNs np.minimum/np.maximum keep varies with numpy's build and the
    CPU; either gives the split search the same thresholds, and a held
    NaN makes it skip the feature either way."""
    assert np.array(stats.class_counts).tobytes() == ref.class_counts.tobytes()
    assert np.array_equal(stats.feat_min, ref.feat_min, equal_nan=True)
    assert np.array_equal(stats.feat_max, ref.feat_max, equal_nan=True)
    assert nan_blind_bytes(stats.means) == nan_blind_bytes(ref.means.T)
    assert nan_blind_bytes(stats.m2) == nan_blind_bytes(ref.m2.T)
    n_features, n_classes = ref.means.shape
    for f in range(n_features):
        for c in range(n_classes):
            assert nan_blind_bytes(stats.std(f, c)) == nan_blind_bytes(ref.std(f, c))


def test_leaf_stats_equal_the_per_feature_class_reference():
    xs, ys = three_class_stream(5000)
    stats, ref = _LeafStats(4, 3), ReferenceLeafStats(4, 3)
    for x, y in zip(xs, ys):
        stats.update(x, y)
        ref.update(x, y)
    assert np.array_equal(ref.counts, np.tile(ref.class_counts, (4, 1)))
    assert_same_stats(stats, ref)


# finite values, some repeated, beside the values IEEE treats specially
LEAF_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1.0, -1.0]),
    st.floats(-1e6, 1e6),
)


@st.composite
def leaf_streams(draw):
    n_features = draw(st.integers(1, 4))
    n_classes = draw(st.integers(1, 4))
    fallback = draw(st.integers(0, n_classes - 1))
    row = st.tuples(st.lists(LEAF_VALUES, min_size=n_features, max_size=n_features),
                    st.integers(0, n_classes - 1))
    pool = draw(st.lists(row, min_size=1, max_size=6))
    rows = draw(st.lists(st.sampled_from(pool), max_size=40))
    return n_features, n_classes, fallback, rows


@settings(max_examples=300, deadline=None)
@given(leaf_streams())
@example((1, 1, 0, [([math.nan], 0), ([1.0], 0), ([-1.0], 0)]))  # a held NaN stays
def test_leaf_stats_equal_the_reference_on_any_rows(stream):
    n_features, n_classes, fallback, rows = stream
    stats = _LeafStats(n_features, n_classes, fallback)
    ref = ReferenceLeafStats(n_features, n_classes, fallback)
    assert stats.majority == fallback
    with np.errstate(invalid="ignore"):  # inf - inf is one of the inputs
        for features, y in rows:
            x = np.array(features)
            stats.update(x, y)
            ref.update(x, y)
            # the lowest-index argmax, since the leaf is no longer empty
            assert stats.majority == ref.majority == int(ref.class_counts.argmax())
    assert_same_stats(stats, ref)


def test_tree_on_either_leaf_layout_grows_the_same_tree(monkeypatch):
    xs, ys = three_class_stream(5000, seed=1)

    def prequential(tree):
        preds = []
        for x, y in zip(xs, ys):
            preds.append(tree.predict(x))
            tree.partial_fit(x, y)
        return preds

    tree = HoeffdingTreeClassifier(n_features=4, n_classes=3)
    preds = prequential(tree)
    monkeypatch.setattr(tree_module, "_LeafStats", ReferenceLeafStats)
    reference = ReferenceTree(n_features=4, n_classes=3)
    assert preds == prequential(reference)
    assert tree.n_nodes() == reference.n_nodes() > 1


# -- the split search against the per-candidate reference ---------------------


def split_search(tree, stats, rows):
    """``tree``'s split search on one leaf that has learned ``rows`` into
    ``stats``: each feature's best candidate, its gain and threshold as
    bytes, and the decision, None or the split's feature and its
    threshold's bytes."""
    leaf = tree_module._Node(tree.n_features, tree.n_classes)
    leaf.stats = stats
    for features, y in rows:
        stats.update(np.array(features), y)
    merits = [(np.float64(gain).tobytes(), f, np.float64(t).tobytes())
              for gain, f, t in tree._merits(stats)]
    tree._try_split(leaf)
    if leaf.is_leaf():
        return merits, None
    return merits, (leaf.split_feature,
                    np.float64(leaf.split_threshold).tobytes())


# repeated values, +-0.0 and the non-finite values a feature is skipped for
SPLIT_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.nan, math.inf, -math.inf]),
    st.integers(-3, 3).map(float),
    st.floats(-1e3, 1e3),
)


@st.composite
def split_leaves(draw):
    """Rows of up to 12 classes, some of them (class 0 too) empty; each
    present class repeats rows of its own small pool, so one-row and
    zero-sigma classes are common; and whether every positive best gain
    splits, so that the decision shows which candidate won."""
    n_features = draw(st.integers(1, 3))
    n_classes = draw(st.integers(1, 12))
    present = draw(st.lists(st.integers(0, n_classes - 1), min_size=1,
                            unique=True))
    row = st.lists(SPLIT_VALUES, min_size=n_features, max_size=n_features)
    rows = []
    for c in present:
        pool = draw(st.lists(row, min_size=1, max_size=4))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                              max_size=30))
        rows += [(pool[i], c) for i in picks]
    rows = draw(st.permutations(rows))
    return n_features, n_classes, rows, draw(st.booleans())


def nine_classes_without_class_0():
    """A leaf of split_leaves' form: 60 rows of classes 1-8 of 9, each
    about its own mean, so both sides of most candidates hold 8 nonempty
    classes, whose terms numpy's pairwise sum groups by position."""
    rng = np.random.default_rng(0)
    ys = rng.integers(1, 9, size=60)
    xs = rng.normal(0.2 * ys[:, None], 1.0, size=(60, 2)).round(3)
    return 2, 9, [(x.tolist(), int(y)) for x, y in zip(xs, ys)], True


@settings(max_examples=300, deadline=None)
@given(split_leaves())
@example(nine_classes_without_class_0())
def test_split_search_gains_and_decision_equal_the_per_candidate_reference(leaf):
    n_features, n_classes, rows, split_any_gain = leaf
    tie = 2.0 if split_any_gain else tree_module.TIE_THRESHOLD
    with mock.patch.object(tree_module, "TIE_THRESHOLD", tie), \
            np.errstate(invalid="ignore", over="ignore"):
        search = split_search(
            HoeffdingTreeClassifier(n_features, n_classes),
            _LeafStats(n_features, n_classes), rows)
        reference = split_search(
            ReferenceTree(n_features, n_classes),
            ReferenceLeafStats(n_features, n_classes), rows)
    assert search == reference


@pytest.mark.parametrize("n_classes", [1, 2, 3, 7, 8, 9, 16, 33, 300])
def test_entropies_keep_the_bits_of_each_rows_compressed_1d_entropy(n_classes):
    # from 8 nonzero counts on, numpy's pairwise sum groups terms by their
    # position, so a row's sum keeps its bits only if its zero counts are
    # left out; np.log2 keeps them at any length, math.log2 does not
    rng = np.random.default_rng(n_classes)
    counts = rng.random((1000, n_classes)) * rng.choice([1.0, 1e2, 1e6], (1000, 1))
    counts[rng.random(counts.shape) < 0.3] = 0.0
    counts[counts.sum(axis=1) == 0, -1] = 1.0
    entropies = tree_module._entropies(counts, counts.sum(axis=1))
    assert entropies.tobytes() == np.array(
        [reference_entropy(row) for row in counts]).tobytes()


@pytest.mark.parametrize("held", [-math.inf, math.inf, math.nan])
def test_a_held_non_finite_value_skips_only_its_feature(held):
    # feature 1 separates the classes; feature 0 is noise whose first
    # value is not finite, so its range is not finite, or is NaN
    rng = np.random.default_rng(0)
    ys = rng.integers(0, 2, size=1000)
    xs = np.column_stack([rng.normal(size=1000), rng.normal(3.0 * ys, 1.0)])
    xs[0, 0] = held
    tree = HoeffdingTreeClassifier(n_features=2, n_classes=2)
    tree.fit_many(xs, ys)
    assert tree._root.split_feature == 1
