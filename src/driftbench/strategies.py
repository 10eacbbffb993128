"""Streaming strategies: the GAN detector plus the three baselines.

Every strategy wraps a Hoeffding tree, is initialized on the first
``rho`` labeled instances, rows ``X`` with labels ``y``, and then answers
``steps(xs, ys)`` with the prediction for each instance made before its
label is seen; ``step(x, y)`` is its one-instance call.

``Strategy.steps`` is the one test-then-train loop. Up to each boundary
of the strategy it predicts each row and then learns it, unless the
strategy never learns. The strategy then sees those rows and may name a
training set, rows with their labels, and the loop rebuilds the tree
from it through ``fit_many(X, y)`` before the next row is predicted. A
strategy is thus its boundary and its rebuild set. ``Strategy`` itself,
with no boundary, is ``regular_update``.

A call is checked whole before any row is learned or predicted, so a
refused ``initialize`` or ``steps`` call changes nothing: the tree's
``check_block`` for every strategy, and the detector's ``check_rows``
for ``driftgan``, which also initializes its detector before its tree
learns the window.
"""

from __future__ import annotations

import math
from collections import deque

from .detector import (
    DetectorConfig,
    DriftGanDetector,
    check_count,
    check_window,
)
from .tree import HoeffdingTreeClassifier

STRATEGY_KINDS = ("driftgan", "initial_learn", "regular_update", "regular_retrain")


class Strategy:
    """Update the tree on every labeled instance; no boundary."""

    kind = "regular_update"
    learns = True  # partial_fit each row once it is predicted

    def __init__(self, n_features: int, n_classes: int, rho: int):
        self.n_features = n_features
        self.n_classes = n_classes
        self.rho = check_count("rho", rho)
        self.classifier = HoeffdingTreeClassifier(n_features, n_classes)
        self._initialized = False

    def get_params(self) -> dict:
        return {"kind": self.kind, "n_features": self.n_features,
                "n_classes": self.n_classes, "rho": self.rho}

    @property
    def drift_events(self) -> list:
        return []

    def initialize(self, X, y) -> None:
        """Train on the first rho instances, rows ``X`` with labels ``y``
        (not scored). A window the tree's ``check_block`` refuses is a
        ValueError before any row is learned."""
        check_window(X, self.rho)
        self.classifier.check_block(X, y)
        # not fit_many, whose rows are the ones a rebuild replays
        for x, label in zip(X, y):
            self.classifier.partial_fit(x, label)
        self._initialized = True

    def step(self, x, y: int) -> int:
        return self.steps((x,), (y,))[0]

    def steps(self, xs, ys) -> list[int]:
        """Test-then-train over the next instances, rows ``xs`` with
        labels ``ys``, in stream order: the prediction for each instance,
        made before its label is seen. The one loop of every strategy
        (see the module docstring). A call the tree's ``check_block``
        refuses is a ValueError before any row is predicted."""
        if not self._initialized:
            raise RuntimeError("strategy not initialized")
        tree = self.classifier
        tree.check_block(xs, ys)
        predict = tree.predict
        learn = tree.partial_fit if self.learns else (lambda x, label: None)
        predictions = []
        lo = 0
        while lo < len(xs):
            hi = min(len(xs), lo + self._rows_to_boundary())
            X, y = xs[lo:hi], ys[lo:hi]
            for x, label in zip(X, y):
                predictions.append(predict(x))
                learn(x, label)
            training = self._rebuild_set(X, y, xs[hi:])
            if training is not None:
                tree.reset()
                tree.fit_many(*training)
            lo = hi
        return predictions

    def _rows_to_boundary(self) -> int | float:
        """Rows still to come before the strategy's next boundary."""
        return math.inf

    def _rebuild_set(self, X, y, ahead):
        """See the rows ``X``, labels ``y``, stepped since the last call,
        up to a boundary or the end of a ``steps`` call; ``ahead`` is the
        call's rows that follow them. Return the rows and labels,
        ``(X, y)``, to rebuild the tree from, or ``None``."""
        return None


class InitialLearnStrategy(Strategy):
    """Train once on the initial window, never update."""

    kind = "initial_learn"
    learns = False


class RegularRetrainStrategy(Strategy):
    """Update incrementally and rebuild from the trailing window on a schedule."""

    kind = "regular_retrain"

    def __init__(self, n_features, n_classes, rho, retrain_interval=None):
        super().__init__(n_features, n_classes, rho)
        self.retrain_interval = (
            self.rho if retrain_interval is None
            else check_count("retrain_interval", retrain_interval))
        # the trailing window's rows and labels
        self._rows: deque = deque(maxlen=self.rho)
        self._labels: deque = deque(maxlen=self.rho)
        self._since_retrain = 0

    def get_params(self) -> dict:
        params = super().get_params()
        params["retrain_interval"] = self.retrain_interval
        return params

    def initialize(self, X, y) -> None:
        super().initialize(X, y)
        self._rows.extend(X)
        self._labels.extend(y)

    def _rows_to_boundary(self) -> int:
        return self.retrain_interval - self._since_retrain

    def _rebuild_set(self, X, y, ahead):
        self._rows.extend(X)
        self._labels.extend(y)
        self._since_retrain += len(X)
        if self._since_retrain < self.retrain_interval:
            return None
        self._since_retrain = 0
        return self._rows, self._labels


class DriftGanStrategy(Strategy):
    """Reset and retrain the tree whenever the GAN detector signals a drift.

    On a recurring drift the retraining set is a sample of the matched
    distribution's stored exemplars followed by the triggering batch; on
    a new drift only the triggering batch is available.
    """

    kind = "driftgan"

    def __init__(self, n_features, n_classes, config: DetectorConfig):
        super().__init__(n_features, n_classes, config.rho)
        self.detector = DriftGanDetector(config)

    def get_params(self) -> dict:
        params = super().get_params()
        params.update(vars(self.detector.config))
        return params

    @property
    def drift_events(self) -> list:
        return self.detector.events

    def initialize(self, X, y) -> None:
        # the tree learns last, so a window the detector refuses leaves
        # the strategy as it was
        self.classifier.check_block(X, y)
        self.detector.initialize(X)
        self.detector.add_exemplars(X, y)
        super().initialize(X, y)

    def steps(self, xs, ys) -> list[int]:
        """``Strategy.steps``; rows the detector's ``check_rows`` refuses
        are a ValueError before any row is predicted."""
        if len(xs):
            xs = self.detector.check_rows(xs)
        return super().steps(xs, ys)

    def _rows_to_boundary(self) -> int:
        return self.detector.rows_to_decision

    def _rebuild_set(self, X, y, ahead):
        event = self.detector.observe_batch(X, y, ahead=ahead)
        if event is None:
            return None
        rows, labels = self.detector.last_batch
        if event.kind == "recurring":
            past_rows, past_labels = self.detector.historical_sample(
                event.dist_id)
            rows, labels = past_rows + rows, past_labels + labels
        return rows, labels


def make_strategy(kind: str, n_features: int, n_classes: int, *,
                  rho: int | None = None, retrain_interval: int | None = None,
                  config: DetectorConfig | None = None) -> Strategy:
    """A strategy of one of ``STRATEGY_KINDS``. The window is given once,
    for every kind: a given ``rho`` must equal a given config's, and
    either sets it (default 100)."""
    if config is None:
        config = DetectorConfig() if rho is None else DetectorConfig(rho=rho)
    elif rho not in (None, config.rho):
        raise ValueError(f"rho={rho} differs from the config's rho={config.rho}")
    rho = config.rho
    if kind == "driftgan":
        return DriftGanStrategy(n_features, n_classes, config)
    if kind == "initial_learn":
        return InitialLearnStrategy(n_features, n_classes, rho)
    if kind == "regular_update":
        return Strategy(n_features, n_classes, rho)
    if kind == "regular_retrain":
        return RegularRetrainStrategy(n_features, n_classes, rho, retrain_interval)
    raise ValueError(f"unknown strategy {kind!r}; choose from {STRATEGY_KINDS}")
