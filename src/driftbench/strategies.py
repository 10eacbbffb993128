"""Streaming strategies: the GAN detector plus the three baselines.

Every strategy wraps a Hoeffding tree, is initialized on the first
``rho`` labeled instances, and then answers ``steps(xs, ys)`` with the
prediction for each instance made before its label is seen;
``step(x, y)`` is its one-instance call.

``Strategy.steps`` is the one test-then-train loop. Up to each boundary
of the strategy it predicts each row and then learns it, unless the
strategy never learns. The strategy then sees those rows and may name a
training set, and the loop rebuilds the tree from it before the next
row is predicted. A strategy is thus its boundary and its rebuild set.
"""

from __future__ import annotations

import math
from collections import deque

from .detector import DetectorConfig, DriftGanDetector
from .tree import HoeffdingTreeClassifier

STRATEGY_KINDS = ("driftgan", "initial_learn", "regular_update", "regular_retrain")


class Strategy:
    """Update the tree on every labeled instance; no boundary."""

    kind = "base"
    learns = True  # partial_fit each row once it is predicted

    def __init__(self, n_features: int, n_classes: int, rho: int = 100):
        self.n_features = n_features
        self.n_classes = n_classes
        self.rho = rho
        self.classifier = HoeffdingTreeClassifier(n_features, n_classes)
        self._initialized = False

    def get_params(self) -> dict:
        return {"kind": self.kind, "n_features": self.n_features,
                "n_classes": self.n_classes, "rho": self.rho}

    @property
    def drift_events(self) -> list:
        return []

    def initialize(self, instances) -> None:
        """Train on the first rho ``(x, y)`` instances (not scored)."""
        if len(instances) < self.rho:
            raise ValueError(f"need {self.rho} instances to initialize")
        for x, y in instances:
            self.classifier.partial_fit(x, y)
        self._initialized = True

    def step(self, x, y: int) -> int:
        return self.steps((x,), (y,))[0]

    def steps(self, xs, ys) -> list[int]:
        """Test-then-train over the next instances, rows ``xs`` with
        labels ``ys``, in stream order: the prediction for each instance,
        made before its label is seen. The one loop of every strategy
        (see the module docstring)."""
        if not self._initialized:
            raise RuntimeError("strategy not initialized")
        tree = self.classifier
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
            training = self._rebuild_set(X, y, (xs, hi))
            if training is not None:
                tree.reset()
                tree.fit_many(training)
            lo = hi
        return predictions

    def _rows_to_boundary(self) -> int | float:
        """Rows still to come before the strategy's next boundary."""
        return math.inf

    def _rebuild_set(self, X, y, ahead):
        """See the rows ``X``, labels ``y``, stepped since the last call,
        up to a boundary or the end of a ``steps`` call; ``ahead`` is the
        call's rows and the index in them of the next row. Return the
        ``(x, y)`` pairs to rebuild the tree from, or ``None``."""
        return None


class InitialLearnStrategy(Strategy):
    """Train once on the initial window, never update."""

    kind = "initial_learn"
    learns = False


class RegularUpdateStrategy(Strategy):
    """Incrementally update the tree on every labeled instance."""

    kind = "regular_update"


class RegularRetrainStrategy(Strategy):
    """Update incrementally and rebuild from the trailing window on a schedule."""

    kind = "regular_retrain"

    def __init__(self, n_features, n_classes, rho=100, retrain_interval=None):
        super().__init__(n_features, n_classes, rho)
        if retrain_interval is not None and retrain_interval < 1:
            raise ValueError("retrain_interval must be at least 1")
        self.retrain_interval = retrain_interval or rho
        self._window: deque = deque(maxlen=rho)
        self._since_retrain = 0

    def get_params(self) -> dict:
        params = super().get_params()
        params["retrain_interval"] = self.retrain_interval
        return params

    def initialize(self, instances) -> None:
        super().initialize(instances)
        self._window.extend(instances)

    def _rows_to_boundary(self) -> int:
        return self.retrain_interval - self._since_retrain

    def _rebuild_set(self, X, y, ahead):
        self._window.extend(zip(X, y))
        self._since_retrain += len(X)
        if self._since_retrain < self.retrain_interval:
            return None
        self._since_retrain = 0
        return self._window


class DriftGanStrategy(Strategy):
    """Reset and retrain the tree whenever the GAN detector signals a drift.

    On a recurring drift the retraining set is the triggering batch plus a
    sample of the matched distribution's stored exemplars; on a new drift
    only the triggering batch is available.
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

    def initialize(self, instances) -> None:
        super().initialize(instances)
        X, y = zip(*instances)
        self.detector.initialize(X)
        self.detector.add_exemplars(X, y)

    def _rows_to_boundary(self) -> int:
        return self.detector.rows_to_decision

    def _rebuild_set(self, X, y, ahead):
        event = self.detector.observe_batch(X, y, ahead=ahead)
        if event is None:
            return None
        training = (self.detector.historical_sample(event.dist_id)
                    if event.kind == "recurring" else [])
        return training + self.detector.last_batch


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
        return RegularUpdateStrategy(n_features, n_classes, rho)
    if kind == "regular_retrain":
        return RegularRetrainStrategy(n_features, n_classes, rho, retrain_interval)
    raise ValueError(f"unknown strategy {kind!r}; choose from {STRATEGY_KINDS}")
