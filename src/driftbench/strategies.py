"""Streaming strategies: the GAN detector plus the three baselines.

Every strategy wraps a Hoeffding tree, is initialized on the first
``rho`` labeled instances, and then answers ``steps(xs, ys)`` with the
prediction for each instance made before its label is seen;
``step(x, y)`` is its one-instance call.
"""

from __future__ import annotations

from collections import deque

from .detector import DetectorConfig, DriftGanDetector
from .tree import HoeffdingTreeClassifier

STRATEGY_KINDS = ("driftgan", "initial_learn", "regular_update", "regular_retrain")


class Strategy:
    kind = "base"

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
        made before its label is seen."""
        if not self._initialized:
            raise RuntimeError("strategy not initialized")
        return self._steps(xs, ys)

    def _steps(self, xs, ys) -> list[int]:
        predictions = []
        for x, y in zip(xs, ys):
            predictions.append(self.classifier.predict(x))
            self._learn(x, int(y))
        return predictions

    def _learn(self, x, y: int) -> None:
        raise NotImplementedError


class InitialLearnStrategy(Strategy):
    """Train once on the initial window, never update."""

    kind = "initial_learn"

    def _learn(self, x, y: int) -> None:
        pass


class RegularUpdateStrategy(Strategy):
    """Incrementally update the tree on every labeled instance."""

    kind = "regular_update"

    def _learn(self, x, y: int) -> None:
        self.classifier.partial_fit(x, y)


class RegularRetrainStrategy(Strategy):
    """Update incrementally and rebuild from the trailing window on a schedule."""

    kind = "regular_retrain"

    def __init__(self, n_features, n_classes, rho=100, retrain_interval=None):
        super().__init__(n_features, n_classes, rho)
        if retrain_interval is None:
            retrain_interval = rho
        elif retrain_interval < 1:
            raise ValueError("retrain_interval must be at least 1")
        self.retrain_interval = retrain_interval
        self._window: deque = deque(maxlen=rho)
        self._since_retrain = 0

    def get_params(self) -> dict:
        params = super().get_params()
        params["retrain_interval"] = self.retrain_interval
        return params

    def initialize(self, instances) -> None:
        super().initialize(instances)
        self._window.extend(instances)

    def _learn(self, x, y: int) -> None:
        self.classifier.partial_fit(x, y)
        self._window.append((x, y))
        self._since_retrain += 1
        if self._since_retrain >= self.retrain_interval:
            self._since_retrain = 0
            self.classifier.reset()
            self.classifier.fit_many(self._window)


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
        self.detector.initialize([x for x, _ in instances])
        for x, y in instances:
            self.detector.add_exemplar(x, y)

    def _steps(self, xs, ys) -> list[int]:
        """Up to each decision of the detector: step the tree over the
        rows, hand them to the detector in one call, and retrain on a
        drift before the next row is predicted; the order of a
        row-by-row loop, so every decision, retrain and prediction keeps
        its place."""
        tree, detector = self.classifier, self.detector
        predictions = []
        lo = 0
        while lo < len(xs):
            hi = min(len(xs), lo + detector.rows_to_decision)
            X, y = xs[lo:hi], ys[lo:hi]
            for x, label in zip(X, y):
                predictions.append(tree.predict(x))
                tree.partial_fit(x, label)
            event = detector.observe_batch(X, y, ahead=(xs, hi))
            if event is not None:
                self._retrain(event)
            lo = hi
        return predictions

    def _retrain(self, event) -> None:
        training = []
        if event.kind == "recurring":
            training.extend(self.detector.historical_sample(event.dist_id))
        training.extend(self.detector.last_batch)
        self.classifier.reset()
        self.classifier.fit_many(training)


def make_strategy(kind: str, n_features: int, n_classes: int, *, rho: int = 100,
                  retrain_interval: int | None = None,
                  config: DetectorConfig | None = None) -> Strategy:
    if kind == "driftgan":
        if config is None:
            config = DetectorConfig(rho=rho)
        elif config.rho != rho:
            raise ValueError(f"rho={rho} differs from the config's rho={config.rho}")
        return DriftGanStrategy(n_features, n_classes, config)
    if kind == "initial_learn":
        return InitialLearnStrategy(n_features, n_classes, rho)
    if kind == "regular_update":
        return RegularUpdateStrategy(n_features, n_classes, rho)
    if kind == "regular_retrain":
        return RegularRetrainStrategy(n_features, n_classes, rho, retrain_interval)
    raise ValueError(f"unknown strategy {kind!r}; choose from {STRATEGY_KINDS}")
