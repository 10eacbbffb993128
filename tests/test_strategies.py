"""Tests for the four streaming strategies."""

import numpy as np
import pytest

from driftbench.detector import DetectorConfig
from driftbench.strategies import STRATEGY_KINDS, make_strategy
from driftbench.streams import (
    LabeledInstance,
    SyntheticSpec,
    default_concepts,
    synth_recurring,
)
from driftbench.tree import HoeffdingTreeClassifier


def constant_stream(label, n, d=2, start=0):
    return [LabeledInstance(np.full(d, float(label)), label, start + i)
            for i in range(n)]


def test_step_predicts_before_learning():
    strategy = make_strategy("regular_update", n_features=2, n_classes=2, rho=5)
    strategy.initialize(constant_stream(0, 5))
    # the tree knows only label 0; the prediction must be made before the
    # revealed label 1 can influence it
    assert strategy.step(np.zeros(2), 1) == 0


def test_step_requires_initialization():
    strategy = make_strategy("regular_update", n_features=2, n_classes=2)
    with pytest.raises(RuntimeError):
        strategy.step(np.zeros(2), 0)


def test_initialize_requires_rho_instances():
    strategy = make_strategy("initial_learn", n_features=2, n_classes=2, rho=10)
    with pytest.raises(ValueError):
        strategy.initialize(constant_stream(0, 9))


def test_initial_learn_never_updates():
    strategy = make_strategy("initial_learn", n_features=1, n_classes=2, rho=5)
    strategy.initialize(
        [LabeledInstance(np.array([float(i)]), 0, i) for i in range(5)]
    )
    probe = np.array([2.0])
    before = strategy.classifier.predict(probe)
    for _ in range(300):
        strategy.step(probe, 1)  # labels that contradict the initial concept
    assert strategy.classifier.predict(probe) == before == 0


def test_regular_update_equals_manual_tree_replay():
    rng = np.random.default_rng(7)
    rho, n = 20, 800
    xs = rng.uniform(-1, 1, size=(rho + n, 1))
    ys = (xs[:, 0] > 0).astype(int)
    instances = [LabeledInstance(x, int(y), i)
                 for i, (x, y) in enumerate(zip(xs, ys))]

    strategy = make_strategy("regular_update", n_features=1, n_classes=2, rho=rho)
    strategy.initialize(instances[:rho])
    strat_preds = [strategy.step(inst.features, inst.label)
                   for inst in instances[rho:]]

    tree = HoeffdingTreeClassifier(n_features=1, n_classes=2)
    for inst in instances[:rho]:
        tree.partial_fit(inst.features, inst.label)
    manual_preds = []
    for inst in instances[rho:]:
        manual_preds.append(tree.predict(inst.features))
        tree.partial_fit(inst.features, inst.label)
    assert strat_preds == manual_preds


def test_regular_retrain_rebuilds_from_trailing_window():
    strategy = make_strategy("regular_retrain", n_features=2, n_classes=2,
                             rho=10, retrain_interval=10)
    strategy.initialize(constant_stream(0, 10))
    # ten instances of the opposite concept fill the window and trigger a
    # rebuild from them alone
    for inst in constant_stream(1, 10, start=10):
        strategy.step(inst.features, inst.label)
    assert strategy.classifier.predict(np.full(2, 1.0)) == 1


def test_driftgan_recovers_on_recurring_stream():
    spec = SyntheticSpec(default_concepts(), ["A", "B", "A"], [700, 700, 700])
    instances, meta = synth_recurring(spec, seed=3)
    strategy = make_strategy(
        "driftgan", meta.n_features, len(meta.label_alphabet),
        config=DetectorConfig(seed=3),
    )
    strategy.initialize(instances[:100])
    correct = 0
    for inst in instances[100:]:
        correct += strategy.step(inst.features, inst.label) == inst.label
    events = strategy.drift_events
    assert [e.kind for e in events] == ["new", "recurring"]
    assert [e.dist_id for e in events] == [2, 1]
    assert 600 <= events[0].instance_index <= 1000
    assert 1300 <= events[1].instance_index <= 1700
    assert correct / (len(instances) - 100) > 0.85


def test_driftgan_get_params_exposes_detector_config():
    strategy = make_strategy("driftgan", n_features=4, n_classes=2,
                             config=DetectorConfig(seed=5, batch_size=50))
    params = strategy.get_params()
    assert params["kind"] == "driftgan"
    assert params["batch_size"] == 50
    assert params["seed"] == 5


def test_make_strategy_driftgan_window_has_one_value():
    strategy = make_strategy("driftgan", n_features=4, n_classes=2, rho=50)
    assert strategy.rho == strategy.detector.config.rho == 50
    with pytest.raises(ValueError, match="rho"):
        make_strategy("driftgan", n_features=4, n_classes=2, rho=50,
                      config=DetectorConfig())


def test_make_strategy_kinds():
    for kind in STRATEGY_KINDS:
        strategy = make_strategy(kind, n_features=4, n_classes=2)
        assert strategy.kind == kind
    with pytest.raises(ValueError):
        make_strategy("adwin", n_features=4, n_classes=2)
