"""Tests for the four streaming strategies."""

import numpy as np
import pytest
from test_detector import StubDiscriminator

import driftbench.detector as detector_module
from driftbench.detector import DetectorConfig
from driftbench.strategies import STRATEGY_KINDS, make_strategy
from driftbench.streams import (
    LabeledInstance,
    SyntheticSpec,
    default_concepts,
    synth_recurring,
)
from driftbench.tree import HoeffdingTreeClassifier


def constant_stream(label, n, d=2):
    return [LabeledInstance(np.full(d, float(label)), label) for _ in range(n)]


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
        [LabeledInstance(np.array([float(i)]), 0) for i in range(5)]
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
    instances = list(map(LabeledInstance, xs, ys.tolist()))

    strategy = make_strategy("regular_update", n_features=1, n_classes=2, rho=rho)
    strategy.initialize(instances[:rho])
    strat_preds = [strategy.step(x, y) for x, y in instances[rho:]]

    tree = HoeffdingTreeClassifier(n_features=1, n_classes=2)
    for x, y in instances[:rho]:
        tree.partial_fit(x, y)
    manual_preds = []
    for x, y in instances[rho:]:
        manual_preds.append(tree.predict(x))
        tree.partial_fit(x, y)
    assert strat_preds == manual_preds


def test_regular_retrain_rebuilds_from_trailing_window():
    strategy = make_strategy("regular_retrain", n_features=2, n_classes=2,
                             rho=10, retrain_interval=10)
    strategy.initialize(constant_stream(0, 10))
    # ten instances of the opposite concept fill the window and trigger a
    # rebuild from them alone
    for x, y in constant_stream(1, 10):
        strategy.step(x, y)
    assert strategy.classifier.predict(np.full(2, 1.0)) == 1


@pytest.mark.parametrize("interval", [0, -1])
def test_regular_retrain_interval_below_one_is_an_error(interval):
    with pytest.raises(ValueError, match="retrain_interval"):
        make_strategy("regular_retrain", n_features=2, n_classes=2, rho=5,
                      retrain_interval=interval)


def test_regular_retrain_interval_none_means_rho():
    strategy = make_strategy("regular_retrain", n_features=2, n_classes=2,
                             rho=5, retrain_interval=None)
    assert strategy.retrain_interval == 5
    assert strategy.get_params()["retrain_interval"] == 5


def signed(value, label):
    """A two-feature instance that standardizes to (1, -1) when ``value``
    is positive and to (-1, 1) when it is negative."""
    return LabeledInstance(np.array([value, 0.0]), label)


def stub_training(monkeypatch):
    """Registration without the GAN: each training returns a stub
    discriminator that maps positive rows to id 1 and negative rows to id 2
    once a second distribution is registered, to unseen (0) before."""
    def train(registry, config, rng, generator=None, discriminator=None):
        negative = 2 if len(registry) > 1 else 0
        return generator, StubDiscriminator(
            lambda row: 1 if row[0] > 0 else negative, 1 + len(registry))

    monkeypatch.setattr(detector_module, "train_gan", train)
    monkeypatch.setattr(detector_module, "extend_output_layer",
                        lambda network, rng: None)
    # a stub is no float32 network to bound, so no batch is screened
    monkeypatch.setattr(detector_module, "LogitBound", lambda network: None)


def assert_refits_on_history_then_triggering_batch(monkeypatch, rho,
                                                   batch_size):
    stub_training(monkeypatch)
    config = DetectorConfig(rho=rho, batch_size=batch_size, seq_len=3)
    strategy = make_strategy("driftgan", n_features=2, n_classes=2, rho=rho,
                             config=config)
    fits, samples = [], []
    monkeypatch.setattr(strategy.classifier, "fit_many",
                        lambda pairs: fits.append(list(pairs)))
    detector = strategy.detector
    sample_of = detector.historical_sample

    def recorded_sample(dist_id):
        samples.append((dist_id, sample_of(dist_id)))
        return samples[-1][1]

    monkeypatch.setattr(detector, "historical_sample", recorded_sample)
    # concept A; then B for the triggering batch, the rest of a pending
    # window, if any, and one more batch; then A again: a new drift, then a
    # recurring one
    stream = [signed(1.0 + i, i % 2) for i in range(rho)]
    stream += [signed(-1.0 - i, i % 2)
               for i in range(max(rho, batch_size) + batch_size)]
    stream += [signed(100.0 + i, i % 2) for i in range(batch_size)]
    strategy.initialize(stream[:rho])
    for x, y in stream[rho:]:
        strategy.step(x, y)

    def pairs(instances):
        return [(x.tobytes(), y) for x, y in instances]

    assert [(e.kind, e.dist_id) for e in strategy.drift_events] == [
        ("new", 2), ("recurring", 1)]
    new_fit, recurring_fit = fits
    # a new drift refits on the batch that triggered it, in stream order
    assert pairs(new_fit) == pairs(stream[rho:rho + batch_size])
    # a recurring drift refits on the matched distribution's sample, then
    # on the triggering batch in stream order
    [(dist_id, sample)] = samples
    assert dist_id == 1
    assert sorted(pairs(sample)) == sorted(
        pairs(detector.registry.get(1).exemplars))
    assert pairs(recurring_fit) == pairs(sample) + pairs(stream[-batch_size:])


def test_driftgan_retrains_on_the_history_then_the_triggering_batch(
        monkeypatch):
    # batch_size < rho: the new distribution registers once a pending
    # window is full
    assert_refits_on_history_then_triggering_batch(monkeypatch, rho=6,
                                                   batch_size=4)


def test_driftgan_retrains_alike_when_one_batch_fills_a_window(monkeypatch):
    # batch_size >= rho: the new distribution registers at the boundary
    assert_refits_on_history_then_triggering_batch(monkeypatch, rho=4,
                                                   batch_size=6)


def test_driftgan_recovers_on_recurring_stream():
    spec = SyntheticSpec(default_concepts(), ["A", "B", "A"], [700, 700, 700])
    instances, meta = synth_recurring(spec, seed=3)
    strategy = make_strategy(
        "driftgan", meta.n_features, len(meta.label_alphabet),
        config=DetectorConfig(seed=3),
    )
    strategy.initialize(instances[:100])
    correct = 0
    for x, y in instances[100:]:
        correct += strategy.step(x, y) == y
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
