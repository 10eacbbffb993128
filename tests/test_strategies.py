"""Tests for the four streaming strategies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_detector import StubDiscriminator

import driftbench.detector as detector_module
import driftbench.tree as tree_module
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


@st.composite
def stub_streams(draw):
    """Settings and a short labeled stream of signed segments (see
    ``stub_training``), and the cut points of the calls that feed it."""
    rho = draw(st.integers(min_value=4, max_value=12))
    batch_size = draw(st.integers(min_value=1, max_value=15))
    signs = [1.0] * rho
    for positive, length in draw(st.lists(
            st.tuples(st.booleans(), st.integers(min_value=1, max_value=40)),
            min_size=1, max_size=5)):
        signs += [1.0 if positive else -1.0] * length
    labels = draw(st.lists(st.integers(min_value=0, max_value=1),
                           min_size=len(signs), max_size=len(signs)))
    stream = [signed(sign * (1.0 + i), label)
              for i, (sign, label) in enumerate(zip(signs, labels))]
    cuts = draw(st.lists(st.integers(min_value=rho, max_value=len(stream)),
                         max_size=6))
    return rho, batch_size, stream, sorted(cuts)


@settings(max_examples=60, deadline=None)
@given(stub_streams())
def test_block_path_matches_per_instance_steps(case):
    rho, batch_size, stream, cuts = case
    runs = []
    for blocks in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            stub_training(patch)
            strategy = make_strategy(
                "driftgan", n_features=2, n_classes=2, rho=rho,
                config=DetectorConfig(rho=rho, batch_size=batch_size,
                                      seq_len=3, historical_fraction=0.5))
            strategy.initialize(stream[:rho])
            if blocks:  # the stream in calls cut at random points
                predictions = []
                for lo, hi in zip([rho, *cuts], [*cuts, len(stream)]):
                    xs, ys = tuple(zip(*stream[lo:hi])) or ((), ())
                    predictions += strategy.steps(xs, ys)
            else:
                predictions = [strategy.step(x, y) for x, y in stream[rho:]]
        detector = strategy.detector
        runs.append((
            predictions,
            [(e.instance_index, e.kind, e.dist_id) for e in detector.events],
            pairs_of(detector.last_batch),
            [pairs_of(record.exemplars)
             for record in detector.registry.records],
        ))
    assert runs[0] == runs[1]


@st.composite
def baseline_streams(draw):
    """Settings, a short labeled stream of two-feature rows and the cut
    points of the calls that feed it. The first feature leans on the
    label, so a split has a gain."""
    rho = draw(st.integers(min_value=2, max_value=12))
    retrain_interval = draw(st.integers(min_value=1, max_value=15))
    n = draw(st.integers(min_value=rho, max_value=rho + 80))
    values = draw(st.lists(st.integers(min_value=-2, max_value=2),
                           min_size=2 * n, max_size=2 * n))
    labels = draw(st.lists(st.integers(min_value=0, max_value=2),
                           min_size=n, max_size=n))
    stream = [LabeledInstance(
        np.array([2.0 * label + values[2 * i], values[2 * i + 1]]), label)
        for i, label in enumerate(labels)]
    cuts = draw(st.lists(st.integers(min_value=rho, max_value=n), max_size=6))
    return rho, retrain_interval, stream, sorted(cuts)


def replay_baseline(kind, rho, retrain_interval, stream):
    """The baseline's tree run by hand: predict each row, then
    ``partial_fit`` it unless the kind never learns. ``regular_retrain``
    also rebuilds after every ``retrain_interval`` rows past the initial
    window, from the last ``rho`` instances, the initial window's
    included."""
    tree = HoeffdingTreeClassifier(n_features=2, n_classes=3)
    for x, y in stream[:rho]:
        tree.partial_fit(x, y)
    predictions = []
    for i in range(rho, len(stream)):
        x, y = stream[i]
        predictions.append(tree.predict(x))
        if kind == "initial_learn":
            continue
        tree.partial_fit(x, y)
        if kind == "regular_retrain" and (i + 1 - rho) % retrain_interval == 0:
            tree.reset()
            tree.fit_many(stream[i + 1 - rho:i + 1])
    return predictions, tree.n_nodes()


@settings(max_examples=60, deadline=None)
@given(baseline_streams())
def test_baselines_in_cut_calls_match_steps_and_a_tree_replay(case):
    rho, retrain_interval, stream, cuts = case
    for kind in ("initial_learn", "regular_update", "regular_retrain"):
        runs = []
        with pytest.MonkeyPatch.context() as patch:
            # a leaf with two labels splits every 10 instances, so most
            # short streams grow trees and the node counts tell
            patch.setattr(tree_module, "GRACE_PERIOD", 10)
            patch.setattr(tree_module, "TIE_THRESHOLD", 2.0)
            runs.append(replay_baseline(kind, rho, retrain_interval, stream))
            runs += [run_baseline(kind, rho, retrain_interval, stream, feed)
                     for feed in (cuts, None)]
        assert runs[0] == runs[1] == runs[2], kind


def run_baseline(kind, rho, retrain_interval, stream, cuts):
    """Predictions and final node count of the baseline fed the stream
    in ``steps`` calls cut at ``cuts``, or by ``step`` when ``None``."""
    strategy = make_strategy(kind, n_features=2, n_classes=3, rho=rho,
                             retrain_interval=retrain_interval)
    strategy.initialize(stream[:rho])
    if cuts is None:
        predictions = [strategy.step(x, y) for x, y in stream[rho:]]
    else:
        predictions = []
        for lo, hi in zip([rho, *cuts], [*cuts, len(stream)]):
            xs, ys = tuple(zip(*stream[lo:hi])) or ((), ())
            predictions += strategy.steps(xs, ys)
    return predictions, strategy.classifier.n_nodes()


def pairs_of(instances):
    return [(x.tobytes(), type(y), y) for x, y in instances]


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
    # a window set only in the config is the strategy's too
    strategy = make_strategy("driftgan", n_features=4, n_classes=2,
                             config=DetectorConfig(rho=50))
    assert strategy.rho == strategy.detector.config.rho == 50
    assert make_strategy("initial_learn", n_features=4, n_classes=2).rho == 100
    with pytest.raises(ValueError, match="rho"):
        make_strategy("driftgan", n_features=4, n_classes=2, rho=50,
                      config=DetectorConfig())


@pytest.mark.parametrize("kind", ["initial_learn", "regular_update",
                                  "regular_retrain"])
def test_make_strategy_baseline_window_has_one_value(kind):
    # a config sets a baseline's window as it does driftgan's: the
    # command line passes one config to every kind it compares
    config = DetectorConfig(rho=50)
    assert make_strategy(kind, n_features=4, n_classes=2, config=config).rho == 50
    assert make_strategy(kind, n_features=4, n_classes=2, rho=50,
                         config=config).rho == 50
    with pytest.raises(ValueError, match="rho"):
        make_strategy(kind, n_features=4, n_classes=2, rho=20, config=config)


def test_make_strategy_kinds():
    for kind in STRATEGY_KINDS:
        strategy = make_strategy(kind, n_features=4, n_classes=2)
        assert strategy.kind == kind
    with pytest.raises(ValueError):
        make_strategy("adwin", n_features=4, n_classes=2)
