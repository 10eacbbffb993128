"""Tests for the four streaming strategies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftbench.detector as detector_module
import driftbench.tree as tree_module
from driftbench.detector import NETWORK_DTYPE, DetectorConfig, DriftGanDetector
from driftbench.evaluation import prequential_run
from driftbench.nn import Network
from driftbench.strategies import STRATEGY_KINDS, make_strategy
from driftbench.streams import (
    LabeledInstance,
    Stream,
    SyntheticSpec,
    default_concepts,
    synth_recurring,
)
from driftbench.tree import HoeffdingTreeClassifier


def constant_stream(label, n, d=2):
    return [LabeledInstance(np.full(d, float(label)), label) for _ in range(n)]


def columns(instances):
    """The rows and labels of ``(x, y)`` pairs, as ``initialize`` takes
    them."""
    xs, ys = zip(*instances)
    return np.array(xs), list(ys)


def test_step_predicts_before_learning():
    strategy = make_strategy("regular_update", n_features=2, n_classes=2, rho=5)
    strategy.initialize(*columns(constant_stream(0, 5)))
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
        strategy.initialize(*columns(constant_stream(0, 9)))


@pytest.mark.parametrize("kind", STRATEGY_KINDS)
def test_initialize_and_steps_need_one_label_per_row(kind):
    strategy = make_strategy(kind, n_features=2, n_classes=2, rho=5)
    X, y = columns(constant_stream(0, 6))
    with pytest.raises(ValueError, match="5 rows and 4 labels"):
        strategy.initialize(X[:5], y[:4])
    if kind != "driftgan":  # its initialize trains the GAN
        strategy.initialize(X[:5], y[:5])
        with pytest.raises(ValueError, match="1 rows and 2 labels"):
            strategy.steps(X[5:], y[4:])


def leaf_counts(tree):
    """Each leaf's class counts, depth first: what the tree has learned."""
    counts, stack = [], [tree._root]
    while stack:
        node = stack.pop()
        if node.is_leaf():
            counts.append(list(node.stats.class_counts))
        else:
            stack += [node.right, node.left]
    return counts


def strategy_state(strategy):
    """What a refused call must leave as it was: whether the strategy is
    initialized, its tree and, for driftgan, the detector's count of
    instances and its registry and exemplar store."""
    state = [strategy._initialized, leaf_counts(strategy.classifier)]
    if strategy.kind == "driftgan":
        detector = strategy.detector
        state += [detector.instances_seen, len(detector.registry),
                  [(x.tobytes(), y) for record in detector.registry.records
                   for x, y in record.exemplars]]
    return state


def nan_row(rows, i):
    rows = np.array(rows, dtype=float)
    rows[i] = np.nan
    return rows


REFUSED_WINDOWS = [  # (kind, n_features, rows, labels, message)
    *(pytest.param(kind, 2, np.ones((6, 2)), [0] * 5, "6 rows and 5 labels",
                   id=f"{kind}-labels") for kind in STRATEGY_KINDS),
    *(pytest.param(kind, 2, np.ones((6, 2)), [0, 0, 0, 2, 0, 0],
                   "label 2 outside 0..1", id=f"{kind}-class")
      for kind in STRATEGY_KINDS),
    # windows only the detector refuses
    pytest.param("driftgan", 1, np.arange(6.0)[:, None], [0] * 6,
                 "at least 2 features", id="driftgan-one-feature"),
    pytest.param("driftgan", 2, nan_row(np.arange(12.0).reshape(6, 2), 3),
                 [0] * 6, "finite", id="driftgan-nan"),
]


@pytest.mark.parametrize("kind, n_features, rows, labels, message",
                         REFUSED_WINDOWS)
def test_refused_initialize_changes_nothing(monkeypatch, kind, n_features,
                                            rows, labels, message):
    monkeypatch.setattr(detector_module, "train_gan",
                        lambda *args: pytest.fail("trained a GAN"))
    strategy = make_strategy(kind, n_features=n_features, n_classes=2, rho=6)
    before = strategy_state(strategy)
    assert before[:2] == [False, [[0.0, 0.0]]]  # the tree one empty leaf
    with pytest.raises(ValueError, match=message):
        strategy.initialize(rows, labels)
    assert strategy_state(strategy) == before


@pytest.mark.parametrize("kind", STRATEGY_KINDS)
def test_refused_steps_call_changes_nothing(monkeypatch, kind):
    signed_training(monkeypatch)
    strategy = make_strategy(kind, n_features=2, n_classes=2,
                             config=DetectorConfig(rho=6, batch_size=4,
                                                   seq_len=3))
    xs, ys = columns([signed(1.0 + i, i % 2) for i in range(16)])
    strategy.initialize(xs[:6], ys[:6])
    xs, ys = xs[6:], ys[6:]
    before = strategy_state(strategy)
    # the bad label is in the second batch, past a decision
    with pytest.raises(ValueError, match="label 2 outside 0..1"):
        strategy.steps(xs, ys[:5] + [2] + ys[6:])
    assert strategy_state(strategy) == before
    if kind == "driftgan":
        with pytest.raises(ValueError, match="finite"):
            strategy.steps(nan_row(xs, 5), ys)
        assert strategy_state(strategy) == before
    else:  # a baseline's tree holds NaN rows by design
        assert len(strategy.steps(nan_row(xs, 5), ys)) == len(xs)


def test_initial_learn_never_updates():
    strategy = make_strategy("initial_learn", n_features=1, n_classes=2, rho=5)
    strategy.initialize(np.arange(5.0)[:, None], [0] * 5)
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
    strategy.initialize(xs[:rho], ys[:rho].tolist())
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
    strategy.initialize(*columns(constant_stream(0, 10)))
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


@pytest.mark.parametrize("kind", ["initial_learn", "regular_update",
                                  "regular_retrain"])
@pytest.mark.parametrize("rho", [0, -1, 2.5, np.float64(20), True])
def test_baseline_window_must_be_an_integer_of_at_least_one(kind, rho):
    # a regular_retrain window of 0 never reaches its boundary, so its
    # steps would never return; the others fail later, obscurely
    with pytest.raises(ValueError, match="rho"):
        make_strategy(kind, n_features=2, n_classes=2, rho=rho)


@pytest.mark.parametrize("interval", [2.5, True])
def test_regular_retrain_interval_must_be_an_integer(interval):
    with pytest.raises(ValueError, match="retrain_interval"):
        make_strategy("regular_retrain", n_features=2, n_classes=2, rho=5,
                      retrain_interval=interval)


def test_regular_retrain_takes_numpy_integers_as_ints():
    strategy = make_strategy("regular_retrain", n_features=1, n_classes=2,
                             rho=np.int64(20), retrain_interval=np.int32(10))
    assert type(strategy.rho) is int and strategy.rho == 20
    assert type(strategy.retrain_interval) is int
    assert strategy.retrain_interval == 10
    xs = np.random.default_rng(0).uniform(-1, 1, size=(50, 1))
    report = prequential_run(Stream(xs, xs[:, 0] > 0), strategy)
    assert report.n_scored == 30
    assert report.params["rho"] == 20


def test_regular_retrain_interval_none_means_rho():
    strategy = make_strategy("regular_retrain", n_features=2, n_classes=2,
                             rho=5, retrain_interval=None)
    assert strategy.retrain_interval == 5
    assert strategy.get_params()["retrain_interval"] == 5


def signed(value, label):
    """A two-feature instance that standardizes to (1, -1) when ``value``
    is positive and to (-1, 1) when it is negative."""
    return LabeledInstance(np.array([value, 0.0]), label)


def signed_training(monkeypatch):
    """Registration without the GAN: each training returns a one-layer
    discriminator whose logit is ``x0`` for id 1 and ``-x0`` for id 2
    once a second distribution is registered, for unseen (0) before, so
    a positive ``signed`` row maps to id 1 and a negative one to id 2,
    or to 0."""
    def train(registry, config, rng, generator=None, discriminator=None):
        net = Network([2, 1 + len(registry)], rng, NETWORK_DTYPE)
        net.layers[0].weights[...] = 0.0
        net.layers[0].bias[...] = 0.0
        net.layers[0].weights[0, 1] = 1.0
        net.layers[0].weights[0, 2 if len(registry) > 1 else 0] = -1.0
        return generator, net

    monkeypatch.setattr(detector_module, "train_gan", train)


def assert_refits_on_history_then_triggering_batch(monkeypatch, rho,
                                                   batch_size):
    signed_training(monkeypatch)
    config = DetectorConfig(rho=rho, batch_size=batch_size, seq_len=3)
    strategy = make_strategy("driftgan", n_features=2, n_classes=2, rho=rho,
                             config=config)
    fits, samples = [], []
    monkeypatch.setattr(strategy.classifier, "fit_many",
                        lambda X, y: fits.append((list(X), list(y))))
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
    strategy.initialize(*columns(stream[:rho]))
    for x, y in stream[rho:]:
        strategy.step(x, y)

    def pairs(rows, labels):
        return [(x.tobytes(), y) for x, y in zip(rows, labels, strict=True)]

    assert [(e.kind, e.dist_id) for e in strategy.drift_events] == [
        ("new", 2), ("recurring", 1)]
    new_fit, recurring_fit = fits
    # a new drift refits on the batch that triggered it, in stream order
    assert pairs(*new_fit) == pairs(*columns(stream[rho:rho + batch_size]))
    # a recurring drift refits on the matched distribution's sample, then
    # on the triggering batch in stream order
    [(dist_id, sample)] = samples
    assert dist_id == 1
    assert sorted(pairs(*sample)) == sorted(
        pairs(*columns(detector.registry.get(1).exemplars)))
    assert pairs(*recurring_fit) == (
        pairs(*sample) + pairs(*columns(stream[-batch_size:])))


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
def signed_streams(draw):
    """Settings and a short labeled stream of signed segments (see
    ``signed_training``), and the cut points of the calls that feed it."""
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
@given(signed_streams())
def test_block_path_matches_per_instance_steps(case):
    rho, batch_size, stream, cuts = case
    runs = []
    for blocks in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            signed_training(patch)
            strategy = make_strategy(
                "driftgan", n_features=2, n_classes=2, rho=rho,
                config=DetectorConfig(rho=rho, batch_size=batch_size,
                                      seq_len=3, historical_fraction=0.5))
            strategy.initialize(*columns(stream[:rho]))
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
            pairs_of(zip(*detector.last_batch, strict=True)),
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
            for x, y in stream[i + 1 - rho:i + 1]:
                tree.partial_fit(x, y)
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
    strategy.initialize(*columns(stream[:rho]))
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
    strategy.initialize(instances.X[:100], instances.y[:100])
    correct = 0
    for x, y in instances[100:]:
        correct += strategy.step(x, y) == y
    events = strategy.drift_events
    assert [e.kind for e in events] == ["new", "recurring"]
    assert [e.dist_id for e in events] == [2, 1]
    assert 600 <= events[0].instance_index <= 1000
    assert 1300 <= events[1].instance_index <= 1700
    assert correct / (len(instances) - 100) > 0.85


def test_float64_detector_detects_and_screens(monkeypatch):
    # the precision is chosen in one place; a float64 detector trains,
    # bounds its discriminator and settles batches from one row
    monkeypatch.setattr(detector_module, "NETWORK_DTYPE", np.float64)
    settled = []
    settles = DriftGanDetector._screen_settles
    monkeypatch.setattr(DriftGanDetector, "_screen_settles",
                        lambda det, *args: settled.append(
                            settles(det, *args)) or settled[-1])
    spec = SyntheticSpec(default_concepts(), ["A", "B", "A"], [1000] * 3)
    stream, meta = synth_recurring(spec, seed=0)
    strategy = make_strategy("driftgan", meta.n_features,
                             len(meta.label_alphabet),
                             config=DetectorConfig(gan_max_epochs=3))
    prequential_run(stream, strategy)
    detector = strategy.detector
    assert detector.discriminator.params.dtype == np.float64
    events = strategy.drift_events
    assert [(e.kind, e.dist_id) for e in events] == [("new", 2),
                                                     ("recurring", 1)]
    for event, change in zip(events, meta.change_points):
        assert change <= event.instance_index < change + 300
    assert any(settled)


def test_driftgan_exemplars_hold_no_view_of_the_stream():
    # a stored exemplar that were a view of the stream's matrix would keep
    # the whole stream alive as long as the detector
    spec = SyntheticSpec(default_concepts(), ["A"], [3000])
    stream, meta = synth_recurring(spec, seed=0)
    strategy = make_strategy("driftgan", meta.n_features,
                             len(meta.label_alphabet),
                             config=DetectorConfig(gan_max_epochs=3))
    prequential_run(stream, strategy)
    rows = [x for record in strategy.detector.registry.records
            for x, _ in record.exemplars]
    assert len(rows) == len(stream)
    assert not any(np.shares_memory(x, stream.X) for x in rows)


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
