"""Tests for standardization, the registry, and the drift state machine."""

import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import driftbench.detector as detector_module
from driftbench.detector import (
    DISCRIMINATOR_HIDDEN,
    GENERATOR_HIDDEN,
    NETWORK_DTYPE,
    SCREEN_AHEAD,
    DetectorConfig,
    DistributionRegistry,
    DriftGanDetector,
    _nearest_distances,
    _new_pair,
    _prediction_loss,
    _sample_probes,
    _training_set,
    classify_batch,
    standardize,
    train_gan,
)
from driftbench.nn import (
    AdadeltaState,
    LogitBound,
    Network,
    TrainingDivergedError,
    extend_output_layer,
    train_step,
)
from driftbench.strategies import STRATEGY_KINDS, make_strategy
from driftbench.streams import default_concepts


# -- standardization ----------------------------------------------------------


def test_standardize_oracle():
    out = standardize([1.0, 2.0, 3.0])
    assert np.allclose(out, [-1.224744871, 0.0, 1.224744871])


def test_standardize_zero_mean_unit_population_sigma():
    rng = np.random.default_rng(0)
    for _ in range(20):
        out = standardize(rng.normal(5.0, 3.0, size=8))
        assert abs(out.mean()) < 1e-12
        assert abs(out.std() - 1.0) < 1e-12


def test_standardize_constant_vector_maps_to_zeros():
    assert np.array_equal(standardize([4.0, 4.0, 4.0]), np.zeros(3))
    # the mean of three copies of this value rounds away from it, which
    # leaves a sigma of about 1e-10 instead of 0
    x = [699051.291833258] * 3
    assert np.array_equal(standardize(x), np.zeros(3))
    block = standardize([x, [1.0, 2.0, 3.0]])
    assert np.array_equal(block[0], np.zeros(3))
    assert np.array_equal(block[1], standardize([1.0, 2.0, 3.0]))


def test_standardize_block_equals_per_row():
    rows = np.random.default_rng(3).normal(2.0, 5.0, size=(50, 6))
    rows[7] = 4.0  # one constant row
    block = standardize(rows)
    assert block.shape == rows.shape
    for row, out in zip(rows, block):
        assert np.array_equal(out, standardize(row))


def test_standardize_idempotent():
    x = np.array([3.0, -1.0, 0.5, 2.0])
    once = standardize(x)
    assert np.allclose(standardize(once), once)


def test_standardize_kills_shift_and_scale():
    x = np.array([1.0, 5.0, -2.0, 0.0])
    assert np.allclose(standardize(x), standardize(3.0 * x + 7.0))


# -- registry and sampling ----------------------------------------------------


def window(seed=0, n=8, d=4):
    rng = np.random.default_rng(seed)
    return standardize(rng.normal(size=(n, d)))


def test_registry_assigns_dense_ids():
    reg = DistributionRegistry()
    assert reg.add(window(0)) == 1
    assert reg.add(window(1)) == 2
    assert len(reg) == 2
    assert reg.get(1).dist_id == 1
    with pytest.raises(KeyError):
        reg.get(3)
    with pytest.raises(KeyError):
        reg.get(0)


def detector_with_exemplars(n, fraction):
    """A detector over 4 features whose one distribution stores ``n``
    exemplars, the rows ``[i, -i, 0, 0]`` labeled ``i % 2``."""
    det = DriftGanDetector(DetectorConfig(historical_fraction=fraction))
    det.registry.add(window(0))
    det.registry.current = 1
    for i in range(n):
        det.add_exemplar([float(i), -float(i), 0.0, 0.0], i % 2)
    return det


def test_exemplar_cap_evicts_oldest(monkeypatch):
    monkeypatch.setattr(detector_module, "PER_DIST_CAP", 3)
    det = detector_with_exemplars(0, 1.0)
    det.add_exemplars([[float(i)] * 4 for i in range(5)],
                      [i % 2 for i in range(5)])
    stored = [int(x[0]) for x, _ in det.registry.get(1).exemplars]
    assert stored == [2, 3, 4]


def test_add_exemplars_files_float64_rows_and_int_labels_in_order():
    det = detector_with_exemplars(1, 1.0)
    rows, labels = det.add_exemplars([[1, 2, 0, 0], np.float32([3, 4, 0, 0])],
                                     [np.int64(1), True])
    stored = list(det.registry.get(1).exemplars)[1:]
    assert [(x.tolist(), y) for x, y in stored] == [([1.0, 2.0, 0.0, 0.0], 1),
                                                    ([3.0, 4.0, 0.0, 0.0], 1)]
    assert all(x.dtype == np.float64 and type(y) is int for x, y in stored)
    # the filed objects are the ones returned, so none is converted twice
    assert all(a is b for a, (b, _) in zip(rows, stored))
    assert labels == [y for _, y in stored]


def test_historical_sample_fractions():
    det = detector_with_exemplars(10, 1.0)
    rows, labels = det.historical_sample(1)
    assert len(rows) == len(labels) == 10
    det.config.historical_fraction = 0.0
    state = det.rng.bit_generator.state
    assert det.historical_sample(1) == ([], [])
    assert det.rng.bit_generator.state == state  # no draw for no sample
    det.config.historical_fraction = 0.5
    rows, labels = det.historical_sample(1)
    assert len(rows) == len(labels) == 5  # ceil(0.5 * 10)
    # sampled without replacement, each row with its own label
    values = [int(x[0]) for x in rows]
    assert len(set(values)) == 5
    assert labels == [i % 2 for i in values]


def test_historical_sample_ceils_small_fractions():
    det = detector_with_exemplars(3, 0.1)
    rows, labels = det.historical_sample(1)
    assert len(rows) == len(labels) == 1


# -- batch classification and the consensus rule ------------------------------


def test_classify_batch_ties_resolve_to_lowest_id():
    net = Network([3, 3], np.random.default_rng(0), NETWORK_DTYPE)
    net.layers[0].weights[...] = 0.0  # every logit is its zero bias
    assert classify_batch(net, np.ones((2, 3))) == [0, 0]


@pytest.mark.parametrize("dtype, low, high", [
    (np.float64, 40.0, 45.0),
    (np.float32, 20.0, 25.0),
])
def test_classify_batch_takes_the_argmax_of_the_logits(dtype, low, high):
    # logits large enough that a squashing output (a sigmoid rounds
    # both to 1.0) would tie them; the linear head keeps them apart
    net = Network([2, 2], np.random.default_rng(0), dtype)
    net.layers[0].weights[...] = np.eye(2)
    net.layers[0].bias[...] = 0.0
    batch = np.array([[low, high], [high, low]])
    assert np.array_equal(net.forward(batch), batch.astype(dtype))
    assert classify_batch(net, batch) == [1, 0]


def identity_network(width):
    """A discriminator of one identity layer over ``width`` features and
    ``width`` ids: its logits are the standardized row, so each row maps
    to the id of its largest feature."""
    net = Network([width, width], np.random.default_rng(0), NETWORK_DTYPE)
    net.layers[0].weights[...] = np.eye(width)
    net.layers[0].bias[...] = 0.0
    return net


def rows_on(ids, width=3, seed=0):
    """Raw rows that ``identity_network(width)`` maps to ``ids``: noise,
    plus 10 at each row's id, which stays its largest feature."""
    noise = np.random.default_rng(seed).normal(size=(len(ids), width))
    return noise + 10.0 * np.eye(width)[ids]


def detector_with_network(net, current, config=None):
    """A detector over ``net`` with its bound built, one registered
    distribution per known id, as at the end of the first batch after
    the initial window, so a batch given to ``detect`` ends at instance
    ``rho + batch_size - 1``; registrations are recorded, not trained."""
    config = config or DetectorConfig()
    det = DriftGanDetector(config)
    for seed in range(net.output_size - 1):
        det.registry.add(window(seed, n=config.rho, d=net.input_size))
    det.registry.current = current
    det.discriminator, det._bound = net, LogitBound(net)
    det.instances_seen = config.rho + config.batch_size
    det.registered = []
    det.register_distribution = lambda w: det.registered.append(len(w)) or (
        len(det.registry) + 1)
    return det


def test_detect_unanimous_current_is_not_drift():
    det = detector_with_network(identity_network(3), current=1)
    assert det.detect(rows_on([1] * 100)) is None
    assert det.events == []


def test_detect_split_batch_is_not_drift():
    det = detector_with_network(identity_network(3), current=1)
    assert det.detect(rows_on([0, 1] * 50)) is None
    assert det.events == [] and det.registry.current == 1


def test_detect_unanimous_known_id_is_recurring():
    det = detector_with_network(identity_network(3), current=1)
    decision = det.detect(rows_on([2] * 100))
    assert decision.kind == "recurring" and decision.dist_id == 2
    assert det.registry.current == 2
    assert [(e.kind, e.dist_id) for e in det.events] == [("recurring", 2)]


def test_detect_unanimous_unseen_registers_new():
    det = detector_with_network(identity_network(3), current=1)
    decision = det.detect(rows_on([0] * 100))
    assert decision.kind == "new" and decision.dist_id == 3
    assert decision.instance_index == 199
    assert det.registered == [100]
    assert [(e.kind, e.dist_id) for e in det.events] == [("new", 3)]


def small_batch_detector(monkeypatch, batch_size):
    """A detector over two features with one registered distribution,
    just initialized, whose every row of ``rows_on([0] * n, width=2)``
    maps to unseen; registrations record their raw windows."""
    config = DetectorConfig(rho=10, batch_size=batch_size, seq_len=3)
    det = detector_with_network(identity_network(2), 1, config)
    det.instances_seen = 10
    registered = []
    monkeypatch.setattr(det, "register_distribution",
                        lambda w: registered.append(np.array(w)) or 2)
    return det, registered


def test_detect_small_batch_buffers_until_rho(monkeypatch):
    det, registered = small_batch_detector(monkeypatch, batch_size=5)
    raw = rows_on([0] * 10, width=2, seed=1)
    events = [det.observe(x, 0) for x in raw[:5]]
    assert events[:4] == [None] * 4 and events[-1].kind == "new"
    assert registered == []  # five vectors are not enough for a window yet
    assert [det.observe(x, 0) for x in raw[5:]] == [None] * 5
    # the window is registered as the raw rows, in stream order
    [rows] = registered
    assert rows.tobytes() == raw.tobytes()


def test_detect_large_batch_registers_its_last_rho_rows(monkeypatch):
    det, registered = small_batch_detector(monkeypatch, batch_size=12)
    raw = rows_on([0] * 12, width=2, seed=2)
    assert [det.observe(x, 0) for x in raw[:11]] == [None] * 11
    assert registered == []
    event = det.observe(raw[11], 0)
    assert (event.kind, event.dist_id, event.instance_index) == ("new", 2, 21)
    # registered at this batch's boundary, from its last rho raw rows
    [rows] = registered
    assert rows.tobytes() == raw[-10:].tobytes()
    assert det._pending_window is None
    assert det.observe(raw[0], 0) is None and len(registered) == 1


def labeled(instances):
    return [(x.tobytes(), y) for x, y in instances]


def test_last_batch_holds_the_decided_batch_in_stream_order():
    det = detector_with_network(identity_network(3), current=1)
    det.config.batch_size = 5
    raw = rows_on([1] * 12, seed=3)
    labels = [i % 3 for i in range(len(raw))]
    for x, y in zip(raw[:4], labels):
        det.observe(x, y)
    assert det.last_batch == ([], [])  # no batch decided yet
    for x, y in zip(raw[4:], labels[4:]):
        det.observe(x, y)
    # the second batch was decided last; the two after it are not a batch
    rows, batch_labels = det.last_batch
    assert [x.tobytes() for x in rows] == [x.tobytes() for x in raw[5:10]]
    assert batch_labels == labels[5:10]


def test_pending_registration_files_each_instance_under_the_old_id(
        monkeypatch):
    det, _ = small_batch_detector(monkeypatch, batch_size=5)

    def register(window_std):  # a registration without the GAN
        det.registry.current = det.registry.add(window_std)
        return det.registry.current

    monkeypatch.setattr(det, "register_distribution", register)
    raw = rows_on([0] * 11, width=2, seed=4)
    stream = [(x, i % 2) for i, x in enumerate(raw)]
    for x, y in stream:
        det.observe(x, y)
    old, new = det.registry.records
    # the triggering batch and the pending window up to its last instance
    # are filed before the registration makes the new id current
    assert labeled(old.exemplars) == labeled(stream[:10])
    assert labeled(new.exemplars) == labeled(stream[10:])


def full_batch_decision(ids, current):
    """The consensus rule over every row of a batch: the id of the drift
    when all rows map to one id other than ``current``, else None."""
    first = ids[0]
    if first != current and all(i == first for i in ids):
        return first
    return None


@st.composite
def id_batches(draw):
    """Per-row ids of a batch: one id, with up to three rows changed."""
    n = draw(st.integers(min_value=1, max_value=120))
    ids = [draw(st.integers(min_value=0, max_value=2))] * n
    changes = st.tuples(st.integers(min_value=0, max_value=n - 1),
                        st.integers(min_value=0, max_value=2))
    for pos, value in draw(st.lists(changes, max_size=3)):
        ids[pos] = value
    return ids


@settings(max_examples=300, deadline=None)
@given(id_batches(), st.integers(min_value=1, max_value=2))
@example([0], 1)
@example([2] * 5, 1)
@example([0] * 100, 2)
@example([1] * 120, 2)
def test_detect_decides_as_the_full_batch_rule(ids, current):
    net = identity_network(3)
    det = detector_with_network(net, current)
    forwards = forwarded_rows(net)
    batch = rows_on(ids)
    event = det.detect(batch)
    # the screen forwards the first row; a batch it leaves open, one whose
    # first row is on another id, is classified whole
    assert forwards == ([1] if ids[0] == current else [1, len(ids)])
    expected = full_batch_decision(ids, current)
    if expected is None:
        assert event is None and det.events == []
        assert det.registry.current == current
        assert det.registered == [] and det._pending_window is None
    elif expected == 0:
        assert (event.kind, event.dist_id) == ("new", 3)
        assert det.registry.current == current  # until the window is trained
        if len(ids) >= det.config.rho:
            assert det.registered == [det.config.rho]
        else:
            assert det.registered == []
            assert np.array_equal(det._pending_window, batch)
    else:
        assert (event.kind, event.dist_id) == ("recurring", expected)
        assert det.registry.current == expected
    if event is not None:
        assert det.events == [event] and event.instance_index == 199


def test_detect_needs_the_rows_after_the_head():
    ids = [0] * 100
    ids[50] = 2  # the batch agrees on the unseen id but for row 50
    det = detector_with_network(identity_network(3), current=1)
    assert det.detect(rows_on(ids)) is None
    assert det.events == [] and det._pending_window is None
    assert det.registered == []
    assert len(det.registry) == 2 and det.registry.current == 1


# -- the one-row screen --------------------------------------------------------


def discriminator(outputs, seed, favoured=None, shift=0.0,
                  hidden=DISCRIMINATOR_HIDDEN, dtype=NETWORK_DTYPE):
    """A network of the discriminator's widths (or of the ``hidden``
    ones) in ``dtype`` with nonzero biases, as training leaves them;
    ``shift`` is added to the head bias of class ``favoured``."""
    rng = np.random.default_rng(seed)
    net = Network([4, *hidden, outputs], rng, dtype)
    for layer in net.layers:
        layer.bias[...] = rng.normal(0.0, 0.1, layer.bias.shape)
    if favoured is not None:
        net.layers[-1].bias[favoured] += shift
    return net


def raw_batch(seed, n=100):
    return np.random.default_rng(seed).normal(size=(n, 4))


def std_batch(seed, n=100):
    return standardize(raw_batch(seed, n))


def exact_radii(net, rows):
    """``LogitBound.radii`` of each row by the same proof with the exact
    ``|W|`` product on every layer, its tightest form: the bound's
    Cauchy–Schwarz step on the first layer may only widen it."""
    dtype = net.params.dtype
    u, tiny = float(np.finfo(dtype).epsneg), float(np.finfo(dtype).tiny)
    m = np.abs(np.asarray(rows, dtype=dtype).astype(np.float64))
    e = np.zeros_like(m)
    for layer in net.layers:
        fan_in = layer.weights.shape[0]
        gamma = fan_in * u / (1.0 - fan_in * u)
        weights = np.abs(layer.weights.astype(np.float64))
        bias = np.abs(layer.bias.astype(np.float64))
        mag, err = m @ weights, e @ weights
        e = ((gamma + u * (1.0 + gamma)) * (mag + err) + err + u * bias
             + fan_in * tiny)
        m = mag + bias
    return 2.0 * e


def certified_alone(bound, row, label):
    """``LogitBound.certified`` for one row, from one forward of the row
    alone through the bound's network: its float64 logits and radii."""
    rows = np.asarray(row)[None]
    logits = bound.net.forward(rows).astype(np.float64)
    return bool(LogitBound.certified(logits, bound.radii(rows), label)[0])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=2, max_value=5),
       st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=3),
       st.sampled_from([np.float32, np.float64]))
@example(0, 3, 4, 0, np.float32)
@example(0, 3, 4, 3, np.float32)
@example(0, 3, 4, 3, np.float64)
def test_logit_bound_certifies_only_the_batch_forwards_class(
        seed, outputs, ulps, depth, dtype):
    # the bound holds at any depth, 0 to 3 hidden layers of the
    # discriminator's width, and in either dtype
    net = discriminator(outputs, seed, hidden=DISCRIMINATOR_HIDDEN[:1] * depth,
                        dtype=dtype)
    batch = std_batch(seed + 1)
    # a near-tie: move a head bias so that row 0's top two logits differ
    # by a few ulps
    logits = net.forward(batch[:1])[0]
    second, top = np.argsort(logits)[-2:]
    net.layers[-1].bias[second] += (logits[top] - logits[second]
                                    - ulps * np.spacing(logits[top]))
    bound = LogitBound(net)
    ids = classify_batch(net, batch)
    for i, row in enumerate(batch):
        alone = int(np.argmax(net.forward(batch[i:i + 1])))
        if certified_alone(bound, row, alone):
            assert ids[i] == alone
    assert not any(certified_alone(bound, batch[0], c) for c in range(outputs))
    # a lone row's logits and the batch's differ by about 1e-5 of the
    # radius, so a radius cut short certifies no wrong class here; the
    # proof's tightest form is what it falls below
    radii = np.stack([bound.radii(row) for row in batch])
    assert np.all(radii >= exact_radii(net, batch))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=2, max_value=5),
       st.integers(min_value=0, max_value=4),
       st.sampled_from([0.0, 0.3, 10.0]),
       st.integers(min_value=1, max_value=4),
       st.sampled_from([np.float32, np.float64]))
def test_screened_detect_decides_as_the_full_batch_rule(
        seed, outputs, favoured, shift, current, dtype):
    favoured, current = favoured % outputs, 1 + (current - 1) % (outputs - 1)
    net = discriminator(outputs, seed, favoured, shift, dtype=dtype)
    batch = raw_batch(seed + 1)
    expected = full_batch_decision(
        classify_batch(net, standardize(batch)), current)
    det = detector_with_network(net, current)
    event = det.detect(batch)
    if expected is None:
        assert event is None and det.registry.current == current
        assert det.registered == []
    elif expected == 0:
        assert (event.kind, event.dist_id) == ("new", outputs)
        assert det.registered == [det.config.rho]
    else:
        assert (event.kind, event.dist_id) == ("recurring", expected)
        assert det.registry.current == expected


def forwarded_rows(net):
    """Record the number of rows of each ``net.forward`` call."""
    rows, forward = [], net.forward
    net.forward = lambda x: rows.append(len(x)) or forward(x)
    return rows


def test_certified_batch_forwards_one_row_once():
    det = detector_with_network(discriminator(3, 0, 1, 10.0), current=1)
    rows = forwarded_rows(det.discriminator)
    assert det.detect(raw_batch(1)) is None
    assert rows == [1]


def test_settled_batch_is_never_standardized(monkeypatch):
    det, xs, ys = screened_ahead(discriminator(3, 0, 1, 10.0), current=1)
    assert feed(det, xs, ys, 0, 5) is None  # keeps the next rows' screens
    calls = []
    standardize_rows = detector_module.standardize
    monkeypatch.setattr(detector_module, "standardize",
                        lambda x: calls.append(len(x)) or standardize_rows(x))
    # xs[5] was screened ahead, and its kept screen settles its batch
    assert det.observe_batch(xs[5:10], ys[5:10]) is None
    assert calls == []


def change_discriminator(det, change, batch):
    """Change ``det``'s discriminator outside a registration: assign
    another network, grow and redraw its head, or take one training step
    on ``batch``. Each changed network still puts a row on id 1 with a
    wide margin, so only a stale bound could settle a batch from one
    row."""
    if change == "assigned":
        det.discriminator = discriminator(3, 5, 1, 10.0)
    elif change == "regrown":
        det.registry.add(window(7, n=det.config.rho))
        extend_output_layer(det.discriminator, np.random.default_rng(2))
        det.discriminator.layers[-1].bias[1] += 10.0
    else:
        net = det.discriminator
        train_step(net, batch, np.ones(len(batch), dtype=int),
                   AdadeltaState.for_param(net.params))


@pytest.mark.parametrize("change", ["assigned", "regrown", "retrained"])
def test_changed_discriminator_is_not_screened_with_stale_bounds(change):
    det = detector_with_network(discriminator(3, 0, 1, 10.0), current=1)
    batch = std_batch(1)
    change_discriminator(det, change, batch)
    rows = forwarded_rows(det.discriminator)
    assert det.detect(batch) is None
    assert rows == [len(batch)]
    # nor with the screens kept from before the change
    det, xs, ys = screened_ahead(discriminator(3, 0, 1, 10.0), current=1)
    assert feed(det, xs, ys, 0, 5) is None
    change_discriminator(det, change, batch)
    rows = forwarded_rows(det.discriminator)
    assert feed(det, xs, ys, 5, 10) is None
    assert rows == [5]


def test_each_registration_screens_with_its_own_discriminator(monkeypatch):
    # a training that returns a network favouring the newest id, so the
    # new current id's batches are certified from one row
    def train(registry, config, rng, generator=None, discriminator=None):
        net = Network([4, 16, 16, 1 + len(registry)], rng, NETWORK_DTYPE)
        net.layers[-1].bias[len(registry)] = 10.0
        return generator, net

    monkeypatch.setattr(detector_module, "train_gan", train)
    config = DetectorConfig(rho=10, batch_size=5, seq_len=3)
    det = DriftGanDetector(config)
    det.initialize(np.random.default_rng(0).normal(size=(10, 4)))
    for dist_id in (1, 2):
        if dist_id == 2:
            det.register_distribution(window(1, n=10))
        assert det.registry.current == dist_id
        rows = forwarded_rows(det.discriminator)
        assert det.detect(raw_batch(dist_id, n=5)) is None
        assert rows == [1]


def screened_ahead(net, current, batch_size=5, n_batches=4):
    """A detector over ``net`` and a raw stream of ``n_batches`` batches,
    its rows and labels."""
    det = detector_with_network(net, current)
    det.config.batch_size = batch_size
    raw = np.random.default_rng(11).normal(size=(n_batches * batch_size, 4))
    return det, tuple(raw), (0,) * len(raw)


def feed(det, xs, ys, lo, hi):
    return det.observe_batch(xs[lo:hi], ys[lo:hi], ahead=xs[hi:])


def test_screen_ahead_forwards_later_first_rows_once():
    net = discriminator(3, 0, 1, 10.0)
    det, xs, ys = screened_ahead(net, current=1, n_batches=SCREEN_AHEAD + 2)
    rows = forwarded_rows(net)
    for lo in range(0, len(xs), 5):
        assert feed(det, xs, ys, lo, lo + 5) is None
    # this batch's first row and the next SCREEN_AHEAD - 1 batches' in one
    # forward; the two batches past them in a second one
    assert rows == [SCREEN_AHEAD, 2]


def test_kept_screen_serves_only_the_vector_it_was_taken_of():
    net = discriminator(3, 0, 1, 10.0)
    det, xs, ys = screened_ahead(net, current=1)
    rows = forwarded_rows(net)
    feed(det, xs, ys, 0, 5)
    # xs[5] was screened ahead as the second batch's first row; xs[6],
    # never screened, arrives in its place
    assert det.observe_batch(xs[6:11], ys[6:11]) is None
    assert rows == [4, 1]


def test_kept_screen_serves_its_row_at_any_position():
    net = discriminator(3, 0, 1, 10.0)
    det, xs, ys = screened_ahead(net, current=1)
    rows = forwarded_rows(net)
    feed(det, xs, ys, 0, 5)
    # xs[10] was screened ahead as the third batch's first row; it
    # arrives as the second batch's, and its kept screen settles it
    assert det.observe_batch(xs[10:15], ys[10:15]) is None
    assert rows == [4]


def test_kept_screens_do_not_outlive_a_registration(monkeypatch):
    # the registration grows and retrains the same network object, so
    # only its version tells that the screens taken before it are stale
    def train(registry, config, rng, generator=None, discriminator=None):
        if discriminator is None:
            discriminator = Network([4, 16, 16, 2], rng, NETWORK_DTYPE)
        discriminator.layers[-1].bias[len(registry)] = 10.0
        return generator, discriminator

    monkeypatch.setattr(detector_module, "train_gan", train)
    det = DriftGanDetector(DetectorConfig(rho=10, batch_size=5, seq_len=3))
    det.initialize(np.random.default_rng(0).normal(size=(10, 4)))
    net = det.discriminator
    xs = tuple(np.random.default_rng(1).normal(size=(20, 4)))
    ys = (0,) * len(xs)
    rows = forwarded_rows(net)
    assert feed(det, xs, ys, 0, 5) is None and rows == [4]
    det.register_distribution(window(1, n=10))
    assert det.discriminator is net and det.registry.current == 2
    assert feed(det, xs, ys, 5, 10) is None
    assert rows == [4, 3]  # screened again, for the grown network
    assert det.events == []


def test_kept_screen_is_tested_against_the_id_after_a_recurrence():
    # every row is certified on id 2 while id 1 is current
    net = discriminator(3, 0, 2, 10.0)
    det, xs, ys = screened_ahead(net, current=1)
    rows = forwarded_rows(net)
    event = feed(det, xs, ys, 0, 5)
    assert (event.kind, event.dist_id) == ("recurring", 2)
    assert rows == [4, 5]  # the screen, then the whole batch
    for lo in (5, 10, 15):
        assert feed(det, xs, ys, lo, lo + 5) is None
    assert rows == [4, 5]  # each settled on id 2 from its kept screen
    assert len(det.events) == 1


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=2, max_value=5),
       st.integers(min_value=0, max_value=4),
       st.sampled_from([0.0, 0.3, 10.0]),
       st.integers(min_value=1, max_value=4))
def test_screens_ahead_decide_as_screens_alone(seed, outputs, favoured, shift,
                                               current):
    favoured, current = favoured % outputs, 1 + (current - 1) % (outputs - 1)
    decided = []
    for ahead in (True, False):
        net = discriminator(outputs, seed, favoured, shift)
        det, xs, ys = screened_ahead(net, current, batch_size=3, n_batches=6)
        for lo in range(0, len(xs), 3):
            if ahead:
                feed(det, xs, ys, lo, lo + 3)
            else:
                det.observe_batch(xs[lo:lo + 3], ys[lo:lo + 3])
        decided.append(([(e.instance_index, e.kind, e.dist_id)
                         for e in det.events], det.registered))
    assert decided[0] == decided[1]


def test_observe_requires_initialization():
    det = DriftGanDetector(DetectorConfig())
    with pytest.raises(RuntimeError):
        det.observe(np.zeros(4), 0)
    # detect always decides through the bound the first registration builds
    with pytest.raises(RuntimeError, match="detector not initialized"):
        det.detect(np.zeros((5, 4)))


def test_config_validation():
    DetectorConfig().validate()
    with pytest.raises(ValueError):
        DetectorConfig(rho=4, seq_len=4).validate()
    with pytest.raises(ValueError):
        DetectorConfig(batch_size=0).validate()
    with pytest.raises(ValueError):
        DetectorConfig(historical_fraction=1.5).validate()
    with pytest.raises(ValueError, match="gan_max_epochs"):
        DetectorConfig(gan_max_epochs=0).validate()
    with pytest.raises(ValueError, match="disc_loss_threshold"):
        DetectorConfig(disc_loss_threshold=float("nan")).validate()
    with pytest.raises(ValueError, match="seed"):
        DetectorConfig(seed=-1).validate()
    # a setting used as a count, an index or a seed must be an integer,
    # and a fraction or a threshold a number, never a bool, or a run
    # fails late with an unrelated TypeError
    DetectorConfig(rho=np.int64(100), seed=np.int32(1),
                   historical_fraction=np.float32(0.5),
                   disc_loss_threshold=0).validate()
    for name, value in (("batch_size", 50.5), ("rho", 100.0), ("seq_len", 4.0),
                        ("seed", 1.5), ("gan_max_epochs", 1.5),
                        ("batch_size", True), ("historical_fraction", "0.5"),
                        ("historical_fraction", True),
                        ("disc_loss_threshold", None),
                        ("disc_loss_threshold", False)):
        with pytest.raises(ValueError, match=name):
            DetectorConfig(**{name: value}).validate()


# -- GAN training (single-seed smoke; the full audit runs in acceptance) ------


def concept_window(name, seed, n=100):
    concept = default_concepts()[name]
    feats, _ = concept.sample(np.random.default_rng(seed), n)
    return standardize(feats)


def test_train_gan_separates_real_from_generated():
    config = DetectorConfig(seed=0)
    registry = DistributionRegistry()
    registry.add(concept_window("A", seed=0, n=config.rho))
    registry.current = 1
    rng = np.random.default_rng(0)
    generator, discriminator = train_gan(registry, config, rng)

    real = registry.get(1).window
    real_rate = np.mean(np.array(classify_batch(discriminator, real)) == 1)
    assert real_rate >= 0.9

    seqs = np.array([np.concatenate(registry.get(1).window[i:i + 4])
                     for i in range(config.rho - 4)])
    fake = generator.forward(seqs)
    fake_rate = np.mean(np.array(classify_batch(discriminator, fake)) == 0)
    assert fake_rate >= 0.9

    # vectors from a concept that was never seen must map to the unseen id
    unseen = np.array(concept_window("B", seed=50, n=200))
    unseen_rate = np.mean(np.array(classify_batch(discriminator, unseen)) == 0)
    assert unseen_rate >= 0.9


def test_train_gan_warns_when_epochs_run_out(caplog):
    config = DetectorConfig(gan_max_epochs=1, disc_loss_threshold=1e-9)
    registry = DistributionRegistry()
    registry.add(concept_window("A", seed=0, n=config.rho))
    registry.current = 1
    with caplog.at_level(logging.WARNING, logger="driftbench.detector"):
        generator, discriminator = train_gan(registry, config,
                                             np.random.default_rng(0))
    assert discriminator.output_size == 2
    assert generator.input_size == config.seq_len * 4
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    assert "gan_max_epochs=1" in record.getMessage()


def loop_training_set(registry, seq_len):
    """Row-by-row reference for _training_set."""
    seqs, nexts, seq_ids, vecs, vec_ids = [], [], [], [], []
    for record in registry.records:
        window = record.window
        for i in range(len(window) - seq_len):
            seqs.append(np.concatenate(window[i:i + seq_len]))
            nexts.append(window[i + seq_len])
            seq_ids.append(record.dist_id)
        vecs.extend(window)
        vec_ids.extend([record.dist_id] * len(window))
    return tuple(map(np.array, (seqs, nexts, seq_ids, vecs, vec_ids)))


@pytest.mark.parametrize("lengths, d, seq_len", [
    ([100], 4, 4),
    ([100] * 4, 4, 4),
    ([10] * 3, 7, 3),
    ([20] * 5, 12, 1),
    ([30, 5, 12], 3, 4),  # an initial window may be longer than rho
])
def test_training_arrays_match_the_row_by_row_reference(lengths, d, seq_len):
    rng = np.random.default_rng(len(lengths))
    registry = DistributionRegistry()
    for n in lengths:
        registry.add(standardize(rng.normal(size=(n, d))))
    got = _training_set(registry, seq_len)
    want = loop_training_set(registry, seq_len)
    assert len(got) == len(want)
    for array, reference in zip(got, want):
        assert array.dtype == reference.dtype
        assert np.array_equal(array, reference)


def test_train_gan_continues_a_fitting_pair_and_rejects_one_that_does_not():
    config = DetectorConfig(rho=20, gan_max_epochs=1)
    registry = DistributionRegistry()
    rng = np.random.default_rng(0)
    registry.add(concept_window("A", seed=0, n=config.rho))
    generator, discriminator = train_gan(registry, config, rng)
    registry.add(concept_window("B", seed=1, n=config.rho))
    # the discriminator was not extended for the second window
    with pytest.raises(ValueError):
        train_gan(registry, config, rng, generator, discriminator)
    with pytest.raises(ValueError):
        train_gan(registry, config, rng, generator)
    extend_output_layer(discriminator, rng)
    pair = train_gan(registry, config, rng, generator, discriminator)
    assert pair[0] is generator and pair[1] is discriminator


def two_window_registry(config):
    registry = DistributionRegistry()
    registry.add(concept_window("A", seed=0, n=config.rho))
    registry.add(concept_window("B", seed=1, n=config.rho))
    return registry


def test_generator_step_leaves_the_discriminator_gradients(monkeypatch):
    # the generator step reads only the fakes' gradient through the
    # discriminator: discriminator.grads stay as the last discriminator
    # step wrote them
    config = DetectorConfig(rho=20, gan_max_epochs=1)
    written, kept = {}, []

    def train_step(net, *args):
        value = real_train_step(net, *args)
        written["grads"] = net.grads.copy()
        return value

    def loss_gradients(net, inputs, targets):
        result = real_loss_gradients(net, inputs, targets)
        kept.append(net.grads.tobytes() == written["grads"].tobytes())
        return result

    real_train_step = detector_module.train_step
    real_loss_gradients = detector_module.loss_gradients
    monkeypatch.setattr(detector_module, "train_step", train_step)
    monkeypatch.setattr(detector_module, "loss_gradients", loss_gradients)
    train_gan(two_window_registry(config), config, np.random.default_rng(0))
    assert kept and all(kept)


def test_train_gan_retries_a_divergence_on_a_fresh_pair(monkeypatch):
    config = DetectorConfig(rho=20)
    registry = two_window_registry(config)
    rng = np.random.default_rng(0)
    given = _new_pair(registry, config, rng)
    trained = []

    def diverge_once(registry, config, rng, generator, discriminator):
        trained.append((generator, discriminator))
        if len(trained) == 1:
            raise TrainingDivergedError("non-finite loss")
        return generator, discriminator

    monkeypatch.setattr(detector_module, "_train_gan_once", diverge_once)
    pair = train_gan(registry, config, rng, *given)
    assert len(trained) == 2
    assert trained[0][0] is given[0] and trained[0][1] is given[1]
    generator, discriminator = trained[1]
    assert pair[0] is generator and pair[1] is discriminator
    assert generator is not given[0] and discriminator is not given[1]
    assert (generator.input_size, generator.output_size,
            discriminator.input_size, discriminator.output_size) == (16, 4, 4, 3)
    assert [l.weights.shape[1] for l in generator.layers] == [
        *GENERATOR_HIDDEN, 4]
    assert [l.weights.shape[1] for l in discriminator.layers] == [
        *DISCRIMINATOR_HIDDEN, 3]


def test_train_gan_gives_up_after_two_divergences(monkeypatch):
    config = DetectorConfig(rho=20)
    registry = two_window_registry(config)
    trained = []

    def diverge(registry, config, rng, generator, discriminator):
        trained.append(generator)
        raise TrainingDivergedError("non-finite loss")

    monkeypatch.setattr(detector_module, "_train_gan_once", diverge)
    with pytest.raises(TrainingDivergedError, match="diverged twice"):
        train_gan(registry, config, np.random.default_rng(0))
    assert len(trained) == 2 and trained[0] is not trained[1]


@pytest.mark.parametrize("n", [1, 16, 40])
def test_sample_probes_are_standardized_and_clear_of_every_real_vector(n):
    real = np.vstack([concept_window("A", seed=0), concept_window("B", seed=1)])
    radius = 1.5
    probes = _sample_probes(np.random.default_rng(n), n, real, radius)
    assert 0 < len(probes) <= n and probes.shape[1] == real.shape[1]
    assert np.allclose(probes.mean(axis=1), 0.0)
    assert np.allclose(probes.std(axis=1), 1.0)
    for probe in probes:
        assert min(np.linalg.norm(probe - row) for row in real) > radius
    # standardized 4-vectors lie on a sphere of radius 2: none is 5 away
    none = _sample_probes(np.random.default_rng(n), n, real, 5.0)
    assert none.shape == (0, real.shape[1])


@st.composite
def distance_cases(draw):
    """Rows of ``a`` and ``b`` (``a`` is ``b`` with ``skip_self``), with
    zero rows and duplicated rows, and a block size that cuts ``a`` into
    chunks of any length, one row up to all of them."""
    d = draw(st.integers(min_value=1, max_value=4))
    skip_self = draw(st.booleans())
    values = st.sampled_from([0.0, 1.0, -2.5, 0.1, 3.0, 1e-3])
    row = st.lists(values, min_size=d, max_size=d)
    b = draw(st.lists(row, min_size=1, max_size=8))
    if skip_self:
        a = b
    else:
        a = draw(st.lists(st.one_of(row, st.sampled_from(b)), max_size=8))
    block = draw(st.integers(min_value=1, max_value=len(a) * len(b) * d + 1))
    return (np.array(a, dtype=float).reshape(-1, d),
            np.array(b, dtype=float).reshape(-1, d), skip_self, block)


@settings(max_examples=200, deadline=None)
@given(distance_cases())
def test_nearest_distances_match_the_whole_block_norm(case):
    a, b, skip_self, block = case
    dist = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    if skip_self:
        np.fill_diagonal(dist, np.inf)
    expected = dist.min(axis=1) if len(a) else np.empty(0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(detector_module, "DISTANCE_BLOCK", block)
        got = _nearest_distances(a, a if skip_self else b, skip_self)
    assert got.tobytes() == expected.tobytes()


def test_one_feature_window_is_an_error_before_training(monkeypatch):
    # every one-feature row standardizes to [0.0], so no drift could show
    def train(*args, **kwargs):
        raise AssertionError("trained on one-feature rows")

    monkeypatch.setattr(detector_module, "train_gan", train)
    det = DriftGanDetector(DetectorConfig(rho=20))
    with pytest.raises(ValueError, match="at least 2 features, got 1"):
        det.initialize(np.random.default_rng(0).normal(size=(20, 1)))
    assert len(det.registry) == 0 and det.discriminator is None


@pytest.mark.parametrize("call", ["initialize", "register_distribution"])
def test_short_window_is_an_error_before_training(monkeypatch, call):
    def train(*args, **kwargs):
        raise AssertionError("trained on a short window")

    monkeypatch.setattr(detector_module, "train_gan", train)
    det = DriftGanDetector(DetectorConfig(rho=20))
    rows = np.random.default_rng(0).normal(size=(19, 4))
    with pytest.raises(ValueError, match="need at least rho=20 vectors") as err:
        getattr(det, call)(rows)
    assert len(det.registry) == 0 and det.discriminator is None
    # one rule, one message: every strategy kind states it the same way
    for kind in STRATEGY_KINDS:
        strategy = make_strategy(kind, n_features=4, n_classes=2, rho=20)
        with pytest.raises(ValueError) as other:
            strategy.initialize(rows, [0] * len(rows))
        assert str(other.value) == str(err.value)


def small_trained(monkeypatch, rho=10):
    """A detector over 4 features, initialized and registered without the
    GAN: each training returns a small network, grown in place, that
    favours the newest id."""
    def train(registry, config, rng, generator=None, discriminator=None):
        if discriminator is None:
            discriminator = Network([4, 16, 16, 2], rng, NETWORK_DTYPE)
        discriminator.layers[-1].bias[len(registry)] = 10.0
        return generator, discriminator

    monkeypatch.setattr(detector_module, "train_gan", train)
    det = DriftGanDetector(DetectorConfig(rho=rho, batch_size=5, seq_len=3))
    det.initialize(np.random.default_rng(0).normal(size=(rho, 4)))
    det.add_exemplars(np.random.default_rng(1).normal(size=(3, 4)), [0] * 3)
    return det


def detector_state(det):
    """What a refused block of rows must leave as it was."""
    exemplars = [(x.tobytes(), y) for record in det.registry.records
                 for x, y in record.exemplars]
    return (exemplars, det.instances_seen, len(det.registry),
            det.discriminator.output_size, len(det._rows))


@pytest.mark.parametrize("rows, labels, message", [
    (np.ones((5, 3)), [0] * 5, "expected rows of 4 features, got 3"),
    (np.full((5, 4), np.nan), [0] * 5, "finite"),
    (np.ones((5, 4)), [0] * 4,
     "need one label per row, got 5 rows and 4 labels"),
], ids=["narrow", "nan", "labels"])
def test_observe_batch_refuses_rows_before_filing_them(monkeypatch, rows,
                                                       labels, message):
    det = small_trained(monkeypatch)
    before = detector_state(det)
    with pytest.raises(ValueError, match=message):
        det.observe_batch(rows, labels)
    assert detector_state(det) == before
    # the detector still takes rows it can read
    assert det.observe_batch(np.ones((5, 4)), [0] * 5) is None


@pytest.mark.parametrize("rows, labels, message", [
    (np.full((2, 3), np.nan), [0, 1], "expected rows of 4 features, got 3"),
    (np.full((2, 4), np.nan), [0, 1], "finite"),
    (np.ones((3, 4)), [0, 1],
     "need one label per row, got 3 rows and 2 labels"),
], ids=["narrow", "nan", "labels"])
def test_add_exemplars_refuses_rows_before_filing_them(monkeypatch, rows,
                                                       labels, message):
    # the one filing path checks what it files, whoever calls it
    det = small_trained(monkeypatch)
    before = detector_state(det)
    with pytest.raises(ValueError, match=message):
        det.add_exemplars(rows, labels)
    assert detector_state(det) == before


def decision_state(det):
    """What a refused batch must leave as it was: no event, no pending
    window, no registration, the same current id."""
    return (list(det.events), det._pending_window, len(det.registry),
            det.registry.current)


def test_detect_refuses_rows_it_cannot_read_before_any_change(monkeypatch):
    # a row that is not finite is never certified, so the screen leaves
    # the batch open and the check refuses it
    det = small_trained(monkeypatch)
    before = decision_state(det)
    with pytest.raises(ValueError, match="finite"):
        det.detect(np.full((5, 4), np.nan))
    assert decision_state(det) == before


def test_detect_checks_every_row_of_a_batch_the_screen_leaves_open():
    # every row but the last maps to the known id 2, not the current one
    det = detector_with_network(identity_network(3), current=1)
    batch = rows_on([2] * 5)
    batch[-1] = np.nan
    before = decision_state(det)
    with pytest.raises(ValueError, match="finite"):
        det.detect(batch)
    assert decision_state(det) == before and det.registered == []


def test_register_distribution_refuses_a_narrow_window_before_storing_it(
        monkeypatch):
    det = small_trained(monkeypatch)
    before = detector_state(det)
    with pytest.raises(ValueError, match="expected rows of 4 features, got 3"):
        det.register_distribution(np.ones((10, 3)))
    assert detector_state(det) == before
    # and a later registration of a fitting window is not broken by it
    assert det.register_distribution(window(1, n=10)) == 2
    assert det.discriminator.output_size == 3


def test_second_initialize_is_an_error():
    config = DetectorConfig(rho=20, gan_max_epochs=1)
    det = DriftGanDetector(config)
    det.initialize(concept_window("A", seed=0, n=config.rho))
    with pytest.raises(RuntimeError, match="already initialized"):
        det.initialize(concept_window("B", seed=1, n=config.rho))
    assert len(det.registry) == 1 and det.discriminator.output_size == 2


def test_train_gan_rejects_empty_or_short_registry():
    config = DetectorConfig()
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        train_gan(DistributionRegistry(), config, rng)
    registry = DistributionRegistry()
    registry.add(window(0, n=3))  # shorter than seq_len + 1
    with pytest.raises(ValueError):
        train_gan(registry, config, rng)


def _train_gan_peak_mb(n_windows, d=12):
    config = DetectorConfig(rho=20, gan_max_epochs=1)
    registry = DistributionRegistry()
    rng = np.random.default_rng(0)
    for i in range(n_windows):
        registry.add(standardize(rng.normal(i, 1.0, size=(config.rho, d))))
    registry.current = 1
    tracemalloc.start()
    try:
        train_gan(registry, config, np.random.default_rng(0))
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_train_gan_memory_does_not_grow_quadratically_with_the_registry():
    # The epoch-end passes over every stored row grow linearly, by about
    # 11 MB from 5 to 40 windows here. A full (rows x rows x d) block of
    # nearest-neighbour differences would add about 85 MB more at 40
    # windows, and grows quadratically.
    growth = _train_gan_peak_mb(40) - _train_gan_peak_mb(5)
    assert growth < 50.0


def test_prediction_loss_gradient_matches_central_differences():
    rng = np.random.default_rng(0)
    fake, target = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    value, grad = _prediction_loss(fake, target)
    assert value == pytest.approx(np.sum((fake - target) ** 2) / 5)
    eps = 1e-6
    numeric = np.empty_like(fake)
    for idx in np.ndindex(fake.shape):
        step = np.zeros_like(fake)
        step[idx] = eps
        numeric[idx] = (_prediction_loss(fake + step, target)[0]
                        - _prediction_loss(fake - step, target)[0]) / (2 * eps)
    np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-9)
