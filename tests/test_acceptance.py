"""Acceptance suite: one test per exit criterion, one printed verdict each.

Criterion 9 (reproduction on the public Phishing/Spam datasets) is not a
CI gate; it runs only when DRIFTBENCH_PHISHING_CSV / DRIFTBENCH_SPAM_CSV
point at local copies of the datasets.
"""

import math
import os
import time

import numpy as np
import pytest

from driftbench.detector import (
    DetectorConfig,
    DistributionRegistry,
    classify_batch,
    standardize,
    train_gan,
)
from driftbench.evaluation import prequential_run, score_detection
from driftbench.nn import (
    AdadeltaState,
    Network,
    _backward,
    _loss_and_output_grad,
    adadelta_update,
    batch_loss,
)
from driftbench.strategies import make_strategy
from driftbench.streams import (
    Stream,
    SyntheticSpec,
    default_concepts,
    load_csv,
    synth_recurring,
)
from driftbench.tree import HoeffdingTreeClassifier, hoeffding_bound

N_SEEDS = 10
BATCH = 100


def verdict(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# -- criterion 1: analytic gradients vs central finite differences -----------


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    h, worst = 1e-5, 0.0
    for trial in range(20):
        # the one architecture, ReLU hidden layers under a linear head,
        # with 1 to 3 layers
        sizes = [int(rng.integers(2, 5)) for _ in range(rng.integers(2, 5))]
        net = Network(sizes, np.random.default_rng(trial))
        # nonzero biases: under zero ones, a row that no unit of a hidden
        # layer passes gives the next layer pre-activations of exactly 0,
        # the ReLU's kink, where no gradient exists to check
        for layer in net.layers:
            layer.bias[...] = rng.normal(0.0, 0.5, layer.bias.shape)
        inputs = rng.normal(size=(4, sizes[0]))
        if trial % 2:
            # the discriminator's loss: cross entropy, backpropagated by
            # _backward from its output gradient, as train_step does
            targets = rng.integers(0, sizes[-1], size=4)
            acts = net.forward_cached(inputs)
            _backward(net, acts, _loss_and_output_grad(acts[-1], targets)[1])

            def loss():
                return batch_loss(net, inputs, targets)
        else:
            # the generator's: the mean squared error of its caller,
            # backpropagated by _backward from the output gradient
            targets = rng.normal(size=(4, sizes[-1]))
            acts = net.forward_cached(inputs)
            out = acts[-1]
            _backward(net, acts, 2.0 * (out - targets) / out.size)

            def loss():
                return float(np.mean((net.forward(inputs) - targets) ** 2))
        for layer in net.layers:
            for param, grad in ((layer.weights, layer.grad_weights),
                                (layer.bias, layer.grad_bias)):
                flat = param.ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    up = loss()
                    flat[i] = orig - h
                    down = loss()
                    flat[i] = orig
                    numeric = (up - down) / (2.0 * h)
                    denom = max(abs(numeric), 1e-6)
                    worst = max(worst, abs(grad.ravel()[i] - numeric) / denom)
    elapsed = time.perf_counter() - start
    verdict(1, worst < 1e-4 and elapsed < 10.0,
            f"max relative error {worst:.2e} over 20 networks "
            f"in {elapsed:.1f}s")


# -- criterion 2: Adadelta oracle ---------------------------------------------


def test_criterion_2_adadelta_oracle():
    param = np.array([0.0])
    state = AdadeltaState.for_param(param)
    adadelta_update(param, np.array([1.0]), state)
    expected = -math.sqrt((0.0 + 1e-6) / (0.05 * 1.0 + 1e-6))
    formula_ok = abs(param[0] - expected) < 1e-12
    magnitude_ok = abs(param[0] + 0.004472) < 1e-6

    w = np.array([4.0])
    state = AdadeltaState.for_param(w)
    for _ in range(500):
        adadelta_update(w, 2.0 * (w - 3.0), state)
    converged = abs(w[0] - 3.0) < 1e-2
    verdict(2, formula_ok and magnitude_ok and converged,
            f"unit-gradient step {param[0]:.7f}, quadratic endpoint "
            f"|w - w*| = {abs(w[0] - 3.0):.2e}")


# -- criterion 3: Hoeffding bound ---------------------------------------------


def test_criterion_3_hoeffding_bound():
    value = hoeffding_bound(1.0, 1e-7, 1000)
    value_ok = abs(value - 0.089772) < 1e-6
    halving_ok = all(
        hoeffding_bound(1.0, 1e-7, 4 * n) == hoeffding_bound(1.0, 1e-7, n) / 2
        for n in (1, 25, 1000)
    )
    verdict(3, value_ok and halving_ok,
            f"eps(1, 1e-7, 1000) = {value:.6f}, quadrupling n halves exactly")


# -- criterion 4: Hoeffding tree on the noiseless rule stream -----------------


def test_criterion_4_tree_rule_stream():
    def run():
        rng = np.random.default_rng(4)
        tree = HoeffdingTreeClassifier(n_features=1, n_classes=2)
        preds, correct = [], 0
        for _ in range(5000):
            x = rng.uniform(-1.0, 1.0, size=1)
            y = int(x[0] > 0)
            pred = tree.predict(x)
            preds.append(pred)
            correct += pred == y
            tree.partial_fit(x, y)
        return correct / 5000, preds

    accuracy, first = run()
    _, second = run()
    verdict(4, accuracy >= 0.9 and first == second,
            f"prequential accuracy {accuracy:.4f}, replay equal: "
            f"{first == second}")


# -- criterion 5: GAN training audit ------------------------------------------


def test_criterion_5_gan_training_audit():
    concept = default_concepts()["A"]
    passed, details = 0, []
    for seed in range(N_SEEDS):
        start = time.perf_counter()
        rng = np.random.default_rng(seed)
        feats, _ = concept.sample(rng, 100)
        window = [standardize(v) for v in feats]
        config = DetectorConfig(seed=seed)
        registry = DistributionRegistry()
        registry.add(window)
        registry.current = 1
        generator, discriminator = train_gan(registry, config, rng)

        real = np.array(window)
        real_rate = np.mean(np.array(classify_batch(discriminator, real)) == 1)
        seqs = np.array([np.concatenate(window[i:i + config.seq_len])
                         for i in range(len(window) - config.seq_len)])
        fake = generator.forward(seqs)
        fake_rate = np.mean(np.array(classify_batch(discriminator, fake)) == 0)
        elapsed = time.perf_counter() - start
        ok = real_rate >= 0.9 and fake_rate >= 0.9 and elapsed < 60.0
        passed += ok
        details.append(f"seed {seed}: real {real_rate:.2f} fake {fake_rate:.2f} "
                       f"{elapsed:.0f}s")
    verdict(5, passed >= 8,
            f"{passed}/{N_SEEDS} seeds pass ({'; '.join(details)})")


# -- criteria 6 and 7 share the recurring-drift suite -------------------------


@pytest.fixture(scope="module")
def recurring_suite():
    spec = SyntheticSpec(default_concepts(), ["A", "B", "A", "B"], [2000] * 4)
    runs = []
    start = time.perf_counter()
    for seed in range(N_SEEDS):
        instances, meta = synth_recurring(spec, seed=seed)
        n_classes = len(meta.label_alphabet)
        driftgan = make_strategy("driftgan", meta.n_features, n_classes,
                                 config=DetectorConfig(seed=seed))
        report = prequential_run(instances, driftgan, dataset="suite",
                                 metadata=meta)
        baseline = make_strategy("initial_learn", meta.n_features, n_classes)
        base_report = prequential_run(instances, baseline, dataset="suite",
                                      metadata=meta)
        runs.append((meta, report, base_report))
    return runs, time.perf_counter() - start


def _detection_ok(meta, events):
    for cp in meta.change_points:
        if not any(cp <= e.instance_index <= cp + 3 * BATCH for e in events):
            return False
    # at most one false alarm per stable segment: segment 0 allows one
    # event, later segments allow the detection plus one extra
    boundaries = [0] + list(meta.change_points) + [float("inf")]
    for seg in range(len(boundaries) - 1):
        count = sum(boundaries[seg] <= e.instance_index < boundaries[seg + 1]
                    for e in events)
        if count > (1 if seg == 0 else 2):
            return False
    score = score_detection(events, meta.change_points, meta.segment_concepts)
    return score.recurrence_id_accuracy is not None \
        and score.recurrence_id_accuracy >= 0.8


def test_criterion_6_recurring_drift_suite(recurring_suite):
    runs, elapsed = recurring_suite
    passed = sum(_detection_ok(meta, report.drift_events)
                 for meta, report, _ in runs)
    verdict(6, passed >= 8 and elapsed < 300.0,
            f"{passed}/{N_SEEDS} seeds detect all drifts within "
            f"{3 * BATCH} instances with correct recurrence ids "
            f"({elapsed:.0f}s total)")


def test_criterion_7_strategy_ordering(recurring_suite):
    runs, _ = recurring_suite
    gaps = [report.accuracy - base.accuracy for _, report, base in runs]
    passed = sum(gap >= 0.10 for gap in gaps)
    verdict(7, passed >= 8,
            f"{passed}/{N_SEEDS} seeds beat initial_learn by >= 10 points "
            f"(gaps {', '.join(f'{g * 100:.1f}' for g in gaps)})")


# -- criterion 8: prequential accuracy oracle ---------------------------------


def test_criterion_8_accuracy_oracle():
    rng = np.random.default_rng(8)
    xs = rng.uniform(-1.0, 1.0, size=(120, 1))
    instances = Stream(xs, xs[:, 0] > 0)
    strategy = make_strategy("regular_update", n_features=1, n_classes=2,
                             rho=20)
    report = prequential_run(instances, strategy, keep_trace=True)

    # independent recount: replay an identical tree over the same stream
    tree = HoeffdingTreeClassifier(n_features=1, n_classes=2)
    for x, y in instances[:20]:
        tree.partial_fit(x, y)
    correct = 0
    for x, y in instances[20:]:
        correct += tree.predict(x) == y
        tree.partial_fit(x, y)
    recount = correct / 100
    trace_recount = sum(report.trace) / len(report.trace)
    verdict(8, report.accuracy == recount == trace_recount,
            f"harness {report.accuracy:.4f} == replay {recount:.4f} "
            f"== trace {trace_recount:.4f} on 100 scored instances")


# -- criterion 9 (optional): public-dataset reproduction ----------------------


@pytest.mark.parametrize("env_var,drift_target,baseline_target", [
    ("DRIFTBENCH_PHISHING_CSV", 91.37, 83.49),
    ("DRIFTBENCH_SPAM_CSV", 89.28, 66.48),
])
def test_criterion_9_dataset_reproduction(env_var, drift_target,
                                          baseline_target):
    path = os.environ.get(env_var)
    if not path:
        pytest.skip(f"{env_var} not set; reproduction is not a CI gate")
    instances, meta = load_csv(path, max_instances=50000)
    n_classes = len(meta.label_alphabet)

    def median_accuracy(kind):
        accs = []
        for seed in range(5):
            strategy = make_strategy(kind, meta.n_features, n_classes,
                                     config=DetectorConfig(seed=seed))
            accs.append(prequential_run(instances, strategy).accuracy * 100)
        return sorted(accs)[2]

    drift_acc = median_accuracy("driftgan")
    base_acc = median_accuracy("initial_learn")
    verdict(9, abs(drift_acc - drift_target) <= 3.0
            and abs(base_acc - baseline_target) <= 3.0,
            f"{env_var}: driftgan {drift_acc:.2f} (target {drift_target}), "
            f"initial_learn {base_acc:.2f} (target {baseline_target})")
