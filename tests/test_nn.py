"""Unit tests for the network / backprop / Adadelta core."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from driftbench.nn import (
    ADADELTA_BLOCK,
    ADADELTA_DECAY,
    AdadeltaState,
    LogitBound,
    Network,
    TrainingDivergedError,
    _backward,
    _loss_and_output_grad,
    _to_inputs,
    adadelta_update,
    apply_gradients,
    batch_loss,
    extend_output_layer,
    loss_gradients,
    train_step,
)


def small_net(sizes, seed=0):
    return Network(sizes, np.random.default_rng(seed))


# -- forward pass -----------------------------------------------------------


def test_forward_identity_linear_layer():
    net = small_net([3, 3])
    net.layers[0].weights[...] = np.eye(3)
    net.layers[0].bias[...] = np.zeros(3)
    x = np.array([[1.5, -2.0, 0.25]])
    assert np.allclose(net.forward(x), x)


def test_forward_hand_computed_two_layer():
    # first layer relu(Wx + b), second layer linear
    net = small_net([2, 2, 1])
    net.layers[0].weights[...] = np.array([[1.0, 0.5], [-1.0, 0.5]])
    net.layers[0].bias[...] = np.array([0.0, 1.0])
    net.layers[1].weights[...] = np.array([[2.0], [-3.0]])
    net.layers[1].bias[...] = np.array([0.25])
    x = np.array([[2.0, 1.0]])
    hidden = np.maximum([2.0 - 1.0, 1.0 + 1.5], 0.0)  # [1, 2.5]
    expected = 2.0 * hidden[0] - 3.0 * hidden[1] + 0.25
    assert np.allclose(net.forward(x), [[expected]])


def test_forward_batch_matches_single():
    net = small_net([4, 5, 3], seed=7)
    rng = np.random.default_rng(1)
    batch = rng.normal(size=(6, 4))
    rows = np.vstack([net.forward(row[None, :]) for row in batch])
    assert np.allclose(net.forward(batch), rows)


def test_logit_bound_certifies_nothing_it_cannot_bound():
    # per dtype: large enough that a forward in it could overflow, and
    # beyond it (the bound's products then meet NaN and inf)
    for dtype, big, beyond in ((np.float32, 3e38, 1e39),
                               (np.float64, 1.7e308, np.inf)):
        net = Network([2, 8, 8, 2], np.random.default_rng(0), dtype)
        net.layers[-1].bias[...] = [10.0, 0.0]
        bound = LogitBound(net)

        def certified(row, label):  # from one forward of the row alone
            rows = np.asarray(row)[None]
            logits = net.forward(rows).astype(np.float64)
            return bool(LogitBound.certified(logits, bound.radii(rows),
                                             label)[0])

        assert certified([1.0, -1.0], 0)
        assert not certified([1.0, -1.0], 1)
        for row in ([np.nan, -1.0], [big, -big], [beyond, 0.0]):
            with np.errstate(over="ignore", invalid="ignore"):
                assert not np.all(np.isfinite(bound.radii(row)))
                assert not certified(row, 0)
    # float16's fan_in * u reaches 1 at a 2,048-wide layer
    with pytest.raises(ValueError, match="float16"):
        LogitBound(Network([2, 2], np.random.default_rng(0), np.float16))


def test_forward_is_relu_hidden_layers_under_a_linear_head():
    batch = np.random.default_rng(2).normal(size=(32, 3))
    for dtype in (np.float64, np.float32):
        net = Network([3, 8, 6, 5], np.random.default_rng(3), dtype)
        out = net.forward(batch)
        assert out.dtype == dtype
        assert out.shape == (32, 5)
        expected = batch.astype(dtype)
        for layer in net.layers[:-1]:
            expected = np.maximum(expected @ layer.weights + layer.bias, 0.0)
        head = net.layers[-1]
        expected = expected @ head.weights + head.bias
        assert np.any(expected < 0.0)  # no activation on the head
        assert np.array_equal(out, expected)
        assert np.array_equal(net.forward_cached(batch)[-1], out)


def test_a_forward_pass_holds_one_array_per_layer_output():
    # the detector's generator over 2,000 rows: each bias add and ReLU
    # runs in place on its layer's product, so the pass's peak is about
    # the bytes of the layer outputs it returns or keeps
    rows, sizes = 2000, [16, 128, 4096, 4]
    net = Network(sizes, np.random.default_rng(0), np.float32)
    x = np.random.default_rng(1).normal(size=(rows, 16)).astype(np.float32)
    before = x.tobytes()
    tracemalloc.start()
    try:
        out = net.forward(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = rows * sum(sizes[1:]) * np.dtype(np.float32).itemsize
    assert peak < 1.25 * outputs
    assert out.tobytes() == net.forward_cached(x)[-1].tobytes()
    assert x.tobytes() == before


def test_forward_rejects_wrong_width():
    net = small_net([3, 2])
    with pytest.raises(ValueError):
        net.forward(np.zeros((1, 4)))


def test_forward_rejects_a_single_vector():
    net = small_net([3, 2])
    with pytest.raises(ValueError):
        net.forward(np.zeros(3))


def test_constructor_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        Network([3], rng)
    with pytest.raises(ValueError):
        Network([], rng)


def test_init_ranges():
    net = small_net([100, 50], seed=11)
    limit = 1.0 / math.sqrt(100)
    assert np.all(np.abs(net.layers[0].weights) <= limit)
    assert np.all(net.layers[0].bias == 0.0)


def test_layer_arrays_cannot_be_rebound():
    # a rebound array would leave params (and the optimizer) behind
    net = small_net([3, 3])
    with pytest.raises(dataclasses.FrozenInstanceError):
        net.layers[0].weights = np.eye(3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        net.layers[0].grad_bias = np.zeros(3)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_weights_are_contiguous_in_out_views_into_the_buffers(dtype):
    sizes = [3, 5, 4, 2]
    net = Network(sizes, np.random.default_rng(0), dtype)

    def address(a):
        return a.__array_interface__["data"][0]

    offset = 0
    for layer, fan_in, fan_out in zip(net.layers, sizes[:-1], sizes[1:]):
        for array, buffer in ((layer.weights, net.params),
                              (layer.grad_weights, net.grads)):
            assert array.shape == (fan_in, fan_out)
            assert array.flags.c_contiguous
            assert array.base is buffer
            assert address(array) == address(buffer) + offset * buffer.itemsize
        offset += (fan_in + 1) * fan_out


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_seeded_weights_are_the_transposed_out_in_draws(dtype):
    # the layout does not change the RNG stream: each layer draws
    # (out, in) from the seed in turn and stores the transpose
    sizes = [4, 6, 5, 3]
    net = Network(sizes, np.random.default_rng(5), dtype)
    rng = np.random.default_rng(5)
    for layer, fan_in, fan_out in zip(net.layers, sizes[:-1], sizes[1:]):
        limit = 1.0 / np.sqrt(fan_in)
        draw = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        assert layer.weights.tobytes() == draw.T.astype(dtype).tobytes()


# -- gradients --------------------------------------------------------------


def _numeric_param_grads(net, loss, h=1e-5):
    """Central differences of ``loss()`` in every parameter of ``net``."""
    grads = []
    for layer in net.layers:
        for param in (layer.weights, layer.bias):
            grad = np.zeros_like(param)
            flat = param.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss()
                flat[i] = orig - h
                down = loss()
                flat[i] = orig
                grad.ravel()[i] = (up - down) / (2.0 * h)
            grads.append(grad)
    return grads


def _mse_backward(net, inputs, targets):
    """The generator's backward pass: ``_backward`` under the gradient of
    the mean squared error with respect to the head's outputs."""
    acts = net.forward_cached(inputs)
    out = acts[-1]
    _backward(net, acts, 2.0 * (out - targets) / out.size)


def _cross_entropy_backward(net, inputs, targets):
    """The discriminator's backward pass, as ``train_step`` runs it:
    ``_backward`` under the cross-entropy gradient with respect to the
    head's outputs. Returns the loss."""
    acts = net.forward_cached(inputs)
    value, out_grad = _loss_and_output_grad(acts[-1], targets)
    _backward(net, acts, out_grad)
    return value


# The cross entropy is nn's loss. The mean squared error is the
# generator's, computed by its caller and backpropagated by _backward.
@pytest.mark.parametrize("loss", ["mse", "cross_entropy"])
def test_gradients_match_finite_differences(loss):
    rng = np.random.default_rng(5)
    net = small_net([3, 6, 4], seed=5)
    inputs = rng.normal(size=(7, 3))
    if loss == "mse":
        targets = rng.normal(size=(7, 4))
        _mse_backward(net, inputs, targets)
        numeric = _numeric_param_grads(
            net, lambda: float(np.mean((net.forward(inputs) - targets) ** 2)))
    else:
        targets = rng.integers(0, 4, size=7)
        _cross_entropy_backward(net, inputs, targets)
        numeric = _numeric_param_grads(
            net, lambda: batch_loss(net, inputs, targets))
    analytic = [g for l in net.layers for g in (l.grad_weights, l.grad_bias)]
    for a, n in zip(analytic, numeric):
        scale = np.maximum(np.abs(n), 1e-8)
        assert np.max(np.abs(a - n) / scale) < 1e-4


def test_input_gradient_matches_finite_differences():
    net = small_net([4, 5, 3], seed=9)
    rng = np.random.default_rng(4)
    inputs = rng.normal(size=(3, 4))
    targets = rng.integers(0, 3, size=3)
    _, grad = loss_gradients(net, inputs, targets)
    h = 1e-5
    numeric = np.zeros_like(inputs)
    for i in range(inputs.shape[0]):
        for j in range(inputs.shape[1]):
            orig = inputs[i, j]
            inputs[i, j] = orig + h
            up = batch_loss(net, inputs, targets)
            inputs[i, j] = orig - h
            down = batch_loss(net, inputs, targets)
            inputs[i, j] = orig
            numeric[i, j] = (up - down) / (2.0 * h)
    assert np.allclose(grad, numeric, rtol=1e-4, atol=1e-7)


def _full_backward(net, inputs, targets):
    """One loop computing every parameter gradient and the input gradient,
    the reference for the two passes nn splits it into. It builds its own
    pre-activations from the parameters and masks each ReLU with
    ``pre > 0``. Returns the loss, the input gradient, ``(grad_weights,
    grad_bias)`` per layer and the pre-activations."""
    post, pre = [np.asarray(inputs, dtype=net.params.dtype)], []
    for layer in net.layers:
        pre.append(post[-1] @ layer.weights + layer.bias)
        post.append(np.maximum(pre[-1], 0.0))
    value, delta = _loss_and_output_grad(pre[-1], targets)
    grads = []
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        grads.insert(0, (post[i].T @ delta, delta.sum(axis=0)))
        delta = delta @ layer.weights.T
        if i > 0:
            delta = delta * (pre[i - 1] > 0).astype(pre[i - 1].dtype)
    return value, delta, grads, pre


@pytest.mark.parametrize("sizes, dtype", [
    ([4, 1024, 1024, 3], np.float32),  # the detector's discriminator
    ([5, 7, 6, 4], np.float64),
])
def test_split_backward_passes_equal_the_full_backward_bit_for_bit(sizes, dtype):
    rng = np.random.default_rng(11)
    net = Network(sizes, rng, dtype)
    for layer in net.layers:
        layer.bias[...] = rng.normal(0.0, 0.1, layer.bias.shape)
    inputs = rng.normal(size=(16, sizes[0]))
    targets = rng.integers(0, sizes[-1], size=16)
    # the ReLU's kink: zero rows under hidden biases of +0.0, -0.0 and
    # below zero give every hidden layer pre-activations of exactly zero,
    # where nn's mask on the activations must block as the oracle's does
    inputs[::4] = 0.0
    for layer in net.layers[:-1]:
        layer.bias[0::3] = 0.0
        layer.bias[1::3] = -0.0
        layer.bias[2::3] = -np.abs(layer.bias[2::3])
    value, input_grad, grads, pre = _full_backward(net, inputs, targets)
    assert all(np.any(z[::4] == 0.0) for z in pre[:-1])

    # loss_gradients: the same input gradient, and no parameter gradient
    got_value, got_input_grad = loss_gradients(net, inputs, targets)
    assert got_value == value
    assert got_input_grad.tobytes() == input_grad.tobytes()
    assert not np.any(net.grads)

    # _backward: the same parameter gradients
    assert _cross_entropy_backward(net, inputs, targets) == value
    for layer, (grad_weights, grad_bias) in zip(net.layers, grads):
        assert layer.grad_weights.tobytes() == grad_weights.tobytes()
        assert layer.grad_bias.tobytes() == grad_bias.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_the_relu_mask_blocks_the_gradient_at_either_zero(dtype):
    # an activation of -0.0 (a ReLU passes a pre-activation of -0.0 on
    # as it is) masks like one of +0.0: neither is above zero
    net = Network([2, 3, 2], np.random.default_rng(0), dtype)
    below = np.array([[0.0, -0.0, 0.5], [-0.0, 2.0, 0.0]], dtype)
    delta = np.random.default_rng(1).normal(size=(2, 2)).astype(dtype)
    head = net.layers[-1]
    expected = (delta @ head.weights.T) * np.array([[0, 0, 1], [0, 1, 0]], dtype)
    assert _to_inputs(delta, head, below).tobytes() == expected.tobytes()


def test_loss_gradients_validation():
    net = small_net([2, 3])
    with pytest.raises(ValueError):  # empty batch
        loss_gradients(net, np.zeros((0, 2)), [])
    with pytest.raises(ValueError):  # one label short
        loss_gradients(net, np.zeros((2, 2)), [0])
    with pytest.raises(ValueError):  # class index out of range
        loss_gradients(net, np.zeros((2, 2)), [0, 3])


def test_loss_gradients_are_views_of_grads():
    net = small_net([3, 5, 2], seed=1)
    _cross_entropy_backward(net, np.ones((4, 3)), [0, 1, 1, 0])
    assert np.any(net.grads != 0.0)
    for layer in net.layers:
        assert np.shares_memory(layer.grad_weights, net.grads)
        assert np.shares_memory(layer.grad_bias, net.grads)
    assert sum(l.grad_weights.size + l.grad_bias.size
               for l in net.layers) == net.grads.size


def test_batch_loss_equals_loss_gradients_and_leaves_grads():
    net = small_net([3, 6, 4], seed=4)
    rng = np.random.default_rng(6)
    inputs, targets = rng.normal(size=(9, 3)), rng.integers(0, 4, size=9)
    value, _ = loss_gradients(net, inputs, targets)
    _cross_entropy_backward(net, inputs, targets)
    grads = net.grads.copy()
    assert batch_loss(net, inputs, targets) == value
    # a batch whose gradients would differ leaves net.grads as it was
    batch_loss(net, rng.normal(size=(5, 3)), rng.integers(0, 4, size=5))
    assert np.array_equal(net.grads, grads)


@pytest.mark.parametrize("inputs, targets", [
    (np.zeros((0, 2)), []),
    (np.zeros((2, 2)), [0, 3]),
    (np.zeros((2, 2)), [0]),
    (np.zeros(2), [0]),
], ids=["empty_batch", "class_out_of_range", "one_label_short",
        "single_vector"])
def test_batch_loss_raises_as_loss_gradients(inputs, targets):
    net = small_net([2, 3])
    with pytest.raises(ValueError) as expected:
        loss_gradients(net, inputs, targets)
    with pytest.raises(ValueError) as raised:
        batch_loss(net, inputs, targets)
    assert str(raised.value) == str(expected.value)


def test_cross_entropy_value_oracle():
    # single linear layer, identity weights: logits == inputs
    net = small_net([2, 2])
    net.layers[0].weights[...] = np.eye(2)
    net.layers[0].bias[...] = np.zeros(2)
    x = np.array([[2.0, 0.0]])
    value = batch_loss(net, x, [0])
    expected = -math.log(math.exp(2.0) / (math.exp(2.0) + 1.0))
    assert abs(value - expected) < 1e-12


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_cross_entropy_is_finite_where_the_label_probability_underflows(dtype):
    # softmax([0, 1000])[0] = exp(-1000) is 0 in either dtype; the loss
    # is exactly 1000 and the gradient pushes the logits apart by 1
    net = Network([2, 2], np.random.default_rng(0), dtype)
    net.layers[0].weights[...] = np.eye(2)
    net.layers[0].bias[...] = 0.0
    x = np.array([[0.0, 1000.0]])
    value, input_grad = loss_gradients(net, x, [0])
    assert value == 1000.0
    assert batch_loss(net, x, [0]) == 1000.0
    assert np.array_equal(input_grad, [[-1.0, 1.0]])
    _cross_entropy_backward(net, x, [0])
    assert np.all(np.isfinite(net.grads))


@pytest.mark.parametrize("loss", ["mse", "cross_entropy"])
def test_float32_network_keeps_every_array_float32(loss):
    f32 = np.float32
    net = Network([3, 6, 4], np.random.default_rng(2), dtype=f32)
    assert net.params.dtype == net.grads.dtype == f32
    rng = np.random.default_rng(3)
    inputs = rng.normal(size=(5, 3))  # float64 in, cast by the network
    assert net.forward(inputs).dtype == f32
    assert all(a.dtype == f32 for a in net.forward_cached(inputs))
    if loss == "mse":  # the generator's targets are cast like its inputs
        _mse_backward(net, inputs, rng.normal(size=(5, 4)).astype(f32))
    else:
        targets = rng.integers(0, 4, size=5)
        value, input_grad = loss_gradients(net, inputs, targets)
        assert np.isfinite(value)
        assert value == batch_loss(net, inputs, targets)
        assert input_grad.dtype == f32
        assert _cross_entropy_backward(net, inputs, targets) == value
    assert all(a.dtype == f32 for l in net.layers
               for a in (l.grad_weights, l.grad_bias))
    state = AdadeltaState.for_param(net.params)
    apply_gradients(net, state)
    for a in (net.params, net.grads, state.avg_sq_grad, state.avg_sq_delta):
        assert a.dtype == f32
    extend_output_layer(net, np.random.default_rng(4))
    assert net.params.dtype == net.grads.dtype == f32
    assert all(a.dtype == f32 for l in net.layers
               for a in (l.weights, l.bias, l.grad_weights, l.grad_bias))
    assert net.forward(inputs).dtype == f32


# -- Adadelta ---------------------------------------------------------------


def reference_adadelta_update(param, grad, state):
    """The textbook update over whole arrays, the blocked kernel's oracle."""
    rho, eps = ADADELTA_DECAY, state.epsilon
    state.avg_sq_grad *= rho
    state.avg_sq_grad += (1.0 - rho) * grad**2
    delta = -np.sqrt((state.avg_sq_delta + eps) / (state.avg_sq_grad + eps)) * grad
    state.avg_sq_delta *= rho
    state.avg_sq_delta += (1.0 - rho) * delta**2
    param += delta
    return param


@pytest.mark.parametrize("shape, dtype", [
    ((3 * ADADELTA_BLOCK + 17,), np.float64),
    ((7, 5), np.float64),
    ((1,), np.float64),
    ((3 * ADADELTA_BLOCK + 17,), np.float32),
], ids=["shape0", "shape1", "shape2", "float32"])
def test_blocked_adadelta_matches_reference_bit_for_bit(shape, dtype):
    rng = np.random.default_rng(12)
    param = rng.normal(size=shape).astype(dtype)
    expected = param.copy()
    state = AdadeltaState.for_param(param, epsilon=1e-4)
    expected_state = AdadeltaState.for_param(expected, epsilon=1e-4)
    for _ in range(6):
        # gradients spread over many magnitudes, zeros among them
        grad = rng.normal(size=shape) * 10.0 ** rng.uniform(-9, 3, size=shape)
        grad = grad.astype(dtype)
        grad[rng.random(size=shape) < 0.05] = 0.0
        assert adadelta_update(param, grad, state) is param
        reference_adadelta_update(expected, grad, expected_state)
    assert param.dtype == state.avg_sq_delta.dtype == dtype
    assert np.array_equal(param, expected)
    assert np.array_equal(state.avg_sq_grad, expected_state.avg_sq_grad)
    assert np.array_equal(state.avg_sq_delta, expected_state.avg_sq_delta)


def test_adadelta_rejects_a_parameter_it_cannot_update_in_place():
    param = np.zeros((3, 4)).T  # no flat view of it exists
    with pytest.raises(ValueError):
        adadelta_update(param, np.ones((4, 3)), AdadeltaState.for_param(param))


def test_apply_gradients_steps_params_from_grads():
    net = small_net([3, 4, 2], seed=3)
    # (rows of ones with these weights pass no hidden unit: every
    # gradient would be zero and the step a no-op)
    inputs = np.random.default_rng(0).normal(size=(4, 3))
    _cross_entropy_backward(net, inputs, [0, 1, 1, 0])
    assert np.any(net.grads != 0.0)
    state = AdadeltaState.for_param(net.params)
    expected = net.params.copy()
    reference_adadelta_update(expected, net.grads,
                              AdadeltaState.for_param(expected))
    apply_gradients(net, state)
    assert np.array_equal(net.params, expected)


def test_adadelta_fresh_unit_gradient_step():
    param = np.array([0.0])
    state = AdadeltaState.for_param(param)
    adadelta_update(param, np.array([1.0]), state)
    rho, eps = 0.95, 1e-6
    expected = -math.sqrt((0.0 + eps) / ((1.0 - rho) * 1.0 + eps))
    assert abs(param[0] - expected) < 1e-12
    assert abs(param[0] - (-0.004472)) < 1e-6


def test_adadelta_two_steps_match_direct_evaluation():
    rho, eps = 0.95, 1e-6
    param = np.array([1.0])
    state = AdadeltaState.for_param(param)
    eg2 = ed2 = 0.0
    w = 1.0
    for grad in (0.5, -2.0):
        adadelta_update(param, np.array([grad]), state)
        eg2 = rho * eg2 + (1 - rho) * grad**2
        delta = -math.sqrt((ed2 + eps) / (eg2 + eps)) * grad
        ed2 = rho * ed2 + (1 - rho) * delta**2
        w += delta
        assert abs(param[0] - w) < 1e-12


def test_adadelta_step_size_grows_under_constant_gradient():
    param = np.array([0.0])
    state = AdadeltaState.for_param(param)
    positions = [0.0]
    for _ in range(5):
        adadelta_update(param, np.array([1.0]), state)
        positions.append(param[0])
    steps = -np.diff(positions)
    assert np.all(steps > 0)
    assert np.all(np.diff(steps) > 0)  # accelerates while the gradient persists


def test_adadelta_converges_on_quadratic():
    # Adadelta's step size ramps up slowly, so the start sits within reach
    # of 500 updates
    param = np.array([4.0])
    state = AdadeltaState.for_param(param)
    for _ in range(500):
        grad = 2.0 * (param - 3.0)
        adadelta_update(param, grad, state)
    assert abs(param[0] - 3.0) < 1e-2


def test_train_step_reduces_convex_loss():
    # one linear layer on linearly separable classes: a convex loss
    net = small_net([2, 2], seed=2)
    opt = AdadeltaState.for_param(net.params)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(64, 2))
    y = (x @ np.array([1.0, -2.0]) > 0.0).astype(int)
    losses = [train_step(net, x, y, opt) for _ in range(300)]
    assert losses[-1] < losses[0] * 0.5


def test_train_step_raises_on_divergence():
    net = small_net([2, 2])
    net.layers[0].weights[:] = np.inf
    opt = AdadeltaState.for_param(net.params)
    with pytest.raises(TrainingDivergedError), np.errstate(invalid="ignore"):
        train_step(net, np.ones((1, 2)), [0], opt)  # inf - inf logits


# -- output extension and serialization --------------------------------------


def test_extend_output_layer_grows_and_preserves_lower_layers():
    net = small_net([3, 5, 2], seed=6)
    lower_w = net.layers[0].weights.copy()
    lower_b = net.layers[0].bias.copy()
    extend_output_layer(net, np.random.default_rng(1))
    assert net.output_size == 3
    assert np.array_equal(net.layers[0].weights, lower_w)
    assert np.array_equal(net.layers[0].bias, lower_b)
    assert net.forward(np.ones((1, 3))).shape == (1, 3)


def test_extend_output_layer_rebuilds_views_into_new_buffers():
    net = small_net([3, 5, 2], seed=6)
    lower = net.params[:3 * 5 + 5].copy()
    extend_output_layer(net, np.random.default_rng(1))
    assert net.params.size == net.grads.size == (3 + 1) * 5 + (5 + 1) * 3
    for layer in net.layers:
        assert np.shares_memory(layer.weights, net.params)
        assert np.shares_memory(layer.bias, net.params)
        assert np.shares_memory(layer.grad_weights, net.grads)
        assert np.shares_memory(layer.grad_bias, net.grads)
    assert net.params[:lower.size].tobytes() == lower.tobytes()
    # the top layer is one fresh draw, as in a newly built network
    limit = 1.0 / math.sqrt(5)
    draw = np.random.default_rng(1).uniform(-limit, limit, size=(3, 5))
    assert np.array_equal(net.layers[1].weights, draw.T)
    assert np.all(net.layers[1].bias == 0.0)
