"""Minimal feed-forward networks with manual backprop and Adadelta.

Networks are plain stacks of dense layers (weights, bias, activation).
Everything runs on numpy arrays; there is no autodiff graph. The two
losses needed by the rest of the package are mean squared error on the
network output and softmax cross-entropy on the final pre-activation
logits (a sigmoid output layer is scored through its logits, which
preserves the argmax). The cross entropy is computed by log-sum-exp, so
it stays finite in float32 however small a label's probability.

Each network keeps all of its parameters in one contiguous buffer,
``Network.params``, and their gradients in a second buffer of the same
layout, ``Network.grads``. Both have the network's dtype (float64 unless
the constructor is given another); inputs are cast to it, and every
temporary of the forward pass, the backward pass and Adadelta follows
it. A layer's ``weights``/``bias`` are reshaped views into ``params``
and its ``grad_weights``/``grad_bias`` views into ``grads``. A backward
pass writes the gradients into ``grads`` in place, so the gradients
that ``loss_gradients`` returns are views of ``net.grads``: they are
valid until the next backward pass on that network. Adadelta updates
``params`` in one pass over the flat buffers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("relu", "linear", "sigmoid")
LOSSES = ("mse", "cross_entropy")


class TrainingDivergedError(RuntimeError):
    """A training step produced a non-finite loss or gradient."""


@dataclass(frozen=True)
class Layer:
    """One dense layer. Frozen: its arrays are views into the network's
    buffers and are written in place, never rebound."""

    weights: np.ndarray  # (out, in), a view into Network.params
    bias: np.ndarray  # (out,), a view into Network.params
    grad_weights: np.ndarray  # (out, in), a view into Network.grads
    grad_bias: np.ndarray  # (out,), a view into Network.grads
    activation: str


def _layer_views(buffer: np.ndarray, sizes) -> list:
    """``(weights, bias)`` views per layer into one flat buffer."""
    views, offset = [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        end = offset + fan_out * fan_in
        views.append((buffer[offset:end].reshape(fan_out, fan_in),
                      buffer[end:end + fan_out]))
        offset = end + fan_out
    return views


def _init_layer(layer: Layer, rng) -> None:
    """Draw a freshly allocated layer's weights; its bias stays zero.

    The draw is float64 whatever the network's dtype and is cast on
    assignment, so the dtype does not change the RNG stream."""
    fan_out, fan_in = layer.weights.shape
    limit = 1.0 / np.sqrt(fan_in)
    layer.weights[...] = rng.uniform(-limit, limit, size=(fan_out, fan_in))


def _activate(z: np.ndarray, name: str) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "linear":
        return z
    if name == "sigmoid":
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out
    raise ValueError(f"unknown activation {name!r}")


def _activate_grad(z: np.ndarray, name: str) -> np.ndarray:
    if name == "relu":
        return (z > 0).astype(z.dtype)
    if name == "linear":
        return np.ones_like(z)
    if name == "sigmoid":
        s = _activate(z, "sigmoid")
        return s * (1.0 - s)
    raise ValueError(f"unknown activation {name!r}")


class Network:
    """Dense feed-forward network.

    ``layer_sizes`` has length L+1 (input width first), ``activations``
    has length L, one per layer. The weights are drawn from ``rng``; the
    biases start at zero. ``dtype`` is the dtype of the parameters, the
    gradients and every array the network computes.
    """

    def __init__(self, layer_sizes, activations, rng, dtype=np.float64):
        if len(layer_sizes) < 2:
            raise ValueError("need at least one layer")
        if len(activations) != len(layer_sizes) - 1:
            raise ValueError("one activation per layer required")
        for act in activations:
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        self._allocate(layer_sizes, activations, dtype)
        for layer in self.layers:
            _init_layer(layer, rng)

    def _allocate(self, layer_sizes, activations, dtype) -> None:
        """Zeroed ``params`` and ``grads`` buffers and the layers' views."""
        total = sum((fan_in + 1) * fan_out
                    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]))
        self.params = np.zeros(total, dtype=dtype)
        self.grads = np.zeros(total, dtype=dtype)
        self.layers = [
            Layer(w, b, grad_w, grad_b, act)
            for (w, b), (grad_w, grad_b), act in zip(
                _layer_views(self.params, layer_sizes),
                _layer_views(self.grads, layer_sizes), activations)
        ]

    @property
    def input_size(self) -> int:
        return self.layers[0].weights.shape[1]

    @property
    def output_size(self) -> int:
        return self.layers[-1].weights.shape[0]

    def _as_batch(self, x) -> tuple[np.ndarray, bool]:
        arr = np.asarray(x, dtype=self.params.dtype)
        single = arr.ndim == 1
        if single:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.input_size:
            raise ValueError(
                f"expected input width {self.input_size}, got shape {arr.shape}"
            )
        return arr, single

    def forward(self, x) -> np.ndarray:
        """Activations of the final layer for a vector or a batch."""
        return _activate(self.logits(x), self.layers[-1].activation)

    def forward_cached(self, x):
        """Forward pass keeping per-layer pre/post activations for backprop."""
        batch, _ = self._as_batch(x)
        pre, post = [], [batch]
        for layer in self.layers:
            z = post[-1] @ layer.weights.T + layer.bias
            pre.append(z)
            post.append(_activate(z, layer.activation))
        return pre, post

    def logits(self, x) -> np.ndarray:
        """Final-layer pre-activation values."""
        batch, single = self._as_batch(x)
        out = batch
        for layer in self.layers[:-1]:
            out = _activate(out @ layer.weights.T + layer.bias, layer.activation)
        last = self.layers[-1]
        z = out @ last.weights.T + last.bias
        return z[0] if single else z


# ---------------------------------------------------------------------------
# Losses and gradients


def _check_loss(loss: str) -> None:
    if loss not in LOSSES:
        raise ValueError(f"unknown loss {loss!r}")


def _loss_and_output_grad(scored: np.ndarray, targets, loss: str):
    """Mean batch loss and its gradient with respect to ``scored``: the
    network output for ``mse``, the final pre-activation logits for
    ``cross_entropy``."""
    n = scored.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    if loss == "mse":
        target = np.atleast_2d(np.asarray(targets, dtype=scored.dtype))
        if target.shape != scored.shape:
            raise ValueError("mse targets must match the output shape")
        diff = scored - target
        value = float(np.mean(diff**2))
        return value, 2.0 * diff / diff.size
    labels = np.asarray(targets, dtype=int).ravel()
    if labels.shape[0] != n:
        raise ValueError("one class index per batch row required")
    if labels.min() < 0 or labels.max() >= scored.shape[1]:
        raise ValueError("class index out of range")
    # log-sum-exp: -log softmax(z)[y] = log(sum(exp(z - max))) - (z - max)[y],
    # finite even where the label's probability underflows to 0
    rows = np.arange(n)
    shifted = scored - scored.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    value = float(np.mean(np.log(total[:, 0]) - shifted[rows, labels]))
    out_grad = exp / total
    out_grad[rows, labels] -= 1.0
    out_grad /= n
    return value, out_grad


def batch_loss(net: Network, inputs, targets, loss: str) -> float:
    """Loss value as used by train_step, from a forward pass alone.

    Holds one layer's activations at a time and touches neither the
    parameters nor ``net.grads``.
    """
    _check_loss(loss)
    batch = np.atleast_2d(inputs)
    scored = net.logits(batch) if loss == "cross_entropy" else net.forward(batch)
    return _loss_and_output_grad(scored, targets, loss)[0]


def loss_gradients(net: Network, inputs, targets, loss: str):
    """Mean batch loss plus parameter and input gradients.

    Returns ``(loss, [(grad_w, grad_b) per layer], grad_inputs)``.
    For ``cross_entropy`` the loss is softmax cross-entropy on the final
    pre-activation logits and ``targets`` are integer class indices; for
    ``mse`` targets are vectors shaped like the output. The parameter
    gradients are the layers' views of ``net.grads``: they are valid
    until the next backward pass on ``net`` overwrites them.
    """
    _check_loss(loss)
    pre, post = net.forward_cached(inputs)
    cross_entropy = loss == "cross_entropy"
    value, out_grad = _loss_and_output_grad(
        pre[-1] if cross_entropy else post[-1], targets, loss)
    input_grad = _backward(net, pre, post, out_grad, cross_entropy)
    return value, [(l.grad_weights, l.grad_bias) for l in net.layers], input_grad


def _backward(net, pre, post, out_grad, skip_final_activation):
    """Backpropagate ``out_grad``: write the parameter gradients into
    ``net.grads`` and return the gradient with respect to the inputs."""
    delta = out_grad
    if not skip_final_activation:
        delta = delta * _activate_grad(pre[-1], net.layers[-1].activation)
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        np.matmul(delta.T, post[i], out=layer.grad_weights)
        np.sum(delta, axis=0, out=layer.grad_bias)
        if i > 0:
            delta = (delta @ layer.weights) * _activate_grad(
                pre[i - 1], net.layers[i - 1].activation
            )
        else:
            delta = delta @ layer.weights
    return delta


# ---------------------------------------------------------------------------
# Adadelta


# Elements per block of the Adadelta pass: a block of each operand stays
# in cache across the whole sequence of operations on it.
ADADELTA_BLOCK = 32_768
# Adadelta's decay rate (rho in Zeiler 2012) for every accumulator.
ADADELTA_DECAY = 0.95


@dataclass
class AdadeltaState:
    """Adadelta accumulators for one parameter array. A network's
    optimizer is ``AdadeltaState.for_param(net.params)``."""

    avg_sq_grad: np.ndarray
    avg_sq_delta: np.ndarray
    epsilon: float = 1e-6

    @classmethod
    def for_param(cls, param: np.ndarray, epsilon: float = 1e-6):
        return cls(np.zeros_like(param), np.zeros_like(param), epsilon)


def adadelta_update(param: np.ndarray, grad: np.ndarray, state: AdadeltaState):
    """In-place Adadelta step (Zeiler 2012); returns the updated parameter.

    One pass over the flattened arrays in blocks of ``ADADELTA_BLOCK``
    elements, with two block-sized scratch arrays; ``param`` and the
    accumulators must be C-contiguous. Each block goes through the
    operations of the textbook update in their order, so the result
    matches it bit for bit::

        Eg = rho * Eg + (1 - rho) * g**2
        delta = -sqrt((Ed + eps) / (Eg + eps)) * g
        Ed = rho * Ed + (1 - rho) * delta**2
        param += delta
    """
    rho, eps = ADADELTA_DECAY, state.epsilon
    updated = (param, state.avg_sq_grad, state.avg_sq_delta)
    if not all(a.flags.c_contiguous for a in updated):
        raise ValueError("adadelta_update needs C-contiguous parameter "
                         "and accumulator arrays")
    p, eg, ed = (a.reshape(-1) for a in updated)
    g = np.ravel(grad)
    size = min(p.size, ADADELTA_BLOCK)
    step, scratch = np.empty(size, p.dtype), np.empty(size, p.dtype)
    for lo in range(0, p.size, ADADELTA_BLOCK):
        g_b = g[lo:lo + ADADELTA_BLOCK]
        eg_b = eg[lo:lo + ADADELTA_BLOCK]
        ed_b = ed[lo:lo + ADADELTA_BLOCK]
        u, t = step[:g_b.size], scratch[:g_b.size]
        np.multiply(g_b, g_b, out=t)
        t *= 1.0 - rho
        eg_b *= rho
        eg_b += t
        np.add(ed_b, eps, out=u)
        np.add(eg_b, eps, out=t)
        u /= t
        np.sqrt(u, out=u)
        u *= g_b  # u = -delta
        np.multiply(u, u, out=t)
        t *= 1.0 - rho
        ed_b *= rho
        ed_b += t
        p[lo:lo + ADADELTA_BLOCK] -= u
    return param


def apply_gradients(net: Network, state: AdadeltaState) -> None:
    """Adadelta step on ``net.params`` from ``net.grads``."""
    adadelta_update(net.params, net.grads, state)


def train_step(net: Network, batch_inputs, batch_targets, loss: str,
               state: AdadeltaState) -> float:
    """One backprop + Adadelta step; returns the pre-update mean batch loss."""
    value, _, _ = loss_gradients(net, batch_inputs, batch_targets, loss)
    if not np.isfinite(value):
        raise TrainingDivergedError(f"non-finite {loss} loss: {value}")
    apply_gradients(net, state)
    return value


def extend_output_layer(net: Network, rng) -> Network:
    """Grow the output layer by one unit.

    Both buffers are reallocated in the network's dtype. Layers below the
    top keep their parameters; the whole final layer is redrawn from
    ``rng`` (a retrain always follows an extension).
    """
    sizes = [net.input_size] + [l.weights.shape[0] for l in net.layers]
    sizes[-1] += 1
    old, last = net.params, net.layers[-1]
    kept = old.size - last.weights.size - last.bias.size
    net._allocate(sizes, [l.activation for l in net.layers], old.dtype)
    net.params[:kept] = old[:kept]
    _init_layer(net.layers[-1], rng)
    return net
