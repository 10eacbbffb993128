"""Minimal feed-forward networks with manual backprop and Adadelta.

Networks are plain stacks of dense layers (weights, bias, activation).
Everything runs on numpy arrays; there is no autodiff graph. The two
losses needed by the rest of the package are mean squared error on the
network output and softmax cross-entropy on the final pre-activation
logits (a sigmoid output layer is scored through its logits, which
preserves the argmax).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("relu", "linear", "sigmoid")
LOSSES = ("mse", "cross_entropy")


class TrainingDivergedError(RuntimeError):
    """A training step produced a non-finite loss or gradient."""


@dataclass
class Layer:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str


def _init_layer(fan_in: int, fan_out: int, activation: str, rng) -> Layer:
    limit = 1.0 / np.sqrt(fan_in)
    weights = rng.uniform(-limit, limit, size=(fan_out, fan_in))
    return Layer(weights, np.zeros(fan_out), activation)


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
        return (z > 0).astype(float)
    if name == "linear":
        return np.ones_like(z)
    if name == "sigmoid":
        s = _activate(z, "sigmoid")
        return s * (1.0 - s)
    raise ValueError(f"unknown activation {name!r}")


class Network:
    """Dense feed-forward network.

    ``layer_sizes`` has length L+1 (input width first), ``activations``
    has length L, one per layer.
    """

    def __init__(self, layer_sizes, activations, rng=None):
        if len(layer_sizes) < 2:
            raise ValueError("need at least one layer")
        if len(activations) != len(layer_sizes) - 1:
            raise ValueError("one activation per layer required")
        for act in activations:
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        if rng is None:
            rng = np.random.default_rng()
        self.layers = [
            _init_layer(layer_sizes[i], layer_sizes[i + 1], activations[i], rng)
            for i in range(len(activations))
        ]

    @property
    def input_size(self) -> int:
        return self.layers[0].weights.shape[1]

    @property
    def output_size(self) -> int:
        return self.layers[-1].weights.shape[0]

    def _as_batch(self, x) -> tuple[np.ndarray, bool]:
        arr = np.asarray(x, dtype=float)
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
        batch, single = self._as_batch(x)
        out = batch
        for layer in self.layers:
            out = _activate(out @ layer.weights.T + layer.bias, layer.activation)
        return out[0] if single else out

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


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def batch_loss(net: Network, inputs, targets, loss: str) -> float:
    """Loss value as used by train_step, without touching parameters."""
    value, _, _ = loss_gradients(net, inputs, targets, loss)
    return value


def loss_gradients(net: Network, inputs, targets, loss: str):
    """Mean batch loss plus parameter and input gradients.

    Returns ``(loss, [(grad_w, grad_b) per layer], grad_inputs)``.
    For ``cross_entropy`` the loss is softmax cross-entropy on the final
    pre-activation logits and ``targets`` are integer class indices; for
    ``mse`` targets are vectors shaped like the output.
    """
    if loss not in LOSSES:
        raise ValueError(f"unknown loss {loss!r}")
    pre, post = net.forward_cached(inputs)
    n = post[0].shape[0]
    if n == 0:
        raise ValueError("empty batch")

    if loss == "mse":
        target = np.atleast_2d(np.asarray(targets, dtype=float))
        if target.shape != post[-1].shape:
            raise ValueError("mse targets must match the output shape")
        diff = post[-1] - target
        value = float(np.mean(diff**2))
        out_grad = 2.0 * diff / diff.size
        skip_final = False
    else:
        labels = np.asarray(targets, dtype=int).ravel()
        if labels.shape[0] != n:
            raise ValueError("one class index per batch row required")
        if labels.min() < 0 or labels.max() >= net.output_size:
            raise ValueError("class index out of range")
        probs = _softmax(pre[-1])
        value = float(-np.mean(np.log(probs[np.arange(n), labels] + 1e-300)))
        out_grad = probs.copy()
        out_grad[np.arange(n), labels] -= 1.0
        out_grad /= n
        skip_final = True

    grads, input_grad = _backward(net, pre, post, out_grad, skip_final)
    return value, grads, input_grad


def _backward(net, pre, post, out_grad, skip_final_activation):
    grads = [None] * len(net.layers)
    delta = out_grad
    if not skip_final_activation:
        delta = delta * _activate_grad(pre[-1], net.layers[-1].activation)
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        grads[i] = (delta.T @ post[i], delta.sum(axis=0))
        if i > 0:
            delta = (delta @ layer.weights) * _activate_grad(
                pre[i - 1], net.layers[i - 1].activation
            )
        else:
            delta = delta @ layer.weights
    return grads, delta


# ---------------------------------------------------------------------------
# Adadelta


@dataclass
class AdadeltaState:
    """Per-parameter accumulators for one tensor."""

    avg_sq_grad: np.ndarray
    avg_sq_delta: np.ndarray
    decay: float = 0.95
    epsilon: float = 1e-6

    @classmethod
    def for_param(cls, param: np.ndarray, decay: float = 0.95, epsilon: float = 1e-6):
        return cls(np.zeros_like(param), np.zeros_like(param), decay, epsilon)


def adadelta_update(param: np.ndarray, grad: np.ndarray, state: AdadeltaState):
    """In-place Adadelta step; returns the updated parameter."""
    rho, eps = state.decay, state.epsilon
    state.avg_sq_grad *= rho
    state.avg_sq_grad += (1.0 - rho) * grad**2
    delta = -np.sqrt((state.avg_sq_delta + eps) / (state.avg_sq_grad + eps)) * grad
    state.avg_sq_delta *= rho
    state.avg_sq_delta += (1.0 - rho) * delta**2
    param += delta
    return param


class AdadeltaOptimizer:
    """Adadelta state for every tensor of one network."""

    def __init__(self, net: Network, decay: float = 0.95, epsilon: float = 1e-6):
        self.decay = decay
        self.epsilon = epsilon
        self.states = [
            (
                AdadeltaState.for_param(l.weights, decay, epsilon),
                AdadeltaState.for_param(l.bias, decay, epsilon),
            )
            for l in net.layers
        ]


def apply_gradients(net: Network, grads, opt: AdadeltaOptimizer) -> None:
    for layer, (grad_w, grad_b), (state_w, state_b) in zip(
        net.layers, grads, opt.states
    ):
        adadelta_update(layer.weights, grad_w, state_w)
        adadelta_update(layer.bias, grad_b, state_b)


def train_step(net: Network, batch_inputs, batch_targets, loss: str,
               opt: AdadeltaOptimizer) -> float:
    """One backprop + Adadelta step; returns the pre-update mean batch loss."""
    value, grads, _ = loss_gradients(net, batch_inputs, batch_targets, loss)
    if not np.isfinite(value):
        raise TrainingDivergedError(f"non-finite {loss} loss: {value}")
    apply_gradients(net, grads, opt)
    return value


def extend_output_layer(net: Network, rng=None) -> Network:
    """Grow the output layer by one unit.

    Layers below the top are left untouched; the whole final layer is
    reinitialized (a retrain always follows an extension).
    """
    if rng is None:
        rng = np.random.default_rng()
    last = net.layers[-1]
    fan_in = last.weights.shape[1]
    net.layers[-1] = _init_layer(fan_in, last.weights.shape[0] + 1,
                                 last.activation, rng)
    return net
