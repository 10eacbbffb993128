"""Minimal feed-forward networks with manual backprop and Adadelta.

Every network is one architecture: a stack of dense layers with ReLU on
each hidden layer and a linear head. ``Network.forward`` returns the
head's outputs, the logits. The one loss is softmax cross-entropy on
those logits, computed by log-sum-exp, so it stays finite in float32
however small a label's probability. A caller that trains a network
under another loss (the detector's generator, under mean squared error)
computes the gradient of that loss with respect to the head's outputs
and passes it to ``_backward``.

A backward pass computes only what its caller reads: ``_backward``
writes the parameter gradients and not the inputs' gradient, and
``loss_gradients`` returns the inputs' gradient (the detector's
generator step pulls its fakes through the discriminator by it) and
writes no parameter gradient.

Everything runs on numpy arrays; there is no autodiff graph. Inputs are
batches, one row per example.

One layer loop runs every forward pass. It builds the activation list
``[input, h1, ..., logits]``, adding each bias and applying each ReLU
in place on the product the layer just allocated, so a layer's output
costs one array and the caller's input is never written. ``forward``
returns the list's last entry and ``forward_cached`` the whole list,
which is all the backward reads: a ReLU's output is positive exactly
where its input is, so ``h > 0`` is the ReLU's mask.

Each network keeps all of its parameters in one contiguous buffer,
``Network.params``, and their gradients in a second buffer of the same
layout, ``Network.grads``. Both have the network's dtype (float64 unless
the constructor is given another); inputs are cast to it, and every
temporary of the forward pass, the backward pass and Adadelta follows
it. A layer's ``weights``/``bias`` are reshaped views into ``params``
and its ``grad_weights``/``grad_bias`` views into ``grads``. Weights are
stored ``(fan_in, fan_out)``, so a layer computes ``x @ weights + bias``
and the forward pass hands BLAS no transposed operand; for the few-row
batches a detector classifies, OpenBLAS runs a transposed operand at
about half speed. ``_backward`` writes the gradients into ``grads`` in
place; they are valid until the next backward pass on that network.
Adadelta updates ``params`` in one pass over the flat buffers.

``LogitBound`` bounds the rounding error of a forward pass in the
network's dtype, float32 or float64, so one forward of a row, alone or
in a block of rows, can tell which class every other forward of that
row picks, when the margin allows. It reads its float model (unit
roundoff, underflow and overflow thresholds) from ``np.finfo`` of the
network's dtype. It bounds a network of any depth, and each of its
bounds is affine in the row's 2-norm, so a row of d inputs to a network
of k outputs costs O(d + k) work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class TrainingDivergedError(RuntimeError):
    """A training step produced a non-finite loss or gradient."""


@dataclass(frozen=True)
class Layer:
    """One dense layer. Frozen: its arrays are views into the network's
    buffers and are written in place, never rebound."""

    weights: np.ndarray  # (in, out), a C-contiguous view into Network.params
    bias: np.ndarray  # (out,), a view into Network.params
    grad_weights: np.ndarray  # (in, out), a C-contiguous view into Network.grads
    grad_bias: np.ndarray  # (out,), a view into Network.grads


def _layer_views(buffer: np.ndarray, sizes) -> list:
    """``(weights, bias)`` views per layer into one flat buffer."""
    views, offset = [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        end = offset + fan_out * fan_in
        views.append((buffer[offset:end].reshape(fan_in, fan_out),
                      buffer[end:end + fan_out]))
        offset = end + fan_out
    return views


def _init_layer(layer: Layer, rng) -> None:
    """Draw a freshly allocated layer's weights; its bias stays zero.

    The draw is float64 whatever the network's dtype and is cast on
    assignment, so the dtype does not change the RNG stream. It is drawn
    ``(fan_out, fan_in)`` and stored transposed, so every weight takes
    the same value from a seed as under an ``(out, in)`` layout."""
    fan_in, fan_out = layer.weights.shape
    limit = 1.0 / np.sqrt(fan_in)
    layer.weights[...] = rng.uniform(-limit, limit, size=(fan_out, fan_in)).T


class Network:
    """Dense feed-forward network: ReLU hidden layers, a linear head.

    ``layer_sizes`` has length L+1 (input width first) for L layers. The
    weights are drawn from ``rng``; the biases start at zero. ``dtype``
    is the dtype of the parameters, the gradients and every array the
    network computes.
    """

    def __init__(self, layer_sizes, rng, dtype=np.float64):
        if len(layer_sizes) < 2:
            raise ValueError("need at least one layer")
        # counts the changes nn makes to params (a reallocation, an
        # Adadelta step), so a LogitBound can tell that it went stale
        self.version = 0
        self._allocate(layer_sizes, dtype)
        for layer in self.layers:
            _init_layer(layer, rng)

    def _allocate(self, layer_sizes, dtype) -> None:
        """Zeroed ``params`` and ``grads`` buffers and the layers' views."""
        total = sum((fan_in + 1) * fan_out
                    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]))
        self.version += 1
        self.params = np.zeros(total, dtype=dtype)
        self.grads = np.zeros(total, dtype=dtype)
        self.layers = [
            Layer(w, b, grad_w, grad_b)
            for (w, b), (grad_w, grad_b) in zip(
                _layer_views(self.params, layer_sizes),
                _layer_views(self.grads, layer_sizes))
        ]

    @property
    def input_size(self) -> int:
        return self.layers[0].weights.shape[0]

    @property
    def output_size(self) -> int:
        return self.layers[-1].weights.shape[1]

    def _as_batch(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=self.params.dtype)
        if arr.ndim != 2 or arr.shape[1] != self.input_size:
            raise ValueError(
                f"expected a batch of width {self.input_size}, "
                f"got shape {arr.shape}"
            )
        return arr

    def forward(self, x) -> np.ndarray:
        """The head's outputs (the logits) for a batch, one row per input."""
        return self._activations(x)[-1]

    def forward_cached(self, x) -> list:
        """The activations backprop reads: ``[input, h1, ..., logits]``."""
        return self._activations(x)

    def _activations(self, x) -> list:
        """``[input, h1, ..., logits]`` from the one layer loop (see the
        module docstring); the head is linear."""
        acts = [self._as_batch(x)]
        for depth, layer in enumerate(self.layers, 1):
            out = acts[-1] @ layer.weights
            out += layer.bias
            if depth < len(self.layers):
                np.maximum(out, 0.0, out=out)
            acts.append(out)
        return acts


# ---------------------------------------------------------------------------
# Rounding-error bound of the forward pass
#
# The float model is the network's dtype, float32 or float64: its unit
# roundoff u (``finfo.epsneg``, 2^-24 or 2^-53), its smallest normal
# ``tiny`` (2^-126 or 2^-1022) and its ``maxexp`` (128 or 1024; the
# dtype overflows at 2^maxexp).
#
# The model. Let x be a row cast to the network's dtype, the same in
# every forward of it, and z_l, h_l the pre- and post-activations of
# layer l computed in exact arithmetic from x and the parameters; ẑ_l,
# ĥ_l are those of one forward, of the row alone or inside any batch.
# That forward takes each output as the sum, rounded in the dtype, of its
# K = fan_in products, in any order, with or without FMA (an IEEE BLAS in
# the dtype with no reduced-precision accumulation), and adds the bias
# with one rounding. With γ_K = Ku / (1 − Ku), Higham ("Accuracy and
# Stability of Numerical Algorithms", 2nd ed., §3.1) gives
# |fl(aᵀw) − aᵀw| ≤ γ_K·|a|ᵀ|w| when nothing underflows; under IEEE
# gradual underflow each product adds at most u·tiny, which the term
# K·tiny covers many times over.
#
# One layer. Suppose |h_{l-1}| ≤ m and |ĥ_{l-1} − h_{l-1}| ≤ e
# componentwise. For the unit with weight column w and bias b take
# M ≥ mᵀ|w| and P ≥ eᵀ|w|, so that |ĥ_{l-1}|ᵀ|w| ≤ M + P. The computed
# sum ŝ is within γ_K·(M + P) + K·tiny of ĥ_{l-1}ᵀw, which is within P
# of h_{l-1}ᵀw, and the bias add rounds by at most u·|ŝ + b| ≤
# u·((1 + γ_K)·(M + P) + |b|). So
#     |ẑ − z| ≤ g·(M + P) + P + r = e',   |z| ≤ M + |b| = m',
# with g = γ_K + u·(1 + γ_K) and r = u·|b| + K·tiny. ReLU is
# 1-Lipschitz and |relu(z)| ≤ |z|, so (m', e') bound the next layer's
# input in turn.
#
# Which M and P. At the input m = |x| and e = 0. The first layer takes
# Cauchy–Schwarz, M = s·c with s = ‖x‖₂ and c its columns' 2-norms, and
# P = 0; every later layer takes the exact products M = m·|W| and
# P = e·|W|. So m and e start as s·slope + intercept with nonnegative
# slope and intercept vectors, and each step above is linear in (M, P)
# plus fixed vectors: every m, e and partial-sum bound keeps that form.
# The build carries the four vectors of m and e through the layers, and
# a row costs one norm and O(k) work for k logits.
#
# Every forward's logits are within e_L of the exact ones, so two
# forwards of a row differ by at most r_L = 2·e_L. If the logits v of
# one forward satisfy v_c − v_j > r_c + r_j for every j ≠ c, then logit c
# is strictly the largest in every forward of the row: its argmax is c.
#
# The bound is computed in float64 from nonnegative terms, through at
# most n roundings of relative size 2^-53 along any path (n is about
# twice the layers' fan-ins summed), so it falls short of the
# real-arithmetic bound by a factor above 1 − n·2^-53; for n < 2^32
# BOUND_SLACK covers that and the float64 rounding of the comparison.
# For a float64 network BOUND_SLACK also covers the float64 rounding of
# the row norm and of the logit differences.
# The argument assumes no overflow, so where a bound on a partial sum,
# (1 + γ_K)·(M + P) + |b|, may reach 2^(maxexp − 2), a quarter of the
# dtype's overflow threshold (s times the largest slope of any unit plus
# the largest intercept reaches it), the radii are infinite. A row with a
# radius that is not finite is not certified.

BOUND_SLACK = 1.0 + 2.0 ** -20


def _abs_blocks(weights: np.ndarray):
    """``(row slice, |rows|)`` of ``weights`` widened to float64, about
    32K entries at a time (never a float64 copy of the whole matrix)."""
    step = max(1, 2 ** 15 // weights.shape[1])
    for lo in range(0, len(weights), step):
        rows = slice(lo, lo + step)
        yield rows, np.abs(weights[rows].astype(np.float64))


class LogitBound:
    """Radii around the logits of a float32 or float64 network of any
    depth that bound how far any forward of a row in the network's dtype,
    alone or in a batch, can stray (proof above). Built from the
    parameters as they are, it keeps O(k) numbers for k outputs and costs
    O(d + k) per row of d inputs. Its radii, and the screens it takes,
    hold only while it ``describes`` the network a caller forwards: the
    same object, unchanged by nn since the build (``Network.version``)."""

    def __init__(self, net: Network):
        dtype = net.params.dtype
        # float16's K·u reaches 1 at a 2,048-wide layer, where γ_K is
        # void; longdouble's tiny underflows the float64 the bound is
        # computed in
        if dtype not in (np.float32, np.float64):
            raise ValueError("LogitBound bounds float32 and float64 "
                             f"networks, not {dtype}")
        # Python floats: a numpy float32 u would keep fan_in * u float32
        model = np.finfo(dtype)
        u, tiny = float(model.epsneg), float(model.tiny)
        self.overflow_guard = 2.0 ** (model.maxexp - 2)
        self.net, self.version = net, net.version
        self.guard = np.zeros(2)
        for depth, layer in enumerate(net.layers):
            fan_in = layer.weights.shape[0]
            gamma = fan_in * u / (1.0 - fan_in * u)
            bias = np.abs(layer.bias.astype(np.float64))
            # rows of products: M's slope and intercept in s, then P's
            blocks = _abs_blocks(layer.weights)
            if depth:  # the exact products M = m·|W|, P = e·|W|
                products = sum(carried[:, rows] @ w for rows, w in blocks)
            else:  # Cauchy–Schwarz: M = s·c, P = 0
                c = np.sqrt(sum((w * w).sum(axis=0) for _, w in blocks))
                products = np.vstack([c, np.zeros((3, len(c)))])
            mag, err = products[:2], products[2:]
            peak = (1.0 + gamma) * (mag + err)
            peak[1] += bias
            self.guard = np.maximum(self.guard, peak.max(axis=1))
            err = (gamma + u * (1.0 + gamma)) * (mag + err) + err
            err[1] += u * bias + fan_in * tiny
            mag[1] += bias
            carried = np.vstack([mag, err])
        self.slope, self.intercept = 2.0 * BOUND_SLACK * err

    def describes(self, net: Network) -> bool:
        """Whether ``net`` is the network this bound was built for, as it
        was then."""
        return net is self.net and net.version == self.version

    def radii(self, rows) -> np.ndarray:
        """Per logit, the most two forwards of a row in the network's
        dtype differ by; for one row, or per row of a block."""
        x = np.asarray(rows, dtype=self.net.params.dtype).astype(np.float64)
        s = np.sqrt(np.einsum("...i,...i->...", x, x))[..., None]
        bounded = s * self.guard[0] + self.guard[1] < self.overflow_guard
        # an unbounded row's s is zeroed first, so no inf * 0 is formed
        return np.where(bounded, np.where(bounded, s, 0.0) * self.slope
                        + self.intercept, np.inf)

    def screen(self, rows):
        """One forward of a block of rows through the bound's network:
        their logits (float64) and radii. ``certified`` reads them for
        any label, at any later time while the bound ``describes`` the
        network."""
        return self.net.forward(rows).astype(np.float64), self.radii(rows)

    @staticmethod
    def certified(logits, radii, label: int) -> np.ndarray:
        """Per row of a screen, True only if every forward of that row
        in the network's dtype, alone or in any batch, has its argmax at
        ``label``.
        A row with a radius that is not finite is not certified."""
        margin = logits[..., label, None] - logits > radii[..., label, None] + radii
        margin[..., label] = np.isfinite(radii[..., label])
        return margin.all(axis=-1)


# ---------------------------------------------------------------------------
# Loss and gradients


def _loss_and_output_grad(logits: np.ndarray, targets):
    """Mean softmax cross-entropy of a batch and its gradient with
    respect to the logits; ``targets`` are integer class indices."""
    n = logits.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    labels = np.asarray(targets, dtype=int).ravel()
    if labels.shape[0] != n:
        raise ValueError("one class index per batch row required")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ValueError("class index out of range")
    # log-sum-exp: -log softmax(z)[y] = log(sum(exp(z - max))) - (z - max)[y],
    # finite even where the label's probability underflows to 0
    rows = np.arange(n)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    value = float(np.mean(np.log(total[:, 0]) - shifted[rows, labels]))
    out_grad = exp / total
    out_grad[rows, labels] -= 1.0
    out_grad /= n
    return value, out_grad


def batch_loss(net: Network, inputs, targets) -> float:
    """Loss value as used by train_step, from a forward pass alone.

    Its memory peak is the forward pass's, about the bytes of every
    layer's output, and it touches neither the parameters nor
    ``net.grads``.
    """
    return _loss_and_output_grad(net.forward(inputs), targets)[0]


def loss_gradients(net: Network, inputs, targets):
    """Mean batch cross-entropy and its gradient with respect to the
    inputs; returns ``(loss, grad_inputs)``.

    ``targets`` are integer class indices. Only the inputs' gradient is
    computed: ``net.grads`` is left as it was.
    """
    acts = net.forward_cached(inputs)
    value, delta = _loss_and_output_grad(acts[-1], targets)
    for i in range(len(net.layers) - 1, -1, -1):
        delta = _to_inputs(delta, net.layers[i], acts[i] if i else None)
    return value, delta


def _backward(net, acts, out_grad):
    """Backpropagate ``out_grad``, the loss gradient with respect to the
    head's outputs, through the activations ``acts`` of
    ``net.forward_cached`` and write the parameter gradients into
    ``net.grads``. The gradient with respect to the inputs is not
    computed."""
    delta = out_grad
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        np.matmul(acts[i].T, delta, out=layer.grad_weights)
        np.sum(delta, axis=0, out=layer.grad_bias)
        if i > 0:
            delta = _to_inputs(delta, layer, acts[i])


def _to_inputs(delta, layer, below=None):
    """Carry ``delta``, the loss gradient at a layer's outputs, to its
    inputs, and through the ReLU of the layer below when that layer's
    output ``below`` is given. A ReLU's output is positive exactly where
    its input is, so ``below > 0`` is the ReLU's mask; it is applied in
    place."""
    delta = delta @ layer.weights.T
    if below is not None:
        delta *= below > 0
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
    net.version += 1


def train_step(net: Network, batch_inputs, batch_targets,
               state: AdadeltaState) -> float:
    """One backprop + Adadelta step; returns the pre-update mean batch loss."""
    acts = net.forward_cached(batch_inputs)
    value, out_grad = _loss_and_output_grad(acts[-1], batch_targets)
    if not np.isfinite(value):
        raise TrainingDivergedError(f"non-finite cross-entropy loss: {value}")
    _backward(net, acts, out_grad)
    apply_gradients(net, state)
    return value


def extend_output_layer(net: Network, rng) -> Network:
    """Grow the output layer by one unit.

    Both buffers are reallocated in the network's dtype. Layers below the
    top keep their parameters; the whole final layer is redrawn from
    ``rng`` (a retrain always follows an extension).
    """
    sizes = [net.input_size] + [l.weights.shape[1] for l in net.layers]
    sizes[-1] += 1
    old, last = net.params, net.layers[-1]
    kept = old.size - last.weights.size - last.bias.size
    net._allocate(sizes, old.dtype)
    net.params[:kept] = old[:kept]
    _init_layer(net.layers[-1], rng)
    return net
