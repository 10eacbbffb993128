"""GAN-based recurring-drift detector.

A generator learns to predict the next feature vector from a short
sequence; a multi-class discriminator maps each vector to one of the
distributions seen so far (ids 1..n) or to the reserved "unseen" class
(id 0). A drift is signalled only when a whole batch unanimously maps
to a single id different from the current one: a known id means a
recurring drift, id 0 means a brand-new distribution, which grows the
discriminator by one output and triggers a full GAN retrain.

Both networks train and classify in ``NETWORK_DTYPE`` (float32): its
matmuls and its Adadelta pass cost about half of float64's. Both are
``nn.Network``s, ReLU stacks under a linear head. The discriminator is
trained by softmax cross-entropy on its logits and decides by their
argmax; the generator's squared prediction error is computed here, in
``_prediction_loss``.

``DetectorConfig`` holds the settings a caller chooses. The GAN's tuning
(``GAN_MINIBATCH``, ``ADADELTA_EPSILON``, ``DISC_STEPS``, ``CE_GRAD_CLIP``,
``PROBE_RADIUS_SCALE``, ``REAL_JITTER_SCALE``) is fixed in module
constants beside the network widths.

The batch is the detector's unit. ``observe_batch`` takes the labeled
instances up to the next decision (``rows_to_decision`` of them, or
fewer) in one call. It files them as exemplars under the current id
before anything is decided, in stream order, then decides the batch, or
completes a pending registration. Filing before deciding puts a drift's
triggering batch under the old id; that order is a known fault, pinned
by a test until the benchmark's attribution check changes with it.

A row stays the raw float64 row it was filed as. ``standardize`` runs
only where a network reads rows: on a window as it is registered, on a
batch the screen does not settle, and on a fresh screen's block. So a
settled batch is never standardized. This rests on ``standardize``
being row-wise: a row gives the same bytes alone as inside any block.

Nearly every batch of a stream is not a drift, and one row on the
current id settles that. So ``detect`` first screens the batch's first
row: one forward gives its logits, and ``nn.LogitBound`` gives radii
within which every float32 forward of that row, alone or inside any
batch, keeps them. If the current id's logit stays the largest within
them, the batch is no drift. The bound assumes an IEEE float32 BLAS with
no reduced-precision accumulation. When it cannot certify the row,
``detect`` classifies the whole batch and applies the unanimity rule;
either way it decides exactly what the rule over the whole batch
decides. The bound is built at the end of each registration, the one
place the detector changes the discriminator, and it is used only while
it describes the discriminator as it is (``LogitBound.describes``).

When the stream is in memory, ``observe_batch`` is given the rows that
follow, and one forward screens the first rows of the next
``SCREEN_AHEAD`` batches: it reads those rows before they arrive. Only
their compute moves, since the bound holds for any forward of a row. So
a screen is kept by the raw row's bytes alone, which fix its
standardized vector: it serves any later batch whose first row is that
row, wherever the row sits in the stream, until the next registration
replaces the bound and the kept screens together. It is tested against
the id current at that batch's decision, so decisions are unchanged.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from itertools import repeat

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .nn import (
    AdadeltaState,
    LogitBound,
    Network,
    TrainingDivergedError,
    _backward,
    apply_gradients,
    batch_loss,
    extend_output_layer,
    loss_gradients,
    train_step,
)

log = logging.getLogger("driftbench.detector")

GENERATOR_HIDDEN = (128, 4096)
DISCRIMINATOR_HIDDEN = (1024, 1024)
NETWORK_DTYPE = np.float32
GAN_MINIBATCH = 16       # sequences per generator update
ADADELTA_EPSILON = 1e-4  # both networks' Adadelta epsilon
DISC_STEPS = 3           # discriminator updates per generator update
CE_GRAD_CLIP = 0.5       # CE grad norm cap, relative to the MSE grad
PROBE_RADIUS_SCALE = 6.0  # probe keep-out, in mean NN distances
REAL_JITTER_SCALE = 2.5   # window-vector jitter, in mean NN distances
PER_DIST_CAP = 10000     # stored exemplars per distribution
SCREEN_AHEAD = 32        # batches whose first rows one screen forward reads


@dataclass
class DetectorConfig:
    rho: int = 100                     # training window size
    batch_size: int = 100              # consensus batch size
    seq_len: int = 4                   # generator input sequence length
    historical_fraction: float = 1.0   # share of stored data reused on recurrence
    seed: int = 0
    gan_max_epochs: int = 200
    disc_loss_threshold: float = 0.1

    def validate(self) -> None:
        for name in ("rho", "batch_size", "seq_len", "seed", "gan_max_epochs"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.rho < self.seq_len + 1:
            raise ValueError("rho must be at least seq_len + 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.historical_fraction <= 1.0:
            raise ValueError("historical_fraction must be in [0, 1]")
        if self.seq_len < 1:
            raise ValueError("seq_len must be >= 1")
        if self.gan_max_epochs < 1:
            raise ValueError("gan_max_epochs must be >= 1")
        if np.isnan(self.disc_loss_threshold):
            raise ValueError("disc_loss_threshold must not be NaN")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class DriftEvent:
    instance_index: int
    kind: str  # "new" | "recurring"
    dist_id: int


class DistributionRecord:
    """One seen distribution: its standardized GAN training window and
    its labeled exemplars."""

    def __init__(self, dist_id: int, window):
        self.dist_id = dist_id
        self.window = np.asarray(window, dtype=float)  # (n, d)
        self.exemplars: deque = deque(maxlen=PER_DIST_CAP)


class DistributionRegistry:
    """Ordered set of seen distributions; ids are dense 1..n, 0 = unseen."""

    def __init__(self):
        self.records: list[DistributionRecord] = []
        self.current = 0

    def __len__(self) -> int:
        return len(self.records)

    def add(self, window) -> int:
        dist_id = len(self.records) + 1
        self.records.append(DistributionRecord(dist_id, window))
        return dist_id

    def get(self, dist_id: int) -> DistributionRecord:
        if not 1 <= dist_id <= len(self.records):
            raise KeyError(f"unknown distribution id {dist_id}")
        return self.records[dist_id - 1]


def standardize(x) -> np.ndarray:
    """Standardize a vector, or each row of a block, over the last axis.

    Uses the population sigma. A row whose sigma is within rounding error
    of its mean (below 1e-11 of it) is constant up to rounding and maps
    to zeros. Each row is first scaled by a power of two that brings its
    largest magnitude into [0.5, 1), so its mean, even of subnormal
    values, keeps its precision, and rows far below 1e-154 or above
    1e154 neither underflow nor overflow when squared; the scaling is
    exact, so it changes no bit of any other row.

    The contract: it is row-wise. Each row of a block gives the same
    bytes alone as inside the block, whatever the block's other rows.
    The detector's kept screens, keyed by raw rows, and its registration
    windows, standardized whole from rows buffered raw, rely on it.
    Being a function of the row's own features, it maps ``a * x + b``
    with ``a > 0`` to the vector of ``x``, up to rounding.
    """
    arr = np.asarray(x, dtype=float)
    _, exp = np.frexp(np.abs(arr).max(axis=-1, keepdims=True, initial=0.0))
    scaled = np.ldexp(arr, -exp)
    mean = scaled.mean(axis=-1, keepdims=True)
    centered = scaled - mean
    sigma = np.sqrt((centered * centered).mean(axis=-1, keepdims=True))
    flat = sigma <= 1e-11 * np.abs(mean)
    return np.where(flat, 0.0, centered / np.where(flat, 1.0, sigma))


def classify_batch(discriminator: Network, batch) -> list[int]:
    """Argmax distribution id per row of a batch, over the
    discriminator's logits (ties resolve to the lowest id)."""
    out = discriminator.forward(batch)
    return [int(i) for i in np.argmax(out, axis=1)]


# ---------------------------------------------------------------------------
# GAN training


def _training_set(registry: DistributionRegistry, seq_len: int):
    """Sliding sequences within each record's window (never across
    records): each ``seq_len`` consecutive vectors, flattened, the vector
    after them and the record's id; then every stored vector and its id."""
    windows = [record.window for record in registry.records]
    ids = [record.dist_id for record in registry.records]
    lengths = [len(w) for w in windows]
    d = windows[0].shape[1]
    seqs = np.concatenate([
        sliding_window_view(w, (seq_len, d))[:-1, 0].reshape(-1, seq_len * d)
        for w in windows])
    nexts = np.concatenate([w[seq_len:] for w in windows])
    seq_ids = np.repeat(ids, [n - seq_len for n in lengths])
    return seqs, nexts, seq_ids, np.concatenate(windows), np.repeat(ids, lengths)


def _new_pair(registry: DistributionRegistry, config: DetectorConfig, rng):
    """A freshly drawn generator/discriminator pair that fits the registry."""
    d = registry.records[0].window.shape[1]
    generator = Network([config.seq_len * d, *GENERATOR_HIDDEN, d],
                        rng, NETWORK_DTYPE)
    discriminator = Network([d, *DISCRIMINATOR_HIDDEN, 1 + len(registry)],
                            rng, NETWORK_DTYPE)
    return generator, discriminator


def train_gan(registry: DistributionRegistry, config: DetectorConfig, rng,
              generator: Network | None = None,
              discriminator: Network | None = None):
    """Train a generator/discriminator pair on every stored window.

    Without a pair, a fresh one is drawn from ``rng``. A given pair
    continues training in place; its widths must fit the registry (a
    discriminator with one output per stored window plus the unseen
    class, e.g. just extended by ``extend_output_layer``), or this raises
    ``ValueError``. On a divergent loss a fresh pair is drawn and trained
    once more; a second divergence is a hard error.
    """
    if len(registry) == 0:
        raise ValueError("registry is empty")
    for record in registry.records:
        if len(record.window) < config.seq_len + 1:
            raise ValueError("every stored window needs at least seq_len + 1 vectors")
    if generator is not None or discriminator is not None:
        d = registry.records[0].window.shape[1]
        widths = (config.seq_len * d, d, d, 1 + len(registry))
        if generator is None or discriminator is None or widths != (
                generator.input_size, generator.output_size,
                discriminator.input_size, discriminator.output_size):
            raise ValueError("the generator/discriminator pair does not fit "
                             f"the registry: widths {widths} needed")
    last_error = None
    for attempt in range(2):
        if generator is None:  # no pair given, or a retry
            generator, discriminator = _new_pair(registry, config, rng)
        try:
            return _train_gan_once(registry, config, rng, generator, discriminator)
        except TrainingDivergedError as err:
            log.warning("GAN training diverged (attempt %d): %s", attempt + 1, err)
            last_error = err
            generator = discriminator = None
    raise TrainingDivergedError(
        f"GAN training diverged twice; registry size {len(registry)}"
    ) from last_error


# Elements of one (rows, len(b), d) difference block in _nearest_distances.
DISTANCE_BLOCK = 1 << 18


def _nearest_distances(a, b, skip_self=False) -> np.ndarray:
    """Euclidean distance from each row of ``a`` to its nearest row of ``b``.

    Works over chunks of ``a``'s rows, so the temporaries stay within
    ``DISTANCE_BLOCK`` elements whatever the sizes; each pair's distance
    is the same ``np.linalg.norm`` of the difference as over the whole
    block. With ``skip_self`` (``a`` is ``b``), row i of ``a`` is not
    compared with row i of ``b``.
    """
    rows = max(1, DISTANCE_BLOCK // max(1, b.size))
    nearest = np.empty(len(a))
    for lo in range(0, len(a), rows):
        dist = np.linalg.norm(a[lo:lo + rows, None, :] - b[None, :, :], axis=2)
        if skip_self:
            own = np.arange(len(dist))
            dist[own, lo + own] = np.inf
        nearest[lo:lo + rows] = dist.min(axis=1)
    return nearest


def _sample_probes(rng, n, real_vecs, radius):
    """Standardized Gaussian probes kept away from every real vector.

    The probes stand in for the unseen class: without them the
    discriminator's label-0 region is shaped only by generated vectors and
    extrapolates arbitrarily elsewhere. Candidates closer than `radius` to
    any real vector are rejected so the probes never poison real regions.
    """
    d = real_vecs.shape[1]
    kept = np.empty((0, d))
    for _ in range(8):  # oversample a few rounds; leftovers are fine
        cand = standardize(rng.normal(0.0, 1.0, (3 * n, d)))
        kept = np.concatenate(
            [kept, cand[_nearest_distances(cand, real_vecs) > radius]])
        if len(kept) >= n:
            break
    return kept[:n]


def _prediction_loss(fake, target):
    """The generator's prediction loss, the squared error summed over each
    row and averaged over the rows, and its gradient with respect to
    ``fake``."""
    diff = fake - target
    return float(np.sum(diff ** 2)) / len(fake), 2.0 * diff / len(fake)


def _train_gan_once(registry, config, rng, generator, discriminator):
    seqs, nexts, seq_ids, real_vecs, real_ids = _training_set(
        registry, config.seq_len)
    # The networks compute in NETWORK_DTYPE. The sequences are cast once
    # here. The real vectors stay float64 for the distances, the jitter
    # and standardize, like the rest of the detector's data, and are cast
    # where they are stacked into a discriminator's input.
    seqs, nexts = seqs.astype(NETWORK_DTYPE), nexts.astype(NETWORK_DTYPE)
    gen_opt = AdadeltaState.for_param(generator.params,
                                      epsilon=ADADELTA_EPSILON)
    disc_opt = AdadeltaState.for_param(discriminator.params,
                                       epsilon=ADADELTA_EPSILON)

    # probe rejection radius: a multiple of the mean nearest-neighbour
    # distance among the real vectors, so probes stay clear of regions a
    # fresh draw from a seen distribution could plausibly land in
    nn_dist = float(
        _nearest_distances(real_vecs, real_vecs, skip_self=True).mean())
    probe_radius = PROBE_RADIUS_SCALE * nn_dist
    jitter = REAL_JITTER_SCALE * nn_dist

    n_seq = seqs.shape[0]
    mb = min(GAN_MINIBATCH, n_seq)
    epoch_loss = float("inf")
    for epoch in range(config.gan_max_epochs):
        order = rng.permutation(n_seq)
        for start in range(0, n_seq, mb):
            take = order[start:start + mb]
            seq_batch, next_batch, id_batch = seqs[take], nexts[take], seq_ids[take]

            # the generator does not change during the discriminator
            # steps, so one pass gives the fakes (its last activation) and
            # the activations the generator step backpropagates through
            acts = generator.forward_cached(seq_batch)
            fake = acts[-1]

            # discriminator steps: real vectors keep their ids; fakes and
            # unseen-region probes are class 0. Reals get double weight so
            # the class-0 material cannot crowd them out. Jittered copies
            # of the stored window stand in for fresh draws from the same
            # distribution, widening each class region past the exact
            # training points.
            for _ in range(DISC_STEPS):
                real_take = rng.choice(
                    real_vecs.shape[0],
                    size=min(2 * len(take), real_vecs.shape[0]),
                    replace=False,
                )
                reals = real_vecs[real_take]
                if jitter > 0.0:
                    reals = standardize(
                        reals + rng.normal(0.0, jitter, reals.shape))
                probes = _sample_probes(rng, len(take), real_vecs, probe_radius)
                disc_in = np.vstack([reals, fake, probes], dtype=NETWORK_DTYPE)
                disc_labels = np.concatenate([
                    real_ids[real_take],
                    np.zeros(len(fake) + len(probes), dtype=int),
                ])
                train_step(discriminator, disc_in, disc_labels, disc_opt)

            # generator step: predict the true next vector while pushing the
            # discriminator to call the fake by the imitated distribution's
            # id. The adversarial pull is capped relative to the prediction
            # gradient so it cannot drag fakes into a foreign real region.
            # loss_gradients computes only the fakes' gradient and leaves
            # discriminator.grads as the last discriminator step wrote them;
            # _backward reads the activations of the pass that made the
            # fakes.
            mse_value, mse_grad = _prediction_loss(fake, next_batch)
            ce_value, ce_grad = loss_gradients(discriminator, fake, id_batch)
            mse_norm = float(np.linalg.norm(mse_grad))
            ce_norm = float(np.linalg.norm(ce_grad))
            if ce_norm > CE_GRAD_CLIP * mse_norm and ce_norm > 0.0:
                ce_grad = ce_grad * (CE_GRAD_CLIP * mse_norm / ce_norm)
            gen_loss = mse_value + ce_value
            if not np.isfinite(gen_loss):
                raise TrainingDivergedError(f"non-finite generator loss: {gen_loss}")
            _backward(generator, acts, mse_grad + ce_grad)
            apply_gradients(generator, gen_opt)

        # stop once the discriminator separates all reals from current fakes
        all_fake = generator.forward(seqs)
        epoch_loss = batch_loss(
            discriminator,
            np.vstack([real_vecs, all_fake], dtype=NETWORK_DTYPE),
            np.concatenate([real_ids, np.zeros(len(all_fake), dtype=int)]),
        )
        if not np.isfinite(epoch_loss):
            raise TrainingDivergedError(f"non-finite discriminator loss: {epoch_loss}")
        if epoch_loss < config.disc_loss_threshold:
            log.debug("GAN converged after %d epochs (loss %.4f)", epoch + 1,
                      epoch_loss)
            break
    else:
        log.warning("GAN training stopped at gan_max_epochs=%d with "
                    "discriminator loss %.4f, above disc_loss_threshold=%g",
                    config.gan_max_epochs, epoch_loss,
                    config.disc_loss_threshold)
    return generator, discriminator


# ---------------------------------------------------------------------------
# Detector state machine


class DriftGanDetector:
    """Streaming drift detector around the GAN pair and the registry.

    Usage: ``initialize`` with the first ``rho`` feature vectors and file
    them with their labels through ``add_exemplars``. Then feed the later
    labeled instances in stream order to ``observe_batch(X, y)``, at most
    ``rows_to_decision`` of them per call, or one at a time to
    ``observe(x, y)``. Both return a ``DriftEvent`` when a batch signals
    a drift, ``None`` otherwise. ``last_batch`` holds the labeled
    instances of the last decided batch, in stream order.
    """

    def __init__(self, config: DetectorConfig | None = None):
        self.config = config or DetectorConfig()
        self.config.validate()
        self.rng = np.random.default_rng(self.config.seed)
        self.registry = DistributionRegistry()
        self.generator: Network | None = None
        self.discriminator: Network | None = None
        self._bound: LogitBound | None = None  # detect's screen
        # the bound's screens: raw row bytes -> (logits, radii)
        self._screens: dict = {}
        self._rows: list = []    # raw features since the last boundary
        self._labels: list = []  # and their labels
        self._pending_window = None  # raw rows that start a new window
        self._last = ((), ())    # the last decided batch's rows and labels
        self.instances_seen = 0
        self.events: list[DriftEvent] = []

    def initialize(self, window_features) -> None:
        """Train the initial GAN on the first rho raw feature vectors.

        A vector needs at least 2 features: ``standardize`` maps every
        one-feature row to ``[0.0]``, so no change could be seen.
        """
        if len(self.registry):
            raise RuntimeError("detector already initialized")
        if len(window_features) < self.config.rho:
            raise ValueError(f"need {self.config.rho} vectors to initialize")
        d = np.shape(window_features)[-1]
        if d < 2:
            raise ValueError(f"the detector needs at least 2 features, got "
                             f"{d}: a one-feature row standardizes to 0")
        self._register(window_features)
        self.instances_seen = len(window_features)

    def add_exemplars(self, X, y) -> tuple[list, list]:
        """File labeled instances, rows ``X`` with labels ``y``, under the
        current distribution in order, as float64 rows and int labels;
        return those rows and labels."""
        rows = list(map(np.asarray, X, repeat(float)))
        labels = list(map(int, y))
        self.registry.get(self.registry.current).exemplars.extend(
            zip(rows, labels))
        return rows, labels

    def add_exemplar(self, features, label) -> None:
        """``add_exemplars`` of one labeled instance."""
        self.add_exemplars((features,), (label,))

    @property
    def last_batch(self) -> list:
        """The last decided batch's ``(features, label)`` pairs, in
        stream order."""
        return list(zip(*self._last))

    @property
    def rows_to_decision(self) -> int:
        """Instances still to come before the next decision: the end of
        the current batch, or of a pending registration window."""
        if self._pending_window is not None:
            return self.config.rho - len(self._pending_window) - len(self._rows)
        return self.config.batch_size - len(self._rows)

    def observe(self, features, label) -> DriftEvent | None:
        """``observe_batch`` of one labeled instance."""
        return self.observe_batch((features,), (label,))

    def observe_batch(self, X, y, ahead=None) -> DriftEvent | None:
        """Consume the next labeled instances, rows ``X`` with labels
        ``y``; decide if they complete a batch.

        At most ``rows_to_decision`` instances may come in one call. They
        are filed as exemplars under the current id before anything is
        decided, so a drift's batch is filed under the old id, as are the
        instances of a pending registration window. Rows are buffered
        raw until their batch, or pending window, is complete.

        ``ahead``, when given, is ``(rows, start)``: the stream's feature
        rows, held in memory, and the index in them of the row that
        follows ``X``. The screen then reads the first rows of later
        batches before they arrive (see ``detect``); it copies none.
        """
        if self.discriminator is None:
            raise RuntimeError("detector not initialized")
        due = self.rows_to_decision
        if not 0 < len(X) <= due or len(y) != len(X):
            raise ValueError(f"need 1 to {due} rows and one label per row, "
                             f"got {len(X)} rows and {len(y)} labels")
        rows, labels = self.add_exemplars(X, y)
        self._rows += rows
        self._labels += labels
        self.instances_seen += len(rows)
        if len(rows) < due:
            return None
        rows, labels, self._rows, self._labels = (
            self._rows, self._labels, [], [])
        if self._pending_window is not None:
            window, self._pending_window = self._pending_window + rows, None
            self.register_distribution(window)
            return None
        self._last = (rows, labels)
        return self.detect(rows, ahead)

    def detect(self, rows, ahead=None) -> DriftEvent | None:
        """Batch-consensus drift rule on a batch of raw rows that ends at
        the last instance seen.

        A drift needs every row of the batch on one id other than the
        current one. A first row that the discriminator's bound certifies
        on the current id settles "no drift": the whole batch's forward
        puts it there too, and the batch is never standardized. Any other
        batch is standardized and classified whole, and its rows must all
        map to one non-current id. With ``ahead`` (see ``observe_batch``)
        the first row's screen also takes the first rows of up to
        ``SCREEN_AHEAD - 1`` later batches, and keeps them for their
        decisions (see the module docstring).
        """
        if self._bound is not None and self._screen_settles(
                np.asarray(rows[0], dtype=float), ahead):
            return None
        current, index = self.registry.current, self.instances_seen - 1
        ids = classify_batch(self.discriminator, standardize(rows))
        first = ids[0]
        if first == current or any(i != first for i in ids):
            return None
        if first == 0:
            event = DriftEvent(index, "new", len(self.registry) + 1)
            if len(rows) >= self.config.rho:
                self.register_distribution(rows[-self.config.rho:])
            else:  # observe_batch buffers further instances until rho
                self._pending_window = list(rows)
        else:
            self.registry.current = first
            event = DriftEvent(index, "recurring", first)
        self.events.append(event)
        log.info("drift at instance %d: %s distribution %d",
                 index, event.kind, event.dist_id)
        return event

    def _screen_settles(self, row, ahead) -> bool:
        """Whether the bound, if it describes the discriminator, certifies
        ``row`` on the current id: from the row's kept screen, or from a
        new screen of it and of the first rows of later batches in
        ``ahead``, kept in place of the old ones."""
        if not self._bound.describes(self.discriminator):
            return False
        kept = self._screens.get(row.tobytes())
        if kept is None:
            block = row[None]
            if ahead is not None:
                rows, start = ahead
                step = self.config.batch_size
                later = rows[start:start + (SCREEN_AHEAD - 1) * step:step]
                if len(later):
                    block = np.vstack([block, later], dtype=float)
            self._screens = dict(zip(
                map(np.ndarray.tobytes, block),
                zip(*self._bound.screen(standardize(block)))))
            kept = self._screens[row.tobytes()]
        return bool(LogitBound.certified(*kept, self.registry.current))

    def historical_sample(self, dist_id: int) -> list:
        """Uniform sample without replacement of ceil(historical_fraction
        * stored) exemplars of one distribution."""
        exemplars = list(self.registry.get(dist_id).exemplars)
        k = int(np.ceil(self.config.historical_fraction * len(exemplars)))
        if k <= 0:
            return []
        idx = self.rng.choice(len(exemplars), size=k, replace=False)
        return [exemplars[i] for i in idx]

    # -- new-distribution registration ---------------------------------------

    def register_distribution(self, window) -> int:
        """Add a record of raw rows, grow the discriminator, retrain the
        GAN."""
        if len(window) < self.config.rho:
            raise ValueError(f"need at least rho={self.config.rho} vectors")
        return self._register(window)

    def _register(self, window) -> int:
        """Store a window of raw rows, standardized, as a new current
        distribution: grow the discriminator (if any) by one output, train
        on every window, and build the trained discriminator's bound for
        ``detect``."""
        dist_id = self.registry.add(standardize(window))
        if self.discriminator is not None:
            extend_output_layer(self.discriminator, self.rng)
        self.generator, self.discriminator = train_gan(
            self.registry, self.config, self.rng,
            self.generator, self.discriminator,
        )
        self._bound, self._screens = LogitBound(self.discriminator), {}
        self.registry.current = dist_id
        self._check_consistency()
        return dist_id

    def _check_consistency(self) -> None:
        if self.discriminator.output_size != 1 + len(self.registry):
            raise RuntimeError(
                f"discriminator has {self.discriminator.output_size} outputs "
                f"for {len(self.registry)} distributions plus unseen"
            )
