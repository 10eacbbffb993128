"""Dataset ingestion (CSV/ARFF) and synthetic recurring-drift streams.

File conventions: CSV has a header row and the label in the last column;
ARFF supports the @relation/@attribute/@data subset with numeric and
nominal attributes only, the last attribute being the label. Both
formats share one set of data-row rules:

- every row has one value per column, and blank rows are skipped;
- a missing value (``""`` or ``?``) in any column, the label included,
  is a hard error: silent imputation would corrupt the drift statistics
  downstream. So is a non-finite numeric value (``nan``, ``inf``,
  ``-inf``, or a literal that overflows), which would turn its whole
  standardized row into NaN;
- a nominal feature's values are encoded 0, 1, ... by first appearance.
  ARFF declares which attributes are nominal; in CSV, a feature column
  is nominal when its first row's value is not a number;
- labels that are all integers are densified by sorted value (7, 3, 7
  becomes 1, 0, 1); any other labels are encoded by first appearance;
- ARFF strips one layer of quotes from every value, so ``'red'`` and
  ``red`` are the same value. CSV values are taken as ``csv`` reads them.

Every stream, loaded or synthetic, is a ``Stream``: two arrays, a
float64 ``(n, d)`` feature matrix ``X`` and an int64 label array ``y``,
read as a sequence of ``(features, label)`` pairs. A pair is a
``LabeledInstance`` made when it is read: its features are a view of a
row of ``X``, never a copy, and its label is a Python int. It unpacks as
``x, y`` and also names its fields ``features`` and ``label``.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .detector import check_count


class StreamFormatError(ValueError):
    """Malformed stream file (carries the offending line number)."""


class LabeledInstance(NamedTuple):
    features: np.ndarray
    label: int


class Stream(Sequence):
    """A read-only sequence of labeled instances over two arrays: the
    float64 ``(n, d)`` feature matrix ``X`` and the int64 labels ``y``.

    Item ``i`` is ``LabeledInstance(X[i], int(y[i]))``, made when it is
    read; its features are a view of row ``i``. A slice is a ``Stream``
    of views of the same arrays, and iteration yields the same pairs as
    indexing. Neither array can be written through the stream.
    """

    __slots__ = ("X", "y")

    def __init__(self, X, y):
        X = np.asarray(X, dtype=float).view()
        y = np.asarray(y, dtype=np.int64).view()
        if X.ndim != 2 or y.shape != X.shape[:1]:
            raise ValueError(f"need an (n, d) matrix and n labels, got shapes "
                             f"{X.shape} and {y.shape}")
        X.flags.writeable = y.flags.writeable = False
        self.X, self.y = X, y

    def __len__(self) -> int:
        return len(self.y)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Stream(self.X[i], self.y[i])
        return LabeledInstance(self.X[i], int(self.y[i]))

    def __iter__(self):
        return map(LabeledInstance, self.X, self.y.tolist())


@dataclass
class StreamMetadata:
    n_features: int
    label_alphabet: list
    n_instances: int
    change_points: list[int] = field(default_factory=list)
    segment_concepts: list[str] = field(default_factory=list)


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _read_rows(rows, arity, nominal, max_instances):
    """Apply the data-row rules to ``(line_no, tokens)`` rows.

    ``nominal`` holds one flag per column; when it is None, the flags
    are inferred from the first row. Reading stops after
    ``max_instances`` rows. The values go straight into one flat buffer
    and each label into a code of first appearance, so no per-row object
    outlives its row.
    """
    if max_instances is not None:
        max_instances = check_count("max_instances", max_instances)
    if arity < 2:
        raise StreamFormatError("need at least one feature and a label column")
    codes = [{} for _ in range(arity)]  # per nominal column: value -> code
    values = array("d")
    label_ids: dict = {}  # label token -> index of first appearance
    appearance = array("q")  # per row: its label token's index
    for line_no, tokens in rows:
        if len(tokens) != arity:
            raise StreamFormatError(
                f"line {line_no}: expected {arity} values, got {len(tokens)}"
            )
        if nominal is None:
            nominal = [not _is_number(tok) for tok in tokens]
        for col, tok in enumerate(tokens[:-1]):
            tok = tok.strip()
            if tok in ("", "?"):
                raise StreamFormatError(f"line {line_no}: missing value")
            if nominal[col]:
                values.append(codes[col].setdefault(tok, len(codes[col])))
                continue
            try:
                value = float(tok)
            except ValueError:
                raise StreamFormatError(
                    f"line {line_no}: expected numeric value in column {col}, "
                    f"got {tok!r}"
                ) from None
            if not math.isfinite(value):
                raise StreamFormatError(
                    f"line {line_no}: non-finite value in column {col}")
            values.append(value)
        label = tokens[-1].strip()
        if label in ("", "?"):
            raise StreamFormatError(f"line {line_no}: missing label")
        appearance.append(label_ids.setdefault(label, len(label_ids)))
        if len(appearance) == max_instances:
            break
    if not appearance:
        raise StreamFormatError("no data rows")
    y = np.frombuffer(appearance, dtype=np.int64)
    try:
        keys = [int(tok) for tok in label_ids]
    except ValueError:
        alphabet = list(label_ids)
    else:
        alphabet = sorted(set(keys))
        rank = {key: i for i, key in enumerate(alphabet)}
        y = np.array([rank[key] for key in keys], dtype=np.int64)[y]
    X = np.frombuffer(values, dtype=float).reshape(len(y), arity - 1)
    return Stream(X, y), StreamMetadata(arity - 1, alphabet, len(y))


def load_csv(path, max_instances=None):
    """Load a header-ed CSV whose last column is the label."""
    with Path(path).open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise StreamFormatError("empty file")
        rows = ((n, tokens) for n, tokens in enumerate(reader, start=2) if tokens)
        return _read_rows(rows, len(header), None, max_instances)


def _unquote(token: str) -> str:
    token = token.strip()
    if len(token) > 1 and token[0] == token[-1] and token[0] in "'\"":
        return token[1:-1]
    return token


def load_arff(path, max_instances=None):
    """Load the numeric/nominal subset of ARFF; the last attribute is the label."""
    nominal = []  # one flag per @attribute
    with Path(path).open() as handle:
        lines = ((n, line) for n, line in enumerate(map(str.strip, handle), start=1)
                 if line and not line.startswith("%"))
        for line_no, line in lines:
            lower = line.lower()
            if lower.startswith("@data"):
                break
            if lower.startswith("@attribute"):
                spec = line[len("@attribute"):]
                kind = (spec.split() or [""])[-1].lower()
                if "{" in spec or kind in ("numeric", "real", "integer"):
                    nominal.append("{" in spec)
                else:
                    raise StreamFormatError(
                        f"line {line_no}: unsupported attribute type {kind!r}"
                    )
            elif not lower.startswith("@relation"):
                raise StreamFormatError(f"line {line_no}: unexpected {line!r}")
        else:
            raise StreamFormatError("missing @data section")
        rows = ((n, [_unquote(tok) for tok in next(csv.reader([line]))])
                for n, line in lines)
        return _read_rows(rows, len(nominal), nominal, max_instances)


def load(path, max_instances=None):
    """Load a stream file by its suffix: a ``*.arff`` name, in any case,
    as ARFF, and any other name as CSV."""
    if Path(path).suffix.lower() == ".arff":
        return load_arff(path, max_instances)
    return load_csv(path, max_instances)


def write_csv(stream: Stream, path) -> None:
    """Archive a stream as a loader-compatible CSV."""
    if not stream:
        raise ValueError("empty stream")
    d = stream.X.shape[1]
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"f{i}" for i in range(d)] + ["label"])
        for row, label in zip(map(np.ndarray.tolist, stream.X),
                              stream.y.tolist()):
            writer.writerow([*map(repr, row), label])


# ---------------------------------------------------------------------------
# Synthetic recurring-drift streams


@dataclass
class GaussianConcept:
    """Labeled Gaussian mixture: one isotropic blob per label."""

    class_means: np.ndarray  # (n_labels, d)
    noise: float = 1.0

    def sample(self, rng, n):
        means = np.asarray(self.class_means, dtype=float)
        labels = rng.integers(0, means.shape[0], size=n)
        feats = means[labels] + rng.normal(0.0, self.noise, size=(n, means.shape[1]))
        return feats, labels


def default_concepts(noise: float = 0.5) -> dict:
    """Built-in concept bank A..D used by the CLI and the test suites.

    Concept mean patterns are chosen so that (a) concepts stay separable
    after per-vector standardization (different pattern directions, not
    just shifts), (b) each concept has a unique dominant feature plus one
    weakly informative one, so a Hoeffding tree sees a clear gain gap and
    splits at its first evaluation instead of stalling on ties, and
    (c) the weak feature's label correlation flips the previous concept's
    dominant rule, so a stale classifier degrades hard.
    """
    bank = {
        "A": [[6, 0.5, 0, 0], [-6, -0.5, 0, 0]],
        "B": [[-0.5, 0, 6, 0], [0.5, 0, -6, 0]],
        "C": [[0, 6, -0.5, 0], [0, -6, 0.5, 0]],
        "D": [[0, -0.5, 0, 6], [0, 0.5, 0, -6]],
    }
    return {
        name: GaussianConcept(np.array(means, dtype=float), noise)
        for name, means in bank.items()
    }


@dataclass
class SyntheticSpec:
    concepts: dict  # name -> concept
    order: list[str]
    segment_lengths: list[int]

    def validate(self) -> None:
        if len(self.order) != len(self.segment_lengths):
            raise ValueError("order and segment_lengths must have equal length")
        if not self.order:
            raise ValueError("order names no concept")
        for name in self.order:
            if name not in self.concepts:
                raise ValueError(f"unknown concept {name!r}; "
                                 f"available: {sorted(self.concepts)}")
        for length in self.segment_lengths:
            if length < 1:
                raise ValueError("segment lengths must be positive")


def synth_recurring(spec: SyntheticSpec, seed: int):
    """Generate the stream plus ground truth (change points, segment ids)."""
    spec.validate()
    rng = np.random.default_rng(seed)
    segments = [spec.concepts[name].sample(rng, length)
                for name, length in zip(spec.order, spec.segment_lengths)]
    stream = Stream(np.concatenate([x for x, _ in segments], dtype=float),
                    np.concatenate([y for _, y in segments]))
    # the stream end is not a change point
    change_points = list(accumulate(spec.segment_lengths))[:-1]
    meta = StreamMetadata(stream.X.shape[1], sorted(set(stream.y.tolist())),
                          len(stream), change_points, list(spec.order))
    return stream, meta


def write_ground_truth(meta: StreamMetadata, path) -> None:
    doc = {"change_points": meta.change_points}
    if meta.segment_concepts:  # a loaded stream names no concepts
        doc["segment_concepts"] = meta.segment_concepts
    doc["n_instances"] = meta.n_instances
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def read_ground_truth(path) -> tuple[list[int], list[str]]:
    """``(change_points, segment_concepts)`` from a ground-truth JSON file.

    The change points must be a strictly increasing list of positive
    integers. ``segment_concepts`` is optional (empty when absent); when
    given, it names each of the ``len(change_points) + 1`` segments.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise StreamFormatError(f"{path}: not a JSON document: {err}") from None
    if not isinstance(doc, dict):
        raise StreamFormatError(f"{path}: expected a JSON object")
    points = doc.get("change_points")
    if not (isinstance(points, list)
            and all(type(p) is int and p > 0 for p in points)
            and all(a < b for a, b in zip(points, points[1:]))):
        raise StreamFormatError(f"{path}: change_points must be a strictly "
                                "increasing list of positive integers")
    concepts = doc.get("segment_concepts", [])
    if "segment_concepts" in doc and not (
            isinstance(concepts, list) and len(concepts) == len(points) + 1
            and all(isinstance(c, str) for c in concepts)):
        raise StreamFormatError(f"{path}: segment_concepts must be a list of "
                                f"{len(points) + 1} strings, one per segment")
    return points, concepts
