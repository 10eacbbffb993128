"""Dataset ingestion (CSV/ARFF) and synthetic recurring-drift streams.

File conventions: CSV has a header row and the label in the last column;
ARFF supports the @relation/@attribute/@data subset with numeric and
nominal attributes only. Missing values are a hard error, silent
imputation would corrupt the drift statistics downstream.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class StreamFormatError(ValueError):
    """Malformed stream file (carries the offending line number)."""


@dataclass
class LabeledInstance:
    features: np.ndarray
    label: int
    index: int


@dataclass
class StreamMetadata:
    n_features: int
    label_alphabet: list
    n_instances: int
    change_points: list[int] = field(default_factory=list)
    segment_concepts: list[str] = field(default_factory=list)


def _encode(value: str, mapping: dict) -> int:
    if value not in mapping:
        mapping[value] = len(mapping)
    return mapping[value]


def _finish_labels(rows, label_tokens):
    """Integer label tokens are taken verbatim (densified by sorted value);
    anything else is encoded by first appearance."""
    try:
        ints = [int(tok) for tok in label_tokens]
    except ValueError:
        mapping: dict = {}
        encoded = [_encode(tok, mapping) for tok in label_tokens]
        alphabet = list(mapping)
    else:
        alphabet = sorted(set(ints))
        index = {v: i for i, v in enumerate(alphabet)}
        encoded = [index[v] for v in ints]
    instances = [
        LabeledInstance(np.array(feats, dtype=float), lab, i)
        for i, (feats, lab) in enumerate(zip(rows, encoded))
    ]
    return instances, alphabet


def _parse_row(tokens, numeric_cols, nominal_maps, line_no):
    feats = []
    for col, tok in enumerate(tokens[:-1]):
        tok = tok.strip()
        if tok in ("", "?"):
            raise StreamFormatError(f"line {line_no}: missing value")
        if numeric_cols[col]:
            try:
                feats.append(float(tok))
            except ValueError:
                raise StreamFormatError(
                    f"line {line_no}: expected numeric value in column {col}, "
                    f"got {tok!r}"
                ) from None
        else:
            feats.append(float(_encode(tok, nominal_maps[col])))
    return feats


def load_csv(path, max_instances=None):
    """Load a header-ed CSV whose last column is the label."""
    path = Path(path)
    rows, label_tokens = [], []
    numeric_cols = None
    nominal_maps: dict[int, dict] = {}
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise StreamFormatError("empty file") from None
        arity = len(header)
        if arity < 2:
            raise StreamFormatError("need at least one feature and a label column")
        for line_no, tokens in enumerate(reader, start=2):
            if not tokens:
                continue
            if len(tokens) != arity:
                raise StreamFormatError(
                    f"line {line_no}: expected {arity} columns, got {len(tokens)}"
                )
            if numeric_cols is None:
                numeric_cols = []
                for col, tok in enumerate(tokens[:-1]):
                    try:
                        float(tok)
                        numeric_cols.append(True)
                    except ValueError:
                        numeric_cols.append(False)
                        nominal_maps[col] = {}
            rows.append(_parse_row(tokens, numeric_cols, nominal_maps, line_no))
            label_tokens.append(tokens[-1].strip())
            if max_instances is not None and len(rows) >= max_instances:
                break
    if not rows:
        raise StreamFormatError("no data rows")
    instances, alphabet = _finish_labels(rows, label_tokens)
    meta = StreamMetadata(len(rows[0]), alphabet, len(instances))
    return instances, meta


def load_arff(path, max_instances=None):
    """Load the numeric/nominal subset of ARFF; the last attribute is the label."""
    path = Path(path)
    attributes = []  # (name, "numeric" | list-of-values)
    rows, label_tokens = [], []
    in_data = False
    nominal_maps: dict[int, dict] = {}
    with path.open() as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            if not in_data:
                lower = line.lower()
                if lower.startswith("@relation"):
                    continue
                if lower.startswith("@attribute"):
                    rest = line[len("@attribute"):].strip()
                    if rest.startswith("{") or "{" not in rest:
                        name, spec = "", rest
                    else:
                        name, spec = rest.split("{", 1)
                        spec = "{" + spec
                    if spec.strip().startswith("{"):
                        values = [
                            v.strip().strip("'\"")
                            for v in spec.strip().strip("{}").split(",")
                        ]
                        attributes.append(values)
                    else:
                        kind = rest.split()[-1].lower()
                        if kind in ("numeric", "real", "integer"):
                            attributes.append("numeric")
                        else:
                            raise StreamFormatError(
                                f"line {line_no}: unsupported attribute type {kind!r}"
                            )
                    continue
                if lower.startswith("@data"):
                    if len(attributes) < 2:
                        raise StreamFormatError(
                            "need at least one feature attribute and a label"
                        )
                    numeric_cols = [a == "numeric" for a in attributes[:-1]]
                    for col, flag in enumerate(numeric_cols):
                        if not flag:
                            nominal_maps[col] = {}
                    in_data = True
                    continue
                raise StreamFormatError(f"line {line_no}: unexpected {line!r}")
            tokens = next(csv.reader([line]))
            if len(tokens) != len(attributes):
                raise StreamFormatError(
                    f"line {line_no}: expected {len(attributes)} values, "
                    f"got {len(tokens)}"
                )
            rows.append(_parse_row(tokens, numeric_cols, nominal_maps, line_no))
            label_tokens.append(tokens[-1].strip().strip("'\""))
            if max_instances is not None and len(rows) >= max_instances:
                break
    if not in_data:
        raise StreamFormatError("missing @data section")
    if not rows:
        raise StreamFormatError("no data rows")
    instances, alphabet = _finish_labels(rows, label_tokens)
    meta = StreamMetadata(len(rows[0]), alphabet, len(instances))
    return instances, meta


def load(path, fmt="auto", max_instances=None):
    """Dispatch on format ('csv', 'arff', or 'auto' by file suffix)."""
    path = Path(path)
    if fmt == "auto":
        fmt = "arff" if path.suffix.lower() == ".arff" else "csv"
    if fmt == "csv":
        return load_csv(path, max_instances)
    if fmt == "arff":
        return load_arff(path, max_instances)
    raise ValueError(f"unknown format {fmt!r}")


def write_csv(instances, path) -> None:
    """Archive a stream as a loader-compatible CSV."""
    path = Path(path)
    if not instances:
        raise ValueError("empty stream")
    d = len(instances[0].features)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"f{i}" for i in range(d)] + ["label"])
        for inst in instances:
            writer.writerow([repr(float(v)) for v in inst.features] + [inst.label])


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


def default_concepts(d: int = 4, noise: float = 0.5) -> dict:
    """Built-in concept bank A..D used by the CLI and the test suites.

    Concept mean patterns are chosen so that (a) concepts stay separable
    after per-vector standardization (different pattern directions, not
    just shifts), (b) each concept has a unique dominant feature plus one
    weakly informative one, so a Hoeffding tree sees a clear gain gap and
    splits at its first evaluation instead of stalling on ties, and
    (c) the weak feature's label correlation flips the previous concept's
    dominant rule, so a stale classifier degrades hard.
    """
    if d != 4:
        raise ValueError("the built-in concept bank is 4-dimensional")
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
        for name in self.order:
            if name not in self.concepts:
                raise ValueError(f"undefined concept {name!r}")
        for length in self.segment_lengths:
            if length < 1:
                raise ValueError("segment lengths must be positive")


def synth_recurring(spec: SyntheticSpec, seed: int):
    """Generate the stream plus ground truth (change points, segment ids)."""
    spec.validate()
    rng = np.random.default_rng(seed)
    instances = []
    change_points = []
    offset = 0
    for name, length in zip(spec.order, spec.segment_lengths):
        feats, labels = spec.concepts[name].sample(rng, length)
        for i in range(length):
            instances.append(LabeledInstance(feats[i], int(labels[i]), offset + i))
        offset += length
        change_points.append(offset)
    change_points = change_points[:-1]  # the stream end is not a change point
    d = len(instances[0].features)
    labels_seen = sorted({inst.label for inst in instances})
    meta = StreamMetadata(d, labels_seen, len(instances),
                          change_points, list(spec.order))
    return instances, meta


def write_ground_truth(meta: StreamMetadata, path) -> None:
    doc = {
        "change_points": meta.change_points,
        "segment_concepts": meta.segment_concepts,
        "n_instances": meta.n_instances,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
