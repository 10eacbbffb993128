"""Prequential (interleaved test-then-train) evaluation and reporting.

The first ``rho`` instances initialize a strategy and are never scored;
every later instance is predicted first and learned from afterwards.
Reports are written as JSON documents (``schema_version: 1``) that any
JSON reader reads; comparisons and drift logs are flat CSV files.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .detector import DriftEvent
from .streams import Stream

REPORT_SCHEMA_VERSION = 1


@dataclass
class DetectionScore:
    mean_delay: float | None
    false_alarms: int
    missed: int
    recurrence_id_accuracy: float | None


@dataclass
class RunReport:
    dataset: str
    strategy: str
    params: dict
    accuracy: float
    n_instances: int
    n_scored: int
    drift_events: list[DriftEvent] = field(default_factory=list)
    detection: DetectionScore | None = None
    wall_time: float = 0.0
    # per-instance hits, kept by prequential_run(keep_trace=True) for
    # independent recounts; not serialized
    trace: list[bool] | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        """The report document: the fields in order after
        ``schema_version``, without ``trace``, and each event's
        ``dist_id`` written as ``distribution_id``."""
        doc = {"schema_version": REPORT_SCHEMA_VERSION, **asdict(self)}
        del doc["trace"]
        for event in doc["drift_events"]:
            event["distribution_id"] = event.pop("dist_id")
        return doc


def prequential_run(stream: Stream, strategy, *, dataset: str = "stream",
                    metadata=None, keep_trace: bool = False) -> RunReport:
    """Initialize on the first rho instances, then test-then-train the rest.

    The strategy is initialized on the first rho rows of the stream's
    feature matrix and then steps over the rows that follow: views, not
    copies, with their labels as Python ints.
    """
    rho = strategy.rho
    if len(stream) < rho + 1:
        raise ValueError(f"stream must yield at least rho + 1 = {rho + 1} instances")
    start = time.perf_counter()
    X, y = stream.X, stream.y.tolist()
    strategy.initialize(X[:rho], y[:rho])
    ys = y[rho:]
    trace = [p == label for p, label in zip(strategy.steps(X[rho:], ys), ys)]
    n_scored = len(stream) - rho
    report = RunReport(
        dataset=dataset,
        strategy=strategy.kind,
        params=strategy.get_params(),
        accuracy=sum(trace) / n_scored,
        n_instances=len(stream),
        n_scored=n_scored,
        drift_events=list(strategy.drift_events),
        wall_time=time.perf_counter() - start,
        trace=trace if keep_trace else None,
    )
    if metadata is not None and metadata.change_points:
        # a truncated stream never reaches its later change points
        reached = [c for c in metadata.change_points if c < len(stream)]
        report.detection = score_detection(
            report.drift_events, reached,
            metadata.segment_concepts[:len(reached) + 1],
        )
    return report


def score_detection(events, change_points, segment_concepts) -> DetectionScore:
    """Match each true change point to the first event inside its segment.

    Delay is measured in instances from the change point; events in stable
    regions count as false alarms. Recurrence-id accuracy is the fraction
    of repeated-concept segments whose event carries the id assigned when
    that concept was first seen (the initial concept holds id 1).
    """
    boundaries = list(change_points) + [float("inf")]
    matched: dict[int, DriftEvent] = {}
    false_alarms = 0
    for event in events:
        seg = 0
        while event.instance_index >= boundaries[seg]:
            seg += 1
        # seg 0 is the initial stable segment; only the first event after a
        # change point is a detection, the rest are false alarms
        if seg == 0 or seg in matched:
            false_alarms += 1
        else:
            matched[seg] = event
    delays = [matched[s].instance_index - change_points[s - 1] for s in matched]
    mean_delay = sum(delays) / len(delays) if delays else None
    missed = len(change_points) - len(matched)

    recurrence_accuracy = None
    if segment_concepts:
        concept_ids: dict[str, int] = {segment_concepts[0]: 1}
        repeated = correct = 0
        for seg in range(1, len(segment_concepts)):
            concept = segment_concepts[seg]
            event = matched.get(seg)
            if concept in concept_ids:
                repeated += 1
                if (event is not None and event.kind == "recurring"
                        and event.dist_id == concept_ids[concept]):
                    correct += 1
            elif event is not None and event.kind == "new":
                concept_ids[concept] = event.dist_id
        if repeated:
            recurrence_accuracy = correct / repeated
    return DetectionScore(mean_delay, false_alarms, missed, recurrence_accuracy)


# ---------------------------------------------------------------------------
# Emission


def _json_number(value):
    """A numpy scalar, such as a config count in ``params``, as the Python
    number it holds: ``json.dumps``'s fallback for what it cannot write."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_report(report: RunReport, path) -> None:
    doc = json.dumps(report.to_dict(), indent=2, default=_json_number)
    Path(path).write_text(doc + "\n")


def compare_reports(reports) -> str:
    """One CSV row per (dataset, strategy) with the prequential accuracy."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["dataset", "strategy", "accuracy", "n_instances", "drifts"])
    for report in reports:
        writer.writerow([
            report.dataset, report.strategy, f"{report.accuracy:.6f}",
            report.n_instances, len(report.drift_events),
        ])
    return out.getvalue()


def write_drift_log(events, path) -> None:
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["instance_index", "kind", "distribution_id"])
        for event in events:
            writer.writerow([event.instance_index, event.kind, event.dist_id])

