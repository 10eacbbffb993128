"""Tests for the prequential harness, detection scoring, and reports."""

import json

import numpy as np
import pytest

from driftbench.detector import DriftEvent
from driftbench.evaluation import (
    DetectionScore,
    RunReport,
    compare_reports,
    prequential_run,
    score_detection,
    write_drift_log,
    write_report,
)
from driftbench.streams import Stream, StreamMetadata
from driftbench.strategies import make_strategy


def rule_instances(n, seed=0):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1, 1, size=(n, 1))
    return Stream(xs, xs[:, 0] > 0)


def test_prequential_accuracy_matches_trace_recount():
    instances = rule_instances(120)
    strategy = make_strategy("regular_update", n_features=1, n_classes=2, rho=20)
    report = prequential_run(instances, strategy, keep_trace=True)
    assert report.n_scored == 100
    assert report.accuracy == sum(report.trace) / len(report.trace)
    assert len(report.trace) == report.n_scored


def test_prequential_excludes_warmup_from_score():
    # all warmup labels are 1, all scored labels are 0: a tree that learned
    # the warmup predicts 1 and scores zero, proving the warmup is unscored
    instances = Stream(np.zeros((15, 1)), [1] * 10 + [0] * 5)
    strategy = make_strategy("initial_learn", n_features=1, n_classes=2, rho=10)
    report = prequential_run(instances, strategy)
    assert report.accuracy == 0.0
    assert report.n_scored == 5


def test_prequential_requires_enough_instances():
    strategy = make_strategy("initial_learn", n_features=1, n_classes=2, rho=10)
    with pytest.raises(ValueError):
        prequential_run(rule_instances(10), strategy)


def test_prequential_scores_detection_when_ground_truth_present():
    instances = rule_instances(120)
    meta = StreamMetadata(1, [0, 1], 120, change_points=[60],
                          segment_concepts=["A", "B"])
    strategy = make_strategy("regular_update", n_features=1, n_classes=2, rho=20)
    report = prequential_run(instances, strategy, metadata=meta)
    assert report.detection is not None
    assert report.detection.missed == 1  # baseline emits no events


def test_prequential_scores_only_the_change_points_the_stream_reaches():
    # ground truth of an A,B,A stream with 300-instance segments, read
    # only up to instance 400: the change point at 600 is never reached
    instances = rule_instances(400)
    meta = StreamMetadata(1, [0, 1], 400, change_points=[300, 600],
                          segment_concepts=["A", "B", "A"])
    strategy = make_strategy("regular_update", n_features=1, n_classes=2, rho=20)
    report = prequential_run(instances, strategy, metadata=meta)
    assert report.detection.missed == 1
    assert report.detection.recurrence_id_accuracy is None


# -- detection scoring --------------------------------------------------------


def test_score_detection_delay_and_false_alarm():
    events = [
        DriftEvent(150, "new", 2),       # stable segment 0 -> false alarm
        DriftEvent(2099, "new", 2),      # detection of the first change
        DriftEvent(2500, "recurring", 1),  # second event in segment -> false
        DriftEvent(4299, "recurring", 1),  # detection of the second change
    ]
    score = score_detection(events, [2000, 4000], ["A", "B", "A"])
    assert score.mean_delay == (99 + 299) / 2
    assert score.false_alarms == 2
    assert score.missed == 0
    assert score.recurrence_id_accuracy == 1.0


def test_score_detection_missed_and_wrong_recurrence():
    events = [DriftEvent(2099, "new", 2), DriftEvent(4099, "recurring", 2)]
    score = score_detection(events, [2000, 4000], ["A", "B", "A"])
    # the A-recurrence event names id 2 but concept A holds id 1
    assert score.recurrence_id_accuracy == 0.0
    assert score.missed == 0

    score = score_detection([], [2000, 4000], ["A", "B", "A"])
    assert score.missed == 2
    assert score.mean_delay is None
    assert score.recurrence_id_accuracy == 0.0


def test_score_detection_no_repeats_yields_no_recurrence_score():
    events = [DriftEvent(2099, "new", 2)]
    score = score_detection(events, [2000], ["A", "B"])
    assert score.recurrence_id_accuracy is None
    assert score.false_alarms == 0


# -- serialization ------------------------------------------------------------


def sample_report():
    return RunReport(
        dataset="toy", strategy="driftgan", params={"rho": 100},
        accuracy=0.912345, n_instances=1000, n_scored=900,
        drift_events=[DriftEvent(250, "new", 2)],
        detection=DetectionScore(99.0, 0, 0, 1.0),
        wall_time=1.5,
    )


SAMPLE_DOCUMENT = {
    "schema_version": 1,
    "dataset": "toy",
    "strategy": "driftgan",
    "params": {"rho": 100},
    "accuracy": 0.912345,
    "n_instances": 1000,
    "n_scored": 900,
    "drift_events": [
        {"instance_index": 250, "kind": "new", "distribution_id": 2},
    ],
    "detection": {"mean_delay": 99.0, "false_alarms": 0, "missed": 0,
                  "recurrence_id_accuracy": 1.0},
    "wall_time": 1.5,
}


def test_report_to_dict_is_the_document():
    report = sample_report()
    report.trace = [True, False]  # kept for recounts, never written
    doc = report.to_dict()
    assert doc == SAMPLE_DOCUMENT
    # the written keys keep their order: the document is the interface
    assert list(doc) == list(SAMPLE_DOCUMENT)
    assert list(doc["drift_events"][0]) == ["instance_index", "kind",
                                            "distribution_id"]


def test_write_report_writes_the_document(tmp_path):
    path = tmp_path / "report.json"
    write_report(sample_report(), path)
    doc = json.loads(path.read_text())
    assert doc == SAMPLE_DOCUMENT
    assert doc["schema_version"] == 1
    assert doc["accuracy"] == 0.912345
    assert doc["drift_events"][0]["instance_index"] == 250
    assert doc["detection"]["mean_delay"] == 99.0


def test_write_report_writes_numpy_params_as_json_numbers(tmp_path):
    # a config may hold numpy integers (DetectorConfig.validate accepts
    # them), and get_params copies them into the report
    report = sample_report()
    report.params = {"rho": np.int64(100), "seed": np.int32(0),
                     "historical_fraction": np.float64(0.5)}
    path = tmp_path / "report.json"
    write_report(report, path)
    params = json.loads(path.read_text())["params"]
    assert params == {"rho": 100, "seed": 0, "historical_fraction": 0.5}
    assert type(params["rho"]) is int and type(params["seed"]) is int


def test_write_report_still_rejects_what_json_cannot_write(tmp_path):
    report = sample_report()
    report.params = {"window": object()}
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_report(report, tmp_path / "report.json")


def test_compare_reports_csv():
    table = compare_reports([sample_report()])
    lines = table.strip().splitlines()
    assert lines[0] == "dataset,strategy,accuracy,n_instances,drifts"
    assert lines[1] == "toy,driftgan,0.912345,1000,1"


def test_drift_log_has_header_and_one_row_per_event(tmp_path):
    events = [DriftEvent(250, "new", 2), DriftEvent(800, "recurring", 1)]
    path = tmp_path / "drifts.csv"
    write_drift_log(events, path)
    assert path.read_text().splitlines() == [
        "instance_index,kind,distribution_id",
        "250,new,2",
        "800,recurring,1",
    ]
