"""Tests of the benchmark itself: its checks and its self-time arithmetic.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import copy
import json
from array import array

import pytest

from paths import ROOT, use_checkout_library

use_checkout_library()

from driftbench import DetectorConfig  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from tracing import NO_PARENT, Tracer, summarize  # noqa: E402
from workloads import BATCH, RHO, Workload  # noqa: E402

TINY = Workload("tiny", ("A", "B", "A"), 400, from_csv=False,
                baseline_gap=True)
TINY_CONFIG = DetectorConfig(seed=0, gan_max_epochs=1, disc_loss_threshold=0.0)


@pytest.fixture(scope="module")
def tiny_round():
    """One real round on a 1200-instance A,B,A stream, one GAN epoch."""
    return run.run_round(TINY, 0, Tracer(), run.LIGHT_TARGETS, TINY_CONFIG)


def tally_of(result, baseline=0.0) -> checks.CheckTally:
    return checks.check_round(TINY, result, baseline)


def with_events(result, mutate):
    """A copy of ``result`` whose strategy's drift events went through
    ``mutate``; the round itself is left alone."""
    strategy = copy.deepcopy(result["strategy"])
    mutate(strategy.detector.events)
    return {**result, "strategy": strategy}


def test_tiny_round_detects_both_changes(tiny_round):
    events = [(e.instance_index, e.kind, e.dist_id)
              for e in tiny_round["strategy"].drift_events]
    assert events == [(499, "new", 2), (899, "recurring", 1)]
    tally = tally_of(tiny_round)
    assert tally.correct
    # 3 segments + accuracy + baseline gap + 2 attribution checks; both
    # triggering batches are filed under the old distribution today
    assert (tally.attempted, tally.failed, tally.known_fault) == (7, 2, 2)


def test_shifted_change_point_fails(tiny_round):
    def shift(events):
        events[0].instance_index += 3 * BATCH

    tally = tally_of(with_events(tiny_round, shift))
    assert not tally.correct
    assert any("segment 1" in m for m in tally.messages)


def test_early_event_fails_segment_zero(tiny_round):
    def early(events):
        events[0].instance_index = TINY.segment - 1

    tally = tally_of(with_events(tiny_round, early))
    assert any("segment 0" in m for m in tally.messages)
    assert not tally.correct


def test_wrong_recurrence_id_fails(tiny_round):
    def wrong_id(events):
        events[1].dist_id = 2

    tally = tally_of(with_events(tiny_round, wrong_id))
    assert not tally.correct
    assert any("segment 2" in m for m in tally.messages)


def test_extra_event_fails(tiny_round):
    def extra(events):
        events.append(copy.copy(events[1]))
        events[-1].instance_index += BATCH

    assert not tally_of(with_events(tiny_round, extra)).correct


def test_small_baseline_gap_fails(tiny_round):
    tally = tally_of(tiny_round, baseline=tiny_round["accuracy"] - 0.05)
    assert not tally.correct
    assert any("initial_learn" in m for m in tally.messages)


def test_wrong_prediction_fails_recount(tiny_round):
    report = copy.copy(tiny_round["report"])
    report.trace = list(report.trace)
    report.trace[0] = not report.trace[0]
    tally = tally_of({**tiny_round, "report": report})
    assert not tally.correct
    assert any("recounted accuracy" in m for m in tally.messages)


def refiled(result):
    """A copy of ``result`` whose registry files every exemplar under the
    distribution of its own concept, as a fixed detector would."""
    strategy = copy.deepcopy(result["strategy"])
    records = strategy.detector.registry.records
    by_concept = {"A": records[0], "B": records[1]}
    index_of = {inst.features.tobytes(): i
                for i, inst in enumerate(result["instances"])}
    exemplars = [ex for record in records for ex in record.exemplars]
    for record in records:
        record.exemplars.clear()
    for features, label in exemplars:
        concept = TINY.concept_at(index_of[features.tobytes()])
        by_concept[concept].exemplars.append((features, label))
    return {**result, "strategy": strategy}


def test_attribution_passes_when_filed_by_concept(tiny_round):
    tally = tally_of(refiled(tiny_round))
    assert (tally.failed, tally.known_fault) == (0, 0)


def test_one_misfiled_exemplar_fails_its_event(tiny_round):
    fixed = refiled(tiny_round)
    records = fixed["strategy"].detector.registry.records
    # move one instance of the A->B triggering batch back under A
    target = fixed["instances"][450].features.tobytes()
    pos = next(i for i, ex in enumerate(records[1].exemplars)
               if ex[0].tobytes() == target)
    records[0].exemplars.append(records[1].exemplars[pos])
    del records[1].exemplars[pos]
    tally = tally_of(fixed)
    assert (tally.failed, tally.known_fault) == (1, 1)
    assert tally.correct
    assert "new drift at 499: 1 of 100" in tally.messages[0]


def test_check_attribution_counts_one_operation_per_event():
    events = [(499, "new", 2), (899, "recurring", 1)]
    filed = {i: (2 if TINY.concept_at(i) == "B" else 1) for i in range(1200)}
    tally = checks.CheckTally()
    checks.check_attribution(tally, events, filed, TINY, BATCH)
    assert (tally.attempted, tally.failed) == (2, 0)
    filed[850] = 2
    tally = checks.CheckTally()
    checks.check_attribution(tally, events, filed, TINY, BATCH)
    assert (tally.attempted, tally.failed, tally.known_fault) == (2, 1, 1)


def test_self_time_of_a_hand_built_span_tree():
    # evaluation.run [0, 10]
    #   strategies.step [1, 6]
    #     tree.predict [1.5, 2.5]
    #     nn.forward   [3, 5]
    #       nn.forward [3.5, 4]   (a nested call of the same layer)
    #   strategies.step [7, 9]
    #     tree.fit_many [7, 8.5]
    #       tree.partial_fit [7.25, 7.75]
    names = ["evaluation.run", "strategies.step", "tree.predict",
             "nn.forward", "nn.forward", "strategies.step", "tree.fit_many",
             "tree.partial_fit"]
    starts = array("d", [0, 1, 1.5, 3, 3.5, 7, 7, 7.25])
    ends = array("d", [10, 6, 2.5, 5, 4, 9, 8.5, 7.75])
    parents = array("q", [NO_PARENT, 0, 1, 1, 3, 0, 5, 6])
    calls, total, self_time = summarize(names, starts, ends, parents)
    assert calls == {"evaluation.run": 1, "strategies.step": 2,
                     "tree.predict": 1, "nn.forward": 2, "tree.fit_many": 1,
                     "tree.partial_fit": 1}
    assert total["strategies.step"] == 7.0
    assert total["nn.forward"] == 2.5
    assert self_time == {"evaluation": 3.0, "strategies": 2.5, "tree": 2.5,
                         "nn": 2.0}
    assert sum(self_time.values()) == ends[0] - starts[0]
    # a window of spans sees only its own calls
    calls, _, self_time = summarize(names, starts, ends, parents, 5, 8)
    assert calls == {"strategies.step": 1, "tree.fit_many": 1,
                     "tree.partial_fit": 1}
    assert self_time == {"strategies": 0.5, "tree": 1.5}


class Box:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 41


def test_tracer_records_nesting_and_restores_targets():
    original = Box.__dict__["inner"]
    tracer = Tracer()
    with tracer.installed([(Box, "outer", "bench.outer"),
                           (Box, "inner", "bench.inner")]):
        assert Box().outer() == 42
    assert Box.__dict__["inner"] is original
    assert tracer.names == ["bench.outer", "bench.inner"]
    assert list(tracer.parents) == [NO_PARENT, 0]
    assert tracer.starts[0] <= tracer.starts[1] <= tracer.ends[1] <= tracer.ends[0]


def test_tracer_refuses_a_missing_target():
    original = Box.__dict__["inner"]
    targets = [(Box, "inner", "bench.inner"),
               (Box, "renamed_away", "bench.gone")]
    with pytest.raises(LookupError, match="Box.renamed_away"):
        with Tracer().installed(targets):
            pass
    assert Box.__dict__["inner"] is original


def test_every_trace_target_exists():
    for targets in (run.LIGHT_TARGETS, run.TRACE_TARGETS):
        with Tracer().installed(targets):
            pass


def test_fit_many_rows_are_its_partial_fit_children():
    tracer = Tracer()
    tracer.names = ["strategies.step", "tree.fit_many", "tree.partial_fit",
                    "tree.partial_fit", "tree.partial_fit"]
    tracer.starts = array("d", [0, 1, 2, 3, 5])
    tracer.ends = array("d", [6, 4, 2.5, 3.5, 5.5])
    tracer.parents = array("q", [NO_PARENT, 0, 1, 1, 0])
    layers = run.per_layer(tracer, {"spans": (0, 5),
                                    "post_drift_accuracy": 0.0})
    assert layers["tree.fit_many.rows"] == 2
    assert layers["tree.partial_fit.us"] == pytest.approx(0.5e6)


def test_light_round_timings_are_consistent(tiny_round):
    assert tiny_round["setup_s"] > 0 and tiny_round["run_s"] > 0
    # initial training plus one registration, one epoch each
    assert len(tiny_round["gan_train_s"]) == 2
    assert tiny_round["gan_epochs"] == [1, 1]
    assert tiny_round["steady_ips"] > (TINY.n_instances - RHO) / tiny_round["run_s"]


def test_manifest_lists_the_metrics_the_run_prints():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} \
        == run.PER_LAYER_UNITS
