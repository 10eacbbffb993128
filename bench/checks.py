"""Correctness checks on one prequential round, counted as operations.

Every check is one operation, attempted once per round, that passes or
fails. The exemplar attribution check fails today because of a known
fault in ``DriftGanStrategy._learn`` (the batch that triggers a drift is
filed under the old distribution); its failures are counted apart, so a
round whose only failures are attribution ones is still correct.

Events are ``(instance_index, kind, dist_id)`` tuples; the ground truth
is a ``Workload`` (segment lengths and concept order).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from workloads import BATCH, MIN_BASELINE_GAP, RHO


@dataclass
class CheckTally:
    attempted: int = 0
    failed: int = 0
    known_fault: int = 0     # failures of the attribution check
    messages: list[str] = field(default_factory=list)

    def record(self, ok: bool, message: str, *, known_fault: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.known_fault += known_fault
            self.messages.append(message)

    @property
    def correct(self) -> bool:
        """Every failure is an attribution failure."""
        return self.failed == self.known_fault

    def merge(self, other: "CheckTally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.known_fault += other.known_fault
        self.messages.extend(other.messages)


def check_detection(tally: CheckTally, events, workload, batch: int) -> None:
    """One operation per segment.

    Segment 0 must raise no event. Every later segment must raise exactly
    one event, within three consensus batches of its change point: ``new``
    on a concept's first appearance, otherwise ``recurring`` with the id
    the concept was given when first seen.
    """
    bounds = [0, *workload.change_points, workload.n_instances]
    ids = {workload.order[0]: 1}
    for seg, concept in enumerate(workload.order):
        lo, hi = bounds[seg], bounds[seg + 1]
        inside = [e for e in events if lo <= e[0] < hi]
        if seg == 0:
            tally.record(not inside, f"segment 0 ({concept}): events {inside}")
            continue
        ok = len(inside) == 1 and inside[0][0] < lo + 3 * batch
        if ok:
            _, kind, dist_id = inside[0]
            if concept in ids:
                ok = kind == "recurring" and dist_id == ids[concept]
            else:
                ok = kind == "new" and dist_id not in ids.values()
                if ok:
                    ids[concept] = dist_id
        tally.record(ok, f"segment {seg} ({concept}, change at {lo}): "
                         f"events {inside}, known ids {ids}")


def check_accuracy(tally: CheckTally, hits, n_scored: int,
                   reported: float) -> None:
    """Recount accuracy from the per-instance hit trace; there must be one
    entry per scored instance, and it must equal the report's figure
    exactly."""
    if len(hits) != n_scored or not n_scored:
        tally.record(False, f"{len(hits)} per-instance results for "
                            f"{n_scored} scored instances")
        return
    recount = sum(hits) / n_scored
    tally.record(recount == reported,
                 f"recounted accuracy {recount!r} != reported {reported!r}")


def check_baseline_gap(tally: CheckTally, accuracy: float, baseline: float,
                       min_gap: float) -> None:
    tally.record(accuracy - baseline >= min_gap,
                 f"driftgan {accuracy:.4f} beats initial_learn {baseline:.4f} "
                 f"by less than {min_gap:.2f}")


def check_attribution(tally: CheckTally, events, filed, workload,
                      batch: int) -> None:
    """One operation per drift event: every instance of its triggering
    batch must be filed under the distribution of its own concept.

    ``filed`` maps an instance index to the dist id its exemplar is
    stored under. Distribution 1 holds the first concept; a ``new``
    event's id holds the concept of the instance that raised it.
    """
    concept_of = {1: workload.order[0]}
    for index, kind, dist_id in events:
        if kind == "new":
            concept_of[dist_id] = workload.concept_at(index)
    for index, kind, dist_id in events:
        batch_indices = range(index - batch + 1, index + 1)
        misfiled = [i for i in batch_indices
                    if concept_of.get(filed.get(i)) != workload.concept_at(i)]
        tally.record(not misfiled,
                     f"{kind} drift at {index}: {len(misfiled)} of {batch} "
                     f"triggering instances filed outside their concept",
                     known_fault=True)


def filed_instances(registry, instances) -> dict:
    """Stream index -> id of the distribution whose exemplars hold it."""
    index_of = {inst.features.tobytes(): i for i, inst in enumerate(instances)}
    filed = {}
    for record in registry.records:
        for features, _ in record.exemplars:
            i = index_of.get(features.tobytes())
            if i is not None:
                filed[i] = record.dist_id
    return filed


def check_round(workload, result, baseline: float | None) -> CheckTally:
    """Every check of one round of ``run.run_round``.

    ``baseline`` is initial_learn's accuracy on the same stream, or None
    on workloads that do not compare against it.
    """
    tally = CheckTally()
    strategy, report = result["strategy"], result["report"]
    instances = result["instances"]
    events = [(e.instance_index, e.kind, e.dist_id)
              for e in strategy.drift_events]
    check_detection(tally, events, workload, BATCH)
    check_accuracy(tally, report.trace, len(instances) - RHO, report.accuracy)
    if baseline is not None:
        check_baseline_gap(tally, report.accuracy, baseline, MIN_BASELINE_GAP)
    if events:
        filed = filed_instances(strategy.detector.registry, instances)
        check_attribution(tally, events, filed, workload, BATCH)
    return tally
