"""The three benchmark workloads, their streams and their ground truth.

Every workload runs the ``driftgan`` strategy prequentially. The ground
truth (change points, the concept of every instance) comes from the
segment lengths and order fixed here, never from the program's stream
metadata.
"""

from __future__ import annotations

from dataclasses import dataclass

from driftbench import DetectorConfig, SyntheticSpec, default_concepts

BATCH = 100          # consensus batch (the detector's default)
RHO = 100            # initial / registration window (the detector's default)
SEGMENT = 2000       # instances per concept segment on recurring and novel
STATIONARY_LENGTH = 50_000
# Stream seeds, fixed before any run was looked at: the A,B,A,B seeds of
# the reference runs. Every run processes each of them the same number of
# times, so its work does not depend on --seed.
POOL = (0, 1, 2)
# Ceiling on the epochs of one GAN training. The stop rule is the
# default (discriminator loss below 0.1); the ceiling only bounds the
# trainings that have not converged by then, which under the default
# 200 epochs took up to 26 epochs (39 s) on these streams. At 3 every
# pool stream detects every change in time; at 8, stream seed 0 did not.
GAN_MAX_EPOCHS = 3
# instances after each detected drift over which recovery accuracy is taken
POST_DRIFT_SPAN = 500
# driftgan must beat initial_learn by this much accuracy (criterion 7)
MIN_BASELINE_GAP = 0.10


@dataclass(frozen=True)
class Workload:
    name: str
    order: tuple[str, ...]
    segment: int
    from_csv: bool        # write the stream to CSV beforehand, read it via streams.load
    baseline_gap: bool    # check driftgan against initial_learn

    @property
    def n_instances(self) -> int:
        return self.segment * len(self.order)

    @property
    def change_points(self) -> list[int]:
        return [self.segment * i for i in range(1, len(self.order))]

    def concept_at(self, index: int) -> str:
        return self.order[index // self.segment]

    def spec(self) -> SyntheticSpec:
        return SyntheticSpec(default_concepts(), list(self.order),
                             [self.segment] * len(self.order))


WORKLOADS = {
    "recurring": Workload("recurring", ("A", "B", "A", "B"), SEGMENT,
                          from_csv=False, baseline_gap=True),
    "novel": Workload("novel", ("A", "B", "C", "D"), SEGMENT,
                      from_csv=False, baseline_gap=True),
    "stationary": Workload("stationary", ("A",), STATIONARY_LENGTH,
                           from_csv=True, baseline_gap=False),
}


def pool_cycle(seed: int) -> list[int]:
    """The stream seeds of one cycle: all of POOL, rotated by ``seed``."""
    return [POOL[(seed + i) % len(POOL)] for i in range(len(POOL))]


def detector_config(seed: int) -> DetectorConfig:
    return DetectorConfig(rho=RHO, batch_size=BATCH, seed=seed,
                          gan_max_epochs=GAN_MAX_EPOCHS)
