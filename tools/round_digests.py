#!/usr/bin/env python3
"""Digests of benchmark rounds, to check that a change keeps every output bit.

    python tools/round_digests.py --workloads recurring,novel,stationary --seeds 0,1,2

For each workload and stream seed it runs one untraced round through
``bench/run.py``'s ``run_round`` (a CSV-read workload's stream is
written first, to a temporary directory) and prints one line of sha256
digests, each cut to its first 16 hex digits:

- ``events``: the drift events (instance index, kind, distribution id);
- ``accuracy``: ``repr(accuracy)`` and the per-instance hit trace;
- ``params``: the generator's and the discriminator's ``params``;
- ``registry``: every stored window and every labeled exemplar;
- ``epochs``: the GAN epochs of each training;

and ``screen=<settled>/<screened>``: of the batches ``detect`` screened
with the discriminator's bound, how many the bound settled as no drift.
Bit identity cannot show a screen that settles fewer batches, so this
count does. It counts the screens ``detect`` consumes, one per screened
batch, whether the batch's first row was screened ahead with later
batches or alone; rows screened ahead and never decided on are not
counted. ``forwards=<n>`` counts the discriminator forwards made inside
those screens. Bit identity cannot show a kept screen that is never
served either: every bit and every ``screen=`` count stay, but each
batch is forwarded alone, so this count does. Both are taken by
wrapping ``detector.DriftGanDetector._screen_settles`` for the round, as
the benchmark's tracer wraps what it times, and ``nn.Network.forward``
while a screen runs.

Run it at two commits and compare the output. It imports the benchmark
and changes nothing in it.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import run  # noqa: E402  (bench/run.py; imports this checkout's library)
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from driftbench.detector import DriftGanDetector  # noqa: E402
from driftbench.nn import Network  # noqa: E402


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def round_digests(workload, seed) -> dict:
    if workload.from_csv:
        run.write_stream(workload, seed)
    answers, forwards = [], []
    settles, forward = DriftGanDetector._screen_settles, Network.forward

    def counted_forward(net, x):
        forwards.append(len(x))
        return forward(net, x)

    def counted(detector, *args):
        Network.forward = counted_forward
        try:
            answers.append(settles(detector, *args))
        finally:
            Network.forward = forward
        return answers[-1]

    DriftGanDetector._screen_settles = counted
    try:
        result = run.run_round(workload, seed, Tracer(), run.LIGHT_TARGETS)
    finally:
        DriftGanDetector._screen_settles = settles
    detector = result["strategy"].detector
    events = [(e.instance_index, e.kind, e.dist_id)
              for e in detector.events]
    registry = []
    for record in detector.registry.records:
        registry.append(record.window.tobytes())
        registry.extend((x.tobytes(), y) for x, y in record.exemplars)
    return {
        "events": _digest(events),
        "accuracy": _digest(result["accuracy"], result["report"].trace),
        "params": _digest(detector.generator.params.tobytes(),
                          detector.discriminator.params.tobytes()),
        "registry": _digest(*registry),
        "epochs": _digest(result["gan_epochs"]),
        "screen": f"{sum(answers)}/{len(answers)}",
        "forwards": len(forwards),
    }


def workload_list(text) -> list[str]:
    """``--workloads``: comma-separated names of ``WORKLOADS``."""
    names = text.split(",")
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown workloads {unknown} in {text!r}; choose from "
            f"{sorted(WORKLOADS)}")
    return names


def seed_list(text) -> list[int]:
    """``--seeds``: comma-separated stream seeds, integers of at least 0."""
    try:
        seeds = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    if min(seeds) < 0:
        raise argparse.ArgumentTypeError(
            f"seeds must be >= 0, got {text!r}")
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", type=workload_list,
                        default="recurring,novel,stationary",
                        help="comma-separated workload names "
                             "(default: all three)")
    parser.add_argument("--seeds", type=seed_list, default="0,1,2",
                        help="comma-separated stream seeds (default: 0,1,2)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        run.OUT_DIR = Path(tmp)  # where write_stream puts the CSV streams
        for name in args.workloads:
            for seed in args.seeds:
                digests = round_digests(WORKLOADS[name], seed)
                print(f"{name} seed {seed}: " + " ".join(
                    f"{key}={value}" for key, value in digests.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
