#!/usr/bin/env python3
"""driftbench benchmark: the driftgan strategy run prequentially.

    python3 bench/run.py --workload recurring --seed 0 --seconds 20 --trace 0

Runs whole cycles of one workload, stopping at the cycle boundary
nearest to ``--seconds`` seconds (at least one cycle). A cycle is one
round on each stream seed of the pool, in an order rotated by
``--seed``, so every run does the same work. A round builds (or loads)
one stream, initializes a driftgan strategy on its first rho instances
(the initial GAN training) and test-then-trains the rest through
``prequential_run``; then its outputs are checked against the
workload's own ground truth. The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. A traced run also writes the spans of its last round to
``bench/out/<workload>.trace.jsonl`` and its (traced) end-to-end figures
to ``bench/out/<workload>.traced.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import tracemalloc

from paths import OUT_DIR, use_checkout_library

use_checkout_library()

from driftbench import detector, evaluation, nn, strategies, streams, tree  # noqa: E402
from driftbench import make_strategy  # noqa: E402

import checks  # noqa: E402
from tracing import NO_PARENT, Tracer, summarize  # noqa: E402
from workloads import (  # noqa: E402
    POOL, POST_DRIFT_SPAN, RHO, WORKLOADS, detector_config, pool_cycle,
)

# Spans needed by the end-to-end metrics, and the epoch-end loss check
# that counts the epochs of each GAN training: a few dozen per round.
LIGHT_TARGETS = [
    (strategies.DriftGanStrategy, "initialize", "strategies.initialize"),
    (detector, "train_gan", "detector.train_gan"),
    (detector, "batch_loss", "nn.batch_loss"),
]

# Every public call of each layer. A function imported into several
# modules is patched in each, so every call site is seen.
TRACE_TARGETS = [
    (strategies.DriftGanStrategy, "initialize", "strategies.initialize"),
    (strategies.Strategy, "step", "strategies.step"),
    (evaluation, "prequential_run", "evaluation.prequential_run"),
    (streams, "synth_recurring", "streams.synth_recurring"),
    (streams, "load", "streams.load"),
    (nn.Network, "forward", "nn.forward"),
    (nn.Network, "forward_cached", "nn.forward_cached"),
    (nn, "_backward", "nn.backward"),
    (detector, "_backward", "nn.backward"),
    (nn, "loss_gradients", "nn.loss_gradients"),
    (detector, "loss_gradients", "nn.loss_gradients"),
    (nn, "train_step", "nn.train_step"),
    (detector, "train_step", "nn.train_step"),
    (nn, "apply_gradients", "nn.apply_gradients"),
    (detector, "apply_gradients", "nn.apply_gradients"),
    (nn, "batch_loss", "nn.batch_loss"),
    (detector, "batch_loss", "nn.batch_loss"),
    (detector, "extend_output_layer", "nn.extend_output_layer"),
    (detector, "train_gan", "detector.train_gan"),
    (detector, "_sample_probes", "detector.sample_probes"),
    (detector, "standardize", "detector.standardize"),
    (detector, "classify_batch", "detector.classify_batch"),
    (detector.DriftGanDetector, "initialize", "detector.initialize"),
    (detector.DriftGanDetector, "observe", "detector.observe"),
    (detector.DriftGanDetector, "detect", "detector.detect"),
    (detector.DriftGanDetector, "add_exemplar", "detector.add_exemplar"),
    (detector.DriftGanDetector, "historical_sample",
     "detector.historical_sample"),
    (detector.DriftGanDetector, "register_distribution",
     "detector.register_distribution"),
    (tree.HoeffdingTreeClassifier, "predict", "tree.predict"),
    (tree.HoeffdingTreeClassifier, "partial_fit", "tree.partial_fit"),
    (tree.HoeffdingTreeClassifier, "fit_many", "tree.fit_many"),
    (tree.HoeffdingTreeClassifier, "reset", "tree.reset"),
]

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "steady_ips": "1/s", "gan_train_s": "s",
    "accuracy": "fraction", "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "streams.synth_recurring.s": "s",
    "streams.load.s": "s",
    "nn.forward.calls": "count",
    "nn.forward.ms": "ms",
    "nn.forward_cached.ms": "ms",
    "nn.backward.ms": "ms",
    "nn.loss_gradients.ms": "ms",
    "nn.train_step.ms": "ms",
    "nn.apply_gradients.ms": "ms",
    "nn.self_s": "s",
    "detector.train_gan.calls": "count",
    "detector.train_gan.s": "s",
    "detector.train_gan.epochs": "count",
    "detector.epoch.s": "s",
    "detector.sample_probes.s": "s",
    "detector.standardize.calls": "count",
    "detector.standardize.s": "s",
    "detector.detect.calls": "count",
    "detector.detect.ms": "ms",
    "detector.observe.us": "us",
    "detector.train_gan.peak_mb": "MB",
    "detector.self_s": "s",
    "tree.predict.us": "us",
    "tree.partial_fit.us": "us",
    "tree.self_s": "s",
    "tree.fit_many.rows": "count",
    "tree.fit_many.s": "s",
    "strategies.step.us": "us",
    "strategies.post_drift_accuracy": "fraction",
    "evaluation.loop_s": "s",
}


def csv_path(workload, seed):
    return OUT_DIR / f"{workload.name}_stream_seed{seed}.csv"


def write_stream(workload, seed) -> None:
    """Write a CSV-read workload's stream before any round reads it."""
    instances, _ = streams.synth_recurring(workload.spec(), seed)
    streams.write_csv(instances, csv_path(workload, seed))


def run_round(workload, seed, tracer, targets, config=None) -> dict:
    """One timed round: build or load the stream, then the prequential pass."""
    first_span = len(tracer)
    with tracer.installed(targets):
        start = time.perf_counter()
        if workload.from_csv:
            instances, meta = streams.load(csv_path(workload, seed))
        else:
            instances, meta = streams.synth_recurring(workload.spec(), seed)
        strategy = make_strategy("driftgan", meta.n_features,
                                 len(meta.label_alphabet),
                                 config=config or detector_config(seed))
        report = evaluation.prequential_run(instances, strategy,
                                            dataset=workload.name,
                                            keep_trace=True)
        end = time.perf_counter()

    spans = range(first_span, len(tracer))
    init_end = next(tracer.ends[i] for i in spans
                    if tracer.names[i] == "strategies.initialize")
    trainings = [i for i in spans if tracer.names[i] == "detector.train_gan"]
    gan = [(tracer.starts[i], tracer.ends[i] - tracer.starts[i])
           for i in trainings]
    epochs = [sum(1 for j in spans if tracer.names[j] == "nn.batch_loss"
                  and tracer.parents[j] == i) for i in trainings]
    gan_in_pass = sum(d for s, d in gan if s >= init_end)
    run_s = end - init_end
    return {
        "seed": seed,
        "setup_s": init_end - start,
        "run_s": run_s,
        "scored": len(instances) - RHO,
        "steady_s": run_s - gan_in_pass,
        "steady_ips": (len(instances) - RHO) / (run_s - gan_in_pass),
        "gan_train_s": [d for _, d in gan],
        "gan_epochs": epochs,
        "accuracy": report.accuracy,
        "spans": (first_span, len(tracer)),
        "instances": instances,
        "strategy": strategy,
        "report": report,
    }


def warm_up(workload) -> None:
    """One untimed initialization, so the first timed round does not pay
    the process's one-off start-up costs (BLAS threads, first large
    allocations), which a long-running detector pays only once."""
    instances, _ = streams.synth_recurring(workload.spec(), POOL[0])
    gan_detector = detector.DriftGanDetector(detector_config(POOL[0]))
    gan_detector.initialize([inst.features for inst in instances[:RHO]])


def baseline_accuracy(instances) -> float:
    """Prequential accuracy of initial_learn on the same stream."""
    n_classes = len({inst.label for inst in instances})
    baseline = make_strategy("initial_learn", len(instances[0].features),
                             n_classes, rho=RHO)
    return evaluation.prequential_run(instances, baseline).accuracy


def post_drift_accuracy(result) -> float:
    """Accuracy over the POST_DRIFT_SPAN instances after each detected
    drift, pooled; 0 when nothing drifted."""
    hits = total = 0
    trace = result["report"].trace
    for event in result["strategy"].drift_events:
        lo = event.instance_index + 1 - RHO
        span = trace[lo:lo + POST_DRIFT_SPAN]
        hits += sum(span)
        total += len(span)
    return hits / total if total else 0.0


def train_gan_peak_mb(gan_detector) -> float:
    """tracemalloc peak (MB) of one more GAN training on a finished
    detector's registry, as on its last registration. It runs after the
    timed rounds, so no traced timing pays for tracemalloc."""
    tracemalloc.start()
    try:
        detector.train_gan(gan_detector.registry, gan_detector.config,
                           gan_detector.rng, gan_detector.generator,
                           gan_detector.discriminator)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def end_to_end(rounds) -> dict:
    """The run's end-to-end figures. The rounds of a run are not repeats:
    each pool stream has its own drifts and trainings. So every figure
    but ``setup_s`` pools the rounds (a mean over the same mix of
    streams in every run) rather than picking the median one."""
    scored = sum(r["scored"] for r in rounds)
    trainings = [d for r in rounds for d in r["gan_train_s"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "run_s": statistics.fmean(r["run_s"] for r in rounds),
        "steady_ips": scored / sum(r["steady_s"] for r in rounds),
        "gan_train_s": statistics.fmean(trainings),
        "accuracy": sum(r["accuracy"] * r["scored"] for r in rounds) / scored,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, round_result) -> dict:
    """Per-layer metrics of one traced round.

    ``.calls``/``.rows``/``.epochs`` are counts per round, ``.s`` are
    seconds per round, ``.ms``/``.us`` are means per call. ``step``,
    ``observe`` and ``detect`` leave out the GAN retraining of a
    registration, which runs inside them.
    """
    first, last = round_result["spans"]
    names, starts, ends = tracer.names, tracer.starts, tracer.ends
    calls, total, self_time = summarize(names, starts, ends, tracer.parents,
                                        first, last)
    registering = total.get("detector.register_distribution", 0.0)

    def mean(name, scale, exclude=0.0):
        n = calls.get(name, 0)
        return (total[name] - exclude) / n * scale if n else 0.0

    epochs = calls.get("nn.batch_loss", 0)
    gan_s = total.get("detector.train_gan", 0.0)
    # fit_many is a loop over partial_fit: one replayed row per child span
    rows = sum(1 for i in range(first, last)
               if names[i] == "tree.partial_fit"
               and tracer.parents[i] != NO_PARENT
               and names[tracer.parents[i]] == "tree.fit_many")
    return {
        "streams.synth_recurring.s": total.get("streams.synth_recurring", 0.0),
        "streams.load.s": total.get("streams.load", 0.0),
        "nn.forward.calls": calls.get("nn.forward", 0),
        "nn.forward.ms": mean("nn.forward", 1e3),
        "nn.forward_cached.ms": mean("nn.forward_cached", 1e3),
        "nn.backward.ms": mean("nn.backward", 1e3),
        "nn.loss_gradients.ms": mean("nn.loss_gradients", 1e3),
        "nn.train_step.ms": mean("nn.train_step", 1e3),
        "nn.apply_gradients.ms": mean("nn.apply_gradients", 1e3),
        "nn.self_s": self_time.get("nn", 0.0),
        "detector.train_gan.calls": calls.get("detector.train_gan", 0),
        "detector.train_gan.s": gan_s,
        "detector.train_gan.epochs": epochs,
        "detector.epoch.s": gan_s / epochs if epochs else 0.0,
        "detector.sample_probes.s": total.get("detector.sample_probes", 0.0),
        "detector.standardize.calls": calls.get("detector.standardize", 0),
        "detector.standardize.s": total.get("detector.standardize", 0.0),
        "detector.detect.calls": calls.get("detector.detect", 0),
        "detector.detect.ms": mean("detector.detect", 1e3, registering),
        "detector.observe.us": mean("detector.observe", 1e6, registering),
        "detector.self_s": self_time.get("detector", 0.0),
        "tree.predict.us": mean("tree.predict", 1e6),
        "tree.partial_fit.us": mean("tree.partial_fit", 1e6),
        "tree.self_s": self_time.get("tree", 0.0),
        "tree.fit_many.rows": rows,
        "tree.fit_many.s": total.get("tree.fit_many", 0.0),
        "strategies.step.us": mean("strategies.step", 1e6, registering),
        "strategies.post_drift_accuracy": round_result["post_drift_accuracy"],
        "evaluation.loop_s": self_time.get("evaluation", 0.0),
    }


def with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    targets = TRACE_TARGETS if traced else LIGHT_TARGETS
    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer()
    baselines: dict[int, float] = {}
    written: set[int] = set()
    rounds = []
    tally = checks.CheckTally()
    warm_up(workload)
    started = time.perf_counter()
    cycle = pool_cycle(args.seed)
    while True:
        for seed in cycle:
            if workload.from_csv and seed not in written:
                write_stream(workload, seed)
                written.add(seed)
            result = run_round(workload, seed, tracer, targets)
            if workload.baseline_gap and seed not in baselines:
                baselines[seed] = baseline_accuracy(result["instances"])
            checked = checks.check_round(workload, result, baselines.get(seed))
            result["post_drift_accuracy"] = post_drift_accuracy(result)
            last_detector = result["strategy"].detector if traced else None
            # drop the round's stream and strategy so rounds do not pile up
            result.update(instances=None, strategy=None, report=None)
            rounds.append(result)
            tally.merge(checked)
            print(f"round {len(rounds)} stream seed {seed}: "
                  f"setup {result['setup_s']:.3f}s run {result['run_s']:.3f}s "
                  f"steady {result['steady_ips']:.0f}/s "
                  f"accuracy {result['accuracy']:.4f} "
                  f"GAN epochs {result['gan_epochs']} "
                  f"checks {checked.attempted - checked.failed}"
                  f"/{checked.attempted}", file=sys.stderr)
        elapsed = time.perf_counter() - started
        cycles = len(rounds) // len(cycle)
        # stop at the cycle boundary nearest to --seconds, taking the
        # mean cycle so far as the length of the next one
        if elapsed + elapsed / cycles / 2 > args.seconds:
            break
    for message in tally.messages:
        print(f"check failed: {message}", file=sys.stderr)

    e2e = end_to_end(rounds)
    if traced:
        layers = [per_layer(tracer, r) for r in rounds]
        metrics = {name: statistics.median(layer[name] for layer in layers)
                   for name in PER_LAYER_UNITS if name in layers[0]}
        metrics["detector.train_gan.peak_mb"] = train_gan_peak_mb(last_detector)
        # the last round's spans: a stationary round alone is ~350k spans
        tracer.write_jsonl(OUT_DIR / f"{workload.name}.trace.jsonl",
                           rounds[-1]["spans"][0])
        (OUT_DIR / f"{workload.name}.traced.json").write_text(json.dumps(
            {"seed": args.seed, "rounds": len(rounds), "end_to_end": e2e},
            indent=2) + "\n")
        metrics = with_units(metrics, PER_LAYER_UNITS)
    else:
        metrics = with_units(e2e, END_TO_END_UNITS)
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
