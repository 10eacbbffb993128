"""Command-line interface: run / compare / synth subcommands."""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import evaluation, streams
from .detector import DetectorConfig
from .strategies import STRATEGY_KINDS, make_strategy

log = logging.getLogger("driftbench")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _add_common(parser):
    parser.add_argument("--rho", type=int, default=100,
                        help="training window size (default: 100)")
    parser.add_argument("--batch-size", type=int, default=100,
                        help="consensus batch size (default: 100)")
    parser.add_argument("--seq-len", type=int, default=4,
                        help="generator input sequence length (default: 4)")
    parser.add_argument("--lambda", dest="historical_fraction", type=float,
                        default=1.0,
                        help="fraction of stored historical data reused on a "
                             "recurring drift (default: 1.0)")
    parser.add_argument("--retrain-interval", type=int, default=None,
                        help="regular_retrain rebuild interval "
                             "(default: rho)")
    parser.add_argument("--max-instances", type=int, default=None,
                        help="truncate the stream after this many instances "
                             "(default: no limit)")
    parser.add_argument("--seed", type=int, default=0,
                        help="random seed (default: 0)")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="output directory (default: current directory)")
    parser.add_argument("--config", type=Path, default=None,
                        help="flat key=value config file; flags override it")


def build_parser() -> _Parser:
    parser = _Parser(prog="driftbench",
                     description="GAN-based recurring-drift detection benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="one strategy on one dataset")
    run.add_argument("--dataset", type=Path, required=True,
                     help="CSV or ARFF stream file")
    run.add_argument("--format", choices=("auto", "csv", "arff"), default="auto",
                     help="dataset format (default: auto by suffix)")
    run.add_argument("--strategy", choices=STRATEGY_KINDS, default="driftgan",
                     help="strategy to evaluate (default: driftgan)")
    run.add_argument("--ground-truth", type=Path, default=None,
                     help="ground-truth JSON for detection scoring")
    _add_common(run)

    compare = sub.add_parser("compare", help="several strategies on one dataset")
    compare.add_argument("--dataset", type=Path, required=True)
    compare.add_argument("--format", choices=("auto", "csv", "arff"),
                         default="auto")
    compare.add_argument("--strategies", default="all",
                         help="comma-separated strategy kinds or 'all' "
                              "(default: all)")
    compare.add_argument("--ground-truth", type=Path, default=None)
    _add_common(compare)

    synth = sub.add_parser("synth", help="write a synthetic recurring stream")
    synth.add_argument("--order", default="A,B,A",
                       help="comma-separated concept letters A-D "
                            "(default: A,B,A)")
    synth.add_argument("--len", dest="segment_len", type=int, default=2000,
                       help="length of every segment (default: 2000)")
    synth.add_argument("--noise", type=float, default=0.5,
                       help="per-feature Gaussian noise sigma (default: 0.5)")
    synth.add_argument("--name", default="synthetic",
                       help="output file stem (default: synthetic)")
    synth.add_argument("--seed", type=int, default=0,
                       help="random seed (default: 0)")
    synth.add_argument("--out", type=Path, default=Path("."),
                       help="output directory (default: current directory)")
    parser.command_parsers = {"run": run, "compare": compare, "synth": synth}
    return parser


def _apply_config_file(args, parser):
    """Fill values from a key=value file for flags left at their defaults."""
    if getattr(args, "config", None) is None:
        return args
    overrides = {}
    for line_no, raw in enumerate(args.config.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{args.config}:{line_no}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        overrides[key.replace("-", "_")] = value
    if not overrides:
        return args
    # flags win: re-parse with file values as the subcommand's defaults,
    # converting through each argument's declared type
    subparser = parser.command_parsers[args.command]
    actions = {action.dest: action for action in subparser._actions}
    defaults = {}
    for key, value in overrides.items():
        if key == "lambda":
            key = "historical_fraction"
        action = actions.get(key)
        if action is None:
            raise UsageError(f"unknown config key {key!r}")
        try:
            defaults[key] = action.type(value) if action.type else value
        except ValueError:
            raise UsageError(f"bad value for config key {key!r}: {value!r}") \
                from None
    subparser.set_defaults(**defaults)
    return parser.parse_args(args._argv)


def _detector_config(args) -> DetectorConfig:
    config = DetectorConfig(
        rho=args.rho,
        batch_size=args.batch_size,
        seq_len=args.seq_len,
        historical_fraction=args.historical_fraction,
        seed=args.seed,
    )
    try:
        config.validate()
    except ValueError as err:
        raise UsageError(str(err)) from None
    return config


def _load_ground_truth(args, meta):
    if getattr(args, "ground_truth", None) is None:
        return meta
    meta.change_points, meta.segment_concepts = streams.read_ground_truth(
        args.ground_truth)
    return meta


def cmd_compare(args) -> int:
    """Evaluate each requested strategy on the dataset, loaded once.

    ``run`` is the one-strategy case: it prints a one-line summary where
    ``compare`` writes and prints the comparison table.
    """
    if args.command == "run":
        kinds = [args.strategy]
    elif args.strategies == "all":
        kinds = list(STRATEGY_KINDS)
    else:
        kinds = [k.strip() for k in args.strategies.split(",") if k.strip()]
        if not kinds:
            raise UsageError("--strategies names no strategy")
    for kind in kinds:
        if kind not in STRATEGY_KINDS:
            raise UsageError(
                f"unknown strategy {kind!r}; choose from {STRATEGY_KINDS}"
            )
    if args.max_instances is not None and args.max_instances < 1:
        raise UsageError("--max-instances must be at least 1")
    if args.retrain_interval is not None and args.retrain_interval < 1:
        raise UsageError("--retrain-interval must be at least 1")
    instances, meta = streams.load(args.dataset, args.format, args.max_instances)
    meta = _load_ground_truth(args, meta)
    config = _detector_config(args)
    args.out.mkdir(parents=True, exist_ok=True)
    reports = []
    for kind in kinds:
        strategy = make_strategy(
            kind, meta.n_features, len(meta.label_alphabet), rho=args.rho,
            retrain_interval=args.retrain_interval, config=config,
        )
        report = evaluation.prequential_run(
            instances, strategy, dataset=str(args.dataset), metadata=meta
        )
        evaluation.write_report(report, args.out / f"report_{kind}.json")
        evaluation.write_drift_log(report.drift_events,
                                   args.out / f"drifts_{kind}.csv")
        log.info("%s: accuracy %.4f, %d drift events", kind, report.accuracy,
                 len(report.drift_events))
        reports.append(report)
    if args.command == "run":
        report = reports[0]
        print(f"{args.dataset} {args.strategy}: accuracy={report.accuracy:.4f} "
              f"drifts={len(report.drift_events)}")
        return EXIT_OK
    table = evaluation.compare_reports(reports)
    (args.out / "comparison.csv").write_text(table)
    print(table, end="")
    return EXIT_OK


def cmd_synth(args) -> int:
    names = [n.strip() for n in args.order.split(",") if n.strip()]
    concepts = streams.default_concepts(noise=args.noise)
    for name in names:
        if name not in concepts:
            raise UsageError(
                f"unknown concept {name!r}; available: {sorted(concepts)}"
            )
    spec = streams.SyntheticSpec(concepts, names, [args.segment_len] * len(names))
    instances, meta = streams.synth_recurring(spec, args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    stream_path = args.out / f"{args.name}.csv"
    truth_path = args.out / f"{args.name}_ground_truth.json"
    streams.write_csv(instances, stream_path)
    streams.write_ground_truth(meta, truth_path)
    print(f"wrote {stream_path} and {truth_path} "
          f"({meta.n_instances} instances, change points {meta.change_points})")
    return EXIT_OK


def _setup_logging() -> None:
    level = os.environ.get("DRIFTBENCH_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    logging.basicConfig(
        level=levels.get(level, logging.ERROR),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
        args._argv = argv
        args = _apply_config_file(args, parser)
        if args.command == "synth":
            return cmd_synth(args)
        return cmd_compare(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
