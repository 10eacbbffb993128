"""Command-line interface: run / compare / synth subcommands.

``--config FILE`` (``run``, ``compare``) reads ``key = value`` lines and
skips blank lines and ``#`` comments. A key is a long flag without its
dashes, ``-`` or ``_`` between words (``rho``, ``batch_size``, ``lambda``),
and its line is read as ``--key=value`` put before the command line's
flags: converted and checked as on the command line, prefixes included,
and overridden by a flag given there. An unknown key, a line without
``=`` and a bad value are usage errors that name the file. A rule across
two settings (``driftgan``'s ``rho >= seq_len + 1``) is checked once
both are read, so its message names the settings, not the file.
"""

from __future__ import annotations

import argparse
import logging
import math
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


def _count(least: int):
    """Argparse type of the count, length and seed flags: an integer
    >= ``least``."""
    def parse(text: str) -> int:
        if not text.strip().isdecimal() or int(text) < least:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {least}, got {text!r}")
        return int(text)
    return parse


def _strategy_kinds(text: str) -> list[str]:
    """Argparse type of ``--strategies``: comma-separated kinds of
    ``STRATEGY_KINDS``, or ``all`` for every kind."""
    if text == "all":
        return list(STRATEGY_KINDS)
    kinds = [k.strip() for k in text.split(",") if k.strip()]
    if not kinds:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated strategy kinds or 'all', got {text!r}")
    for kind in kinds:
        if kind not in STRATEGY_KINDS:
            raise argparse.ArgumentTypeError(
                f"unknown strategy {kind!r}; choose from {STRATEGY_KINDS}")
    return kinds


def _unit_fraction(text: str) -> float:
    """Argparse type of ``--lambda``: a number in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value <= 1.0:  # NaN fails too
        raise argparse.ArgumentTypeError(
            f"expected a number in [0, 1], got {text!r}")
    return value


def _add_common(parser):
    parser.add_argument("--dataset", type=Path, required=True,
                        help="stream file: ARFF if named *.arff, else CSV")
    parser.add_argument("--ground-truth", type=Path,
                        help="ground-truth JSON for detection scoring")
    parser.add_argument("--rho", type=_count(1), default=DetectorConfig.rho,
                        help="training window size (default: %(default)s)")
    parser.add_argument("--batch-size", type=_count(1),
                        default=DetectorConfig.batch_size,
                        help="consensus batch size (default: %(default)s)")
    parser.add_argument("--seq-len", type=_count(1),
                        default=DetectorConfig.seq_len,
                        help="generator input sequence length "
                             "(default: %(default)s)")
    parser.add_argument("--lambda", dest="historical_fraction",
                        type=_unit_fraction,
                        default=DetectorConfig.historical_fraction,
                        help="fraction of stored historical data reused on a "
                             "recurring drift (default: %(default)s)")
    parser.add_argument("--retrain-interval", type=_count(1),
                        help="regular_retrain rebuild interval "
                             "(default: rho)")
    parser.add_argument("--max-instances", type=_count(1),
                        help="truncate the stream after this many instances "
                             "(default: no limit)")
    parser.add_argument("--seed", type=_count(0),
                        default=DetectorConfig.seed,
                        help="random seed (default: %(default)s)")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="output directory (default: current directory)")
    parser.add_argument("--config", type=Path,
                        help="flat key=value config file; flags override it")


def build_parser() -> _Parser:
    parser = _Parser(prog="driftbench",
                     description="GAN-based recurring-drift detection benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="one strategy on one dataset")
    run.add_argument("--strategy", choices=STRATEGY_KINDS, default="driftgan",
                     help="strategy to evaluate (default: driftgan)")
    _add_common(run)

    compare = sub.add_parser("compare", help="several strategies on one dataset")
    compare.add_argument("--strategies", type=_strategy_kinds, default="all",
                         help="comma-separated strategy kinds or 'all' "
                              "(default: all)")
    _add_common(compare)

    synth = sub.add_parser("synth", help="write a synthetic recurring stream")
    synth.add_argument("--order", default="A,B,A",
                       help="comma-separated concept letters A-D "
                            "(default: A,B,A)")
    synth.add_argument("--len", type=_count(1), default=2000,
                       help="length of every segment (default: 2000)")
    synth.add_argument("--noise", type=float, default=0.5,
                       help="per-feature Gaussian noise sigma (default: 0.5)")
    synth.add_argument("--name", default="synthetic",
                       help="output file stem (default: synthetic)")
    synth.add_argument("--seed", type=_count(0), default=0,
                       help="random seed (default: 0)")
    synth.add_argument("--out", type=Path, default=Path("."),
                       help="output directory (default: current directory)")
    return parser


def _config_flags(path) -> list[str]:
    """The ``--key=value`` flag each ``key = value`` line of a file names."""
    flags = []
    for line_no, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


def _parse_with_config(parser, argv, path):
    """Parse ``argv`` again with the file's flags after the command,
    ``argv[0]``: the top-level parser takes no options."""
    flags = _config_flags(path)
    try:
        args, unknown = parser.parse_known_args([argv[0], *flags, *argv[1:]])
    except UsageError as err:
        raise UsageError(f"{path}: {err}") from None
    if unknown:  # the command line parsed alone, so these are the file's
        key = unknown[0][2:].split("=", 1)[0]
        raise UsageError(f"{path}: unknown config key {key!r}")
    return args


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


def cmd_compare(args) -> int:
    """Evaluate each requested strategy on the dataset, loaded once.

    ``run`` is the one-strategy case: it prints a one-line summary where
    ``compare`` writes and prints the comparison table.
    """
    kinds = [args.strategy] if args.command == "run" else args.strategies
    # the GAN's settings bind driftgan alone
    config = _detector_config(args) if "driftgan" in kinds else None
    instances, meta = streams.load(args.dataset, args.max_instances)
    if args.ground_truth is not None:
        meta.change_points, meta.segment_concepts = streams.read_ground_truth(
            args.ground_truth)
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
    if not 0.0 <= args.noise < math.inf:  # NaN fails the comparison too
        raise UsageError("--noise must be a finite number >= 0")
    names = [n.strip() for n in args.order.split(",") if n.strip()]
    spec = streams.SyntheticSpec(streams.default_concepts(noise=args.noise),
                                 names, [args.len] * len(names))
    try:
        spec.validate()  # no concept, or an unknown one
    except ValueError as err:
        raise UsageError(f"--order: {err}") from None
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
        if getattr(args, "config", None) is not None:
            args = _parse_with_config(parser, argv, args.config)
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
