"""End-to-end tests of the command-line interface."""

import json

import numpy as np
import pytest

import driftbench.cli as cli
from driftbench.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, build_parser, main
from driftbench.detector import DetectorConfig
from driftbench.streams import Stream, load_csv, write_csv


def synth_args(tmp_path, order="A,B", length=150, name="toy"):
    return ["synth", "--order", order, "--len", str(length),
            "--name", name, "--seed", "1", "--out", str(tmp_path)]


def test_synth_writes_stream_and_ground_truth(tmp_path, capsys):
    assert main(synth_args(tmp_path)) == EXIT_OK
    out = capsys.readouterr().out
    assert "toy.csv" in out
    instances, meta = load_csv(tmp_path / "toy.csv")
    assert meta.n_instances == 300
    truth = json.loads((tmp_path / "toy_ground_truth.json").read_text())
    assert truth["change_points"] == [150]
    assert truth["segment_concepts"] == ["A", "B"]


def test_synth_rejects_unknown_concept(tmp_path, capsys):
    assert main(synth_args(tmp_path, order="A,Q")) == EXIT_USAGE
    assert "unknown concept" in capsys.readouterr().err


def test_run_writes_report_and_drift_log(tmp_path, capsys):
    main(synth_args(tmp_path))
    code = main([
        "run", "--dataset", str(tmp_path / "toy.csv"),
        "--strategy", "regular_update", "--rho", "20",
        "--out", str(tmp_path / "results"),
    ])
    assert code == EXIT_OK
    assert "accuracy=" in capsys.readouterr().out
    report = json.loads(
        (tmp_path / "results" / "report_regular_update.json").read_text()
    )
    assert report["strategy"] == "regular_update"
    assert report["n_scored"] == 280
    assert (tmp_path / "results" / "drifts_regular_update.csv").exists()


def test_run_with_ground_truth_scores_detection(tmp_path):
    main(synth_args(tmp_path))
    main([
        "run", "--dataset", str(tmp_path / "toy.csv"),
        "--strategy", "initial_learn", "--rho", "20",
        "--ground-truth", str(tmp_path / "toy_ground_truth.json"),
        "--out", str(tmp_path / "results"),
    ])
    report = json.loads(
        (tmp_path / "results" / "report_initial_learn.json").read_text()
    )
    assert report["detection"]["missed"] == 1


def test_compare_writes_table(tmp_path, capsys):
    main(synth_args(tmp_path))
    code = main([
        "compare", "--dataset", str(tmp_path / "toy.csv"),
        "--strategies", "initial_learn,regular_update", "--rho", "20",
        "--out", str(tmp_path / "results"),
    ])
    assert code == EXIT_OK
    table = (tmp_path / "results" / "comparison.csv").read_text()
    lines = table.strip().splitlines()
    assert lines[0] == "dataset,strategy,accuracy,n_instances,drifts"
    assert len(lines) == 3
    assert "dataset,strategy" in capsys.readouterr().out


def test_compare_rejects_unknown_strategy(tmp_path, capsys):
    main(synth_args(tmp_path))
    code = main([
        "compare", "--dataset", str(tmp_path / "toy.csv"),
        "--strategies", "initial_learn,adwin",
    ])
    assert code == EXIT_USAGE
    assert "unknown strategy" in capsys.readouterr().err


@pytest.mark.parametrize("strategy, rho", [
    ("initial_learn", "3"), ("regular_retrain", "4")])
def test_gan_window_rule_binds_driftgan_alone(tmp_path, capsys, strategy,
                                              rho):
    # rho >= seq_len + 1 is a rule for the GAN's input sequences
    main(synth_args(tmp_path))
    code = main(["run", "--dataset", str(tmp_path / "toy.csv"),
                 "--strategy", strategy, "--rho", rho,
                 "--out", str(tmp_path / "results")])
    assert code == EXIT_OK
    code = main(["compare", "--dataset", str(tmp_path / "missing.csv"),
                 "--strategies", f"{strategy},driftgan", "--rho", rho,
                 "--out", str(tmp_path / "results")])
    assert code == EXIT_USAGE
    assert "rho must be at least seq_len + 1" in capsys.readouterr().err


def test_one_feature_stream_is_a_driftgan_runtime_error(tmp_path, capsys):
    rows = np.random.default_rng(0).normal(size=(150, 1))
    write_csv(Stream(rows, np.arange(len(rows)) % 2), tmp_path / "one.csv")
    code = main(["run", "--dataset", str(tmp_path / "one.csv"),
                 "--rho", "20", "--out", str(tmp_path / "results")])
    assert code == EXIT_RUNTIME
    assert "at least 2 features, got 1" in capsys.readouterr().err


def test_invalid_rho_is_usage_error(tmp_path, capsys):
    main(synth_args(tmp_path))
    code = main([
        "run", "--dataset", str(tmp_path / "toy.csv"),
        "--strategy", "initial_learn", "--rho", "0",
    ])
    assert code == EXIT_USAGE
    assert "rho" in capsys.readouterr().err


def test_malformed_ground_truth_is_runtime_error(tmp_path, capsys):
    main(synth_args(tmp_path))
    truth = tmp_path / "bad_truth.json"
    truth.write_text(json.dumps({"segment_concepts": ["A", "B"]}))
    code = main(["run", "--dataset", str(tmp_path / "toy.csv"),
                 "--strategy", "initial_learn", "--rho", "20",
                 "--ground-truth", str(truth), "--out", str(tmp_path)])
    assert code == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "change_points" in err
    assert "Traceback" not in err


def test_missing_dataset_is_runtime_error(tmp_path, capsys):
    code = main(["run", "--dataset", str(tmp_path / "nope.csv"),
                 "--strategy", "initial_learn"])
    assert code == EXIT_RUNTIME
    assert "error" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_config_file_supplies_defaults_and_flags_win(tmp_path):
    main(synth_args(tmp_path))
    config = tmp_path / "bench.conf"
    config.write_text("# defaults\nrho = 30\nmax-instances = 200\n")
    main([
        "run", "--dataset", str(tmp_path / "toy.csv"),
        "--strategy", "regular_update", "--config", str(config),
        "--rho", "50",  # flag overrides the file
        "--out", str(tmp_path / "results"),
    ])
    report = json.loads(
        (tmp_path / "results" / "report_regular_update.json").read_text()
    )
    assert report["params"]["rho"] == 50
    assert report["n_instances"] == 200  # file value applied


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    main(synth_args(tmp_path))
    config = tmp_path / "bench.conf"
    config.write_text("learning_rate = 0.1\n")
    code = main(["run", "--dataset", str(tmp_path / "toy.csv"),
                 "--config", str(config)])
    assert code == EXIT_USAGE
    assert "unknown config key" in capsys.readouterr().err


def test_help_lists_defaults(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--help"])
    # the detector's defaults are DetectorConfig's, stated there alone
    config = DetectorConfig()
    help_text = " ".join(capsys.readouterr().out.split())
    for phrase in (
        f"training window size (default: {config.rho})",
        f"consensus batch size (default: {config.batch_size})",
        f"generator input sequence length (default: {config.seq_len})",
        f"recurring drift (default: {config.historical_fraction})",
        f"random seed (default: {config.seed})",
    ):
        assert phrase in help_text
    args = parser.parse_args(["run", "--dataset", "x"])
    assert cli._detector_config(args) == config


def test_truncation_flag(tmp_path):
    main(synth_args(tmp_path))
    main([
        "run", "--dataset", str(tmp_path / "toy.csv"),
        "--strategy", "initial_learn", "--rho", "20",
        "--max-instances", "100", "--out", str(tmp_path / "results"),
    ])
    report = json.loads(
        (tmp_path / "results" / "report_initial_learn.json").read_text()
    )
    assert report["n_instances"] == 100


def test_max_instances_below_one_is_usage_error(tmp_path, capsys):
    main(synth_args(tmp_path))
    code = main([
        "run", "--dataset", str(tmp_path / "toy.csv"),
        "--strategy", "initial_learn", "--max-instances", "0",
    ])
    assert code == EXIT_USAGE
    assert "--max-instances" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--batch-size", "0", "argument --batch-size"),
    ("--seq-len", "0", "argument --seq-len"),
    ("--rho", "3", "rho must be at least seq_len + 1"),
    ("--lambda", "2", "argument --lambda"),
    ("--lambda", "nan", "argument --lambda"),
    ("--seed", "-1", "argument --seed"),
    ("--seed", "1.5", "argument --seed"),
])
def test_bad_detector_setting_is_usage_error_before_the_stream_loads(
        tmp_path, capsys, flag, value, message):
    code = main(["run", "--dataset", str(tmp_path / "missing.csv"),
                 flag, value, "--out", str(tmp_path / "results")])
    assert code == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("interval", ["0", "-1"])
def test_retrain_interval_below_one_is_usage_error(tmp_path, capsys, interval):
    main(synth_args(tmp_path))
    code = main([
        "run", "--dataset", str(tmp_path / "toy.csv"),
        "--strategy", "regular_retrain", "--rho", "20",
        "--retrain-interval", interval, "--out", str(tmp_path / "results"),
    ])
    assert code == EXIT_USAGE
    assert "--retrain-interval" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("strategies", [",", " , "])
def test_compare_naming_no_strategy_is_usage_error(tmp_path, capsys, strategies):
    main(synth_args(tmp_path))
    code = main([
        "compare", "--dataset", str(tmp_path / "toy.csv"),
        "--strategies", strategies, "--out", str(tmp_path / "results"),
    ])
    assert code == EXIT_USAGE
    assert ("argument --strategies: expected comma-separated strategy kinds"
            in capsys.readouterr().err)
    assert not (tmp_path / "results").exists()


def parsed_with_config(tmp_path, monkeypatch, text, *flags):
    """The args ``run`` gets from a config file holding ``text``; no
    stream is read and no strategy runs."""
    config = tmp_path / "bench.conf"
    config.write_text(text)
    parsed = []
    monkeypatch.setattr(cli, "cmd_compare",
                        lambda args: parsed.append(args) or EXIT_OK)
    code = main(["run", "--dataset", str(tmp_path / "toy.csv"),
                 "--config", str(config), *flags])
    assert code == EXIT_OK
    return parsed[0]


def test_config_file_lambda_reaches_historical_fraction(tmp_path, monkeypatch):
    args = parsed_with_config(tmp_path, monkeypatch, "lambda = 0.5\n")
    assert args.historical_fraction == 0.5


def test_config_file_keys_are_read_as_their_flags(tmp_path, monkeypatch):
    # underscores stand for dashes, an unambiguous prefix names its flag,
    # and the command line wins over the file
    args = parsed_with_config(
        tmp_path, monkeypatch,
        "batch_size = 20\nmax = 120\nseed = 3\n", "--seed", "4")
    assert (args.batch_size, args.max_instances, args.seed) == (20, 120, 4)


@pytest.mark.parametrize("line, message", [
    ("rho = abc", "argument --rho: expected an integer >= 1, got 'abc'"),
    ("max-instances = 0", "argument --max-instances"),
    ("lambda = 2", "argument --lambda"),
    ("seed = -1", "argument --seed"),
    ("historical_fraction = 0.5", "unknown config key"),
    ("strategies = bogus", "argument --strategies: unknown strategy 'bogus'"),
    ("strategies = ,", "argument --strategies: expected comma-separated"),
])
def test_config_file_bad_value_is_usage_error_naming_the_file(
        tmp_path, capsys, line, message):
    config = tmp_path / "bench.conf"
    config.write_text(f"{line}\n")
    code = main(["compare", "--dataset", str(tmp_path / "toy.csv"),
                 "--config", str(config), "--out", str(tmp_path / "results")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ") and message in err
    assert not (tmp_path / "results").exists()


def test_config_file_line_without_equals_names_file_and_line(tmp_path, capsys):
    config = tmp_path / "bench.conf"
    config.write_text("# defaults\nrho 30\n")
    code = main(["run", "--dataset", str(tmp_path / "toy.csv"),
                 "--config", str(config)])
    assert code == EXIT_USAGE
    assert f"{config}:2: expected key=value" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--len", "0"), ("--order", ","), ("--noise", "-1"), ("--noise", "nan"),
    ("--seed", "-1"),
])
def test_synth_bad_value_is_usage_error_naming_the_flag(
        tmp_path, capsys, flag, value):
    code = main(["synth", flag, value, "--out", str(tmp_path / "data")])
    assert code == EXIT_USAGE
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "data").exists()
