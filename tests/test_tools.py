"""Tests for the command lines under ``tools/``."""

import importlib.util
from pathlib import Path

import pytest

ROUND_DIGESTS = Path(__file__).resolve().parent.parent / "tools" / "round_digests.py"


def load_round_digests():
    spec = importlib.util.spec_from_file_location("round_digests", ROUND_DIGESTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv, value", [
    (["--seeds", "0,,1"], "'0,,1'"),
    (["--seeds", "0,x"], "'0,x'"),
    (["--seeds", "1,-1"], "'1,-1'"),
    (["--workloads", "recurring,,novel"], "'recurring,,novel'"),
    (["--workloads", "stationary,steady"], "['steady']"),
], ids=["empty-seed", "word-seed", "negative-seed", "empty-workload",
        "unknown-workload"])
def test_round_digests_refuses_a_malformed_list_before_any_round(
        monkeypatch, capsys, argv, value):
    tool = load_round_digests()
    monkeypatch.setattr(tool, "round_digests",
                        lambda *args: pytest.fail("ran a round"))
    with pytest.raises(SystemExit) as exit_:
        tool.main(argv)
    assert exit_.value.code == 2  # a usage error
    assert value in capsys.readouterr().err
