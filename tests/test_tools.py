"""Tests for the command lines under ``tools/``."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from driftbench.tree import HoeffdingTreeClassifier

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


def test_tree_digest_shows_a_threshold_moved_by_one_ulp():
    tool = load_round_digests()
    xs = np.linspace(-1.0, 1.0, 400)[:, None]
    tree = HoeffdingTreeClassifier(n_features=1, n_classes=2)
    tree.fit_many(xs, (xs[:, 0] > 0).astype(int))
    assert tree.n_nodes() > 1
    digest = tool.tree_digest(tree)
    assert tool.tree_digest(tree) == digest
    root = tree._root
    root.split_threshold = float(np.nextafter(root.split_threshold, np.inf))
    assert tool.tree_digest(tree) != digest
