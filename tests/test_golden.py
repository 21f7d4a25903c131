"""Golden outputs: the shipped runs of ``scripts/reproduce_results.py`` reproduce byte for byte.

The digests were recorded with numpy 2.4.6. exp1 is left out because its KDE
goes through ``np.exp``, whose SIMD paths may differ in the last bit between
builds.
"""
import hashlib

import pytest

from attrfuse.cli import main

GOLDEN = {
    ("exp2", "exp2_error_curve.csv"): "852eb2d2c01f9a8b9b6f063e959f66b67e81b9bc937f4d7512e2a4d401457065",
    ("exp3", "exp3_accuracy.csv"): "c51d1f630598ff0e6d6eb02c62e09c14098920b1fb426c4ad492bc017138741b",
    ("theorems", "theorem_convergence.csv"): "57ecf57f35b29abf8001dfb1fe9a4372ca55509406f470ceb80dbccfd4555882",
    ("exp3", "models.json"): "a3a56014be2d5a886ee7ada46efc1bcc3ec02fd1b9f18bfd69c0e19d97b38521",
}


@pytest.fixture(scope="module")
def reproduced(repo_root, tmp_path_factory):
    """The exp2, exp3, theorem and calibrate runs of ``scripts/reproduce_results.py``."""
    out = tmp_path_factory.mktemp("results")
    scenarios = repo_root / "scenarios"
    jobs = [
        ["exp2", "--scenario", str(scenarios / "exp2.json"), "--trials", "2500", "--out", str(out / "exp2")],
        ["exp3", "--scenario", str(scenarios / "exp3.json"), "--trials", "1200", "--out", str(out / "exp3")],
        ["theorems", "--trials", "4000", "--seed", "99", "--out", str(out / "theorems")],
        ["calibrate", "--scenario", str(scenarios / "exp3.json"), "--out", str(out / "exp3" / "models.json")],
    ]
    for argv in jobs:
        assert main(argv) == 0, argv
    return out


@pytest.mark.parametrize("run, name", sorted(GOLDEN))
def test_output_matches_golden_digest(reproduced, run, name):
    digest = hashlib.sha256((reproduced / run / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[(run, name)]
