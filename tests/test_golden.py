"""Golden outputs: the shipped runs of ``scripts/reproduce_results.py``, and ``fuse`` decision records
on fixed streams over their exp3 models, reproduce byte for byte.

The digests were recorded with numpy 2.4.6; those of exp2, exp3 and the
convergence table are of the run stream layout (one generator per run and
key, trial t reading row t). exp1 is left out because its KDE
goes through ``np.exp``, whose SIMD paths may differ in the last bit between
builds.
"""
import hashlib
import json

import pytest

from attrfuse.cli import main

GOLDEN = {
    ("exp2", "exp2_error_curve.csv"): "a8242a1629c5fcb0dd3b4accd916cab3c0b6326b2c53f359794d3cd88c24c291",
    ("exp3", "exp3_accuracy.csv"): "5053f920e80dddb1720c44ef4292aeaf42b27b8cc6bf0afc401e3e1337b2359b",
    ("theorems", "theorem_convergence.csv"): "f96c82350ef7d5a08907c0e9e849c1c41cfd4ba520d1d928b515b7d26d668cb1",
    ("exp3", "models.json"): "a3a56014be2d5a886ee7ada46efc1bcc3ec02fd1b9f18bfd69c0e19d97b38521",
    ("fuse", "mixed_seed0.json"): "cf1506c6582bba5fe0fe8561c2955693d5db756bb9e99d9bbff6f9dece350aac",
    ("fuse", "tie_seed0.json"): "88e0f2afd1b36841208510392345c7a96fb6893f6c7304a290163ce5ad9146e5",
    ("fuse", "tie_seed1.json"): "fce18d2743c4d7eb24585bcfa129ca47193e44487769ab051a19eb64ac49812e",
}

# Observation streams over the exp3 models written by the calibrate run; the
# comments name what each line exercises in those models.
FUSE_STREAMS = {
    "mixed": """attribute,bin,score
# uncertain: between the two thresholds of a reliable bin
plane surface,2,17.0
red color,4,17.0
# unreliable bins are discarded whatever the score
box shape,3,1.0
wide mouth bottle shape,2,40.0
# a score exactly at the threshold goes positive
cylinder,2,18.35942346990101
# a predictive value of exactly 1 contradicts objects 1-6
bottle shape,0,10.0
# finite evidence among the survivors 7, 8 and 9
red color,2,25.0
blue color,3,10.0
yellow color,4,20.0
""",
    # objects 7, 8 and 9 share every adopted factor and their priors, so --seed picks the winner
    "tie": """attribute,bin,score
bottle shape,1,10.0
cylinder,1,30.0
box shape,3,5.0
red color,4,17.0
""",
}
# decision record -> (stream, --seed)
FUSE_RUNS = {"mixed_seed0.json": ("mixed", 0), "tie_seed0.json": ("tie", 0), "tie_seed1.json": ("tie", 1)}


@pytest.fixture(scope="module")
def reproduced(repo_root, tmp_path_factory):
    """The exp2, exp3, theorem and calibrate runs of ``scripts/reproduce_results.py``, then the ``fuse`` runs."""
    out = tmp_path_factory.mktemp("results")
    scenarios = repo_root / "scenarios"
    models = out / "exp3" / "models.json"
    jobs = [
        ["exp2", "--scenario", str(scenarios / "exp2.json"), "--trials", "2500", "--out", str(out / "exp2")],
        ["exp3", "--scenario", str(scenarios / "exp3.json"), "--trials", "1200", "--out", str(out / "exp3")],
        ["theorems", "--trials", "4000", "--seed", "99", "--out", str(out / "theorems")],
        ["calibrate", "--scenario", str(scenarios / "exp3.json"), "--out", str(models)],
    ]
    (out / "fuse").mkdir()
    for name, (stream, seed) in FUSE_RUNS.items():
        obs = out / "fuse" / f"{stream}.csv"
        obs.write_text(FUSE_STREAMS[stream])
        jobs.append([
            "fuse", "--catalog", str(repo_root / "catalogs" / "table1.json"), "--model", str(models),
            "--obs", str(obs), "--seed", str(seed), "--out", str(out / "fuse" / name),
        ])
    for argv in jobs:
        assert main(argv) == 0, argv
    return out


@pytest.mark.parametrize("run, name", sorted(GOLDEN))
def test_output_matches_golden_digest(reproduced, run, name):
    digest = hashlib.sha256((reproduced / run / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[(run, name)]


def test_fuse_streams_cover_their_cases(reproduced):
    """The golden streams discard lines, saturate, and leave a prior tie that the seed resolves."""
    mixed, *ties = (json.loads((reproduced / "fuse" / name).read_text()) for name in FUSE_RUNS)
    assert mixed["discarded_observations"] == 4 and mixed["adopted_observations"] == 5
    assert mixed["saturated"] and mixed["winner"] == "9" and mixed["tie_broken_by"] == "none"
    assert mixed["positive_counts"]["cylinder"] == 1
    for record in ties:
        assert record["tie_broken_by"] == "random" and record["candidates"] == ["7", "8", "9"]
    assert ties[0]["winner"] != ties[1]["winner"]
