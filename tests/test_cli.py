import json
import platform
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attrfuse.catalog import ObjectCatalog
from attrfuse.classifier import make_synthetic_model, save_models
from attrfuse.cli import main


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "attrfuse" in capsys.readouterr().out


def test_calibrate_then_fuse(repo_root, tmp_path, capsys):
    model_path = tmp_path / "models.json"
    rc = main(["calibrate", "--scenario", str(repo_root / "scenarios" / "exp2.json"), "--out", str(model_path)])
    assert rc == 0
    assert model_path.exists()
    out = capsys.readouterr().out
    assert "reliable bins" in out

    # strongly positive scores for "box shape", clearly negative for the rest
    obs = tmp_path / "obs.csv"
    obs.write_text(
        "attribute,bin,score\n"
        "box shape,0,1.0\n"
        "box shape,0,2.0\n"
        "gable top carton shape,0,25.0\n"
        "wide mouth bottle shape,0,25.0\n"
        "cup shape,0,25.0\n"
        "bottle shape,0,25.0\n"
        "# a comment line\n"
    )
    decision_path = tmp_path / "decision.json"
    rc = main([
        "fuse",
        "--catalog", str(repo_root / "catalogs" / "exp2.json"),
        "--model", str(model_path),
        "--obs", str(obs),
        "--out", str(decision_path),
    ])
    assert rc == 0
    record = json.loads(decision_path.read_text())
    assert record["winner"] == "4"
    assert record["posterior"]["4"] > 0.9
    assert record["adopted_observations"] >= 1
    assert "box shape" in record["positive_counts"]


def test_fuse_rejects_malformed_lines(repo_root, tmp_path):
    model_path = tmp_path / "models.json"
    main(["calibrate", "--scenario", str(repo_root / "scenarios" / "exp2.json"), "--out", str(model_path)])
    obs = tmp_path / "obs.csv"
    obs.write_text("box shape,0\n")
    with pytest.raises(SystemExit):
        main([
            "fuse",
            "--catalog", str(repo_root / "catalogs" / "exp2.json"),
            "--model", str(model_path),
            "--obs", str(obs),
        ])


@pytest.fixture(scope="module")
def exp2_models(repo_root, tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "models.json"
    main(["calibrate", "--scenario", str(repo_root / "scenarios" / "exp2.json"), "--out", str(path)])
    return path


def _fuse(repo_root, model_path, obs):
    out = obs.with_suffix(".json")
    rc = main([
        "fuse",
        "--catalog", str(repo_root / "catalogs" / "exp2.json"),
        "--model", str(model_path),
        "--obs", str(obs),
        "--out", str(out),
    ])
    assert rc == 0
    return json.loads(out.read_text())


def test_fuse_header_after_comments(repo_root, exp2_models, tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    obs.write_text("# recorded on the bench\n\n  attribute,bin,score\nbox shape,0,1.0\n")
    record = _fuse(repo_root, exp2_models, obs)
    assert record["adopted_observations"] + record["discarded_observations"] == 1


@pytest.mark.parametrize(
    "line, message",
    [
        ("box shape,0,nan", "score must be finite"),
        ("box shape,0,inf", "score must be finite"),
        ("box shape,0,-inf", "score must be finite"),
        ("no such shape,0,1.0", "unknown attribute id 'no such shape'"),
        ("box shape,9,1.0", "unknown bin index 9"),
    ],
)
def test_fuse_located_input_errors(repo_root, exp2_models, tmp_path, line, message):
    obs = tmp_path / "obs.csv"
    obs.write_text(f"attribute,bin,score\n# comment\nbox shape,0,1.0\n{line}\n")
    with pytest.raises(SystemExit, match=f"^{re.escape(str(obs))}:4: {re.escape(message)}"):
        _fuse(repo_root, exp2_models, obs)


def test_fuse_reports_first_offending_line(repo_root, exp2_models, tmp_path):
    obs = tmp_path / "obs.csv"
    obs.write_text("box shape,0,1.0\ncup shape,0,25.0\nbox shape,9,1.0\nbox shape,0,2.0\ncup shape,0,nan\n")
    with pytest.raises(SystemExit, match=f"^{re.escape(str(obs))}:3: unknown bin index 9$"):
        _fuse(repo_root, exp2_models, obs)


def test_fuse_locates_adopted_constant_attribute(tmp_path):
    """Only adopted lines of a catalog-constant attribute stop the run, and the first one is named."""
    catalog = ObjectCatalog(("p", "q"), ("varies", "always"), np.array([[1, 1], [0, 1]]), np.array([0.5, 0.5]))
    catalog_path = tmp_path / "catalog.json"
    catalog_path.write_text(json.dumps({
        "objects": [{"id": "p", "prior": 0.5}, {"id": "q", "prior": 0.5}],
        "attributes": list(catalog.attributes),
        "matrix": catalog.matrix.tolist(),
    }))
    model_path = tmp_path / "models.json"
    save_models({i: make_synthetic_model(i, 0.9, 0.9) for i in (0, 1)}, catalog, model_path)
    obs = tmp_path / "obs.csv"
    # synthetic thresholds sit at 0 and 1: -1 is positive, 0.5 uncertain
    obs.write_text("varies,0,-1.0\nalways,0,0.5\nalways,0,-1.0\nalways,0,2.0\n")
    with pytest.raises(SystemExit, match=f"^{re.escape(str(obs))}:3: attribute index 1 is constant across the catalog"):
        main(["fuse", "--catalog", str(catalog_path), "--model", str(model_path), "--obs", str(obs)])


def test_fuse_reports_missing_obs_file(repo_root, exp2_models, tmp_path):
    obs = tmp_path / "absent.csv"
    with pytest.raises(SystemExit, match=f"^{re.escape(str(obs))}: cannot read observations"):
        _fuse(repo_root, exp2_models, obs)


def test_fuse_locates_non_utf8_line(repo_root, exp2_models, tmp_path):
    obs = tmp_path / "obs.csv"
    obs.write_bytes(b"attribute,bin,score\nbox shape,0,1.0\nbox shape,0,\xff\n")
    with pytest.raises(SystemExit, match=f"^{re.escape(str(obs))}:3: not UTF-8 text"):
        _fuse(repo_root, exp2_models, obs)


# near-miss observation lines beside arbitrary bytes, so the fuzz reaches every per-line check
_FUSE_LINE = st.binary(max_size=30) | st.builds(
    lambda attribute, bin_index, score: f"{attribute},{bin_index},{score}".encode(),
    st.sampled_from(["box shape", " cup shape ", "no such shape", "attribute", ""]) | st.text(max_size=6),
    st.integers(-2, 2) | st.text(max_size=3),
    st.floats() | st.text(max_size=5),
)


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(_FUSE_LINE, max_size=5), newline=st.sampled_from([b"\n", b"\r\n", b"\r"]))
def test_fuse_input_fuzz(repo_root, exp2_models, lines, newline):
    """Any bytes either fuse or end in a message located at the observation file, never a traceback."""
    obs = exp2_models.parent / "fuzz.csv"
    obs.write_bytes(newline.join(lines))
    try:
        _fuse(repo_root, exp2_models, obs)
    except SystemExit as exc:
        assert isinstance(exc.code, str) and exc.code.startswith(f"{obs}:"), exc.code


@pytest.mark.parametrize("command", ["calibrate", "fuse", "exp1", "exp2", "exp3", "theorems"])
def test_negative_seed_is_a_usage_error(repo_root, exp2_models, tmp_path, capsys, command):
    obs = tmp_path / "obs.csv"
    obs.write_text("box shape,0,1.0\n")
    args = {
        "calibrate": ["--scenario", str(repo_root / "scenarios" / "exp2.json"), "--out", str(tmp_path / "m.json")],
        "fuse": ["--catalog", str(repo_root / "catalogs" / "exp2.json"), "--model", str(exp2_models), "--obs", str(obs)],
        "theorems": ["--trials", "10"],
    }.get(command, ["--scenario", str(repo_root / "scenarios" / f"{command}.json"), "--trials", "10", "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as exc:
        main([command, *args, "--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: expected a non-negative integer, got '-1'" in capsys.readouterr().err


def test_fuse_reports_malformed_model_file(repo_root, exp2_models, tmp_path):
    raw = json.loads(exp2_models.read_text())
    del raw["models"][0]["bins"][0]["theta_pos"]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(raw))
    obs = tmp_path / "obs.csv"
    obs.write_text("box shape,0,1.0\n")
    with pytest.raises(SystemExit, match=f"^{re.escape(str(broken))}: attribute .*'theta_pos'"):
        _fuse(repo_root, broken, obs)


@pytest.mark.parametrize(
    "command, flag, content",
    [
        pytest.param("fuse", "--catalog", None, id="fuse-catalog-missing"),
        pytest.param("fuse", "--catalog", b"{not json", id="fuse-catalog-not-json"),
        pytest.param("fuse", "--catalog", b"\xff", id="fuse-catalog-not-utf8"),
        pytest.param(
            "fuse", "--catalog", b'{"objects": [{"id": "a", "prior": 0.5}], "attributes": ["x"], "matrix": [[1]]}',
            id="fuse-catalog-bad-priors",
        ),
        pytest.param("fuse", "--model", None, id="fuse-model-missing"),
        *(pytest.param(command, "--scenario", None, id=f"{command}-scenario-missing")
          for command in ("calibrate", "exp1", "exp2", "exp3")),
    ],
)
def test_missing_or_malformed_input_file_is_a_message(repo_root, exp2_models, tmp_path, command, flag, content):
    """A missing (``content`` None) or malformed input file ends in a message naming it, not a traceback."""
    path = tmp_path / "input.json"
    if content is not None:
        path.write_bytes(content)
    obs = tmp_path / "obs.csv"
    obs.write_text("box shape,0,1.0\n")
    args = {
        "fuse": {"--catalog": str(repo_root / "catalogs" / "exp2.json"), "--model": str(exp2_models), "--obs": str(obs)},
        "calibrate": {"--out": str(tmp_path / "m.json")},
    }.get(command, {"--trials": "10", "--out": str(tmp_path / "out")})
    args[flag] = str(path)
    with pytest.raises(SystemExit) as exc:
        main([command, *(word for pair in args.items() for word in pair)])
    assert isinstance(exc.value.code, str) and exc.value.code.startswith(f"{path}: "), exc.value.code


def test_exp1_cli(repo_root, tmp_path, capsys):
    out = tmp_path / "exp1"
    rc = main([
        "exp1", "--scenario", str(repo_root / "scenarios" / "exp1.json"),
        "--trials", "60", "--out", str(out),
    ])
    assert rc == 0
    assert (out / "exp1_kde.csv").exists()
    assert (out / "exp1_overlap.csv").exists()
    assert (out / "manifest.json").exists()
    assert "overlap" in capsys.readouterr().out


def test_exp2_cli(repo_root, tmp_path, capsys):
    out = tmp_path / "exp2"
    rc = main([
        "exp2", "--scenario", str(repo_root / "scenarios" / "exp2.json"),
        "--trials", "40", "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "exp2_error_curve.csv").read_text().splitlines()
    assert lines[0] == "K,method,error,halfwidth"
    methods = {line.split(",")[1] for line in lines[1:]}
    assert methods == {"two_threshold", "single_threshold", "two_threshold_random_tie"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["trials"] == 40
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    assert manifest["wall_s"] > 0
    assert "wall_s" not in (out / "exp2_error_curve.csv").read_text()


def test_exp3_cli(repo_root, tmp_path):
    out = tmp_path / "exp3"
    rc = main([
        "exp3", "--scenario", str(repo_root / "scenarios" / "exp3.json"),
        "--trials", "20", "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "exp3_accuracy.csv").read_text().splitlines()
    assert lines[0] == "bin,method,accuracy,halfwidth"
    assert len(lines) == 1 + 5 * 3


def test_theorems_cli(tmp_path, capsys):
    rc = main(["theorems", "--trials", "100", "--seed", "5", "--out", str(tmp_path / "th")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[PASS] exact recognition" in out
    assert "[PASS] convergence" in out
    assert (tmp_path / "th" / "theorem_convergence.csv").exists()
    manifest = json.loads((tmp_path / "th" / "manifest.json").read_text())
    assert manifest["experiment"] == "theorems" and manifest["wall_s"] > 0
    assert manifest["numpy"] == np.__version__
