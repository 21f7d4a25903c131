import dataclasses
import json
import math
import platform
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attrfuse.catalog import ObjectCatalog, load_catalog
from attrfuse.classifier import load_models, save_models
from attrfuse.cli import _read_observations, main
from attrfuse.simulator import load_scenario
from attrfuse.streams import PICK_STREAM, derived_rng
from oracles import checked_observation_lines, make_synthetic_model
from test_golden import FUSE_STREAMS

BOM = b"\xef\xbb\xbf"


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


def _synthetic_fuse_inputs(tmp_path, objects, matrix, ppv):
    """A catalog of ``objects`` ((id, prior) pairs) over attributes a0, a1, ..., and synthetic models with ``ppv``."""
    attributes = [f"a{i}" for i in range(len(matrix[0]))]
    catalog_path = tmp_path / "catalog.json"
    catalog_path.write_text(json.dumps({
        "objects": [{"id": name, "prior": prior} for name, prior in objects],
        "attributes": attributes,
        "matrix": matrix,
    }))
    model_path = tmp_path / "models.json"
    models = {i: make_synthetic_model(i, ppv, 0.9) for i in range(len(attributes))}
    save_models(models, load_catalog(catalog_path), model_path)
    return ["fuse", "--catalog", str(catalog_path), "--model", str(model_path)]


def test_fuse_breaks_a_posterior_tie_by_the_prior(tmp_path, capsys):
    """One adopted positive at the predictive-value floor ties both objects, and the better prior wins."""
    # A (prior 0.4) has a0 and B (prior 0.6) lacks it, so a0's PPV floor is 0.5
    argv = _synthetic_fuse_inputs(tmp_path, [("A", 0.4), ("B", 0.6)], [[1], [0]], ppv=0.5)
    obs = tmp_path / "obs.csv"
    obs.write_text("a0,0,-1.0\n")  # synthetic thresholds sit at 0 and 1: -1 is positive
    assert main([*argv, "--obs", str(obs)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert (record["candidates"], record["winner"], record["tie_broken_by"]) == (["A", "B"], "B", "prior")
    assert record["posterior"] == pytest.approx({"A": 0.5, "B": 0.5}, abs=1e-12)
    assert (record["positive_counts"], record["negative_counts"], record["saturated"]) == ({"a0": 1}, {}, False)


def test_fuse_on_a_header_only_file_is_the_prior_decision(tmp_path, capsys):
    """No observation line sends a zero-width row through the engine: the equal priors tie, and the seeded pick decides."""
    argv = _synthetic_fuse_inputs(tmp_path, [("p", 0.5), ("q", 0.5)], [[1], [0]], ppv=0.9)
    obs = tmp_path / "obs.csv"
    obs.write_text("attribute,bin,score\n")
    winners = []
    for seed in [*range(8), 2**32, 2**64 + 5]:  # and seeds of two and three 32-bit words
        assert main([*argv, "--obs", str(obs), "--seed", str(seed)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record == {
            "winner": "pq"[derived_rng(seed, PICK_STREAM).integers(2)],
            "candidates": ["p", "q"],
            "tie_broken_by": "random",
            "posterior": {"p": 0.5, "q": 0.5},
            "adopted_observations": 0,
            "discarded_observations": 0,
            "positive_counts": {},
            "negative_counts": {},
            "saturated": False,
        }
        winners.append(record["winner"])
    assert set(winners) == {"p", "q"}


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


# headers, comments and blank lines, and lines whose bins and scores only Python's int and float parse
# (the exp2 models calibrate bin 0 alone)
_ODD_LINE = st.sampled_from([
    b"attribute,bin,score", b" attribute , bin,score\t", b"  # comment, with, commas", b"\t#", b"", b" ",
    b"box shape,0", b"box shape,0,1.5,2",  # two such lines hold 3 fields per line between them
]) | st.builds(
    lambda attribute, bin_index, score: f"{attribute},{bin_index},{score}".encode(),
    st.sampled_from(["box shape", " cup shape", "bottle shape"]),
    st.sampled_from(["0", "+0", "0_0", "\u0660", "-0", "0.0", "+1", "1_0", "\u0661"]),
    st.sampled_from(["infinity", "1_0.5", "-2.5", "\u0661.5", "-0.0", "3"]),
) | st.builds(  # fields padded by what strip() removes; "\x1f" is whitespace to strip() but not to int() or float()
    lambda fields, pads: ",".join(before + field + after for field, (before, after) in zip(fields, pads)).encode(),
    st.tuples(
        st.sampled_from(["box shape", "cup shape", "no such shape"]),
        st.sampled_from(["0", "+0", "1", "0.0"]),
        st.sampled_from(["1.5", "-2.5", "infinity"]),
    ),
    st.lists(st.tuples(*[st.sampled_from(["", " ", "\t", "\xa0", "\u3000", "\x1f"])] * 2), min_size=3, max_size=3),
)
_BREAK = st.sampled_from([b"\n", b"\r\n", b"\r", b"\x0c", "\x85".encode(), "\u2028".encode()])


@settings(max_examples=300, deadline=None)
@example(lines=[(b"box shape,0", b"\n"), (b"box shape,0,1.5,2", b"\n")], fuzz=[], bom=False, padded_id=False)
@example(lines=[(b"\x1fbox shape\x1f,\x1f0\x1f,\x1f1.5\x1f", b"\n")], fuzz=[], bom=False, padded_id=False)
@example(lines=[(b"box shape,0,1.5", b"\n"), (b" cup shape ,0,1.5", b"\n")], fuzz=[], bom=False, padded_id=True)
# a line without 3 fields is named before an earlier line's unknown bin (the exp2 models calibrate bin 0 alone)
@example(lines=[(b"box shape,9,1.0", b"\n"), (b"box shape,0", b"\n")], fuzz=[], bom=False, padded_id=False)
# a header line after the first observation is an observation line, and its bin does not parse
@example(lines=[(b"box shape,0,1.5", b"\n"), (b"attribute,bin,score", b"\n")], fuzz=[], bom=False, padded_id=False)
@given(
    lines=st.lists(st.tuples(_ODD_LINE, _BREAK), max_size=8),
    fuzz=st.lists(st.tuples(st.integers(0, 8), st.tuples(_FUSE_LINE, _BREAK)), max_size=2),
    bom=st.booleans(),
    padded_id=st.booleans(),
)
def test_columnar_reader_matches_line_reader(repo_root, exp2_models, lines, fuzz, bom, padded_id):
    """The columnar reader and checks give the line-by-line reference's rows, or its message.

    The one intended difference is the byte-order mark: a leading one is
    dropped, so the reference reads the bytes without it. With ``padded_id``
    the catalog's "cup shape" is " cup shape ", an id that no stripped field
    matches.
    """
    catalog = load_catalog(repo_root / "catalogs" / "exp2.json")
    models = load_models(exp2_models, catalog)
    if padded_id:
        catalog = dataclasses.replace(
            catalog, attributes=[f" {a} " if a == "cup shape" else a for a in catalog.attributes]
        )
    for position, line in fuzz:
        lines.insert(position, line)
    data = (BOM if bom else b"") + b"".join(line + newline for line, newline in lines)
    obs = exp2_models.parent / "differential.csv"

    def outcome(read):
        try:
            return [(n, i, k, score.hex()) for n, i, k, score in read()]
        except SystemExit as exc:
            return exc.code

    obs.write_bytes(data.removeprefix(BOM))
    expected = outcome(lambda: checked_observation_lines(obs, catalog, models))
    obs.write_bytes(data)

    def columnar():
        return zip(*(column.tolist() for column in _read_observations(obs, catalog, models)))

    assert outcome(columnar) == expected


def test_valid_files_never_enter_the_walk(repo_root, exp2_models, tmp_path, monkeypatch):
    """The columnar pass alone reads a valid file, odd spellings included: the line-by-line walk only names a bad
    line."""
    def walk(*args):
        raise AssertionError("a valid file entered the line-by-line walk")

    monkeypatch.setattr("attrfuse.cli._stop_at_first_bad_line", walk)
    exp3_models = tmp_path / "exp3_models.json"
    main(["calibrate", "--scenario", str(repo_root / "scenarios" / "exp3.json"), "--out", str(exp3_models)])
    table1, exp2 = (load_catalog(repo_root / "catalogs" / f"{name}.json") for name in ("table1", "exp2"))
    files = [(table1, load_models(exp3_models, table1), text) for text in FUSE_STREAMS.values()] + [
        (exp2, load_models(exp2_models, exp2), text) for text in (
            "\n# a comment, with, commas\nattribute,bin,score\n attribute , bin,score\t\n\nbox shape,0,1.5\n \n#\ncup shape,0,-2.5\n",
            "\x1fbox shape\xa0,\xa0+0\x1f,\x1f1.5\xa0\n\xa0cup shape,0_0,\x1f-2.5\nbottle shape,\u0660,3\n",
        )
    ]
    for catalog, models, text in files:
        obs = tmp_path / "obs.csv"
        obs.write_text(text)
        rows = list(zip(*(column.tolist() for column in _read_observations(obs, catalog, models))))
        assert rows == checked_observation_lines(obs, catalog, models) != [], text


@pytest.mark.parametrize(
    "text", [b"attribute,bin,score\nbox shape,0,1.0\n", b"box shape,0,1.0\n"], ids=["header", "data"]
)
def test_fuse_drops_a_leading_byte_order_mark(repo_root, exp2_models, tmp_path, text):
    obs = tmp_path / "obs.csv"
    obs.write_bytes(BOM + text)
    plain = tmp_path / "plain.csv"
    plain.write_bytes(text)
    record = _fuse(repo_root, exp2_models, obs)
    assert record["adopted_observations"] + record["discarded_observations"] == 1
    assert record == _fuse(repo_root, exp2_models, plain)


def test_fuse_locates_non_utf8_line_after_byte_order_mark(repo_root, exp2_models, tmp_path):
    obs = tmp_path / "obs.csv"
    obs.write_bytes(BOM + b"attribute,bin,score\nbox shape,0,1.0\nbox shape,0,\xff\n")
    with pytest.raises(SystemExit, match=f"^{re.escape(str(obs))}:3: not UTF-8 text"):
        _fuse(repo_root, exp2_models, obs)


@pytest.mark.parametrize("trials", ["0", "-1"])
@pytest.mark.parametrize("command", ["exp1", "exp2", "exp3", "theorems"])
def test_non_positive_trials_is_a_usage_error(repo_root, tmp_path, capsys, command, trials):
    scenario = repo_root / "scenarios" / f"{command}.json"
    args = [] if command == "theorems" else ["--scenario", str(scenario), "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main([command, *args, "--trials", trials])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --trials: expected a positive integer, got '{trials}'" in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_exp3_table_columns_line_up(repo_root, tmp_path, capsys):
    main(["exp3", "--scenario", str(repo_root / "scenarios" / "exp3.json"), "--trials", "5", "--out", str(tmp_path)])
    header, *rows = capsys.readouterr().out.splitlines()[:-1]  # the last line names the written CSV
    column = header.index("fine")
    assert len(rows) == 5
    for row in rows:
        assert row[column - 1].isspace() and not row[column].isspace(), row
        assert re.fullmatch(r"\d\.\d{4}", row[column:].split()[0]), row


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
    "bins, value",
    [
        pytest.param([2**70], 2**70, id="beyond-int64"),
        pytest.param([2**62, -2**62], 2**62, id="pair-code-overflows"),
        pytest.param([-1], -1, id="negative"),
    ],
)
def test_fuse_reports_bin_outside_engine_range(repo_root, exp2_models, tmp_path, capsys, bins, value):
    """A models file's bin must lie in [0, 2**31): the engine codes (attribute, bin) pairs in int64."""
    raw = json.loads(exp2_models.read_text())
    entry = raw["models"][0]
    entry["bins"] = [{**entry["bins"][0], "bin": k} for k in bins]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(raw))
    obs = tmp_path / "obs.csv"
    obs.write_text("".join(f"{entry['attribute']},{k},1.0\n" for k in bins))
    message = f"{broken}: attribute {entry['attribute']!r}: key 'bin' must be an integer in [0, 2**31), got {value}"
    with pytest.raises(SystemExit, match=f"^{re.escape(message)}$"):
        _fuse(repo_root, broken, obs)
    assert "Traceback" not in capsys.readouterr().err


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
        pytest.param(
            "fuse", "--catalog",
            b'{"objects": [{"id": "a", "prior": 0.5}, {"id": "b", "prior": 0.5}], "attributes": ["x"], "matrix": [[1], [0, 1]]}',
            id="fuse-catalog-ragged-matrix",
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


def _set_paths(raw, keys, value):
    """Set ``value`` at the key path ``keys`` of ``raw``; "*" stands for every key or index."""
    head, *rest = keys
    if head == "*":
        for each in (raw if isinstance(raw, dict) else range(len(raw))):
            _set_paths(raw, [each, *rest], value)
    elif rest:
        _set_paths(raw.setdefault(head, {}) if isinstance(raw, dict) else raw[head], rest, value)
    else:
        raw[head] = value


@pytest.mark.parametrize(
    "command, scenario, section, key, value",
    [
        ("calibrate", "exp2", "calibration", "target_ppv", 1.5),
        ("calibrate", "exp2", "calibration", "min_detection_rate", 2),
        ("exp2", "exp2", "calibration", "target_npv", 1.5),
        ("exp3", "exp3", "calibration", "n_pos_per_object", 0),
        ("calibrate", "exp2", "training_bias", "pos_std_scale", -1),
        ("exp1", "exp2", None, "bins", None),  # exp1 compares bins, and exp2.json has one
        ("exp3", "exp2", None, "families", None),  # exp2.json defines no attribute families
        ("exp3", "exp3", "catalog", "families", "gable top carton shape"),  # a family attribute every object has
        ("exp1", "exp1", "catalog", "kde_attribute", "bottle shape"),  # a KDE attribute every object has
        # score models whose draws are not finite: in calibration, after the training bias, in exp1 and in exp3's test
        pytest.param("calibrate", "exp3", None, "score_models", {("score_models", "gable top carton shape", "pos", 0, "std"): 1e308},
                     id="calibrate-training-std-overflows"),
        pytest.param("calibrate", "exp3", None, "score_models", {("training_bias", "pos_std_scale"): 1e308},
                     id="calibrate-biased-std-overflows"),
        pytest.param("exp1", "exp1", None, "score_models", {("score_models", "bottle shape", "pos", 1, "std"): 1e308},
                     id="exp1-std-overflows"),
        # finite exp1 draws too spread for the KDE grid: its step, then its span, beyond what the kernel can resolve
        pytest.param("exp1", "exp1", None, "score_models", {("score_models", "bottle shape", "pos", 1, "std"): 1e306},
                     id="exp1-kde-grid-too-coarse"),
        pytest.param("exp1", "exp1", None, "score_models", {("score_models", "bottle shape", "pos", 1, "std"): 4e307},
                     id="exp1-kde-grid-span-overflows"),
        pytest.param(
            "exp3", "exp3", None, "score_models",
            {("score_models", "*", "pos", "*", "std"): 1e308, ("training_bias", "pos_std_scale"): 1e-307},
            id="exp3-test-std-overflows",
        ),
    ],
)
def test_unusable_scenario_is_a_message(repo_root, tmp_path, command, scenario, section, key, value):
    """A scenario value that calibration or the experiment cannot use ends in a message naming the file and key.

    With ``section`` "catalog", the scenario reads a copy of its catalog in
    which every object has the attribute ``value``. A mapping ``value``
    sets the value at each of its key paths, where "*" stands for every
    key or index and a missing mapping is made on the way.
    """
    raw = json.loads((repo_root / "scenarios" / f"{scenario}.json").read_text())
    raw["catalog"] = str((repo_root / "scenarios" / raw["catalog"]).resolve())
    if section == "catalog":
        catalog = json.loads(Path(raw["catalog"]).read_text())
        for row in catalog["matrix"]:
            row[catalog["attributes"].index(value)] = 1
        raw["catalog"] = str(tmp_path / "catalog.json")
        Path(raw["catalog"]).write_text(json.dumps(catalog))
    elif isinstance(value, dict):
        for keys, number in value.items():
            _set_paths(raw, keys, number)
    elif section is not None:
        raw[section][key] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    trials = [] if command == "calibrate" else ["--trials", "10"]
    with pytest.raises(SystemExit) as exc:
        main([command, "--scenario", str(path), "--out", str(tmp_path / "out"), *trials])
    assert isinstance(exc.value.code, str) and exc.value.code.startswith(f"{path}: "), exc.value.code
    assert f"'{key}'" in exc.value.code


@pytest.mark.parametrize(
    "attribute, k",
    [("box shape", 2), ("box shape", 4), ("wide mouth bottle shape", 3), ("cup shape", 1), ("cup shape", 4),
     ("yellow color", 4)],
)
def test_calibrate_huge_finite_scores_to_finite_thresholds(repo_root, tmp_path, capsys, attribute, k):
    """Training draws near the float maximum calibrate without an overflow warning, to finite thresholds.

    At a ``pos`` spread of 1e308 these bins' draws all stay finite, but two
    of them sum beyond the float range, so a midpoint taken as ``0.5 * (a + b)``
    overflows (pytest turns the RuntimeWarning into an error).
    """
    raw = json.loads((repo_root / "scenarios" / "exp3.json").read_text())
    raw["catalog"] = str((repo_root / "scenarios" / raw["catalog"]).resolve())
    raw["score_models"][attribute]["pos"][k]["std"] = 1e308
    path, out = tmp_path / "scenario.json", tmp_path / "models.json"
    path.write_text(json.dumps(raw))
    assert main(["calibrate", "--scenario", str(path), "--out", str(out)]) == 0
    thresholds = [
        rec[key] for entry in json.loads(out.read_text())["models"] for rec in entry["bins"]
        for key in ("theta_pos", "theta_neg") if rec[key] is not None
    ]
    assert thresholds and all(math.isfinite(theta) for theta in thresholds)


@pytest.mark.parametrize("command", ["calibrate", "fuse", "exp1", "exp2", "exp3", "theorems"])
def test_unwritable_out_is_a_message(repo_root, exp2_models, tmp_path, command):
    """A file ``--out`` in a missing directory, or a directory ``--out`` that is a file, ends in a message."""
    if command in ("calibrate", "fuse"):
        out, reason = tmp_path / "missing" / "out.json", "No such file or directory"
    else:
        out, reason = tmp_path / "taken", "exists and is not a directory"
        out.write_text("")
    obs = tmp_path / "obs.csv"
    obs.write_text("box shape,0,1.0\n")
    args = {
        "calibrate": ["--scenario", str(repo_root / "scenarios" / "exp2.json")],
        "fuse": ["--catalog", str(repo_root / "catalogs" / "exp2.json"), "--model", str(exp2_models), "--obs", str(obs)],
        "theorems": ["--trials", "10"],
    }.get(command, ["--scenario", str(repo_root / "scenarios" / f"{command}.json"), "--trials", "10"])
    with pytest.raises(SystemExit) as exc:
        main([command, *args, "--out", str(out)])
    assert exc.value.code == f"{out}: cannot write output ({reason})"


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


def test_exp1_manifest_records_the_default_draw_counts(repo_root, tmp_path):
    """Without --trials exp1 draws the calibration counts per bin, which differ between the classes."""
    scenario = load_scenario(repo_root / "scenarios" / "exp1.json")
    has = scenario.catalog.matrix[:, scenario.kde_attribute]
    n_pos = scenario.calibration.n_pos_per_object * int(has.sum())
    n_neg = scenario.calibration.n_neg_per_object * int((has == 0).sum())
    assert n_pos != n_neg
    out = tmp_path / "exp1"
    assert main(["exp1", "--scenario", str(repo_root / "scenarios" / "exp1.json"), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["trials"], manifest["n_pos"], manifest["n_neg"]) == (n_pos, n_pos, n_neg)


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


def test_theorems_manifest_records_the_exact_suite(tmp_path):
    assert main(["theorems", "--trials", "50", "--seed", "7", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert (manifest["exact_cases"], manifest["exact_correct"]) == (1000, 1000)
