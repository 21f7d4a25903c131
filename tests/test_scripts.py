"""The evidence scripts: ``scripts/compare_outputs.py`` and ``scripts/time_harnesses.py``.

Each script is imported from its file, as it runs from the command line.
"""
import importlib.util
import json

import pytest


def _load(repo_root, name):
    """``scripts/<name>.py`` as a module."""
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", repo_root / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def compare(repo_root):
    return _load(repo_root, "compare_outputs")


@pytest.fixture(scope="module")
def timing(repo_root):
    return _load(repo_root, "time_harnesses")


def output_tree(root):
    """A small output tree: a CSV, models and a manifest, one of them in a subdirectory."""
    (root / "exp2").mkdir(parents=True)
    (root / "exp2" / "exp2_error_curve.csv").write_text("K,method,error,halfwidth\n1,two_threshold,0.5,0.1\n")
    (root / "models.json").write_text('{"models": []}\n')
    manifest = {"experiment": "exp2", "seed": 0, "wall_s": 0.25, "scenario": str(root / "exp2.json")}
    (root / "exp2" / "manifest.json").write_text(json.dumps(manifest))
    (root / "notes.txt").write_text(str(root))  # neither a CSV, models nor a manifest: not compared
    return root


def test_identical_trees_have_no_differences(compare, tmp_path):
    a, b = output_tree(tmp_path / "a"), output_tree(tmp_path / "b")
    (b / "exp2" / "manifest.json").write_text((a / "exp2" / "manifest.json").read_text())
    (b / "notes.txt").write_text("other")
    assert compare.differences(a, b) == []


def test_a_changed_byte_and_a_file_in_one_tree_differ(compare, tmp_path):
    a, b = output_tree(tmp_path / "a"), output_tree(tmp_path / "b")
    csv = b / "exp2" / "exp2_error_curve.csv"
    csv.write_bytes(csv.read_bytes().replace(b"0.5", b"0.6"))
    (b / "extra.csv").write_text("x\n")
    assert compare.differences(a, b) == [
        f"extra.csv: only in {b}",
        "exp2/exp2_error_curve.csv: contents differ",
    ]


def test_manifests_differing_in_wall_time_and_scenario_path_only_are_equal(compare, tmp_path):
    a, b = output_tree(tmp_path / "a"), output_tree(tmp_path / "b")
    manifest = json.loads((a / "exp2" / "manifest.json").read_text())
    assert compare.differences(a, b) == []  # the trees' manifests name different scenario paths
    (b / "exp2" / "manifest.json").write_text(json.dumps({**manifest, "wall_s": 9.0}))
    assert compare.differences(a, b) == []
    (b / "exp2" / "manifest.json").write_text(json.dumps({**manifest, "seed": 1}))
    assert compare.differences(a, b) == ["exp2/manifest.json: key 'seed': 0 != 1"]


def test_manifests_of_two_stream_layouts_differ(compare, tmp_path):
    """A tree from the per-trial stream layout, whose manifests have no ``stream_layout``, is not equal to one from
    the run layout."""
    a, b = output_tree(tmp_path / "a"), output_tree(tmp_path / "b")
    manifest = json.loads((a / "exp2" / "manifest.json").read_text())
    (b / "exp2" / "manifest.json").write_text(json.dumps({**manifest, "stream_layout": "run"}))
    assert compare.differences(a, b) == ["exp2/manifest.json: key 'stream_layout': '<missing>' != 'run'"]
    (a / "exp2" / "manifest.json").write_text(json.dumps({**manifest, "stream_layout": "trial"}))
    assert compare.differences(a, b) == ["exp2/manifest.json: key 'stream_layout': 'trial' != 'run'"]


def test_main_exit_codes(compare, tmp_path, capsys):
    a, b = output_tree(tmp_path / "a"), output_tree(tmp_path / "b")
    assert compare.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == f"no differences between {a} and {b}\n"
    (b / "models.json").write_text("{}\n")
    assert compare.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out == "models.json: contents differ\n"
    assert compare.main([str(a)]) == 2
    assert compare.main([str(a), str(tmp_path / "missing")]) == 2
    assert compare.main([str(a), str(b / "models.json")]) == 2


def test_harnesses_build_and_run(timing, tmp_path):
    harnesses = timing.harnesses(tmp_path)
    assert {"fuse_tie", "fuse_10", "exact_recognition_suite_1000", "convergence_suite_4000"} <= set(harnesses)
    assert harnesses["fuse_tie"]() == 0 and harnesses["fuse_10"]() == 0
    decision = json.loads((tmp_path / "decision.json").read_text())
    assert decision["adopted_observations"] + decision["discarded_observations"] == 10
    assert harnesses["exact_recognition_suite_1000"]() == (1000, 1000)
