#!/usr/bin/env python3
"""Time each acceptance harness in-process at its pinned size.

Prints one JSON object: the median wall time in seconds of three calls of
each harness, keyed by harness and size. The sizes are those of the
acceptance suite: convergence 4000 trials, exp3 1200, exp2 2500, exact
recognition 1000 cases; ``experiment3_90`` is exp3 at 90 trials, the size of
one perfbench ``exp3_families`` op, where the per-bin fixed costs weigh most;
``experiment1_10000`` is exp1 at the 10^4 draws per bin and class that
``scripts/reproduce_results.py`` asks for. ``fuse_10000``
is ``attrfuse fuse`` through ``cli.main`` on a fixed 10^4-line stream in
bin 1 over the exp3 models, and ``fuse_1000`` and ``fuse_10`` the same on
the stream's first 10^3 and 10 lines: ``fuse_10`` shows the per-call cost,
and the step from ``fuse_1000`` to ``fuse_10000`` the per-line cost of the
observation reader. ``fuse_tie`` is the same call on the four-line ``tie`` stream
of ``tests/test_golden.py`` at ``--seed 0``: objects 7, 8 and 9 tie in the
posterior and the prior, so the call builds the pick generator and draws
the seeded pick, which no line of the other three streams reaches. ``calibrate_exp3`` is
``attrfuse calibrate`` through ``cli.main`` on the exp3 scenario: it loads
the scenario, draws the training sets, calibrates every bin and writes the
models. ``calibrate_exp3_x10`` is the same on a copy of the exp3 scenario
with 10x its per-object training counts, where each of the 50 calibrated
sets holds 1800 scores. ``draw_training_sets_exp3_x10`` is one
``draw_training_sets`` call on that copy: the training draw alone, 90,000
scores. ``load_catalog_table1``, ``load_scenario_exp3`` and
``load_models_exp3`` are one call of each loader on the shipped table 1
catalog, the shipped exp3 scenario and the models calibrated from it, the
files every ``fuse`` and ``calibrate`` call reads, and ``save_models_exp3``
is one call of the writer on those models. The scenario files are
loaded, and the models, the streams and the scenario copy written, once,
outside the timed calls; every timed call writes into one temporary
directory.

    PYTHONPATH=src python scripts/time_harnesses.py
"""
import contextlib
import functools
import io
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from attrfuse.catalog import load_catalog
from attrfuse.classifier import load_models, save_models
from attrfuse.cli import main as attrfuse_main
from attrfuse.experiments import (
    convergence_suite,
    exact_recognition_suite,
    experiment1_distribution_shift,
    experiment2_threshold_comparison,
    experiment3_attribute_families,
)
from attrfuse.simulator import calibrate_scenario, draw_scores, draw_training_sets, load_scenario
from attrfuse.streams import SCORE_STREAM, derived_rng

REPO = Path(__file__).resolve().parents[1]
SEED = 99  # the theorem suites' seed in scripts/reproduce_results.py
REPEATS = 3
FUSE_LINES = (10, 1_000, 10_000)
# the golden ``tie`` stream: its adopted lines leave objects 7, 8 and 9 tied, and --seed picks the winner
TIE_STREAM = """attribute,bin,score
bottle shape,1,10.0
cylinder,1,30.0
box shape,3,5.0
red color,4,17.0
"""


def fuse_argvs(scenario, workdir: Path) -> dict[str, list[str]]:
    """``fuse`` arguments by harness name: per length, the leading lines of one fixed stream of object 1 in bin 1,
    and the ``tie`` stream at ``--seed 0``.

    The streams and the models are written to ``workdir``.
    """
    models = workdir / "models.json"
    save_models(calibrate_scenario(scenario), scenario.catalog, models)
    n_lines = max(FUSE_LINES)
    rng = derived_rng(SEED, SCORE_STREAM)
    attrs = rng.integers(scenario.catalog.n_attributes, size=n_lines).tolist()
    scores = draw_scores(scenario, np.array([0]), attrs, [1] * n_lines, rng.standard_normal((1, n_lines)))[0]
    lines = [f"{scenario.catalog.attributes[i]},1,{s!r}\n" for i, s in zip(attrs, scores.tolist())]
    streams = {f"fuse_{n}": "".join(lines[:n]) for n in FUSE_LINES} | {"fuse_tie": TIE_STREAM}
    argvs = {}
    for name, text in streams.items():
        obs = workdir / f"{name}.csv"
        obs.write_text(text)
        argvs[name] = [
            "fuse", "--catalog", str(REPO / "catalogs" / "table1.json"), "--model", str(models),
            "--obs", str(obs), "--seed", "0", "--out", str(workdir / "decision.json"),
        ]
    return argvs


def scaled_exp3(scale: int, workdir: Path) -> Path:
    """A copy of the exp3 scenario in ``workdir`` with ``scale`` times its per-object training counts."""
    path = REPO / "scenarios" / "exp3.json"
    raw = json.loads(path.read_text())
    raw["catalog"] = str((path.parent / raw["catalog"]).resolve())
    for key in ("n_pos_per_object", "n_neg_per_object"):
        raw["calibration"][key] *= scale
    copy = workdir / f"exp3_x{scale}.json"
    copy.write_text(json.dumps(raw))
    return copy


def quiet(argv: list[str]) -> int:
    """``cli.main(argv)`` with what it prints discarded, so that stdout holds only the timings."""
    with contextlib.redirect_stdout(io.StringIO()):
        return attrfuse_main(argv)


def harnesses(workdir: Path):
    exp1 = load_scenario(REPO / "scenarios" / "exp1.json")
    exp2 = load_scenario(REPO / "scenarios" / "exp2.json")
    exp3 = load_scenario(REPO / "scenarios" / "exp3.json")
    fuse = fuse_argvs(exp3, workdir)
    exp3_x10 = scaled_exp3(10, workdir)
    exp3_models = load_models(workdir / "models.json", exp3.catalog)
    return {
        "convergence_suite_4000": lambda: convergence_suite(4000, SEED),
        "experiment3_1200": lambda: experiment3_attribute_families(exp3, trials=1200),
        "experiment3_90": lambda: experiment3_attribute_families(exp3, trials=90),
        "experiment2_2500": lambda: experiment2_threshold_comparison(exp2, trials=2500),
        "exact_recognition_suite_1000": lambda: exact_recognition_suite(1000, SEED),
        "experiment1_10000": lambda: experiment1_distribution_shift(exp1, n_pos=10_000, n_neg=10_000),
        **{name: functools.partial(attrfuse_main, argv) for name, argv in fuse.items()},
        "calibrate_exp3": functools.partial(
            quiet,
            ["calibrate", "--scenario", str(REPO / "scenarios" / "exp3.json"), "--out", str(workdir / "calibrated.json")],
        ),
        "calibrate_exp3_x10": functools.partial(
            quiet,
            ["calibrate", "--scenario", str(exp3_x10), "--out", str(workdir / "calibrated.json")],
        ),
        "draw_training_sets_exp3_x10": functools.partial(draw_training_sets, load_scenario(exp3_x10)),
        "load_catalog_table1": functools.partial(load_catalog, REPO / "catalogs" / "table1.json"),
        "load_scenario_exp3": functools.partial(load_scenario, REPO / "scenarios" / "exp3.json"),
        "load_models_exp3": functools.partial(load_models, workdir / "models.json", exp3.catalog),  # fuse_argvs saved it
        "save_models_exp3": functools.partial(save_models, exp3_models, exp3.catalog, workdir / "saved.json"),
    }


def wall_s(call) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        times = {name: wall_s(call) for name, call in harnesses(Path(workdir)).items()}
    print(json.dumps(times, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
