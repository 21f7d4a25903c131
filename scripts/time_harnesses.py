#!/usr/bin/env python3
"""Time each acceptance harness in-process at its pinned size.

Prints one JSON object: the median wall time in seconds of three calls of
each harness, keyed by harness and size. The sizes are those of the
acceptance suite: convergence 4000 trials, exp3 1200, exp2 2500, exact
recognition 1000 cases. ``fuse_10000`` is ``attrfuse fuse`` through
``cli.main`` on a fixed 10^4-line stream in bin 1 over the exp3 models.
The scenario files are loaded, and the models and the stream written, once,
outside the timed calls.

    PYTHONPATH=src python scripts/time_harnesses.py
"""
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from attrfuse.classifier import save_models
from attrfuse.cli import main as attrfuse_main
from attrfuse.experiments import (
    convergence_suite,
    exact_recognition_suite,
    experiment2_threshold_comparison,
    experiment3_attribute_families,
)
from attrfuse.simulator import SCORE_STREAM, calibrate_scenario, derived_rng, draw_scores, load_scenario

REPO = Path(__file__).resolve().parents[1]
SEED = 99  # the theorem suites' seed in scripts/reproduce_results.py
REPEATS = 3
FUSE_LINES = 10_000


def fuse_argv(scenario, workdir: Path) -> list[str]:
    """``fuse`` arguments for a fixed stream of object 1 in bin 1, with the stream and the models written to ``workdir``."""
    models = workdir / "models.json"
    save_models(calibrate_scenario(scenario), scenario.catalog, models)
    rng = derived_rng(SEED, SCORE_STREAM)
    attrs = rng.integers(scenario.catalog.n_attributes, size=FUSE_LINES).tolist()
    scores = draw_scores(scenario, np.array([0]), attrs, [1] * FUSE_LINES, rng.standard_normal((1, FUSE_LINES)))[0]
    obs = workdir / "obs.csv"
    obs.write_text("".join(f"{scenario.catalog.attributes[i]},1,{s!r}\n" for i, s in zip(attrs, scores.tolist())))
    return [
        "fuse", "--catalog", str(REPO / "catalogs" / "table1.json"), "--model", str(models),
        "--obs", str(obs), "--out", str(workdir / "decision.json"),
    ]


def harnesses(workdir: Path):
    exp2 = load_scenario(REPO / "scenarios" / "exp2.json")
    exp3 = load_scenario(REPO / "scenarios" / "exp3.json")
    fuse = fuse_argv(exp3, workdir)
    return {
        "convergence_suite_4000": lambda: convergence_suite(4000, SEED),
        "experiment3_1200": lambda: experiment3_attribute_families(exp3, trials=1200),
        "experiment2_2500": lambda: experiment2_threshold_comparison(exp2, trials=2500),
        "exact_recognition_suite_1000": lambda: exact_recognition_suite(1000, SEED),
        f"fuse_{FUSE_LINES}": lambda: attrfuse_main(fuse),
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
