#!/usr/bin/env python3
"""Time each acceptance harness in-process at its pinned size.

Prints one JSON object: the median wall time in seconds of three calls of
each harness, keyed by harness and size. The sizes are those of the
acceptance suite: convergence 4000 trials, exp3 1200, exp2 2500, exact
recognition 1000 cases. The scenario files are loaded once,
outside the timed calls.

    PYTHONPATH=src python scripts/time_harnesses.py
"""
import json
import statistics
import sys
import time
from pathlib import Path

from attrfuse.experiments import (
    convergence_suite,
    exact_recognition_suite,
    experiment2_threshold_comparison,
    experiment3_attribute_families,
)
from attrfuse.simulator import load_scenario

REPO = Path(__file__).resolve().parents[1]
SEED = 99  # the theorem suites' seed in scripts/reproduce_results.py
REPEATS = 3


def harnesses():
    exp2 = load_scenario(REPO / "scenarios" / "exp2.json")
    exp3 = load_scenario(REPO / "scenarios" / "exp3.json")
    return {
        "convergence_suite_4000": lambda: convergence_suite(4000, SEED),
        "experiment3_1200": lambda: experiment3_attribute_families(exp3, trials=1200),
        "experiment2_2500": lambda: experiment2_threshold_comparison(exp2, trials=2500),
        "exact_recognition_suite_1000": lambda: exact_recognition_suite(1000, SEED),
    }


def wall_s(call) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    print(json.dumps({name: wall_s(call) for name, call in harnesses().items()}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
