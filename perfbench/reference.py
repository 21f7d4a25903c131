"""Machine-speed reference used to express every reported time at one fixed speed.

On a shared machine the same code runs tens of percent faster or slower from
one few-second stretch to the next, as other tenants come and go. A fixed
loop of the kinds of work attrfuse does (small numpy operations inside a
Python loop, a sort and a search, JSON encoding) runs after every op, once or,
after a long op, as often as fits in ``SHARE`` of its time. Each
op's latency is divided by its local slowdown: the mean of the reference
times just before and just after it, over ``NOMINAL_S``. Reported times are
therefore times at the speed at which the loop takes exactly 1 ms. The loop
shares no code with attrfuse; ``check_reference.py`` tests that a change to
attrfuse's op time or memory use does not move it.
"""
from __future__ import annotations

import gc
import json
import math
import statistics
import time

import numpy as np

NOMINAL_S = 1e-3
SHARE = 0.03  # the passes after an op take about this share of the op's time
MAX_PASSES = 25

_MASK = np.array([True, False] * 5)
_DATA = np.random.default_rng(0).normal(size=2000)


def run_once() -> float:
    """Wall time of one pass of the reference loop, in seconds.

    The garbage collector is off during the pass, so a collection sized by
    whatever the last op left live cannot land inside it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        weights = np.zeros(10)
        last = {}
        for i in range(150):
            weights = weights + np.where(_MASK, 0.1, -0.1)
            last[i % 7] = math.log(1.0 + i)
        np.searchsorted(np.sort(_DATA), _DATA)
        json.dumps({"weights": weights.tolist(), "last": last})
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def after_op(latency_s: float) -> float:
    """Median time of the passes run after an op of ``latency_s``: at least one, more for long ops.

    An untimed pass comes first, so the caches the op left cold, or the
    memory it left live, do not slow the timed ones.
    """
    run_once()
    passes = max(1, min(MAX_PASSES, int(SHARE * latency_s / NOMINAL_S)))
    return statistics.median(run_once() for _ in range(passes))


def slowdown(ref_times: list[float]) -> float:
    """Slowdown of the whole run against the nominal speed."""
    return statistics.median(ref_times) / NOMINAL_S


def local_slowdowns(ref_times: list[float]) -> list[float]:
    """Per-op slowdown: the mean reference time just before and just after the op, over the nominal time.

    ``ref_times`` holds one entry from before the first op, then one from after each op.
    """
    return [(before + after) / 2 / NOMINAL_S for before, after in zip(ref_times, ref_times[1:])]
