"""Seeded Philox streams: every harness's purposes and key layouts, and the tie-pick rule.

Every random number comes from a counter-based Philox stream (Salmon et
al., *Parallel random numbers: as easy as 1, 2, 3*, SC'11). The stream
``(s, purpose, ...)`` of a run seeded with ``s`` is the generator
:func:`derived_rng` builds from ``SeedSequence([s, purpose, ...])``, so
records are reproducible bit for bit. A run makes one generator per key;
in a harness with trials, trial ``t`` reads row ``t`` of one
``(trials, n)`` array call on it. The purposes, and the key layout of each
harness (``k`` a bin); a new purpose or layout gets its row here:

==================  ===========================  ==================================================================
harness             key                          draws
==================  ===========================  ==================================================================
calibration         ``(s, CALIBRATION_STREAM)``  every training score (``calibrate``, exp2, exp3)
exp1                ``(s, SCORE_STREAM, k)``     bin ``k``'s positive, then negative, KDE sample
exp2                ``(s, SCORE_STREAM)``        (trials, rounds x attributes) normals: trial ``t``'s test scores
exp2                ``(s, PICK_STREAM)``         (trials, checkpoints) uniforms: its tie picks, shared by both systems
exp3                ``(s, SCORE_STREAM, k)``     (trials, widest system's columns) normals in bin ``k``; each system
                                                 reads a prefix of a trial's row
exp3                ``(s, PICK_STREAM, k)``      (trials,) uniforms: a trial's tie pick in bin ``k``, every system's
convergence         ``(s, SCORE_STREAM)``        (trials, 2 x rounds) uniforms: trial ``t``'s outcomes
convergence         ``(s, PICK_STREAM)``         (trials, checkpoints) uniforms: its tie picks
exact recognition   ``(s, CASE_STREAM)``         every case, one array call per quantity (its prior ties pick the
                                                 first option: the winners are not read)
``fuse``            ``(s, PICK_STREAM)``         the decision's tie pick, ``integers(n)``
==================  ===========================  ==================================================================

Keys are per harness: two harnesses may share one, since no result mixes
two harnesses' draws. A trial's draws depend on the row width ``n``: row
``t`` starts where rows ``0..t-1`` end, so a change to a harness's columns
or checkpoints changes every trial after the first. A tie pick among ``n``
options from a uniform ``u`` in [0, 1) is ``⌊u·n⌋`` (:func:`uniform_picks`);
``fuse`` alone picks with ``Generator.integers``.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

# The purpose, the key's second entry: what a stream is for.
CALIBRATION_STREAM = 0
SCORE_STREAM = 1
PICK_STREAM = 2
CASE_STREAM = 3

# What every manifest records as ``stream_layout``: one generator per run and key, trial t reading row t.
STREAM_LAYOUT = "run"


def derived_rng(seed: int, *key: int) -> np.random.Generator:
    """Philox generator for the stream identified by (seed, *key)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), *map(int, key)])))


def uniform_picks(u: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The :func:`~attrfuse.fusion.decide` pick from uniforms ``u`` in [0, 1) (rows x checkpoints): row ``r``'s
    pick among its ``n`` options at checkpoint ``c`` is ``⌊u[r, c]·n⌋``."""
    return lambda rows, options: (u[rows].T * options).astype(np.int64)
