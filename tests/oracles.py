"""Independent reference implementations used as test oracles.

Everything here is deliberately written with plain loops. The posterior and
calibration oracles use exact Fraction arithmetic and share no code with the
package under test. The one-observation loop that the batched engine and
``attrfuse fuse`` replaced (``sample_score`` -> ``make_observation`` ->
``update``) is kept as the reference the engine is compared against bit for
bit, with the one-row posterior (``counted_posterior``: counts -> ``tally``)
and the MAP tie rule (``decide``) it decided by. The line-by-line
observation reader and checks that ``attrfuse fuse`` ran before it read
columns are the reference for the columnar reader, and the one-case
exact-recognition path (``exact_recognition_cases``: a catalog,
``compute_stats`` and per-attribute floors per case, decided as one row by
``decide_codes``) is the reference for the padded pass, the case draw that
rebuilt every array in each redraw round (``reference_exact_draw``) is the
reference for the package's case draw, and the per-key loop
(``reference_tally``) is the reference for ``tally``'s integer hit
product and buffered sums. The code matrix that the convergence suite
counted through (``reference_convergence``: two ``np.select`` passes, then
``count_codes``) is the reference for its counts read off the uniforms. The per-pair candidate sweep
(``reference_sweep``: sorted classes counted with ``np.searchsorted``) and
the two pick rules on it are the reference for the batched calibration
sweep, record for record. The per-class ``Generator.normal`` loop
(``reference_class_scores``, ``reference_training_sets``) is the reference
for the one-call training draw, and ``json.dumps(..., indent=2)``
(``reference_models_text``) for the models writer. These references may import package
types (the models and scenarios they read), the
``factor_table``/``tally``/``map_log_weights`` sums, but none of the
batched code paths they check. ``make_synthetic_model`` builds the models
with stated predictive values that the posterior and theory tests feed
them, and ``factor_codes`` codes their outcomes as one engine row.
``fuse_pick`` is ``attrfuse fuse``'s tie pick, the one-row decisions' pick.
``pair_record`` is no reference: it calls a batched calibration on one pair.
"""
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

from attrfuse.catalog import ObjectCatalog, compute_stats
from attrfuse.classifier import BinCalibration, CalibrationError, ClassifierModel
from attrfuse import fusion
from attrfuse.fusion import TIE_RELATIVE_TOLERANCE, factor_table, map_log_weights, tally
from attrfuse.simulator import _not_finite
from attrfuse.streams import PICK_STREAM, SCORE_STREAM, derived_rng, uniform_picks
from attrfuse.theory import predictive_value_floors


def posterior_oracle(priors, matrix, observations, ppv, npv):
    """Exact direct-product posterior over objects.

    priors: per-object floats; matrix: list of 0/1 rows; observations:
    (attribute_index, outcome) pairs; ppv/npv: per-attribute floats. Floats
    are converted exactly via Fraction, so the result is exact for the given
    binary-float inputs. Uncertain observations contribute a factor of 1.
    """
    n_objects = len(priors)
    weights = [Fraction(p) for p in priors]
    for i, outcome in observations:
        if outcome == "uncertain":
            continue
        w = sum(Fraction(priors[j]) for j in range(n_objects) if matrix[j][i] == 1)
        for j in range(n_objects):
            has = matrix[j][i] == 1
            if outcome == "positive":
                p = Fraction(ppv[i])
                factor = p / w if has else (1 - p) / (1 - w)
            else:
                p = Fraction(npv[i])
                factor = (1 - p) / w if has else p / (1 - w)
            weights[j] *= factor
    total = sum(weights)
    return [float(x / total) for x in weights]


def threshold_candidates(values):
    distinct = sorted(set(float(v) for v in values))
    cands = [distinct[0] - 1.0]
    for a, b in zip(distinct, distinct[1:]):
        cands.append((a + b) / 2.0)
    cands.append(distinct[-1] + 1.0)
    return cands


def calibrate_oracle(pos, neg, target_ppv=0.96, target_npv=0.96, min_detection_rate=0.09):
    """Loop-based replica of the two-threshold sweep contract.

    Returns (theta_pos, theta_neg, reliable) under lower-is-positive,
    including the midpoint re-anchoring of crossed sweeps.
    """
    pos = [float(x) for x in pos]
    neg = [float(x) for x in neg]
    cands = threshold_candidates(pos + neg)

    def pos_ok(theta):
        tp = sum(1 for x in pos if x <= theta)
        fp = sum(1 for x in neg if x <= theta)
        if tp + fp < 1:
            return False
        return tp / (tp + fp) >= target_ppv and tp / len(pos) >= min_detection_rate

    def neg_ok(theta):
        tn = sum(1 for x in neg if x >= theta)
        fn = sum(1 for x in pos if x >= theta)
        if tn + fn < 1:
            return False
        return tn / (tn + fn) >= target_npv and tn / len(neg) >= min_detection_rate

    neg_set = [c for c in cands if neg_ok(c)]
    theta_neg = min(neg_set) if neg_set else None
    pos_set = [c for c in cands if pos_ok(c) and (theta_neg is None or c <= theta_neg)]
    theta_pos = max(pos_set) if pos_set else None
    reliable = theta_pos is not None and theta_neg is not None
    return theta_pos, theta_neg, reliable


def bayes_threshold_oracle(pos, neg):
    """Loop-based replica of the min-error single threshold with its tie-break."""
    pos = [float(x) for x in pos]
    neg = [float(x) for x in neg]
    cands = threshold_candidates(pos + neg)
    errors = [sum(1 for x in pos if x > c) + sum(1 for x in neg if x <= c) for c in cands]
    best = min(errors)
    tied = [c for c, e in zip(cands, errors) if e == best]
    target = (tied[0] + tied[-1]) / 2.0
    return min(tied, key=lambda c: (abs(c - target), c)), best


def count_rates(pos, neg, theta_pos, theta_neg):
    """Exact counting of (ppv, detection, npv, true-negative) at given thresholds."""
    tp = sum(1 for x in pos if x <= theta_pos)
    fp = sum(1 for x in neg if x <= theta_pos)
    tn = sum(1 for x in neg if x >= theta_neg)
    fn = sum(1 for x in pos if x >= theta_neg)
    ppv = tp / (tp + fp) if tp + fp else None
    npv = tn / (tn + fn) if tn + fn else None
    return ppv, tp / len(pos), npv, tn / len(neg)


class ReferenceSweep(NamedTuple):
    """One pair's counts at every threshold candidate, as the per-pair sweep counted them."""

    flip: bool
    n_pos: int
    n_neg: int
    candidates: np.ndarray
    tp: np.ndarray
    fp: np.ndarray
    tn: np.ndarray
    fn: np.ndarray


def reference_sweep(pos_scores, neg_scores, orientation):
    """The per-pair candidate sweep that the batched ``classifier._sweeps`` replaced, with its checks.

    Candidates are midpoints between consecutive distinct oriented scores
    plus one sentinel beyond each extreme; the counts come from four
    ``np.searchsorted`` calls on the sorted classes.
    """
    pos = np.asarray(pos_scores, dtype=float).ravel()
    neg = np.asarray(neg_scores, dtype=float).ravel()
    if pos.size == 0 or neg.size == 0:
        raise CalibrationError("calibration needs at least one positive and one negative score")
    if not (np.isfinite(pos).all() and np.isfinite(neg).all()):
        raise CalibrationError("calibration scores must be finite")
    if orientation not in ("lower_is_positive", "higher_is_positive"):
        raise CalibrationError(f"unknown orientation {orientation!r}")
    flip = orientation == "higher_is_positive"
    p = np.sort(-pos if flip else pos)
    n = np.sort(-neg if flip else neg)
    distinct = np.unique(np.concatenate([p, n]))
    mids = 0.5 * (distinct[:-1] + distinct[1:])
    cands = np.concatenate(([distinct[0] - 1.0], mids, [distinct[-1] + 1.0]))
    return ReferenceSweep(
        flip=flip,
        n_pos=p.size,
        n_neg=n.size,
        candidates=cands,
        tp=np.searchsorted(p, cands, side="right").astype(float),
        fp=np.searchsorted(n, cands, side="right").astype(float),
        tn=(n.size - np.searchsorted(n, cands, side="left")).astype(float),
        fn=(p.size - np.searchsorted(p, cands, side="left")).astype(float),
    )


def reference_record(sweep, i_pos, i_neg):
    """The record with thresholds at candidates ``i_pos``/``i_neg`` (None: no threshold) of a reference sweep."""
    theta_pos = theta_neg = ppv = npv = None
    detection = false_positive = true_negative = false_negative = 0.0
    if i_pos is not None:
        theta_pos = float(sweep.candidates[i_pos])
        tp, fp = float(sweep.tp[i_pos]), float(sweep.fp[i_pos])
        detection, false_positive = tp / sweep.n_pos, fp / sweep.n_neg
        ppv = tp / (tp + fp) if tp + fp else None
    if i_neg is not None:
        theta_neg = float(sweep.candidates[i_neg])
        tn, fn = float(sweep.tn[i_neg]), float(sweep.fn[i_neg])
        true_negative, false_negative = tn / sweep.n_neg, fn / sweep.n_pos
        npv = tn / (tn + fn) if tn + fn else None
    if sweep.flip:
        theta_pos = None if theta_pos is None else -theta_pos
        theta_neg = None if theta_neg is None else -theta_neg
    return BinCalibration(
        theta_pos=theta_pos,
        theta_neg=theta_neg,
        ppv=ppv,
        npv=npv,
        detection_rate=detection,
        true_negative_rate=true_negative,
        false_positive_rate=false_positive,
        false_negative_rate=false_negative,
        reliable=ppv is not None and npv is not None,
    )


def reference_calibrate_bin(
    pos_scores, neg_scores, orientation="lower_is_positive", target_ppv=0.96, target_npv=0.96, min_detection_rate=0.09
):
    """The two-threshold record of one pair, picked on :func:`reference_sweep`: the most permissive NPV threshold,
    then the most permissive PPV threshold at or inside it. The reference for ``calibrate_bins``."""
    s = reference_sweep(pos_scores, neg_scores, orientation)
    if not 0.0 < target_ppv <= 1.0 or not 0.0 < target_npv <= 1.0:
        raise CalibrationError("predictive value targets must be in (0, 1]")
    if not 0.0 <= min_detection_rate <= 1.0:
        raise CalibrationError("min_detection_rate must be in [0, 1]")

    predicted_neg = s.tn + s.fn
    npv_at = np.divide(s.tn, predicted_neg, out=np.zeros_like(s.tn), where=predicted_neg > 0)
    qualifies_neg = (predicted_neg >= 1) & (npv_at >= target_npv) & (s.tn / s.n_neg >= min_detection_rate)
    i_neg = int(np.flatnonzero(qualifies_neg)[0]) if qualifies_neg.any() else None

    predicted_pos = s.tp + s.fp
    ppv_at = np.divide(s.tp, predicted_pos, out=np.zeros_like(s.tp), where=predicted_pos > 0)
    qualifies_pos = (predicted_pos >= 1) & (ppv_at >= target_ppv) & (s.tp / s.n_pos >= min_detection_rate)
    if i_neg is not None:
        qualifies_pos &= s.candidates <= s.candidates[i_neg]
    i_pos = int(np.flatnonzero(qualifies_pos)[-1]) if qualifies_pos.any() else None
    return reference_record(s, i_pos, i_neg)


def reference_single_threshold(pos_scores, neg_scores, orientation="lower_is_positive"):
    """The min-error single-threshold record of one pair, picked on :func:`reference_sweep` with the tie broken
    toward the midpoint of the tied candidates. The reference for ``single_threshold_calibrations``."""
    s = reference_sweep(pos_scores, neg_scores, orientation)
    errors = (s.n_pos - s.tp) + s.fp
    tied = np.flatnonzero(errors == errors.min())
    target = 0.5 * (s.candidates[tied[0]] + s.candidates[tied[-1]])
    i = int(tied[np.argmin(np.abs(s.candidates[tied] - target))])
    return reference_record(s, i, i)


def pair_record(calibrate, pos_scores, neg_scores, *args, **kwargs):
    """The record ``calibrate`` (``calibrate_bins`` or ``single_threshold_calibrations``) gives one pair of scores."""
    return calibrate([(pos_scores, neg_scores)], *args, **kwargs)[0]


def make_synthetic_model(attribute_index, ppv, npv, detection_rate=1.0, true_negative_rate=1.0):
    """Model with assumed predictive values in bin 0, for tests that draw outcomes directly.

    Thresholds are nominal (0 and 1), fitted to no scores. The false rates
    are those the predictive values imply under equal priors.
    """
    fp_rate = 0.0 if ppv >= 1.0 else detection_rate * (1.0 - ppv) / ppv
    fn_rate = 0.0 if npv >= 1.0 else true_negative_rate * (1.0 - npv) / npv
    cal = BinCalibration(
        theta_pos=0.0,
        theta_neg=1.0,
        ppv=float(ppv),
        npv=float(npv),
        detection_rate=float(detection_rate),
        true_negative_rate=float(true_negative_rate),
        false_positive_rate=float(fp_rate),
        false_negative_rate=float(fn_rate),
        reliable=True,
    )
    return ClassifierModel(attribute_index=attribute_index, orientation="lower_is_positive", calibrations={0: cal})


def factor_codes(observations):
    """(model, outcome) observations in bin 0 as one engine row: codes in observation order, and the sorted keys.

    Each adopted outcome's code indexes its (attribute, outcome, predictive
    value) key; an uncertain one gets the no-key code ``len(keys)``.
    """
    observed = []
    for model, outcome in observations:
        cal = model.calibrations[0]
        observed.append(None if outcome == "uncertain" else (model.attribute_index, outcome, cal.ppv if outcome == "positive" else cal.npv))
    keys = sorted({key for key in observed if key is not None})
    index = {key: n for n, key in enumerate(keys)}
    return np.array([[index.get(key, len(keys)) for key in observed]], dtype=np.intp), keys


def reference_exact_draw(rng: np.random.Generator, cases: int):
    """The exact-recognition case draw with every array built in each redraw round, and every repeat, repeat 0 too,
    resolved in the copy loop: the package's ``_draw_exact_cases`` must return the same arrays, dtypes included.

    Returns per case the 0/1 matrix (padded to 6 objects and 8 attributes),
    the raw priors (0 for an absent object), the ppv and npv uniforms, the
    ground truth and each attribute's observation count (0 for an absent one).
    """
    objects, attributes, repeat = np.arange(6), np.arange(8), np.arange(3)
    n_objects, n_attributes = rng.integers(2, 7, size=cases), rng.integers(3, 9, size=cases)
    present = attributes < n_attributes[:, None]
    columns = np.zeros((cases, 8), dtype=np.int64)
    pending = np.arange(cases)
    while pending.size:  # column codes uniform over the mixed columns, kept when the rows differ
        drawn = rng.integers(1, 2 ** n_objects[pending, None] - 1, size=(pending.size, 8))
        columns[pending] = np.where(present[pending], drawn, 0)
        rows = (columns[pending, None, :] >> objects[:, None] & 1) @ (1 << attributes)
        rows = np.sort(np.where(objects < n_objects[pending, None], rows, -1 - objects), axis=1)  # absent: distinct
        pending = pending[(rows[:, 1:] == rows[:, :-1]).any(axis=1)]
    priors = np.where(objects < n_objects[:, None], rng.uniform(0.05, 1.0, size=(cases, 6)), 0.0)
    uniforms = np.where(present[..., None], rng.uniform(0.02, 1.0, size=(cases, 8, 2)), 0.0)
    truth = rng.integers(n_objects)
    n_repeats = rng.integers(0, 4, size=cases)
    # repeat j copies observation source[:, j] of those before it: the attributes, then repeats 0 to j - 1
    source = rng.integers(n_attributes[:, None] + repeat)
    copied = np.zeros((cases, 3), dtype=np.int64)
    for j in repeat:
        earlier = copied[np.arange(cases), np.clip(source[:, j] - n_attributes, 0, 2)]
        copied[:, j] = np.where(source[:, j] < n_attributes, source[:, j], earlier)
    repeats = (copied[..., None] == attributes) & (repeat < n_repeats[:, None])[..., None]
    counts = present + repeats.sum(axis=1)
    return (columns[:, None, :] >> objects[:, None] & 1).astype(np.int8), priors, uniforms, truth, counts


def exact_recognition_cases(rng: np.random.Generator, cases: int):
    """The ``cases`` exact-recognition cases drawn from ``rng``, one at a time, as :func:`decide_codes` reads them.

    Yields (catalog, stats, keys, ground_truth, observed) per case of
    :func:`reference_exact_draw`. ``keys[i]`` is ``(i, outcome, value)``:
    the ground truth's outcome of attribute ``i`` and its ppv or npv, placed
    by the drawn uniform between the ``predictive_value_floors`` floor and 1.
    ``observed`` holds each attribute code once, then one more per repeat.
    """
    for matrix, priors, uniforms, truth, counts in zip(*reference_exact_draw(rng, cases)):
        n_objects, n_attributes = int((priors > 0).sum()), int((counts > 0).sum())
        raw = priors[:n_objects]
        catalog = ObjectCatalog(
            objects=tuple(f"object-{j}" for j in range(n_objects)),
            attributes=tuple(f"attr-{i}" for i in range(n_attributes)),
            matrix=matrix[:n_objects, :n_attributes],
            priors=raw / raw.sum(),
        )
        stats = compute_stats(catalog)
        floors = np.stack(predictive_value_floors(stats), axis=1)
        values = np.minimum(1.0, floors + uniforms[:n_attributes] * (1.0 - floors))
        ground_truth = int(truth)
        keys = [
            (i, "positive" if has else "negative", float(values[i, 1 - has]))
            for i, has in enumerate(catalog.matrix[ground_truth].tolist())
        ]
        attributes = np.arange(n_attributes)
        observed = np.concatenate([attributes, np.repeat(attributes, counts[:n_attributes] - 1)])
        yield catalog, stats, keys, ground_truth, observed


def decide_codes(codes, keys, catalog, stats, checkpoints, pick):
    """The engine's decisions of rows of codes into the sorted ``keys``: ``fusion.count_codes`` at ``checkpoints``,
    then ``fusion.decide`` on the catalog's key table and priors."""
    counts = fusion.count_codes(codes, len(keys), checkpoints)
    return fusion.decide(counts, factor_table(keys, stats), catalog.priors, pick)


def reference_convergence(trials, seed, k_checkpoints, ppv, npv, detection_rate, true_negative_rate):
    """The convergence suite through a code matrix: each uniform coded by two ``np.select`` passes, the codes
    counted by ``fusion.count_codes`` at the checkpoints and the counts decided by ``fusion.decide``.

    Returns the counts (checkpoints x trials x keys) and the error at each checkpoint.
    """
    catalog = ObjectCatalog(("first", "second"), ("mark-a", "mark-b"), np.array([[1, 0], [0, 1]]), np.array([0.5, 0.5]))
    q = 0.0 if ppv >= 1.0 else detection_rate * (1.0 - ppv) / ppv
    v = 0.0 if npv >= 1.0 else true_negative_rate * (1.0 - npv) / npv
    k_values = tuple(sorted(set(int(k) for k in k_checkpoints)))
    u = derived_rng(seed, SCORE_STREAM).random((trials, 2 * k_values[-1]))
    keys = sorted((i, outcome, float(ppv if outcome == "positive" else npv)) for i in (0, 1) for outcome in ("positive", "negative"))
    code = {key[:2]: n for n, key in enumerate(keys)}
    codes = np.empty(u.shape, dtype=np.intp)
    has, lacks = u[:, 0::2], u[:, 1::2]  # the ground truth, object 0, has attribute 0 and lacks attribute 1
    codes[:, 0::2] = np.select(
        [has < detection_rate, has < detection_rate + v], [code[0, "positive"], code[0, "negative"]], len(keys)
    )
    codes[:, 1::2] = np.select(
        [lacks < true_negative_rate, lacks < true_negative_rate + q], [code[1, "negative"], code[1, "positive"]], len(keys)
    )
    counts = fusion.count_codes(codes, len(keys), [2 * k for k in k_values])
    pick = uniform_picks(derived_rng(seed, PICK_STREAM).random((trials, len(k_values))))
    episodes = fusion.decide(counts, factor_table(keys, compute_stats(catalog)), catalog.priors, pick)
    return counts, (episodes.winners != 0).mean(axis=1)


def fuse_pick(seed):
    """``attrfuse fuse``'s tie pick as a ``fusion.decide`` pick: ``integers(n)`` on the stream ``(seed, PICK_STREAM)``."""
    return lambda rows, options: derived_rng(seed, PICK_STREAM).integers(options)


def reference_tally(log_prior, counts, table):
    """``tally`` as a loop over the keys in sorted order: each key's count times its zero-factor mask and its
    finite log row, added to the running sums."""
    zero = np.isneginf(table)
    finite_table = np.where(zero, 0.0, table)
    hits = np.zeros((counts.shape[0], log_prior.shape[-1]), dtype=np.int64)
    finite = np.broadcast_to(log_prior, hits.shape).copy()
    for key in range(counts.shape[1]):
        count = counts[:, key, None]
        hits += count * zero[..., key, :]
        finite += count * finite_table[..., key, :]
    return hits, finite


def reference_class_scores(scenario, i, k, n_pos, n_neg, rng, bias=None):
    """``n_pos`` positive, then ``n_neg`` negative scores of attribute ``i`` in bin ``k``, one ``rng.normal`` call per
    class, with ``bias`` applied to the score models when given; a draw that is not finite raises the located
    ScenarioError."""
    drawn = []
    for truth, n in (("pos", n_pos), ("neg", n_neg)):
        model = scenario.score_models[(i, truth, k)]
        mean, std = model.mean, model.stddev
        if bias is not None:
            mean, std = mean + getattr(bias, f"{truth}_mean_shift"), std * getattr(bias, f"{truth}_std_scale")
        drawn.append(rng.normal(mean, std, size=n))
        if not np.isfinite(drawn[-1]).all():
            raise _not_finite(scenario, i, truth, k, "" if bias is None else "training ")
    return drawn[0], drawn[1]


def reference_training_sets(scenario, rng):
    """The training sets of every mixed attribute and bin, attribute-major, then bin, drawn by
    :func:`reference_class_scores` with the training bias from ``rng``."""
    catalog, cfg = scenario.catalog, scenario.calibration
    sets = {}
    for i in range(catalog.n_attributes):
        n_with = int(catalog.matrix[:, i].sum())
        if 0 < n_with < catalog.n_objects:
            n_pos, n_neg = cfg.n_pos_per_object * n_with, cfg.n_neg_per_object * (catalog.n_objects - n_with)
            for k in range(scenario.n_bins):
                sets[(i, k)] = reference_class_scores(scenario, i, k, n_pos, n_neg, rng, scenario.training_bias)
    return sets


def reference_models_text(models, catalog):
    """The text ``save_models`` writes: the models by attribute id, each bin record under its key, through
    ``json.dumps`` at ``indent=2``."""
    entries = [
        {
            "attribute": catalog.attributes[i],
            "orientation": models[i].orientation,
            "bins": [{"bin": k, **vars(cal)} for k, cal in sorted(models[i].calibrations.items())],
        }
        for i in sorted(models)
    ]
    return json.dumps({"models": entries}, indent=2) + "\n"


# ---------------------------------------------------------------------------
# The per-observation path: one scalar draw, classification and count at a
# time, and one posterior row decided at a time.


class Posterior(NamedTuple):
    """One row's posterior: the positive counts per factor key in sorted key order, their tally row, and the MAP log weights."""

    counts: dict
    hits: np.ndarray
    finite: np.ndarray
    log_weights: np.ndarray


class Decision(NamedTuple):
    """One row's MAP decision: the winner, the posterior-tied candidates, and the break used ("none", "prior" or "random")."""

    winner: int
    candidates: tuple
    tie_broken_by: str


def counted_posterior(catalog, stats, counts):
    """The posterior after each factor key's count of adopted observations; zero counts are dropped."""
    counts = {key: int(counts[key]) for key in sorted(counts) if counts[key]}
    row = np.array([list(counts.values())], dtype=np.int64)
    hits, finite = tally(np.log(catalog.priors), row, factor_table(list(counts), stats))
    return Posterior(counts, hits[0], finite[0], map_log_weights(hits[0], finite[0]))


def decide(state, catalog, u):
    """Argmax over one posterior row; posterior ties fall back to the prior argmax, prior ties to the pick ``⌊u·n⌋``
    among the ``n`` prior-best candidates, from the uniform ``u``.

    Weights within a relative ``TIE_RELATIVE_TOLERANCE`` of the maximum are
    tied, and so are the tied candidates' priors within it of the best one.
    """
    log_weights = state.log_weights
    tied = log_weights >= log_weights.max() + math.log1p(-TIE_RELATIVE_TOLERANCE)
    candidates = tuple(np.flatnonzero(tied).tolist())
    if len(candidates) == 1:
        return Decision(candidates[0], candidates, "none")
    best = max(catalog.priors[j] for j in candidates)
    options = [j for j in candidates if catalog.priors[j] >= best * (1.0 - TIE_RELATIVE_TOLERANCE)]
    if len(options) == 1:
        return Decision(options[0], candidates, "prior")
    return Decision(options[int(u * len(options))], candidates, "random")


@dataclass(frozen=True)
class Observation:
    """One classifier outcome tagged with its environment bin."""

    attribute_index: int
    bin_index: int
    outcome: str


def sample_score(scenario, attribute_index, truth, bin_index, rng):
    """One test-distribution draw for (attribute, truth, bin)."""
    model = scenario.score_models[(attribute_index, truth, bin_index)]
    return float(rng.normal(model.mean, model.stddev))


def classify(model, bin_index, score):
    """Ternary decision for one finite score; unreliable bins always return uncertain."""
    cal = model.calibrations[bin_index]
    if not cal.reliable:
        return "uncertain"
    if model.orientation == "lower_is_positive":
        if score <= cal.theta_pos:
            return "positive"
        if score >= cal.theta_neg:
            return "negative"
    else:
        if score >= cal.theta_pos:
            return "positive"
        if score <= cal.theta_neg:
            return "negative"
    return "uncertain"


def make_observation(model, bin_index, score):
    """Classify a raw score and tag it with its attribute and bin."""
    return Observation(model.attribute_index, bin_index, classify(model, bin_index, score))


def update(state, observation, model, catalog, stats):
    """Count one observation into the posterior; uncertain ones and unreliable bins return ``state`` itself."""
    cal = model.calibrations[observation.bin_index]
    if observation.outcome == "uncertain" or not cal.reliable:
        return state
    key = (observation.attribute_index, observation.outcome, cal.ppv if observation.outcome == "positive" else cal.npv)
    counts = dict(state.counts)
    counts[key] = counts.get(key, 0) + 1
    return counted_posterior(catalog, stats, counts)


# ---------------------------------------------------------------------------
# The line-by-line observation reader and checks of ``attrfuse fuse``.


def _read_observation_lines(path: Path) -> list[tuple[int, str, int, float]]:
    """Parse observation lines `attribute,bin,score` into (line number, attribute, bin, score).

    Blank lines, #-comments and an `attribute,bin,score` header before the
    first observation are skipped.
    """
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise SystemExit(f"{path}: cannot read observations ({exc.strerror})") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise SystemExit(f"{path}:{line_no}: not UTF-8 text ({exc.reason})") from None
    rows: list[tuple[int, str, int, float]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = [p.strip() for p in stripped.split(",")]
        if len(parts) != 3:
            raise SystemExit(f"{path}:{line_no}: expected `attribute,bin,score`, got {line!r}")
        if not rows and parts == ["attribute", "bin", "score"]:
            continue
        try:
            rows.append((line_no, parts[0], int(parts[1]), float(parts[2])))
        except ValueError:
            raise SystemExit(f"{path}:{line_no}: could not parse bin/score in {line!r}") from None
    return rows


def checked_observation_lines(path, catalog, models):
    """(line number, attribute index, bin, score) of every observation line, checked one line at a time."""
    lines = []
    for line_no, attribute_id, bin_index, score in _read_observation_lines(path):
        try:  # unknown attribute, unmodeled attribute, non-finite score, unknown bin
            i = catalog.attribute_index(attribute_id)
            if i not in models:
                raise ValueError(f"no calibrated model for attribute {attribute_id!r}")
            if not math.isfinite(score):
                raise ValueError(f"score must be finite, got {score!r}")
            if bin_index not in models[i].calibrations:
                raise ValueError(f"unknown bin index {bin_index}")
        except ValueError as exc:
            raise SystemExit(f"{path}:{line_no}: {exc}") from None
        lines.append((line_no, i, bin_index, score))
    return lines
