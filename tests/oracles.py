"""Independent reference implementations used as test oracles.

Everything here is deliberately written with plain loops. The posterior and
calibration oracles use exact Fraction arithmetic and share no code with the
package under test. The one-observation loop that the batched engine and
``attrfuse fuse`` replaced (``sample_score`` -> ``make_observation`` ->
``update``) is kept as the reference the engine is compared against bit for
bit. These references may import package types (``PosteriorState``, the
models and scenarios they read) and the per-factor log rows of
``factor_table``, but none of the code paths they check.
"""
from dataclasses import dataclass
from fractions import Fraction

from attrfuse.fusion import PosteriorState, factor_table


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


def factor_counts(observations):
    """Adoptions per factor key of (model, outcome) observations in bin 0, in first-seen key order.

    Uncertain outcomes count nothing.
    """
    counts = {}
    for model, outcome in observations:
        if outcome != "uncertain":
            cal = model.calibrations[0]
            key = (model.attribute_index, outcome, cal.ppv if outcome == "positive" else cal.npv)
            counts[key] = counts.get(key, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# The per-observation path: one scalar draw, classification and count at a time.


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


def update(state, observation, model, stats):
    """Count one observation into the posterior; uncertain ones and unreliable bins return ``state`` itself."""
    cal = model.calibrations[observation.bin_index]
    if observation.outcome == "uncertain" or not cal.reliable:
        return state
    key = (observation.attribute_index, observation.outcome, cal.ppv if observation.outcome == "positive" else cal.npv)
    factors = state.factors if key in state.factors else {**state.factors, key: factor_table([key], stats)[0]}
    counts = dict(state.counts)
    counts[key] = counts.get(key, 0) + 1
    return PosteriorState(state.log_prior, counts, factors)
