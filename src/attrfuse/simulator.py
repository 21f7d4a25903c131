"""Synthetic, distance-dependent score generation and observation episodes.

Scenarios describe, per (attribute, truth label, environment bin), a Gaussian
score distribution. Training draws may be biased (mean shift, spread scale)
relative to the test distributions to model unrepresentative training data.
Randomness comes from the counter-based Philox generator; trial ``t`` of a
run seeded with ``s`` always uses the stream derived from ``(s, ..., t)``, so
records are reproducible bit for bit and trials are independent. A Philox
stream is fixed by its key at counter 0, so :func:`stream_keys` computes
every trial's key, ``SeedSequence([s, ..., t]).generate_state(2, uint64)``,
in one vectorised pass, and :func:`load_key` sets one reused generator to
each in turn; :func:`derived_rng` builds a single stream's generator.

Episodes run batched: every trial's draws come from its own stream as one
array, are classified with vectorised threshold compares
(:func:`classify_scores`), counted per factor key and decided together
(:func:`decide_episodes`). ``attrfuse fuse`` classifies its observation
lines as one row of the same :func:`classify_scores` call.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence, get_args

import numpy as np

from attrfuse.catalog import CatalogStats, ObjectCatalog, load_catalog
from attrfuse.classifier import (
    DEFAULT_MIN_DETECTION_RATE,
    DEFAULT_TARGET_NPV,
    DEFAULT_TARGET_PPV,
    ClassifierModel,
    Orientation,
    calibrate_bin,
)
from attrfuse.fusion import (
    FactorKey,
    factor_table,
    map_log_weights,
    pick_tied,
    tally,
    tie_sets,
)

# Stream keys for deriving independent generators from one base seed.
CALIBRATION_STREAM = 0
SCORE_STREAM = 1
PICK_STREAM = 2
CASE_STREAM = 3


class ScenarioError(ValueError):
    """Malformed scenario input."""


def derived_rng(seed: int, *key: int) -> np.random.Generator:
    """Philox generator for the stream identified by (seed, *key)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), *map(int, key)])))


# numpy's SeedSequence (O'Neill's seed_seq_fe): a pool of four 32-bit words
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _entropy_words(value: int) -> list[int]:
    """``value`` as SeedSequence coerces an entropy int: its little-endian 32-bit words, at least one."""
    value = int(value)
    if value < 0:
        raise ValueError(f"expected non-negative integer, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hasher(init: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's word hash: each call xors and multiplies by the next constant of its sequence."""
    const = init

    def hash_word(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(_XSHIFT))

    return hash_word


def stream_keys(seed: int, key: Sequence[int], trials: int) -> np.ndarray:
    """Philox keys of the streams ``(seed, *key, t)`` for ``t < trials``, as a (trials, 2) uint64 array.

    Row ``t`` equals ``SeedSequence([seed, *key, t]).generate_state(2, np.uint64)``,
    the key :func:`derived_rng` gives its Philox: the pool mixing runs as
    uint32 array arithmetic over every trial at once. Loaded with counter 0
    and an empty buffer (:func:`load_key`), a key gives the same stream as
    ``derived_rng(seed, *key, t)``.
    """
    prefix = [w for value in (seed, *key) for w in _entropy_words(value)]
    entropy = [np.full(trials, w, dtype=np.uint32) for w in prefix] + [np.arange(trials, dtype=np.uint32)]
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(_XSHIFT))

    zeros = np.zeros(trials, dtype=np.uint32)  # a missing pool word hashes as 0
    pool = [hashmix(entropy[i] if i < len(entropy) else zeros) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(2, uint64): the four pool words hashed once more, read as two little-endian uint64
    output_hash = _hasher(_INIT_B, _MULT_B)
    state = np.stack([output_hash(word) for word in pool], axis=1).astype("<u4")
    return state.view("<u8").astype(np.uint64)


def load_key(rng: np.random.Generator, key: np.ndarray) -> np.random.Generator:
    """``rng`` (a Philox generator) set to the start of the stream with ``key``: counter 0, empty buffer."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


@dataclass(frozen=True)
class ScoreModel:
    family: str
    mean: float
    stddev: float

    def __post_init__(self):
        if self.family != "gaussian":
            raise ScenarioError(f"key 'family': unsupported score family {self.family!r}")
        if not self.stddev > 0:
            raise ScenarioError(f"key 'std': score model stddev must be positive, got {self.stddev!r}")


@dataclass(frozen=True)
class TrainingBias:
    """Shift/scale applied to score models when drawing training data."""

    pos_mean_shift: float = 0.0
    neg_mean_shift: float = 0.0
    pos_std_scale: float = 1.0
    neg_std_scale: float = 1.0


@dataclass(frozen=True)
class CalibrationConfig:
    target_ppv: float = DEFAULT_TARGET_PPV
    target_npv: float = DEFAULT_TARGET_NPV
    min_detection_rate: float = DEFAULT_MIN_DETECTION_RATE
    n_pos_per_object: int = 20
    n_neg_per_object: int = 20


@dataclass(frozen=True)
class Scenario:
    """Simulator description: bins, score models, catalog, sampling parameters."""

    catalog: ObjectCatalog
    bins: tuple[tuple[float, float], ...]
    score_models: Mapping[tuple[int, str, int], ScoreModel]
    seed: int
    orientation: str = "lower_is_positive"
    schedule: tuple[tuple[int, int], ...] = ()
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)
    training_bias: TrainingBias = field(default_factory=TrainingBias)
    families: Mapping[str, tuple[int, ...]] = field(default_factory=dict)
    kde_attribute: int = 0
    path: Path | None = None
    sha256: str | None = None

    def __post_init__(self):
        """Each message names the scenario key at fault, after the file when the scenario has one."""
        if self.seed < 0:
            raise self.error("key 'seed': seed must be non-negative")
        if not self.bins:
            raise self.error("key 'bins': scenario needs at least one bin")
        for lo, hi in self.bins:
            if not lo < hi:
                raise self.error(f"key 'bins': bin ({lo}, {hi}) is not ascending")
        for (lo1, hi1), (lo2, _) in zip(self.bins, self.bins[1:]):
            if abs(hi1 - lo2) > 1e-9:
                raise self.error("key 'bins': bins must be contiguous and ascending")
        for i in range(self.catalog.n_attributes):
            for truth in ("pos", "neg"):
                for k in range(len(self.bins)):
                    if (i, truth, k) not in self.score_models:
                        raise self.error(
                            f"key 'score_models': missing score model for attribute "
                            f"{self.catalog.attributes[i]!r}, truth {truth!r}, bin {k}"
                        )
        for bin_index, _ in self.schedule:
            if not 0 <= bin_index < len(self.bins):
                raise self.error(f"key 'schedule': unknown bin index {bin_index}")
        if not 0 <= self.kde_attribute < self.catalog.n_attributes:
            raise self.error("key 'kde_attribute': kde_attribute out of range")

    def error(self, message: str) -> ScenarioError:
        """A ScenarioError with ``message``, prefixed by the scenario's file when it was loaded from one."""
        return ScenarioError(message if self.path is None else f"{self.path}: {message}")

    @property
    def n_bins(self) -> int:
        return len(self.bins)


def draw_training_sets(
    scenario: Scenario,
    rng: np.random.Generator | None = None,
) -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
    """Training scores for every (attribute, bin) with the training bias applied; counts scale with the label split."""
    if rng is None:
        rng = derived_rng(scenario.seed, CALIBRATION_STREAM)
    cfg = scenario.calibration
    bias = scenario.training_bias
    matrix = scenario.catalog.matrix
    sets: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    for i in range(scenario.catalog.n_attributes):
        n_pos_objects = int(matrix[:, i].sum())
        n_neg_objects = scenario.catalog.n_objects - n_pos_objects
        if n_pos_objects == 0 or n_neg_objects == 0:
            continue  # constant attribute: nothing to calibrate
        n_pos = cfg.n_pos_per_object * n_pos_objects
        n_neg = cfg.n_neg_per_object * n_neg_objects
        for k in range(scenario.n_bins):
            pos_model = scenario.score_models[(i, "pos", k)]
            neg_model = scenario.score_models[(i, "neg", k)]
            pos = rng.normal(pos_model.mean + bias.pos_mean_shift, pos_model.stddev * bias.pos_std_scale, size=n_pos)
            neg = rng.normal(neg_model.mean + bias.neg_mean_shift, neg_model.stddev * bias.neg_std_scale, size=n_neg)
            sets[(i, k)] = (pos, neg)
    return sets


def calibrate_from_sets(
    scenario: Scenario,
    training_sets: Mapping[tuple[int, int], tuple[np.ndarray, np.ndarray]],
) -> dict[int, ClassifierModel]:
    """Two-threshold models from pre-drawn training sets."""
    cfg = scenario.calibration
    models: dict[int, ClassifierModel] = {}
    attrs = sorted({i for i, _ in training_sets})
    for i in attrs:
        cals = {}
        for k in range(scenario.n_bins):
            pos, neg = training_sets[(i, k)]
            cals[k] = calibrate_bin(
                pos,
                neg,
                orientation=scenario.orientation,
                target_ppv=cfg.target_ppv,
                target_npv=cfg.target_npv,
                min_detection_rate=cfg.min_detection_rate,
            )
        models[i] = ClassifierModel(attribute_index=i, orientation=scenario.orientation, calibrations=cals)
    return models


def calibrate_scenario(
    scenario: Scenario,
    rng: np.random.Generator | None = None,
) -> dict[int, ClassifierModel]:
    """Draw training data and calibrate every usable attribute in every bin."""
    return calibrate_from_sets(scenario, draw_training_sets(scenario, rng))


def stream_draws(seed: int, key: Sequence[int], trials: int, n: int, kind: str = "standard_normal") -> np.ndarray:
    """``n`` draws from each trial's stream ``(seed, *key, t)``, one row per trial.

    Philox is counter-based, so one array call yields the same values, and
    leaves the stream in the same state, as ``n`` scalar calls. Every row
    comes from one generator, loaded in turn with each trial's key.
    """
    out = np.empty((trials, n))
    rng = np.random.Generator(np.random.Philox(0))
    for t, stream_key in enumerate(stream_keys(seed, key, trials)):
        getattr(load_key(rng, stream_key), kind)(n, out=out[t])
    return out


def draw_scores(
    scenario: Scenario,
    ground_truths: np.ndarray,
    attributes: Sequence[int],
    bins: Sequence[int],
    z: np.ndarray,
) -> np.ndarray:
    """Test scores from standard normal draws ``z`` (rows x columns).

    Column ``c`` observes attribute ``attributes[c]`` in bin ``bins[c]`` of
    each row's ground-truth object; ``mean + std * z`` equals the scalar
    ``Generator.normal(mean, std)`` draw bit for bit.
    """
    truth = scenario.catalog.matrix[np.asarray(ground_truths)[:, None], np.asarray(attributes, dtype=np.intp)] != 0
    pos = [scenario.score_models[(i, "pos", k)] for i, k in zip(attributes, bins)]
    neg = [scenario.score_models[(i, "neg", k)] for i, k in zip(attributes, bins)]
    mean = np.where(truth, [m.mean for m in pos], [m.mean for m in neg])
    std = np.where(truth, [m.stddev for m in pos], [m.stddev for m in neg])
    return mean + std * z


def classify_scores(
    models: Mapping[int, ClassifierModel],
    attributes: Sequence[int],
    bins: Sequence[int],
    scores: np.ndarray,
) -> tuple[np.ndarray, tuple[FactorKey, ...]]:
    """Ternary outcomes of ``scores`` (rows x columns) as codes into sorted factor keys.

    Column ``c`` is classified by ``models[attributes[c]]`` in bin
    ``bins[c]``; each distinct (attribute, bin) pair is looked up once. The
    code of an adopted outcome indexes its key; uncertain outcomes and
    unreliable bins get ``len(keys)``. Ties at a threshold go to the
    positive side. A NaN score compares false and reads as uncertain, so
    callers with external scores reject non-finite ones first.
    """
    attributes = np.asarray(attributes, dtype=np.intp)
    bins = np.asarray(bins, dtype=np.intp)
    low = bins.min(initial=0)
    span = bins.max(initial=0) - low + 1
    encoded, column = np.unique(attributes * span + (bins - low), return_inverse=True)
    pairs = list(zip((encoded // span).tolist(), (encoded % span + low).tolist()))  # each distinct pair once
    unknown = [k not in models[i].calibrations for i, k in pairs]
    if any(unknown):  # name the first unknown pair in column order
        raise ValueError(f"unknown bin index {bins[np.argmax(np.array(unknown)[column])]}")
    sign = np.empty(len(pairs))
    theta_pos = np.full(len(pairs), np.nan)  # nan never compares true: uncertain
    theta_neg = np.full(len(pairs), np.nan)
    adopted: list[tuple[FactorKey, FactorKey] | None] = []
    for p, (i, k) in enumerate(pairs):
        model = models[i]
        cal = model.calibrations[k]
        sign[p] = 1.0 if model.orientation == "lower_is_positive" else -1.0
        adopted.append(((i, "positive", cal.ppv), (i, "negative", cal.npv)) if cal.reliable else None)
        if cal.reliable:
            theta_pos[p], theta_neg[p] = sign[p] * cal.theta_pos, sign[p] * cal.theta_neg
    keys = tuple(sorted({key for pair in adopted if pair for key in pair}))
    index = {key: n for n, key in enumerate(keys)}
    unadopted = (len(keys), len(keys))
    code_pos, code_neg = np.array(
        [unadopted if pair is None else tuple(map(index.get, pair)) for pair in adopted], dtype=np.intp
    ).reshape(-1, 2).T
    signed = sign[column] * scores
    positive = signed <= theta_pos[column]
    negative = ~positive & (signed >= theta_neg[column])
    codes = np.where(positive, code_pos[column], np.where(negative, code_neg[column], len(keys)))
    return codes, keys


class Episodes(NamedTuple):
    """What :func:`decide_episodes` decides; ``hits`` and ``log_weights`` are those after the last checkpoint."""

    winners: np.ndarray  # (checkpoints, rows): the MAP object
    random: np.ndarray  # (checkpoints, rows): whether a seeded pick broke a prior tie
    tied: np.ndarray  # (checkpoints, rows, objects): the objects tied at the maximum posterior
    hits: np.ndarray  # (rows, objects): zero-factor hits
    log_weights: np.ndarray  # (rows, objects): the MAP log weights (fusion.map_log_weights)


def decide_episodes(
    codes: np.ndarray,
    keys: Sequence[FactorKey],
    catalog: ObjectCatalog,
    stats: CatalogStats,
    checkpoints: Sequence[int],
    pick: Callable[[int], np.random.Generator],
) -> Episodes:
    """MAP decisions of every row after each of one or more checkpoints' leading draws.

    ``codes`` (rows x draws) come from :func:`classify_scores` or any other
    source of codes into the sorted ``keys``. Counts accumulate from one
    checkpoint to the next. A posterior tie goes to the best prior; a tie
    in the prior as well goes to a seeded uniform pick. A row's pick stream
    ``pick(row)`` is made at its first random tie and consumed in
    checkpoint order; rows without one never make it. A ``pick`` that
    returns one shared generator for every row is valid only with a single
    checkpoint.
    """
    table = factor_table(keys, stats)
    log_prior = np.log(catalog.priors)
    rows, n_codes = codes.shape[0], len(keys) + 1
    offsets = n_codes * np.arange(rows)[:, None]
    counts = np.zeros((rows, n_codes), dtype=np.int64)
    winners = np.empty((len(checkpoints), rows), dtype=np.int64)
    random = np.zeros((len(checkpoints), rows), dtype=bool)
    tied = np.empty((len(checkpoints), rows, catalog.n_objects), dtype=bool)
    streams: dict[int, np.random.Generator] = {}
    start = 0
    for c, stop in enumerate(checkpoints):
        step = codes[:, start:stop] + offsets
        counts += np.bincount(step.ravel(), minlength=counts.size).reshape(counts.shape)
        start = stop
        hits, finite = tally(log_prior, counts[:, :-1], table)
        log_weights = map_log_weights(hits, finite)
        tied[c], prior_best = tie_sets(log_weights, catalog.priors)
        winners[c] = prior_best.argmax(axis=1)
        random[c] = prior_best.sum(axis=1) > 1
        for r in np.flatnonzero(random[c]).tolist():
            if r not in streams:
                streams[r] = pick(r)
            winners[c, r] = pick_tied(prior_best[r], streams[r])
    return Episodes(winners, random, tied, hits, log_weights)


_REQUIRED = object()


def _field(path: Path, raw: Mapping, key: str, convert: Callable, default=_REQUIRED):
    """``convert(raw[key])`` (or of ``default`` when the key is absent), as a ScenarioError naming the file and key."""
    try:
        return convert(raw[key] if default is _REQUIRED or key in raw else default)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ScenarioError(f"{path}: missing or malformed key {key!r} ({exc})") from None


def _mapping(value) -> Mapping:
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {value!r}")
    return value


def _integer(value) -> int:
    if type(value) is not int:  # a JSON true is not an integer
        raise TypeError(f"expected a JSON integer, got {value!r}")
    return value


def _number(value) -> float:
    if type(value) not in (int, float) or not -np.inf < value < np.inf:
        raise TypeError(f"expected a finite JSON number, got {value!r}")
    return float(value)


# the ranges calibrate_bin accepts: targets in (0, 1], the detection floor in [0, 1]
def _target(value) -> float:
    if not 0.0 < _number(value) <= 1.0:
        raise ValueError(f"expected a number in (0, 1], got {value!r}")
    return float(value)


def _rate(value) -> float:
    if not 0.0 <= _number(value) <= 1.0:
        raise ValueError(f"expected a number in [0, 1], got {value!r}")
    return float(value)


# a training spread scale: numpy draws at scale 0 but rejects a negative one
def _scale(value) -> float:
    if not _number(value) >= 0.0:
        raise ValueError(f"expected a non-negative number, got {value!r}")
    return float(value)


def _count(value) -> int:
    if _integer(value) < 1:
        raise ValueError(f"expected a positive integer, got {value!r}")
    return value


def _orientation(value) -> str:
    if value not in get_args(Orientation):
        raise ValueError(f"expected one of {get_args(Orientation)}, got {value!r}")
    return value


def _parse_score_models(
    path: Path,
    per_attribute: Mapping[int, Mapping],
    catalog: ObjectCatalog,
    n_bins: int,
) -> dict[tuple[int, str, int], ScoreModel]:
    out: dict[tuple[int, str, int], ScoreModel] = {}
    for i, per_truth in per_attribute.items():
        attribute_id = catalog.attributes[i]
        for truth in ("pos", "neg"):
            per_bin = _field(path, per_truth, truth, list)
            if len(per_bin) != n_bins:
                raise ScenarioError(
                    f"{path}: score model for {attribute_id!r}/{truth} has {len(per_bin)} entries, expected {n_bins}"
                )
            for k, rec in enumerate(per_bin):
                family = _field(path, rec, "family", str, "gaussian")
                mean, stddev = _field(path, rec, "mean", _number), _field(path, rec, "std", _number)
                try:
                    out[(i, truth, k)] = ScoreModel(family, mean, stddev)
                except ScenarioError as exc:
                    raise ScenarioError(f"{path}: score model for {attribute_id!r}/{truth}, bin {k}: {exc}") from None
    return out


def load_scenario(path: str | Path) -> Scenario:
    """Load a scenario file and its referenced catalog (path relative to the scenario).

    An unreadable file raises :class:`ScenarioError` naming the file, and
    missing, unparsable or out-of-range values name the file and the key.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read scenario ({exc.strerror})") from None
    digest = hashlib.sha256(data).hexdigest()
    try:
        raw = json.loads(data)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc

    catalog_path = _field(path, raw, "catalog", Path)
    catalog = load_catalog(catalog_path if catalog_path.is_absolute() else path.parent / catalog_path)
    bins = _field(path, raw, "bins", lambda v: tuple((_number(lo), _number(hi)) for lo, hi in v))
    per_attribute = _field(path, raw, "score_models", lambda v: {catalog.attribute_index(a): m for a, m in _mapping(v).items()})
    score_models = _parse_score_models(path, per_attribute, catalog, len(bins))
    seed = _field(path, raw, "seed", _integer)

    cal_raw = _field(path, raw, "calibration", _mapping, {})
    calibration = CalibrationConfig(
        target_ppv=_field(path, cal_raw, "target_ppv", _target, DEFAULT_TARGET_PPV),
        target_npv=_field(path, cal_raw, "target_npv", _target, DEFAULT_TARGET_NPV),
        min_detection_rate=_field(path, cal_raw, "min_detection_rate", _rate, DEFAULT_MIN_DETECTION_RATE),
        n_pos_per_object=_field(path, cal_raw, "n_pos_per_object", _count, 20),
        n_neg_per_object=_field(path, cal_raw, "n_neg_per_object", _count, 20),
    )
    bias_raw = _field(path, raw, "training_bias", _mapping, {})
    bias = TrainingBias(
        pos_mean_shift=_field(path, bias_raw, "pos_mean_shift", _number, 0.0),
        neg_mean_shift=_field(path, bias_raw, "neg_mean_shift", _number, 0.0),
        pos_std_scale=_field(path, bias_raw, "pos_std_scale", _scale, 1.0),
        neg_std_scale=_field(path, bias_raw, "neg_std_scale", _scale, 1.0),
    )
    families = _field(
        path,
        raw,
        "families",
        lambda v: {name: tuple(map(catalog.attribute_index, ids)) for name, ids in _mapping(v).items()},
        {},
    )
    schedule = _field(path, raw, "schedule", lambda v: tuple((_integer(b), _integer(r)) for b, r in v), [])
    kde_attribute = _field(path, raw, "kde_attribute", catalog.attribute_index, catalog.attributes[0])

    return Scenario(
        catalog=catalog,
        bins=bins,
        score_models=score_models,
        seed=seed,
        orientation=_field(path, raw, "orientation", _orientation, "lower_is_positive"),
        schedule=schedule,
        calibration=calibration,
        training_bias=bias,
        families=families,
        kde_attribute=kde_attribute,
        path=path,
        sha256=digest,
    )
