"""Synthetic, distance-dependent score generation and observation episodes.

Scenarios describe, per (attribute, truth label, environment bin), a Gaussian
score distribution. Training draws may be biased (mean shift, spread scale)
relative to the test distributions to model unrepresentative training data.
Randomness comes from the counter-based Philox generator; trial ``t`` of a
run seeded with ``s`` always uses the stream derived from ``(s, ..., t)``, so
records are reproducible bit for bit and trials are independent. A Philox
stream is fixed by its key at counter 0, so :func:`stream_keys` computes
every trial's key, ``SeedSequence([s, ..., t]).generate_state(2, uint64)``,
in one vectorised pass, and :func:`stream_starts` sets one reused generator
to each in turn; :func:`derived_rng` builds a single stream's generator.

Episodes run batched: every trial's draws come from its own stream as one
array, are classified with vectorised threshold compares
(:func:`classify_scores`), counted per factor key and decided together
(:func:`decide_episodes`). ``attrfuse fuse`` classifies its observation
lines as one row of the same :func:`classify_scores` call. Seeded tie
picks need no generator object: Philox is counter-based (Salmon et al.
2011), so :func:`seeded_picks` computes the tied rows' Philox blocks
directly and makes every pick with Lemire's bounded draw, equal to
``Generator(Philox(key)).integers(n)`` calls, in one pass.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from attrfuse._fields import _attribute, _count, _integer, _list, _mapping, _number, _orientation, _rate, _scale
from attrfuse._fields import _string, _target, read_field, read_json
from attrfuse.catalog import CatalogError, CatalogStats, ObjectCatalog, load_catalog
from attrfuse.classifier import (
    DEFAULT_MIN_DETECTION_RATE,
    DEFAULT_TARGET_NPV,
    DEFAULT_TARGET_PPV,
    ClassifierModel,
    calibrate_bins,
)
from attrfuse.fusion import (
    FactorKey,
    factor_table,
    map_log_weights,
    tally,
    tie_sets,
)

# Stream keys for deriving independent generators from one base seed.
CALIBRATION_STREAM = 0
SCORE_STREAM = 1
PICK_STREAM = 2
CASE_STREAM = 3


TrainingSets = Mapping[tuple[int, int], tuple[np.ndarray, np.ndarray]]  # (attribute, bin): positive, negative scores


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
_OTHER_POOL_WORDS = [[dst for dst in range(_POOL_SIZE) if dst != src] for src in range(_POOL_SIZE)]


def _entropy_words(value: int) -> list[int]:
    """``value`` as SeedSequence coerces an entropy int: its little-endian 32-bit words, at least one."""
    value = int(value)
    if value < 0:
        raise ValueError(f"expected non-negative integer, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """The constants of the first ``calls`` calls of a SeedSequence word hash, as a (calls + 1, 1) uint32 column."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hash(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's word hash over consecutive calls with constants ``consts``: row ``j`` is hashed by call ``j``,
    which xors with its constant and multiplies by the next."""
    values = values ^ consts[:-1]
    values *= consts[1:]
    return values ^ (values >> np.uint32(_XSHIFT))


def stream_keys(seed: int | np.ndarray, *key: int | np.ndarray) -> np.ndarray:
    """Philox keys of the streams ``(seed, *key)``, as a ``(*shape, 2)`` uint64 array.

    Any entry may be an integer array, and the entries broadcast to
    ``shape`` (``()`` when every entry is a scalar). The key at each index
    equals ``SeedSequence([seed, *key]).generate_state(2, np.uint64)`` with
    the array entries taken at that index, the key :func:`derived_rng`
    gives its Philox: the pool mixing runs as uint32 array arithmetic over
    every stream at once. A scalar entry may be any non-negative integer and
    is split into 32-bit words as SeedSequence splits it; an array entry
    must be one word, in ``[0, 2**32)``. Loaded with counter 0 and an empty
    buffer (:func:`stream_starts`), a key gives the same stream as
    ``derived_rng(seed, *key)``.
    """
    words: list = []
    for value in (seed, *key):
        if not isinstance(value, np.ndarray) or value.ndim == 0:
            words.extend(_entropy_words(value))
            continue
        if not np.issubdtype(value.dtype, np.integer):
            raise TypeError(f"expected an integer array entry, got dtype {value.dtype}")
        if value.size and not (value.min() >= 0 and value.max() <= _MASK32):
            raise ValueError(f"expected array entries in [0, 2**32), got values from {value.min()} to {value.max()}")
        words.append(value)
    shape = np.broadcast(*(word for word in words if isinstance(word, np.ndarray))).shape
    entropy = np.zeros((max(len(words), _POOL_SIZE), math.prod(shape)), dtype=np.uint32)  # a missing word is 0
    for row, word in zip(entropy, words):
        row.reshape(shape)[...] = word
    extra = entropy[_POOL_SIZE : len(words)]
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + len(extra)))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(_XSHIFT))

    # SeedSequence mixes word by word; each step below stacks the hash calls that do not depend on each other
    pool = _hash(entropy[:_POOL_SIZE], consts[: _POOL_SIZE + 1])
    call = _POOL_SIZE
    for src, others in enumerate(_OTHER_POOL_WORDS):  # each other word is mixed with the next hash of pool[src]
        pool[others] = mix(pool[others], _hash(pool[src], consts[call : call + _POOL_SIZE]))
        call += _POOL_SIZE - 1
    for word in extra:
        pool = mix(pool, _hash(word, consts[call : call + _POOL_SIZE + 1]))
        call += _POOL_SIZE

    # generate_state(2, uint64): the four pool words hashed once more, read as two little-endian uint64
    state = np.ascontiguousarray(_hash(pool, _hash_constants(_INIT_B, _MULT_B, _POOL_SIZE)).T, dtype="<u4")
    return state.view("<u8").astype(np.uint64).reshape(*shape, 2)


def _start_state(key) -> dict:
    """The Philox state at the start of the stream with ``key``: counter 0, empty buffer."""
    return {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def stream_starts(keys: np.ndarray) -> Iterator[np.random.Generator]:
    """One Philox generator set in turn to the start of each key's stream: counter 0, empty buffer.

    The generator and one state dict serve every key: only the dict's key,
    as Python ints, changes from one stream to the next.
    """
    rng = np.random.Generator(np.random.Philox(0))
    state = _start_state(None)
    for key in np.asarray(keys, dtype=np.uint64).tolist():
        state["state"]["key"] = key
        rng.bit_generator.state = state
        yield rng


# Philox4x64-10 (Salmon et al. 2011) as numpy's Philox runs it: the multipliers of words 0 and 2, and the
# Weyl constants added to the two key words after each round
_PHILOX_M0, _PHILOX_M2 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10


def _philox_draws(keys: np.ndarray, counter: int) -> np.ndarray:
    """The 32-bit draws of the Philox block at ``counter`` of each key row, (rows, 8) uint32.

    numpy's Philox makes its ``c``-th block of four 64-bit words at counter
    ``c`` (1, 2, ...), and ``next_uint32`` reads a word's low half before
    its high half. Each row's word sits in its own 128-bit lane of one
    Python integer, so one integer multiply forms every row's 64x64-bit
    product and no lane carries into the next. A round maps the words to
    (high 2 ^ word 1 ^ key 0, low 2, high 0 ^ word 3 ^ key 1, low 0); words
    1 and 3 and the keys are masked to their lanes' low 64 bits only where
    that matters, before a multiply and when the block is read.
    """
    rows = len(keys)
    lanes = np.zeros((3, rows, 2), dtype="<u8")  # key words 0 and 1, and ones, in the low halves of the lanes
    lanes[:2, :, 0] = keys.T
    lanes[2, :, 0] = 1
    key0, key1, ones = (int.from_bytes(lane.tobytes(), "little") for lane in lanes)
    low = ones * (2**64 - 1)
    bump0, bump1 = _PHILOX_W0 * ones, _PHILOX_W1 * ones
    word0, word1, word2, word3 = counter * ones, 0, 0, 0
    for _ in range(_PHILOX_ROUNDS):
        product0, product2 = _PHILOX_M0 * word0, _PHILOX_M2 * word2
        word0, word2 = ((product2 >> 64) ^ word1 ^ key0) & low, ((product0 >> 64) ^ word3 ^ key1) & low
        word1, word3 = product2, product0
        key0 += bump0
        key1 += bump1
    block = np.frombuffer(b"".join(word.to_bytes(16 * rows, "little") for word in (word0, word1, word2, word3)), "<u8")
    return np.ascontiguousarray(block.reshape(4, rows, 2)[:, :, 0].T).view("<u4")


_LOW32, _SHIFT32 = np.uint64(_MASK32), np.uint64(32)


def seeded_picks(keys: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Uniform picks in ``[0, n)`` from the Philox streams with ``keys``, as ``Generator.integers(n)`` makes them.

    ``keys`` is (rows, 2) uint64 and ``n`` (checkpoints, rows), each below
    ``2**32``. Row ``r``'s stream makes one pick at each checkpoint where
    its ``n`` exceeds 1, in checkpoint order: entry ``[c, r]`` is the pick a
    ``Generator(Philox(key=keys[r]))`` returns from its call for checkpoint
    ``c``. Where ``n`` is below 2 no draw is made and the pick is 0, as
    ``integers(1)`` draws nothing. A pick is Lemire's bounded draw on the
    stream's next 32-bit draw ``u`` (Lemire 2019, ACM TOMACS 29:3):
    ``(u * n) >> 32``, redrawn while the product's low half is below
    ``2**32 % n``. The draws come from :func:`_philox_draws`, a block at a
    time, as far as each row's stream runs.
    """
    keys, n = np.asarray(keys, dtype=np.uint64), np.asarray(n, dtype=np.uint64)
    picks = np.zeros(n.shape, dtype=np.int64)
    draws = _philox_draws(keys, 1)
    cursor = np.zeros(len(keys), dtype=np.intp)  # each row's next draw
    for c in range(n.shape[0]):
        rows = np.flatnonzero(n[c] > 1)
        bound = n[c, rows]
        threshold = np.uint64(2**32) % bound
        while rows.size:
            at = cursor[rows]
            while at.max() >= draws.shape[1]:  # a row ran out of draws: every row's next block
                draws = np.concatenate([draws, _philox_draws(keys, draws.shape[1] // 8 + 1)], axis=1)
            product = draws[rows, at] * bound
            cursor[rows] = at + 1
            kept = product & _LOW32 >= threshold
            picks[c, rows[kept]] = product[kept] >> _SHIFT32
            rejected = ~kept
            rows, bound, threshold = rows[rejected], bound[rejected], threshold[rejected]
    return picks


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


def _class_counts(scenario: Scenario, i: int) -> tuple[int, int] | None:
    """Attribute ``i``'s positive and negative score counts (per object with and without it); None if it is constant."""
    n_with = int(scenario.catalog.matrix[:, i].sum())
    n_without = scenario.catalog.n_objects - n_with
    cfg = scenario.calibration
    return (cfg.n_pos_per_object * n_with, cfg.n_neg_per_object * n_without) if n_with and n_without else None


def _not_finite(scenario: Scenario, i: int, truth: str, k: int, kind: str = "") -> ScenarioError:
    """The located error for a score model whose ``kind`` draws are not finite."""
    return scenario.error(
        f"key 'score_models': score model for attribute {scenario.catalog.attributes[i]!r}, truth {truth!r}, "
        f"bin {k} draws {kind}scores that are not finite"
    )


def _class_scores(
    scenario: Scenario, sets: Sequence[tuple[int, int, int, int]], rng: np.random.Generator, bias: TrainingBias | None = None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The positive and negative scores of each (attribute ``i``, bin ``k``, ``n_pos``, ``n_neg``) of ``sets``, with
    ``bias`` applied to the score models when given.

    One ``rng.standard_normal`` call draws them all: set by set, ``n_pos``
    positive then ``n_neg`` negative scores. Each class's slice ``z``
    becomes ``z * std + mean`` in place, bit for bit the
    ``rng.normal(mean, std, n)`` calls of each class in turn, and the pairs
    are views of the one array. A draw that is not finite raises a
    ScenarioError naming the first such class in draw order.
    """
    classes = [(i, truth, k, n) for i, k, n_pos, n_neg in sets for truth, n in (("pos", n_pos), ("neg", n_neg))]
    scores = rng.standard_normal(sum(n for *_, n in classes))
    parts, start = [], 0
    with np.errstate(over="ignore", invalid="ignore"):
        for i, truth, k, n in classes:
            model = scenario.score_models[(i, truth, k)]
            mean, std = model.mean, model.stddev
            if bias is not None:
                mean, std = mean + getattr(bias, f"{truth}_mean_shift"), std * getattr(bias, f"{truth}_std_scale")
            part = scores[start : start + n]
            part *= std
            part += mean
            parts.append(part)
            start += n
    if not np.isfinite(scores).all():
        i, truth, k, _ = next(c for c, part in zip(classes, parts) if not np.isfinite(part).all())
        raise _not_finite(scenario, i, truth, k, "" if bias is None else "training ")
    return list(zip(parts[::2], parts[1::2]))


def draw_training_sets(
    scenario: Scenario,
    rng: np.random.Generator | None = None,
) -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
    """Training scores for every (attribute, bin) with the training bias applied; counts scale with the label split.

    Every score comes from one :func:`_class_scores` draw, attribute-major,
    then bin. A constant attribute has nothing to calibrate and gets no sets.
    """
    rng = derived_rng(scenario.seed, CALIBRATION_STREAM) if rng is None else rng
    bins = range(scenario.n_bins)
    sets = [(i, k, *n) for i in range(scenario.catalog.n_attributes) if (n := _class_counts(scenario, i)) for k in bins]
    return dict(zip([(i, k) for i, k, *_ in sets], _class_scores(scenario, sets, rng, scenario.training_bias)))


def _model_set(scenario: Scenario, training_sets: TrainingSets, calibrate: Callable) -> dict[int, ClassifierModel]:
    """One model per attribute of ``training_sets``; its record in bin ``k`` is the one of set ``k``.

    ``calibrate`` takes every set's (positive, negative) pair in one call,
    attribute-major, and returns their records in that order.
    """
    attributes, bins = sorted({i for i, _ in training_sets}), range(scenario.n_bins)
    records = iter(calibrate([training_sets[(i, k)] for i in attributes for k in bins]))
    return {i: ClassifierModel(i, scenario.orientation, {k: next(records) for k in bins}) for i in attributes}


def calibrate_from_sets(scenario: Scenario, training_sets: TrainingSets) -> dict[int, ClassifierModel]:
    """Two-threshold models from pre-drawn training sets."""
    cfg = scenario.calibration
    return _model_set(scenario, training_sets, partial(
        calibrate_bins, orientation=scenario.orientation, target_ppv=cfg.target_ppv, target_npv=cfg.target_npv,
        min_detection_rate=cfg.min_detection_rate,
    ))


def calibrate_scenario(
    scenario: Scenario,
    rng: np.random.Generator | None = None,
) -> dict[int, ClassifierModel]:
    """Draw training data and calibrate every usable attribute in every bin."""
    return calibrate_from_sets(scenario, draw_training_sets(scenario, rng))


def stream_draws(
    seed: int, key: Sequence[int | np.ndarray], trials: int, n: int, kind: str = "standard_normal"
) -> np.ndarray:
    """``n`` draws from each trial's stream ``(seed, *key, t)``, one row per trial.

    Any entry of ``key`` may be an integer array; the entries broadcast with
    the trial axis ``np.arange(trials)`` as in :func:`stream_keys`, so an
    entry of shape ``(m, 1)`` gives ``(m, trials, n)`` draws, and all-scalar
    entries give ``(trials, n)``. Philox is counter-based, so one array call
    yields the same values, and leaves the stream in the same state, as
    ``n`` scalar calls. Every row comes from one generator, set in turn to
    each trial's stream (:func:`stream_starts`).
    """
    keys = stream_keys(seed, *key, np.arange(trials))
    out = np.empty((math.prod(keys.shape[:-1]), n))
    for row, rng in zip(out, stream_starts(keys.reshape(-1, 2))):
        getattr(rng, kind)(n, out=row)
    return out.reshape(*keys.shape[:-1], n)


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
    ``Generator.normal(mean, std)`` draw bit for bit. A score that is not
    finite raises a ScenarioError.
    """
    truth = scenario.catalog.matrix[np.asarray(ground_truths)[:, None], np.asarray(attributes, dtype=np.intp)] != 0
    pos = [scenario.score_models[(i, "pos", k)] for i, k in zip(attributes, bins)]
    neg = [scenario.score_models[(i, "neg", k)] for i, k in zip(attributes, bins)]
    mean = np.where(truth, [m.mean for m in pos], [m.mean for m in neg])
    std = np.where(truth, [m.stddev for m in pos], [m.stddev for m in neg])
    with np.errstate(over="ignore"):
        scores = mean + std * z
    if not np.isfinite(scores).all():
        row, c = np.argwhere(~np.isfinite(scores))[0]
        raise _not_finite(scenario, attributes[c], "pos" if truth[row, c] else "neg", bins[c])
    return scores


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
    pick_keys: Callable[[np.ndarray], np.ndarray],
) -> Episodes:
    """MAP decisions of every row after each of one or more checkpoints' leading draws.

    ``codes`` (rows x draws) come from :func:`classify_scores` or any other
    source of codes into the sorted ``keys``. Counts accumulate from one
    checkpoint to the next. A posterior tie goes to the best prior; a tie
    in the prior as well goes to a seeded uniform pick. Every checkpoint is
    decided first; then :func:`seeded_picks` makes all the picks in one
    pass, each row's in checkpoint order from its own Philox stream.
    ``pick_keys(rows)`` gives those streams' keys, (len(rows), 2) uint64,
    for the rows with a random tie at some checkpoint; it is called once,
    and not at all when no row has one.
    """
    table = factor_table(keys, stats)
    log_prior = np.log(catalog.priors)
    rows, n_codes = codes.shape[0], len(keys) + 1
    offsets = n_codes * np.arange(rows)[:, None]
    counts = np.zeros((rows, n_codes), dtype=np.int64)
    tied = np.empty((len(checkpoints), rows, catalog.n_objects), dtype=bool)
    prior_best = np.empty_like(tied)
    start = 0
    for c, stop in enumerate(checkpoints):
        step = codes[:, start:stop] + offsets
        counts += np.bincount(step.ravel(), minlength=counts.size).reshape(counts.shape)
        start = stop
        hits, finite = tally(log_prior, counts[:, :-1], table)
        log_weights = map_log_weights(hits, finite)
        tied[c], prior_best[c] = tie_sets(log_weights, catalog.priors)
    options = prior_best.sum(axis=-1)
    winners = prior_best.argmax(axis=-1)
    random = options > 1
    picking = np.flatnonzero(random.any(axis=0))
    if picking.size:
        picks = seeded_picks(pick_keys(picking), options[:, picking])
        # the pick-th prior-best object: the first whose running count of them exceeds the pick
        winners[:, picking] = (prior_best[:, picking].cumsum(axis=-1) > picks[..., None]).argmax(axis=-1)
    return Episodes(winners, random, tied, hits, log_weights)


def load_scenario(path: str | Path) -> Scenario:
    """Load a scenario file and its referenced catalog (path relative to the scenario).

    A malformed file raises :class:`ScenarioError` naming the file and the
    key, and so does a catalog that does not load, under the key ``catalog``.
    """
    path = Path(path)
    data, raw = read_json(path, ScenarioError, "scenario")
    read = partial(read_field, ScenarioError, path, raw)
    try:
        catalog = load_catalog(path.parent / read("catalog", _string))  # an absolute path replaces the parent
    except CatalogError as exc:
        raise ScenarioError(f"{path}: key 'catalog': {exc}") from None
    attribute = _attribute(catalog.attributes)
    bins = tuple(read("bins", partial(_list, item=lambda pair: tuple(_list(pair, _number, 2)))))
    per_bin = partial(_list, item=_mapping, length=len(bins))
    score_models: dict[tuple[int, str, int], ScoreModel] = {}
    by_id = read("score_models", _mapping)
    for attribute_id in by_id:
        if attribute_id not in catalog.attributes:
            raise ScenarioError(f"{path}: key 'score_models': unknown attribute id {attribute_id!r}")
        i, where = catalog.attributes.index(attribute_id), f"{path}: score model for {attribute_id!r}"
        per_truth = read_field(ScenarioError, f"{path}: key 'score_models'", by_id, attribute_id, _mapping)
        for truth in ("pos", "neg"):
            for k, rec in enumerate(read_field(ScenarioError, where, per_truth, truth, per_bin)):
                at = f"{where}/{truth}, bin {k}"
                family = read_field(ScenarioError, at, rec, "family", _string, "gaussian")
                mean = read_field(ScenarioError, at, rec, "mean", _number)
                stddev = read_field(ScenarioError, at, rec, "std", _number)
                try:
                    score_models[(i, truth, k)] = ScoreModel(family, mean, stddev)
                except ScenarioError as exc:
                    raise ScenarioError(f"{at}: {exc}") from None
    cal = partial(read_field, ScenarioError, f"{path}: key 'calibration'", read("calibration", _mapping, {}))
    bias = partial(read_field, ScenarioError, f"{path}: key 'training_bias'", read("training_bias", _mapping, {}))
    named = read("families", _mapping, {})
    family = partial(read_field, ScenarioError, f"{path}: key 'families'", named)
    return Scenario(
        catalog=catalog,
        bins=bins,
        score_models=score_models,
        seed=read("seed", _integer),
        orientation=read("orientation", _orientation, "lower_is_positive"),
        schedule=tuple(read("schedule", partial(_list, item=lambda pair: tuple(_list(pair, _integer, 2))), [])),
        calibration=CalibrationConfig(
            target_ppv=cal("target_ppv", _target, DEFAULT_TARGET_PPV),
            target_npv=cal("target_npv", _target, DEFAULT_TARGET_NPV),
            min_detection_rate=cal("min_detection_rate", _rate, DEFAULT_MIN_DETECTION_RATE),
            n_pos_per_object=cal("n_pos_per_object", _count, 20),
            n_neg_per_object=cal("n_neg_per_object", _count, 20),
        ),
        training_bias=TrainingBias(
            pos_mean_shift=bias("pos_mean_shift", _number, 0.0),
            neg_mean_shift=bias("neg_mean_shift", _number, 0.0),
            pos_std_scale=bias("pos_std_scale", _scale, 1.0),
            neg_std_scale=bias("neg_std_scale", _scale, 1.0),
        ),
        families={name: tuple(family(name, partial(_list, item=attribute))) for name in named},
        kde_attribute=read("kde_attribute", attribute, catalog.attributes[0]),
        path=path,
        sha256=hashlib.sha256(data).hexdigest(),
    )
