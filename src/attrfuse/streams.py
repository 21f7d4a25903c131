"""Seeded Philox streams: every harness's purposes and key layouts, and the draws and picks made from them.

Every random number comes from a counter-based Philox stream (Salmon et
al., *Parallel random numbers: as easy as 1, 2, 3*, SC'11). The stream
``(s, purpose, ...)`` of a run seeded with ``s`` has the Philox key
``SeedSequence([s, purpose, ...]).generate_state(2, uint64)``, so records
are reproducible bit for bit and trials are independent. The purposes, and
the key layout of each harness (``k`` a bin, ``t`` a trial, ``c`` a case);
a new purpose or layout gets its row here:

==================  ====================================  =====================================================
harness             key                                   draws
==================  ====================================  =====================================================
calibration         ``(s, CALIBRATION_STREAM)``           every training score (``calibrate``, exp2, exp3)
exp1                ``(s, SCORE_STREAM, k)``              bin ``k``'s positive, then negative, KDE sample
exp2                ``(s, SCORE_STREAM, t)``              trial ``t``'s test scores
exp2                ``(s, PICK_STREAM, t, system)``       its tie picks; system 0 two-threshold, 1 single
exp3                ``(s, SCORE_STREAM, k, t)``           trial ``t``'s test scores in bin ``k``
exp3                ``(s, PICK_STREAM, k, t)``            its tie picks, the same stream for every system
convergence         ``(s, SCORE_STREAM, t)``              trial ``t``'s outcome uniforms
convergence         ``(s, PICK_STREAM, t)``               its tie picks
exact recognition   ``(s, CASE_STREAM, c)``               case ``c``: catalog, priors, predictive values, views
exact recognition   ``(s, PICK_STREAM, CASE_STREAM, c)``  its tie picks, never read
``fuse``            ``(s, PICK_STREAM)``                  the decision's tie pick
==================  ====================================  =====================================================

A stream is fixed by its key at counter 0: :func:`stream_keys` computes many
keys in one vectorised pass, :func:`stream_starts` sets one reused generator
to each in turn, and :func:`seeded_picks` makes tie picks from the keys with
no generator object. :func:`derived_rng` builds a single stream's generator.
"""
from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

# The purpose, the key's second entry: what a stream is for.
CALIBRATION_STREAM = 0
SCORE_STREAM = 1
PICK_STREAM = 2
CASE_STREAM = 3


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
    ``derived_rng(seed, *key)``. With no array entry there is one key, and
    numpy's own SeedSequence computes it faster than the array pass.
    """
    entries = (seed, *key)
    if not any(isinstance(value, np.ndarray) and value.ndim for value in entries):
        return np.random.SeedSequence([int(value) for value in entries]).generate_state(2, np.uint64)
    words: list = []
    for value in entries:
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
