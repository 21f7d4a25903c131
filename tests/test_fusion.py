import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from attrfuse.catalog import NonDiscriminativeAttributeError, ObjectCatalog, compute_stats
from attrfuse.classifier import BinCalibration, ClassifierModel
from attrfuse.fusion import count_codes, decide, log_factor_rows, posterior, tally
from attrfuse.simulator import classify_scores
from attrfuse.streams import uniform_picks

from oracles import decide_codes, factor_codes, fuse_pick, make_synthetic_model, posterior_oracle, reference_tally


def small_catalog(matrix, priors):
    matrix = np.asarray(matrix)
    return ObjectCatalog(
        objects=tuple(f"o{j}" for j in range(matrix.shape[0])),
        attributes=tuple(f"a{i}" for i in range(matrix.shape[1])),
        matrix=matrix,
        priors=np.asarray(priors, dtype=float),
    )


def decided(codes, keys, catalog, stats, seed=0):
    """The engine's decision of one row of codes into ``keys``, with ties picked as ``fuse`` picks them at ``seed``."""
    return decide_codes(codes, keys, catalog, stats, [codes.shape[1]], fuse_pick(seed))


def fused(catalog, stats, observations, seed=0):
    """The engine's decision after (model, outcome) observations in bin 0, as one row in observation order."""
    return decided(*factor_codes(observations), catalog, stats, seed)


def log_weights(catalog, stats, observations):
    """The MAP log weights of the engine's row after (model, outcome) observations in bin 0."""
    return fused(catalog, stats, observations).log_weights[0]


@pytest.fixture(scope="module")
def table1_stats(table1):
    return compute_stats(table1)


class TestInit:
    def test_equal_priors(self, table1, table1_stats):
        episodes = fused(table1, table1_stats, [])
        assert posterior(episodes.log_weights[0]) == pytest.approx(np.full(9, 1 / 9), abs=1e-12)
        assert not episodes.hits.any() and episodes.tied.all()

    def test_priors_recovered_exactly(self):
        cat = small_catalog([[1], [0], [1]], [0.5, 0.3, 0.2])
        assert posterior(log_weights(cat, compute_stats(cat), [])) == pytest.approx([0.5, 0.3, 0.2], abs=1e-12)


class TestPosteriorRow:
    def test_bottle_shape_positive(self, table1, table1_stats):
        i = table1.attribute_index("bottle shape")
        model = make_synthetic_model(i, ppv=0.96, npv=0.96)
        weights = log_weights(table1, table1_stats, [(model, "positive")])
        probs = posterior(weights)
        expected = np.full(9, 0.04 / (2 / 3) / 9)   # factor 0.06 on the six non-bottles
        expected[6:] = 0.96 / (1 / 3) / 9           # factor 2.88 on objects 7, 8, 9
        assert probs == pytest.approx(expected, abs=1e-12)
        assert probs[6] == pytest.approx(0.32, abs=1e-12)
        assert weights[6] - weights[0] == pytest.approx(math.log(48), abs=1e-12)

    def test_uncertain_is_noop(self, table1, table1_stats):
        """A score between the thresholds gets the no-key code, so it adds no count and no factor."""
        cal = BinCalibration(3.0, 5.0, 0.97, 0.97, 0.5, 0.5, 0.01, 0.01, True)
        models = {0: ClassifierModel(0, "lower_is_positive", {0: cal})}
        codes, keys = classify_scores(models, [0, 0, 0], [0, 0, 0], np.array([[4.0, 3.5, 4.999]]))
        assert codes.tolist() == [[len(keys)] * 3]
        episodes = decided(codes, keys, table1, table1_stats)
        assert not episodes.hits.any() and episodes.log_weights[0].tobytes() == np.log(table1.priors).tobytes()

    def test_unreliable_region_is_noop(self, table1, table1_stats):
        """An unreliable bin adopts no score, whatever its side of the one threshold it has."""
        unreliable = BinCalibration(None, 5.0, None, 0.97, 0.0, 0.5, 0.0, 0.01, False)
        models = {0: ClassifierModel(0, "lower_is_positive", {1: unreliable})}
        codes, keys = classify_scores(models, [0, 0], [1, 1], np.array([[-100.0, 100.0]]))
        assert keys == () and codes.tolist() == [[0, 0]]
        episodes = decided(codes, keys, table1, table1_stats)
        assert not episodes.hits.any() and episodes.log_weights[0].tobytes() == np.log(table1.priors).tobytes()

    def test_uncoded_key_adds_nothing(self, table1, table1_stats):
        """A key that no code selects leaves the prior's weights bit for bit."""
        keys = [(table1.attribute_index("cylinder"), "positive", 0.96)]
        episodes = decided(np.array([[1, 1]]), keys, table1, table1_stats)
        assert not episodes.hits.any() and episodes.log_weights[0].tobytes() == np.log(table1.priors).tobytes()

    def test_constant_attribute_rejected(self):
        cat = small_catalog([[1, 1], [1, 0]], [0.5, 0.5])
        stats = compute_stats(cat)
        model = make_synthetic_model(0, 0.96, 0.96)
        with pytest.raises(NonDiscriminativeAttributeError):
            fused(cat, stats, [(model, "positive")])

    def test_saturation_clamps_and_recovers(self):
        cat = small_catalog([[1, 0], [0, 1]], [0.5, 0.5])
        stats = compute_stats(cat)
        model = make_synthetic_model(0, ppv=1.0, npv=1.0)
        observations = [(model, "positive")]
        episodes = fused(cat, stats, observations)
        assert episodes.hits.any()
        assert episodes.log_weights[0, 1] == -np.inf
        assert posterior(episodes.log_weights[0])[1] == 0.0
        # finite contradicting evidence cannot revive an object a factor of 0 ruled out
        soft = make_synthetic_model(1, ppv=0.9, npv=0.9)
        observations += [(soft, "positive")] * 3
        assert posterior(log_weights(cat, stats, observations))[1] == 0.0
        # once every object is contradicted, the finite evidence decides again
        hard = make_synthetic_model(1, ppv=1.0, npv=1.0)
        weights = log_weights(cat, stats, observations + [(hard, "positive")])
        assert np.isfinite(weights).all()
        assert weights[1] > weights[0]
        assert posterior(weights).sum() == pytest.approx(1.0, abs=1e-12)

    def test_truth_weight_nondecreasing_under_correct_evidence(self, table1, table1_stats):
        # with equal priors the floors are w and 1-w; any ppv/npv above them
        # multiplies the true object's weight by a factor >= 1
        truth = table1.objects.index("7")
        observations = []
        weights = log_weights(table1, table1_stats, [])
        for i in range(table1.n_attributes):
            w = table1_stats.attribute_priors[i]
            model = make_synthetic_model(i, ppv=max(w, 0.9), npv=max(1 - w, 0.9))
            observations.append((model, "positive" if table1.matrix[truth, i] else "negative"))
            new = log_weights(table1, table1_stats, observations)
            assert new[truth] >= weights[truth] - 1e-12
            weights = new


class TestOracleEquivalence:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_small_random_cases(self, seed):
        rng = np.random.default_rng(seed)
        n_obj = int(rng.integers(2, 5))
        n_attr = int(rng.integers(1, 5))
        while True:
            matrix = rng.integers(0, 2, size=(n_obj, n_attr))
            if (matrix.any(axis=0) & (1 - matrix).any(axis=0)).all():
                break
        priors = rng.uniform(0.1, 1.0, n_obj)
        priors /= priors.sum()
        cat = small_catalog(matrix, priors)
        stats = compute_stats(cat)
        ppv = rng.uniform(0.6, 0.99, n_attr)
        npv = rng.uniform(0.6, 0.99, n_attr)
        models = {i: make_synthetic_model(i, ppv[i], npv[i]) for i in range(n_attr)}
        outcomes = ["positive", "negative", "uncertain"]
        obs = [
            (int(rng.integers(n_attr)), outcomes[int(rng.integers(3))])
            for _ in range(int(rng.integers(0, 4)))
        ]
        weights = log_weights(cat, stats, [(models[i], outcome) for i, outcome in obs])
        expected = posterior_oracle(cat.priors.tolist(), matrix.tolist(), obs, ppv.tolist(), npv.tolist())
        assert posterior(weights) == pytest.approx(expected, abs=1e-10)


class TestOrderIndependence:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_permutations_agree(self, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 2, size=(5, 4))
        while not (matrix.any(axis=0) & (1 - matrix).any(axis=0)).all():
            matrix = rng.integers(0, 2, size=(5, 4))
        cat = small_catalog(matrix, np.full(5, 0.2))
        stats = compute_stats(cat)
        models = {i: make_synthetic_model(i, 0.9 + 0.02 * i, 0.88 + 0.02 * i) for i in range(4)}
        obs = [
            (int(rng.integers(4)), ["positive", "negative"][int(rng.integers(2))])
            for _ in range(8)
        ]

        def run(sequence):
            return np.log(posterior(log_weights(cat, stats, [(models[i], outcome) for i, outcome in sequence])))

        base = run(obs)
        for _ in range(3):
            perm = [obs[k] for k in rng.permutation(len(obs))]
            assert run(perm) == pytest.approx(base, abs=1e-10)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_permutations_bitwise_equal_with_saturating_factors(self, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 2, size=(5, 4))
        while not (matrix.any(axis=0) & (1 - matrix).any(axis=0)).all():
            matrix = rng.integers(0, 2, size=(5, 4))
        cat = small_catalog(matrix, rng.dirichlet(np.ones(5)) * 0.9 + 0.02)
        stats = compute_stats(cat)
        values = (1.0, 0.97, 0.9, 0.75)
        models = [
            make_synthetic_model(i, values[int(rng.integers(4))], values[int(rng.integers(4))])
            for i in range(4)
            for _ in range(2)
        ]
        outcomes = ("positive", "negative", "uncertain")
        obs = [(models[int(rng.integers(8))], outcomes[int(rng.integers(3))]) for _ in range(10)]

        def run(sequence):
            return log_weights(cat, stats, sequence)

        base = run(obs)
        for _ in range(3):
            assert np.array_equal(run([obs[k] for k in rng.permutation(len(obs))]), base)
        assert np.array_equal(run(obs[::-1]), base)

    def test_saturation_reproducer_is_order_free(self):
        cat = small_catalog([[1, 0], [0, 1]], [0.5, 0.5])
        stats = compute_stats(cat)
        hard = make_synthetic_model(0, ppv=1.0, npv=0.96)
        soft = make_synthetic_model(1, ppv=0.9, npv=0.9)
        sequence = [(hard, "positive"), (soft, "positive"), (soft, "positive")]
        forward, reverse = log_weights(cat, stats, sequence), log_weights(cat, stats, sequence[::-1])
        assert np.array_equal(forward, reverse)
        assert posterior(forward)[1] == 0.0 and posterior(reverse)[1] == 0.0
        assert forward[0] - forward[1] == math.inf
        assert forward[1] - forward[0] == -math.inf


class TestDecide:
    """The engine's MAP rule on one row: a unique maximum, a prior break, and a seeded pick among prior ties."""

    def test_unique_maximum(self, table1, table1_stats):
        truth = table1.objects.index("7")
        evidence = [
            (make_synthetic_model(table1.attribute_index(name), 0.96, 0.96), "positive")
            for name in ("bottle shape", "yellow color")
        ]
        episodes = fused(table1, table1_stats, evidence)
        assert np.flatnonzero(episodes.tied[0, 0]).tolist() == [truth]
        assert (episodes.winners[0, 0], episodes.random[0, 0]) == (truth, False)

    def test_three_way_tie_forced_pick(self, table1, table1_stats):
        i = table1.attribute_index("bottle shape")
        model = make_synthetic_model(i, 0.96, 0.96)
        first, second = (fused(table1, table1_stats, [(model, "positive")], seed=123) for _ in range(2))
        assert np.flatnonzero(first.tied[0, 0]).tolist() == [6, 7, 8]
        assert first.random[0, 0]
        assert first.winners[0, 0] in (6, 7, 8)
        assert first.winners.tobytes() == second.winners.tobytes()

    def test_pick_only_for_rows_with_random_ties(self, table1, table1_stats):
        """``pick`` is called once, with every row that breaks a tie by a pick and its option counts, and never when
        no row does."""
        evidence = [
            (make_synthetic_model(table1.attribute_index(name), 0.96, 0.96), "positive")
            for name in ("bottle shape", "yellow color")
        ]
        row, keys = factor_codes(evidence)
        uncertain = len(keys)
        codes = np.array([[uncertain, uncertain], row[0], [row[0, 0], uncertain]])  # 9-way tie, unique, 3-way tie
        calls = []

        def pick(rows, options):
            calls.append((rows.tolist(), options.tolist()))
            return options - 1  # the last option

        episodes = decide_codes(codes, keys, table1, table1_stats, [2], pick)
        assert calls == [([0, 2], [[9, 3]])] and episodes.random[0].tolist() == [True, False, True]
        assert episodes.winners[0].tolist() == [8, 6, 8]  # the last of objects 0-8, the unique 6, the last of 6-8
        decide_codes(codes[1:2], keys, table1, table1_stats, [2], pick)
        assert len(calls) == 1

    def test_prior_breaks_tie(self):
        """At the predictive-value floor the posterior ties, and the prior picks the object without the attribute."""
        cat = small_catalog([[1], [0]], [0.4, 0.6])
        episodes = fused(cat, compute_stats(cat), [(make_synthetic_model(0, 0.5, 0.9), "positive")])
        assert episodes.tied[0, 0].tolist() == [True, True]
        assert (episodes.winners[0, 0], episodes.random[0, 0]) == (1, False)


class TestPosteriorNumerics:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_normalization(self, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 2, size=(6, 5))
        while not (matrix.any(axis=0) & (1 - matrix).any(axis=0)).all():
            matrix = rng.integers(0, 2, size=(6, 5))
        cat = small_catalog(matrix, np.full(6, 1 / 6))
        stats = compute_stats(cat)
        observations = []
        for _ in range(30):
            i = int(rng.integers(5))
            model = make_synthetic_model(i, float(rng.uniform(0.7, 1.0)), float(rng.uniform(0.7, 1.0)))
            observations.append((model, ["positive", "negative"][int(rng.integers(2))]))
        assert posterior(log_weights(cat, stats, observations)).sum() == pytest.approx(1.0, abs=1e-12)

    def test_long_runs_stay_finite(self, table1, table1_stats):
        i = table1.attribute_index("cylinder")
        model = make_synthetic_model(i, 0.96, 0.96)
        codes, keys = factor_codes([(model, "positive")] * 3000)
        assert keys == [(i, "positive", 0.96)]
        weights = decided(codes, keys, table1, table1_stats).log_weights[0]
        assert np.isfinite(weights).all()
        assert posterior(weights).sum() == pytest.approx(1.0, abs=1e-12)


def test_factor_rows_take_libm_log():
    """The factor rows use libm's ``math.log``, bit for bit, where numpy's SIMD ``np.log`` differs in the last bit."""
    values = np.random.default_rng(0).uniform(0.9, 1.0, 4000)
    values = values[np.log(values) != [math.log(v) for v in values.tolist()]]
    w = 0.95  # log(v) - log(w) is exact for most v here, so a last-bit difference in log(v) shows
    expected = np.array([[math.log(v) - math.log(w), math.log(1.0 - v) - math.log(1.0 - w)] for v in values.tolist()])
    if not (np.log(values) - np.log(w) != expected[:, 0]).any():
        pytest.skip("this numpy build's log agrees with libm on the sample")
    rows = log_factor_rows(np.array([True, False]), np.full(values.size, w), np.ones(values.size, dtype=bool), values)
    assert rows.tobytes() == expected.tobytes()


@st.composite
def tally_inputs(draw):
    """A log prior, counts and a key table for :func:`tally`: one shared table or one per row, with zero
    counts and ``-inf`` (zero-factor) entries drawn about half the time."""
    rows, keys, objects = draw(st.integers(1, 12)), draw(st.integers(0, 8)), draw(st.integers(1, 7))
    per_row = draw(st.booleans())
    log_value = st.one_of(st.floats(-40.0, 40.0), st.just(-math.inf))
    table = draw(arrays(float, (rows, keys, objects) if per_row else (keys, objects), elements=log_value))
    log_prior_value = st.one_of(st.floats(-9.0, 0.0), st.just(-math.inf))
    log_prior = draw(arrays(float, (rows, objects) if per_row else (objects,), elements=log_prior_value))
    counts = draw(arrays(np.int64, (rows, keys), elements=st.one_of(st.just(0), st.integers(1, 40))))
    return log_prior, counts, table


@given(tally_inputs())
@settings(max_examples=300, deadline=None)
def test_tally_equals_the_per_key_loop(inputs):
    """The integer hit product and buffered sums give the per-key loop's hits exactly and its finite sums bit for bit."""
    hits, finite = tally(*inputs)
    expected_hits, expected_finite = reference_tally(*inputs)
    assert hits.dtype == np.int64 and np.array_equal(hits, expected_hits)
    assert finite.shape == expected_finite.shape and finite.tobytes() == expected_finite.tobytes()


@given(st.integers(0, 5), st.integers(0, 5), st.data())
@settings(max_examples=200, deadline=None)
def test_count_codes_equal_a_counter_per_row(n_keys, rows, data):
    """Each checkpoint's counts are a ``Counter`` of each row's leading codes; the no-key code is never counted."""
    draws = data.draw(st.integers(0, 9))
    codes = np.array(
        data.draw(st.lists(st.lists(st.integers(0, n_keys), min_size=draws, max_size=draws), min_size=rows, max_size=rows)),
        dtype=np.intp,
    ).reshape(rows, draws)
    checkpoints = sorted(data.draw(st.lists(st.integers(0, draws), min_size=1, max_size=4)))
    counts = count_codes(codes, n_keys, checkpoints)
    assert counts.dtype == np.int64 and counts.shape == (len(checkpoints), rows, n_keys)
    for c, stop in enumerate(checkpoints):
        for r, row in enumerate(codes.tolist()):
            seen = collections.Counter(row[:stop])
            assert counts[c, r].tolist() == [seen[key] for key in range(n_keys)]


def test_count_codes_at_equal_checkpoints_are_equal():
    codes = np.array([[0, 2, 1, 2], [2, 2, 2, 0]])  # 2 keys: code 2 is uncertain
    counts = count_codes(codes, 2, [1, 3, 3, 4])
    assert counts.tolist() == [[[1, 0], [0, 0]], [[1, 1], [0, 0]], [[1, 1], [0, 0]], [[1, 1], [1, 0]]]


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_stacked_rows_decide_as_one_call_per_row(seed):
    """Rows with their own key tables, priors (zero for a padded object) and pick uniforms, decided in one call,
    equal one call per row with that row's table shared. Row 0 has no evidence and ties on equal priors, so its
    uniforms pick the winner."""
    rng = np.random.default_rng(seed)
    rows, n_keys, n_objects = 8, 3, 4
    tables = rng.choice([0.0, -0.5, math.log(2.0), -math.inf], size=(rows, n_keys, n_objects))
    weights = rng.choice([0.0, 1.0, 1.0, 2.0], size=(rows, n_objects))
    weights[:, 0] = 1.0
    weights[0] = [1.0, 1.0, 1.0, 0.0]
    priors = weights / weights.sum(axis=1, keepdims=True)
    counts = rng.integers(0, 3, size=(3, rows, n_keys)).cumsum(axis=0)
    counts[:, 0] = 0
    u = rng.random((rows, counts.shape[0]))
    stacked = decide(counts, tables, priors, uniform_picks(u))
    assert stacked.random[:, 0].all()
    for r in range(rows):
        alone = decide(counts[:, r : r + 1], tables[r], priors[r], uniform_picks(u[r : r + 1]))
        assert stacked.winners[:, r].tolist() == alone.winners[:, 0].tolist()
        assert stacked.random[:, r].tolist() == alone.random[:, 0].tolist()
        assert stacked.tied[:, r].tolist() == alone.tied[:, 0].tolist()
        assert stacked.hits[r].tolist() == alone.hits[0].tolist()
        assert stacked.log_weights[r].tobytes() == alone.log_weights[0].tobytes()
