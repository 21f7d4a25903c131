import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attrfuse.catalog import NonDiscriminativeAttributeError, ObjectCatalog, compute_stats
from attrfuse.classifier import BinCalibration, ClassifierModel
from attrfuse.fusion import (
    Decision,
    PosteriorState,
    counted_posterior,
    decide,
    posterior,
)
from attrfuse.simulator import classify_scores

from oracles import factor_counts, make_synthetic_model, posterior_oracle


def small_catalog(matrix, priors):
    matrix = np.asarray(matrix)
    return ObjectCatalog(
        objects=tuple(f"o{j}" for j in range(matrix.shape[0])),
        attributes=tuple(f"a{i}" for i in range(matrix.shape[1])),
        matrix=matrix,
        priors=np.asarray(priors, dtype=float),
    )


def fused(catalog, stats, observations):
    """The posterior after (model, outcome) observations in bin 0."""
    return counted_posterior(catalog, stats, factor_counts(observations))


@pytest.fixture(scope="module")
def table1_stats(table1):
    return compute_stats(table1)


class TestInit:
    def test_equal_priors(self, table1, table1_stats):
        state = counted_posterior(table1, table1_stats, {})
        assert posterior(state) == pytest.approx(np.full(9, 1 / 9), abs=1e-12)
        assert state.outcome_counts("positive") == {} and state.outcome_counts("negative") == {}
        assert state.counts == {}

    def test_priors_recovered_exactly(self):
        cat = small_catalog([[1], [0], [1]], [0.5, 0.3, 0.2])
        assert posterior(counted_posterior(cat, compute_stats(cat), {})) == pytest.approx([0.5, 0.3, 0.2], abs=1e-12)


class TestCountedPosterior:
    def test_bottle_shape_positive(self, table1, table1_stats):
        i = table1.attribute_index("bottle shape")
        model = make_synthetic_model(i, ppv=0.96, npv=0.96)
        state = fused(table1, table1_stats, [(model, "positive")])
        probs = posterior(state)
        expected = np.full(9, 0.04 / (2 / 3) / 9)   # factor 0.06 on the six non-bottles
        expected[6:] = 0.96 / (1 / 3) / 9           # factor 2.88 on objects 7, 8, 9
        assert probs == pytest.approx(expected, abs=1e-12)
        assert probs[6] == pytest.approx(0.32, abs=1e-12)
        assert state.log_weights[6] - state.log_weights[0] == pytest.approx(math.log(48), abs=1e-12)
        assert state.outcome_counts("positive") == {i: 1} and state.outcome_counts("negative") == {}

    def test_uncertain_is_noop(self, table1, table1_stats):
        """A score between the thresholds gets the no-key code, so it adds no count and no factor."""
        cal = BinCalibration(0, 3.0, 5.0, 0.97, 0.97, 0.5, 0.5, 0.01, 0.01, True)
        models = {0: ClassifierModel(0, "lower_is_positive", {0: cal})}
        codes, keys = classify_scores(models, [0, 0, 0], [0, 0, 0], np.array([[4.0, 3.5, 4.999]]))
        assert codes.tolist() == [[len(keys)] * 3]
        state = counted_posterior(table1, table1_stats, dict(zip(keys, np.bincount(codes[0], minlength=len(keys)))))
        assert state.counts == {} and not state.hits.any()
        assert state.finite.tobytes() == state.log_weights.tobytes() == np.log(table1.priors).tobytes()

    def test_unreliable_region_is_noop(self, table1, table1_stats):
        """An unreliable bin adopts no score, whatever its side of the one threshold it has."""
        unreliable = BinCalibration(1, None, 5.0, None, 0.97, 0.0, 0.5, 0.0, 0.01, False)
        models = {0: ClassifierModel(0, "lower_is_positive", {1: unreliable})}
        codes, keys = classify_scores(models, [0, 0], [1, 1], np.array([[-100.0, 100.0]]))
        assert keys == () and codes.tolist() == [[0, 0]]
        state = counted_posterior(table1, table1_stats, dict(zip(keys, np.bincount(codes[0], minlength=len(keys)))))
        assert state.counts == {} and not state.hits.any()
        assert state.log_weights.tobytes() == np.log(table1.priors).tobytes()

    def test_zero_counts_are_dropped(self, table1, table1_stats):
        key = (table1.attribute_index("cylinder"), "positive", 0.96)
        state = counted_posterior(table1, table1_stats, {key: 0})
        assert state.counts == {} and state.finite.tobytes() == np.log(table1.priors).tobytes() and not state.saturated

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
        state = fused(cat, stats, observations)
        assert state.saturated
        assert state.log_weights[1] == -np.inf
        assert posterior(state)[1] == 0.0
        # finite contradicting evidence cannot revive an object a factor of 0 ruled out
        soft = make_synthetic_model(1, ppv=0.9, npv=0.9)
        observations += [(soft, "positive")] * 3
        assert posterior(fused(cat, stats, observations))[1] == 0.0
        # once every object is contradicted, the finite evidence decides again
        hard = make_synthetic_model(1, ppv=1.0, npv=1.0)
        state = fused(cat, stats, observations + [(hard, "positive")])
        assert np.isfinite(state.log_weights).all()
        assert state.log_weights[1] > state.log_weights[0]
        assert posterior(state).sum() == pytest.approx(1.0, abs=1e-12)

    def test_truth_weight_nondecreasing_under_correct_evidence(self, table1, table1_stats):
        # with equal priors the floors are w and 1-w; any ppv/npv above them
        # multiplies the true object's weight by a factor >= 1
        truth = table1.objects.index("7")
        observations = []
        state = counted_posterior(table1, table1_stats, {})
        for i in range(table1.n_attributes):
            w = table1_stats.attribute_priors[i]
            model = make_synthetic_model(i, ppv=max(w, 0.9), npv=max(1 - w, 0.9))
            observations.append((model, "positive" if table1.matrix[truth, i] else "negative"))
            new = fused(table1, table1_stats, observations)
            assert new.log_weights[truth] >= state.log_weights[truth] - 1e-12
            state = new


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
        state = fused(cat, stats, [(models[i], outcome) for i, outcome in obs])
        expected = posterior_oracle(cat.priors.tolist(), matrix.tolist(), obs, ppv.tolist(), npv.tolist())
        assert posterior(state) == pytest.approx(expected, abs=1e-10)


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
            return np.log(posterior(fused(cat, stats, [(models[i], outcome) for i, outcome in sequence])))

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
            return fused(cat, stats, sequence).log_weights

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
        forward, reverse = fused(cat, stats, sequence), fused(cat, stats, sequence[::-1])
        assert np.array_equal(forward.log_weights, reverse.log_weights)
        assert posterior(forward)[1] == 0.0 and posterior(reverse)[1] == 0.0
        assert forward.log_weights[0] - forward.log_weights[1] == math.inf
        assert forward.log_weights[1] - forward.log_weights[0] == -math.inf


class TestDecide:
    def test_unique_maximum(self, table1):
        lw = np.log(table1.priors)
        lw[3] += 1.0
        state = PosteriorState({}, np.zeros(lw.size, dtype=np.int64), lw)
        decision = decide(state, table1)
        assert decision == Decision(winner=3, candidates=(3,), tie_broken_by="none")

    def test_three_way_tie_forced_pick(self, table1, table1_stats):
        i = table1.attribute_index("bottle shape")
        model = make_synthetic_model(i, 0.96, 0.96)
        state = fused(table1, table1_stats, [(model, "positive")])
        d1 = decide(state, table1, rng=np.random.Generator(np.random.Philox(123)))
        d2 = decide(state, table1, rng=np.random.Generator(np.random.Philox(123)))
        assert d1.candidates == (6, 7, 8)
        assert d1.tie_broken_by == "random"
        assert d1.winner in (6, 7, 8)
        assert d1 == d2

    def test_tie_without_rng_unresolved(self, table1, table1_stats):
        i = table1.attribute_index("bottle shape")
        model = make_synthetic_model(i, 0.96, 0.96)
        state = fused(table1, table1_stats, [(model, "positive")])
        decision = decide(state, table1)
        assert decision.winner is None
        assert decision.candidates == (6, 7, 8)

    def test_prior_breaks_tie(self):
        cat = small_catalog([[1, 0], [0, 1], [0, 0]], [0.4, 0.2, 0.4])
        state = PosteriorState({}, np.zeros(3, dtype=np.int64), np.log(np.array([0.5, 0.5, 1e-6])))
        decision = decide(state, cat)
        assert decision.winner == 0
        assert decision.tie_broken_by == "prior"
        assert decision.candidates == (0, 1)


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
        state = fused(cat, stats, observations)
        assert posterior(state).sum() == pytest.approx(1.0, abs=1e-12)

    def test_long_runs_stay_finite(self, table1, table1_stats):
        i = table1.attribute_index("cylinder")
        model = make_synthetic_model(i, 0.96, 0.96)
        state = fused(table1, table1_stats, [(model, "positive")] * 3000)
        assert state.counts == {(i, "positive", 0.96): 3000}
        assert np.isfinite(state.log_weights).all()
        assert posterior(state).sum() == pytest.approx(1.0, abs=1e-12)
