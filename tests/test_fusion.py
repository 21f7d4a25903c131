import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attrfuse.catalog import NonDiscriminativeAttributeError, ObjectCatalog, compute_stats
from attrfuse.classifier import make_synthetic_model
from attrfuse.fusion import (
    Decision,
    Observation,
    PosteriorState,
    decide,
    init_posterior,
    make_observation,
    posterior,
    posterior_ratio,
    update,
)

from oracles import posterior_oracle


def small_catalog(matrix, priors):
    matrix = np.asarray(matrix)
    return ObjectCatalog(
        objects=tuple(f"o{j}" for j in range(matrix.shape[0])),
        attributes=tuple(f"a{i}" for i in range(matrix.shape[1])),
        matrix=matrix,
        priors=np.asarray(priors, dtype=float),
    )


@pytest.fixture(scope="module")
def table1_stats(table1):
    return compute_stats(table1)


class TestInit:
    def test_equal_priors(self, table1):
        state = init_posterior(table1)
        assert posterior(state) == pytest.approx(np.full(9, 1 / 9), abs=1e-12)
        assert state.outcome_counts("positive") == {} and state.outcome_counts("negative") == {}
        assert state.counts == {}

    def test_priors_recovered_exactly(self):
        cat = small_catalog([[1], [0], [1]], [0.5, 0.3, 0.2])
        assert posterior(init_posterior(cat)) == pytest.approx([0.5, 0.3, 0.2], abs=1e-12)


class TestUpdate:
    def test_bottle_shape_positive(self, table1, table1_stats):
        i = table1.attribute_index("bottle shape")
        model = make_synthetic_model(i, ppv=0.96, npv=0.96)
        state = update(
            init_posterior(table1),
            Observation(i, 0, "positive"),
            model,
            table1_stats,
        )
        probs = posterior(state)
        expected = np.full(9, 0.04 / (2 / 3) / 9)   # factor 0.06 on the six non-bottles
        expected[6:] = 0.96 / (1 / 3) / 9           # factor 2.88 on objects 7, 8, 9
        assert probs == pytest.approx(expected, abs=1e-12)
        assert probs[6] == pytest.approx(0.32, abs=1e-12)
        assert posterior_ratio(state, 6, 0) == pytest.approx(math.log(48), abs=1e-12)
        assert state.outcome_counts("positive") == {i: 1} and state.outcome_counts("negative") == {}

    def test_uncertain_is_noop(self, table1, table1_stats):
        i = 0
        model = make_synthetic_model(i, 0.96, 0.96)
        state = init_posterior(table1)
        after = update(state, Observation(i, 0, "uncertain"), model, table1_stats)
        assert after is state

    def test_unreliable_region_is_noop(self, table1, table1_stats):
        i = 0
        model = make_synthetic_model(i, 0.96, 0.96)
        state = init_posterior(table1)
        after = update(state, Observation(i, 5, "uncertain"), model, table1_stats)
        assert after is state

    def test_constant_attribute_rejected(self):
        cat = small_catalog([[1, 1], [1, 0]], [0.5, 0.5])
        stats = compute_stats(cat)
        model = make_synthetic_model(0, 0.96, 0.96)
        with pytest.raises(NonDiscriminativeAttributeError):
            update(init_posterior(cat), Observation(0, 0, "positive"), model, stats)

    def test_saturation_clamps_and_recovers(self):
        cat = small_catalog([[1, 0], [0, 1]], [0.5, 0.5])
        stats = compute_stats(cat)
        model = make_synthetic_model(0, ppv=1.0, npv=1.0)
        state = update(init_posterior(cat), Observation(0, 0, "positive"), model, stats)
        assert state.saturated
        assert state.log_weights[1] == -np.inf
        assert posterior(state)[1] == 0.0
        # finite contradicting evidence cannot revive an object a factor of 0 ruled out
        soft = make_synthetic_model(1, ppv=0.9, npv=0.9)
        for _ in range(3):
            state = update(state, Observation(1, 0, "positive"), soft, stats)
        assert posterior(state)[1] == 0.0
        # once every object is contradicted, the finite evidence decides again
        hard = make_synthetic_model(1, ppv=1.0, npv=1.0)
        state = update(state, Observation(1, 0, "positive"), hard, stats)
        assert np.isfinite(state.log_weights).all()
        assert state.log_weights[1] > state.log_weights[0]
        assert posterior(state).sum() == pytest.approx(1.0, abs=1e-12)

    def test_observation_invariant(self, table1, table1_stats):
        from attrfuse.classifier import BinCalibration, ClassifierModel

        with pytest.raises(ValueError):
            Observation(0, 0, "maybe")
        # an unreliable bin classifies as uncertain, and update ignores it either way
        unreliable = BinCalibration(1, None, 5.0, None, 0.97, 0.0, 0.5, 0.0, 0.01, False)
        model = ClassifierModel(0, "lower_is_positive", {1: unreliable})
        obs = make_observation(model, 1, -100.0)
        assert obs == Observation(0, 1, "uncertain")
        state = init_posterior(table1)
        assert update(state, obs, model, table1_stats) is state
        assert update(state, Observation(0, 1, "negative"), model, table1_stats) is state

    def test_truth_weight_nondecreasing_under_correct_evidence(self, table1, table1_stats):
        # with equal priors the floors are w and 1-w; any ppv/npv above them
        # multiplies the true object's weight by a factor >= 1
        truth = table1.object_index("7")
        state = init_posterior(table1)
        for i in range(table1.n_attributes):
            w = table1_stats.attribute_priors[i]
            model = make_synthetic_model(i, ppv=max(w, 0.9), npv=max(1 - w, 0.9))
            outcome = "positive" if table1.matrix[truth, i] else "negative"
            new = update(state, Observation(i, 0, outcome), model, table1_stats)
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
        state = init_posterior(cat)
        for i, outcome in obs:
            state = update(state, Observation(i, 0, outcome), models[i], stats)
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
            state = init_posterior(cat)
            for i, outcome in sequence:
                state = update(state, Observation(i, 0, outcome), models[i], stats)
            return np.log(posterior(state))

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
            state = init_posterior(cat)
            for model, outcome in sequence:
                state = update(state, Observation(model.attribute_index, 0, outcome), model, stats)
            return state.log_weights

        base = run(obs)
        for _ in range(3):
            assert np.array_equal(run([obs[k] for k in rng.permutation(len(obs))]), base)
        assert np.array_equal(run(obs[::-1]), base)

    def test_saturation_reproducer_is_order_free(self):
        cat = small_catalog([[1, 0], [0, 1]], [0.5, 0.5])
        stats = compute_stats(cat)
        hard = make_synthetic_model(0, ppv=1.0, npv=0.96)
        soft = make_synthetic_model(1, ppv=0.9, npv=0.9)
        sequence = [(hard, 0), (soft, 1), (soft, 1)]

        def run(seq):
            state = init_posterior(cat)
            for model, i in seq:
                state = update(state, Observation(i, 0, "positive"), model, stats)
            return state

        forward, reverse = run(sequence), run(sequence[::-1])
        assert np.array_equal(forward.log_weights, reverse.log_weights)
        assert posterior(forward)[1] == 0.0 and posterior(reverse)[1] == 0.0
        assert posterior_ratio(forward, 0, 1) == math.inf
        assert posterior_ratio(forward, 1, 0) == -math.inf


class TestDecide:
    def test_unique_maximum(self, table1):
        lw = init_posterior(table1).log_weights.copy()
        lw[3] += 1.0
        state = PosteriorState(lw)
        decision = decide(state, table1)
        assert decision == Decision(winner=3, candidates=(3,), tie_broken_by="none")

    def test_three_way_tie_forced_pick(self, table1, table1_stats):
        i = table1.attribute_index("bottle shape")
        model = make_synthetic_model(i, 0.96, 0.96)
        state = update(init_posterior(table1), Observation(i, 0, "positive"), model, table1_stats)
        d1 = decide(state, table1, rng=np.random.Generator(np.random.Philox(123)))
        d2 = decide(state, table1, rng=np.random.Generator(np.random.Philox(123)))
        assert d1.candidates == (6, 7, 8)
        assert d1.tie_broken_by == "random"
        assert d1.winner in (6, 7, 8)
        assert d1 == d2

    def test_tie_without_rng_unresolved(self, table1, table1_stats):
        i = table1.attribute_index("bottle shape")
        model = make_synthetic_model(i, 0.96, 0.96)
        state = update(init_posterior(table1), Observation(i, 0, "positive"), model, table1_stats)
        decision = decide(state, table1)
        assert decision.winner is None
        assert decision.candidates == (6, 7, 8)

    def test_prior_breaks_tie(self):
        cat = small_catalog([[1, 0], [0, 1], [0, 0]], [0.4, 0.2, 0.4])
        state = PosteriorState(np.log(np.array([0.5, 0.5, 1e-6])))
        decision = decide(state, cat)
        assert decision.winner == 0
        assert decision.tie_broken_by == "prior"
        assert decision.candidates == (0, 1)


class TestPosteriorNumerics:
    def test_ratio_zero_at_init(self, table1):
        state = init_posterior(table1)
        assert posterior_ratio(state, 0, 5) == pytest.approx(0.0, abs=1e-15)

    def test_ratio_antisymmetric(self, table1, table1_stats):
        i = table1.attribute_index("cylinder")
        model = make_synthetic_model(i, 0.93, 0.95)
        state = update(init_posterior(table1), Observation(i, 0, "positive"), model, table1_stats)
        assert posterior_ratio(state, 1, 7) == pytest.approx(-posterior_ratio(state, 7, 1), abs=1e-15)

    def test_ratio_index_checked(self, table1):
        with pytest.raises(IndexError):
            posterior_ratio(init_posterior(table1), 0, 9)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_normalization(self, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 2, size=(6, 5))
        while not (matrix.any(axis=0) & (1 - matrix).any(axis=0)).all():
            matrix = rng.integers(0, 2, size=(6, 5))
        cat = small_catalog(matrix, np.full(6, 1 / 6))
        stats = compute_stats(cat)
        state = init_posterior(cat)
        for _ in range(30):
            i = int(rng.integers(5))
            model = make_synthetic_model(i, float(rng.uniform(0.7, 1.0)), float(rng.uniform(0.7, 1.0)))
            outcome = ["positive", "negative"][int(rng.integers(2))]
            state = update(state, Observation(i, 0, outcome), model, stats)
        assert posterior(state).sum() == pytest.approx(1.0, abs=1e-12)

    def test_long_runs_stay_finite(self, table1, table1_stats):
        i = table1.attribute_index("cylinder")
        model = make_synthetic_model(i, 0.96, 0.96)
        state = init_posterior(table1)
        for _ in range(3000):
            state = update(state, Observation(i, 0, "positive"), model, table1_stats)
        assert np.isfinite(state.log_weights).all()
        assert posterior(state).sum() == pytest.approx(1.0, abs=1e-12)


def test_make_observation_classifies_and_tags(table1):
    from attrfuse.classifier import BinCalibration, ClassifierModel

    cal = BinCalibration(0, 3.0, 5.0, 0.97, 0.97, 0.5, 0.5, 0.01, 0.01, True)
    model = ClassifierModel(2, "lower_is_positive", {0: cal})
    obs = make_observation(model, 0, 2.0)
    assert obs == Observation(2, 0, "positive")
    obs = make_observation(model, 0, 4.0)
    assert obs.outcome == "uncertain"
