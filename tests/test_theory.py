from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attrfuse.catalog import ObjectCatalog, compute_stats
from attrfuse.classifier import BinCalibration
from attrfuse.experiments import exact_recognition_suite
from attrfuse.theory import certify_guaranteed_recognition, predictive_value_floors

from oracles import decide_codes, fuse_pick, make_synthetic_model


def small_catalog(matrix, priors):
    matrix = np.asarray(matrix)
    return ObjectCatalog(
        objects=tuple(f"o{j}" for j in range(matrix.shape[0])),
        attributes=tuple(f"a{i}" for i in range(matrix.shape[1])),
        matrix=matrix,
        priors=np.asarray(priors, dtype=float),
    )


class TestRequiredPredictiveValues:
    def test_equal_priors_reduce_to_attribute_prior(self, table1):
        stats = compute_stats(table1)
        i = table1.attribute_index("bottle shape")
        ppv_floors, npv_floors = predictive_value_floors(stats)
        assert ppv_floors[i] == pytest.approx(1 / 3, abs=1e-12)
        assert npv_floors[i] == pytest.approx(2 / 3, abs=1e-12)

    def test_ratio_four(self):
        cat = small_catalog([[1], [1], [0], [0]], [0.1, 0.1, 0.4, 0.4])
        stats = compute_stats(cat)
        ppv_bound = predictive_value_floors(stats)[0][0]
        # w = 0.2, ratio 4: bound = 0.8 / 1.6
        assert ppv_bound == pytest.approx(0.5, abs=1e-12)

    def test_unit_ratio_gives_prior(self):
        for w_target in (0.25, 0.5, 0.75):
            n = 4
            k = int(w_target * n)
            column = [1] * k + [0] * (n - k)
            cat = small_catalog(np.array(column)[:, None], np.full(n, 1 / n))
            stats = compute_stats(cat)
            ppv_floors, npv_floors = predictive_value_floors(stats)
            assert ppv_floors[0] == pytest.approx(w_target, abs=1e-12)
            assert npv_floors[0] == pytest.approx(1 - w_target, abs=1e-12)

    def test_constant_attribute_rejected(self):
        cat = small_catalog([[1, 1], [0, 1]], [0.5, 0.5])
        stats = compute_stats(cat)
        ppv_floors, npv_floors = predictive_value_floors(stats)
        assert np.isnan(ppv_floors[1]) and np.isnan(npv_floors[1])
        assert not stats.usable[1]

    def test_bound_monotone_in_ratio_and_prior(self):
        def bound(r, w):
            return r * w / (1 + (r - 1) * w)

        ratios = np.linspace(1, 10, 25)
        priors = np.linspace(0.05, 0.95, 25)
        for w in priors:
            vals = [bound(r, w) for r in ratios]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        for r in ratios:
            vals = [bound(r, w) for w in priors]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_pairwise_inequality_chain(self):
        # whenever ppv meets its bound, the winning factor of any positive
        # object beats the contradiction factor of any negative object
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            column = np.zeros(n, dtype=int)
            column[: int(rng.integers(1, n))] = 1
            rng.shuffle(column)
            priors = rng.uniform(0.05, 1.0, n)
            priors /= priors.sum()
            cat = small_catalog(column[:, None], priors)
            stats = compute_stats(cat)
            ppv_bound = predictive_value_floors(stats)[0][0]
            w = stats.attribute_priors[0]
            ppv = float(rng.uniform(ppv_bound, 1.0))
            for j in np.flatnonzero(column):
                for g in np.flatnonzero(1 - column):
                    lhs = cat.priors[j] * ppv / w
                    rhs = cat.priors[g] * (1 - ppv) / (1 - w)
                    assert lhs >= rhs - 1e-12


class TestCertification:
    def make_models(self, catalog, ppv=0.96, npv=0.96):
        return {i: make_synthetic_model(i, ppv, npv) for i in range(catalog.n_attributes)}

    def test_unique_evidence_guaranteed(self, table1):
        models = self.make_models(table1)
        pos = {table1.attribute_index("bottle shape"), table1.attribute_index("yellow color")}
        verdict = certify_guaranteed_recognition(table1, models, pos, set())
        assert verdict.guaranteed
        assert verdict.object_index == table1.objects.index("7")

    def test_ambiguous_evidence_not_guaranteed(self, table1):
        models = self.make_models(table1)
        verdict = certify_guaranteed_recognition(table1, models, {table1.attribute_index("cylinder")}, set())
        assert not verdict.guaranteed
        assert len(verdict.candidates) == 5
        assert "candidates" in verdict.reason

    def test_bound_violation_not_guaranteed(self, table1):
        models = self.make_models(table1)
        i = table1.attribute_index("cylinder")
        models[i] = make_synthetic_model(i, ppv=0.5, npv=0.96)  # below the 5/9 floor
        pos = {i, table1.attribute_index("bottle shape"), table1.attribute_index("yellow color")}
        verdict = certify_guaranteed_recognition(table1, models, pos, set())
        assert not verdict.guaranteed
        assert "below bound" in verdict.reason

    def test_contradictory_evidence(self, table1):
        models = self.make_models(table1)
        pos = {table1.attribute_index("cylinder"), table1.attribute_index("gable top carton shape")}
        verdict = certify_guaranteed_recognition(table1, models, pos, set())
        assert not verdict.guaranteed
        assert verdict.candidates == ()

    def test_missing_model_not_guaranteed(self, table1):
        pos = {table1.attribute_index("bottle shape"), table1.attribute_index("yellow color")}
        verdict = certify_guaranteed_recognition(table1, {}, pos, set())
        assert not verdict.guaranteed

    def test_constant_attribute_not_guaranteed(self):
        # every object has attribute 1; attribute 0 alone identifies object 0
        cat = small_catalog([[1, 1], [0, 1]], [0.5, 0.5])
        verdict = certify_guaranteed_recognition(cat, self.make_models(cat), {0, 1}, set())
        assert not verdict.guaranteed and verdict.candidates == (0,)
        assert verdict.reason == "attribute 1 is constant across the catalog"

    def test_no_reliable_bin_not_guaranteed(self, table1):
        models = self.make_models(table1)
        i = table1.attribute_index("yellow color")
        unreliable = BinCalibration(
            theta_pos=None, theta_neg=None, ppv=None, npv=None,
            detection_rate=0.0, true_negative_rate=0.0,
            false_positive_rate=0.0, false_negative_rate=0.0, reliable=False,
        )
        models[i] = replace(models[i], calibrations={0: unreliable})
        pos = {table1.attribute_index("bottle shape"), i}
        verdict = certify_guaranteed_recognition(table1, models, pos, set())
        assert not verdict.guaranteed and verdict.candidates == (table1.objects.index("7"),)
        assert verdict.reason == f"attribute {i} has no reliable bin"

    def test_unreliable_bins_ignored(self):
        # bin 0 has no predictive values at all; the reliable bin 1 alone decides
        cat = small_catalog([[1], [0]], [0.5, 0.5])
        model = make_synthetic_model(0, 0.96, 0.96)
        unreliable = replace(model.calibrations[0], ppv=None, npv=None, reliable=False)
        models = {0: replace(model, calibrations={0: unreliable, 1: model.calibrations[0]})}
        verdict = certify_guaranteed_recognition(cat, models, {0}, set())
        assert verdict.guaranteed and verdict.object_index == 0

    def test_every_reliable_bin_must_qualify(self):
        # negative evidence identifies object 1; bin 1's NPV sits on the 1 - w = 0.5 floor
        cat = small_catalog([[1], [0]], [0.5, 0.5])
        model = make_synthetic_model(0, 0.96, 0.96)
        weak = replace(model.calibrations[0], npv=0.5)
        models = {0: replace(model, calibrations={0: model.calibrations[0], 1: weak})}
        verdict = certify_guaranteed_recognition(cat, models, set(), {0})
        assert not verdict.guaranteed and verdict.candidates == (1,)
        assert verdict.reason == "attribute 0 bin 1: npv 0.500000 at or below bound 0.500000"
        models[0] = replace(model, calibrations={0: model.calibrations[0], 1: replace(weak, npv=0.9)})
        assert certify_guaranteed_recognition(cat, models, set(), {0}).guaranteed


def engine_decision(catalog, models, pos, neg):
    """The engine's one-row decision on one adopted observation per attribute in ``pos`` and ``neg`` (bin 0)."""
    keyed = [(i, "positive", models[i].calibrations[0].ppv) for i in sorted(pos)]
    keyed += [(i, "negative", models[i].calibrations[0].npv) for i in sorted(neg)]
    keys = sorted(keyed)
    codes = np.array([[keys.index(key) for key in keyed]], dtype=np.intp)
    return decide_codes(codes, keys, catalog, compute_stats(catalog), [codes.shape[1]], fuse_pick(0))


class TestFloorAgreement:
    """The certificate holds exactly when the decision it describes has the truth as its only candidate."""

    @pytest.mark.parametrize("ppv", [0.5, 0.5 * (1 + 1e-10)])
    def test_tie_at_the_floor_is_not_guaranteed(self, ppv):
        # A (prior 0.4) has the attribute, B (prior 0.6) lacks it: the PPV floor is 0.5
        cat = small_catalog([[1], [0]], [0.4, 0.6])
        models = {0: make_synthetic_model(0, ppv, 0.9)}
        assert predictive_value_floors(compute_stats(cat))[0][0] == pytest.approx(0.5, abs=1e-15)
        episodes = engine_decision(cat, models, {0}, set())
        assert episodes.tied[0, 0].tolist() == [True, True] and episodes.winners[0, 0] == 1  # B, by its prior
        verdict = certify_guaranteed_recognition(cat, models, {0}, set())
        assert not verdict.guaranteed and "at or below bound" in verdict.reason

    def test_above_the_floor_is_guaranteed(self):
        cat = small_catalog([[1], [0]], [0.4, 0.6])
        models = {0: make_synthetic_model(0, 0.500001, 0.9)}
        assert np.flatnonzero(engine_decision(cat, models, {0}, set()).tied[0, 0]).tolist() == [0]
        assert certify_guaranteed_recognition(cat, models, {0}, set()).guaranteed

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_certified_evidence_decides_the_truth_alone(self, seed):
        """Predictive values at, just above and well above their floors: a certified case never ties."""
        rng = np.random.default_rng(seed)
        n_objects, n_attributes = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        matrix = rng.integers(0, 2, size=(n_objects, n_attributes))
        if not (matrix.any(axis=0) & (1 - matrix).any(axis=0)).all():
            return
        cat = small_catalog(matrix, rng.dirichlet(np.ones(n_objects)) * 0.9 + 0.1 / n_objects)
        ppv_floors, npv_floors = predictive_value_floors(compute_stats(cat))
        scales = (1.0, 1.0, 1 + 1e-10, 1 + 3e-9, 1 + 1e-6, 1.05)
        models = {}
        for i in range(n_attributes):
            ppv, npv = (min(1.0, floor * scales[int(rng.integers(len(scales)))]) for floor in (ppv_floors[i], npv_floors[i]))
            models[i] = make_synthetic_model(i, ppv, npv)
        truth = int(rng.integers(n_objects))
        pos = set(np.flatnonzero(matrix[truth]).tolist())
        neg = set(range(n_attributes)) - pos
        if certify_guaranteed_recognition(cat, models, pos, neg).guaranteed:
            assert np.flatnonzero(engine_decision(cat, models, pos, neg).tied[0, 0]).tolist() == [truth]


class TestRateBounds:
    def test_synthetic_model_rate_consistency(self):
        m = make_synthetic_model(3, ppv=0.96, npv=0.9, detection_rate=0.5, true_negative_rate=0.4)
        cal = m.calibrations[0]
        # claimed rates reproduce the stated predictive values under equal priors
        assert cal.detection_rate / (cal.detection_rate + cal.false_positive_rate) == pytest.approx(0.96)
        assert cal.true_negative_rate / (cal.true_negative_rate + cal.false_negative_rate) == pytest.approx(0.9)
        assert m.calibrations.keys() == {0} and cal.reliable


def test_exact_recognition_quick_suite():
    correct, cases = exact_recognition_suite(200, seed=11)
    assert correct == cases == 200
