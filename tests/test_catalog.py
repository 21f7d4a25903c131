import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attrfuse.catalog import (
    CatalogError,
    NonDiscriminativeAttributeError,
    ObjectCatalog,
    compute_stats,
    load_catalog,
    unique_candidates,
)
from attrfuse.experiments import random_exact_recognition_case
from attrfuse.fusion import factor_table


def make_catalog(matrix, priors):
    matrix = np.asarray(matrix)
    return ObjectCatalog(
        objects=tuple(f"o{j}" for j in range(matrix.shape[0])),
        attributes=tuple(f"a{i}" for i in range(matrix.shape[1])),
        matrix=matrix,
        priors=np.asarray(priors, dtype=float),
    )


class TestLoader:
    def test_table1_shape(self, table1):
        assert table1.n_objects == 9
        assert table1.n_attributes == 10
        assert table1.priors.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(table1.priors == table1.priors[0])

    def test_rescales_small_prior_error(self):
        cat = make_catalog([[1], [0]], [0.5, 0.5 + 5e-7])
        assert cat.priors.sum() == pytest.approx(1.0, abs=1e-9)

    def test_rejects_large_prior_error(self):
        with pytest.raises(CatalogError):
            make_catalog([[1], [0]], [0.5, 0.52])

    def test_rejects_zero_prior(self):
        with pytest.raises(CatalogError):
            make_catalog([[1], [0]], [1.0, 0.0])

    def test_rejects_bad_matrix_entries(self):
        with pytest.raises(CatalogError):
            make_catalog([[1], [2]], [0.5, 0.5])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(CatalogError):
            make_catalog([[1, 0]], [0.5, 0.5])

    def test_rejects_empty(self):
        with pytest.raises(CatalogError):
            ObjectCatalog(objects=(), attributes=("a",), matrix=np.zeros((0, 1)), priors=np.array([]))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(CatalogError):
            ObjectCatalog(objects=("x", "x"), attributes=("a",), matrix=np.array([[1], [0]]), priors=np.array([0.5, 0.5]))

    def test_loader_missing_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"objects": [{"id": "x", "prior": 1.0}]}))
        with pytest.raises(CatalogError):
            load_catalog(path)


class TestAttributePrior:
    def test_bottle_shape_equal_priors(self, table1):
        i = table1.attribute_index("bottle shape")
        assert compute_stats(table1).attribute_priors[i] == pytest.approx(1 / 3, abs=1e-12)

    def test_cylinder_equal_priors(self, table1):
        i = table1.attribute_index("cylinder")
        assert compute_stats(table1).attribute_priors[i] == pytest.approx(5 / 9, abs=1e-12)

    def test_full_column_gives_one(self):
        cat = make_catalog([[1, 1], [1, 0]], [0.3, 0.7])
        assert compute_stats(cat).attribute_priors[0] == pytest.approx(1.0, abs=1e-12)

    def test_index_out_of_range(self, table1):
        with pytest.raises(IndexError):
            compute_stats(table1).attribute_priors[10]

    @given(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_depends_only_on_own_column(self, i, seed):
        # permuting the other columns leaves the prior unchanged
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 2, size=(5, 10))
        priors = np.full(5, 0.2)
        cat = make_catalog(matrix, priors)
        before = compute_stats(cat).attribute_priors[i]
        others = [c for c in range(10) if c != i]
        perm = rng.permutation(others)
        shuffled = matrix.copy()
        shuffled[:, others] = matrix[:, perm]
        after = compute_stats(make_catalog(shuffled, priors)).attribute_priors[i]
        assert before == pytest.approx(after, abs=1e-15)


def prior_ratios(catalog, i):
    stats = compute_stats(catalog)
    return float(stats.prior_ratio_pos[i]), float(stats.prior_ratio_neg[i])


class TestPriorRatios:
    def test_equal_priors(self, table1):
        for i in range(table1.n_attributes):
            assert prior_ratios(table1, i) == (1.0, 1.0)

    def test_unbalanced_priors(self):
        cat = make_catalog([[1], [1], [0], [0]], [0.1, 0.1, 0.4, 0.4])
        assert prior_ratios(cat, 0) == (pytest.approx(4.0), pytest.approx(1.0))

    def test_other_direction(self):
        cat = make_catalog([[1], [0], [1]], [0.5, 0.25, 0.25])
        assert prior_ratios(cat, 0) == (pytest.approx(1.0), pytest.approx(2.0))

    def test_constant_attribute_rejected(self):
        cat = make_catalog([[1, 0], [1, 1]], [0.5, 0.5])
        stats = compute_stats(cat)
        assert not stats.usable[0]
        with pytest.raises(NonDiscriminativeAttributeError):
            factor_table([(0, "positive", 0.9)], stats)

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_equal_priors_always_unit_ratios(self, n, seed):
        rng = np.random.default_rng(seed)
        column = np.zeros(n, dtype=int)
        column[rng.integers(1, n)] = 1
        rng.shuffle(column)
        cat = make_catalog(column[:, None], np.full(n, 1.0 / n))
        assert prior_ratios(cat, 0) == (1.0, 1.0)


class TestUniqueCandidates:
    def test_bottle_and_yellow(self, table1):
        pos = {table1.attribute_index("bottle shape"), table1.attribute_index("yellow color")}
        assert unique_candidates(table1, pos, set()) == (table1.object_index("7"),)

    def test_vacuous_evidence(self, table1):
        assert unique_candidates(table1, set(), set()) == tuple(range(9))

    def test_contradictory_evidence(self, table1):
        pos = {table1.attribute_index("cylinder"), table1.attribute_index("gable top carton shape")}
        assert unique_candidates(table1, pos, set()) == ()

    def test_negative_evidence(self, table1):
        # everything non-red, non-blue, non-yellow: only object 5 has no color
        neg = {table1.attribute_index(a) for a in ("red color", "blue color", "yellow color")}
        assert unique_candidates(table1, set(), neg) == (table1.object_index("5"),)

    def test_overlapping_sets_rejected(self, table1):
        with pytest.raises(ValueError):
            unique_candidates(table1, {0}, {0})

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_antitone_in_evidence(self, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 2, size=(6, 5))
        cat = make_catalog(matrix, np.full(6, 1 / 6))
        attrs = list(rng.permutation(5))
        pos_small = frozenset(attrs[:1])
        pos_large = frozenset(attrs[:2])
        neg = frozenset(attrs[2:3])
        larger = set(unique_candidates(cat, pos_large, neg))
        smaller = set(unique_candidates(cat, pos_small, neg))
        assert larger <= smaller


class TestStats:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_index_sets_partition(self, seed):
        # the exact-recognition case observes each attribute of the ground truth once, with its true outcome
        catalog, _, _, truth, observations = random_exact_recognition_case(np.random.default_rng(seed))
        pos = {i for i, outcome in observations if outcome == "positive"}
        neg = {i for i, outcome in observations if outcome == "negative"}
        assert pos | neg == set(range(catalog.n_attributes))
        assert not pos & neg
        assert unique_candidates(catalog, pos, neg) == (truth,)

    def test_ranges(self, table1):
        stats = compute_stats(table1)
        assert np.all((stats.attribute_priors >= 0) & (stats.attribute_priors <= 1))
        assert np.all(stats.prior_ratio_pos[stats.usable] >= 1)
        assert np.all(stats.prior_ratio_neg[stats.usable] >= 1)
        assert stats.usable.all()  # every table-1 attribute is mixed

    def test_constant_attribute_flagged(self):
        cat = make_catalog([[1, 1], [1, 0]], [0.5, 0.5])
        stats = compute_stats(cat)
        assert not stats.usable[0]
        assert np.isnan(stats.prior_ratio_pos[0])
        assert stats.usable[1]
