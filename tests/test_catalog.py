import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attrfuse.catalog import (
    CatalogError,
    NonDiscriminativeAttributeError,
    ObjectCatalog,
    compute_stats,
    load_catalog,
    prior_stats,
    unique_candidates,
)
from attrfuse.fusion import factor_table
from json_mutations import mutated
from oracles import exact_recognition_cases

TABLE1 = json.loads((Path(__file__).resolve().parents[1] / "catalogs" / "table1.json").read_text())


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

    @pytest.mark.parametrize(
        "key, edit",
        [
            pytest.param("matrix", lambda raw: raw["matrix"][2].append(0), id="ragged-row"),
            pytest.param("objects", lambda raw: raw["objects"][0].update(prior=[0.111]), id="list-prior"),
            pytest.param("objects", lambda raw: raw["objects"][0].update(prior="0.111"), id="string-prior"),
            pytest.param("objects", lambda raw: raw["objects"][0].update(prior=True), id="boolean-prior"),
            pytest.param("matrix", lambda raw: raw["matrix"][0].__setitem__(0, True), id="boolean-entry"),
            pytest.param("matrix", lambda raw: raw["matrix"][0].__setitem__(0, 1.0), id="float-entry"),
            pytest.param("matrix", lambda raw: raw.update(matrix="0110"), id="string-matrix"),
            pytest.param("objects", lambda raw: raw["objects"][4].update(id=5), id="integer-object-id"),
            pytest.param("attributes", lambda raw: raw.update(attributes="abc"), id="string-attributes"),
            pytest.param("objects", lambda raw: raw["objects"][0].update(prior=10**400), id="huge-prior"),
            pytest.param("objects", lambda raw: raw["objects"][0].update(prior=-(10**400)), id="huge-negative-prior"),
        ],
    )
    def test_loader_rejects_wrong_json_types(self, repo_root, tmp_path, key, edit):
        """Nothing is coerced: each value of the wrong JSON type is an error naming the file and the key."""
        raw = json.loads((repo_root / "catalogs" / "table1.json").read_text())
        edit(raw)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(CatalogError, match=f"^{re.escape(str(path))}: key '{key}'"):
            load_catalog(path)

    def test_loader_rejects_prior_sum_overflow(self, repo_root, tmp_path):
        """Two finite priors whose sum overflows are a located prior-sum error, not a RuntimeWarning."""
        raw = json.loads((repo_root / "catalogs" / "table1.json").read_text())
        for entry in raw["objects"][:2]:
            entry["prior"] = 1.7e308
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(CatalogError, match=f"^{re.escape(str(path))}: priors sum to inf, expected 1"):
            load_catalog(path)

    @settings(max_examples=200, deadline=None)
    @given(raw=mutated(TABLE1))
    @example(raw={**TABLE1, "objects": [{**TABLE1["objects"][0], "prior": 10**400}, *TABLE1["objects"][1:]]})
    def test_loader_fuzz(self, raw):
        """A one-value mutation of a shipped catalog loads, or raises a CatalogError naming the file."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "catalog.json"
            path.write_text(json.dumps(raw))
            try:
                load_catalog(path)
            except CatalogError as exc:
                assert str(exc).startswith(f"{path}: "), exc


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
        assert unique_candidates(table1, pos, set()) == (table1.objects.index("7"),)

    def test_vacuous_evidence(self, table1):
        assert unique_candidates(table1, set(), set()) == tuple(range(9))

    def test_contradictory_evidence(self, table1):
        pos = {table1.attribute_index("cylinder"), table1.attribute_index("gable top carton shape")}
        assert unique_candidates(table1, pos, set()) == ()

    def test_negative_evidence(self, table1):
        # everything non-red, non-blue, non-yellow: only object 5 has no color
        neg = {table1.attribute_index(a) for a in ("red color", "blue color", "yellow color")}
        assert unique_candidates(table1, set(), neg) == (table1.objects.index("5"),)

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
        # the exact-recognition case keys each attribute of the ground truth once, with its true outcome
        for catalog, stats, keys, truth, observed in exact_recognition_cases(np.random.default_rng(seed), 4):
            pos = {i for i, outcome, _ in keys if outcome == "positive"}
            neg = {i for i, outcome, _ in keys if outcome == "negative"}
            assert pos | neg == set(observed.tolist()) == set(range(catalog.n_attributes))
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

    def test_constant_attributes_have_no_ratios(self):
        # every object has a0 and none has a1; a2 splits {o0} from {o1, o2}
        cat = make_catalog([[1, 0, 1], [1, 0, 0], [1, 0, 0]], [0.2, 0.3, 0.5])
        stats = compute_stats(cat)
        assert stats.usable.tolist() == [False, False, True]
        assert np.isnan(stats.prior_ratio_pos[:2]).all() and np.isnan(stats.prior_ratio_neg[:2]).all()
        assert stats.prior_ratio_pos[2] == pytest.approx(0.5 / 0.2) and stats.prior_ratio_neg[2] == 1.0
        assert stats.attribute_priors.tolist() == pytest.approx([1.0, 0.0, 0.2])

    def test_padded_stack_matches_each_catalog(self):
        # a zero prior pads a slot that belongs to neither group; a zero column pads an attribute
        matrices = [[[1, 0, 0], [0, 1, 0], [0, 0, 0]], [[1, 0, 1], [0, 1, 1], [1, 1, 0]]]
        priors = [[0.25, 0.75, 0.0], [0.2, 0.3, 0.5]]
        stacked = prior_stats(np.array(matrices), np.array(priors))
        for c, (n, m) in enumerate([(2, 2), (3, 3)]):
            one = compute_stats(make_catalog(np.array(matrices[c])[:n, :m], priors[c][:n]))
            for field in ("attribute_priors", "prior_ratio_pos", "prior_ratio_neg", "usable"):
                np.testing.assert_array_equal(getattr(stacked, field)[c, :m], getattr(one, field))
            np.testing.assert_array_equal(stacked.positive_mask[c, :m, :n], one.positive_mask)
            assert not stacked.positive_mask[c, :, n:].any() and not stacked.usable[c, m:].any()
