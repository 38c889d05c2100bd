import numpy as np
import pytest

from xrm.diversity import (
    diversity_report,
    exclusivity,
    exclusivity_regularizer,
    relaxed_exclusivity,
)


class TestExclusivity:
    def test_single_overlap(self):
        assert exclusivity([1, 0, 2], [0, 3, 1]) == 1

    def test_against_all_ones_counts_support(self):
        u = np.array([1.0, 0.0, -2.0])
        assert exclusivity(u, np.ones(3)) == np.count_nonzero(u) == 2

    def test_zero_vectors(self):
        assert exclusivity([0, 0], [0, 0]) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            exclusivity([1, 2], [1, 2, 3])

    def test_bounded_by_supports(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            u = np.where(rng.random(10) < 0.5, rng.normal(size=10), 0.0)
            v = np.where(rng.random(10) < 0.5, rng.normal(size=10), 0.0)
            assert exclusivity(u, v) <= min(np.count_nonzero(u), np.count_nonzero(v))


class TestRelaxedExclusivity:
    def test_example(self):
        assert relaxed_exclusivity([1, -2], [3, 4]) == 11.0

    def test_self_is_squared_norm(self):
        u = np.array([1.0, 2.0])
        assert relaxed_exclusivity(u, u) == pytest.approx(np.linalg.norm(u) ** 2) == 5.0

    def test_against_ones_is_l1(self):
        u = np.array([1.0, -2.0])
        assert relaxed_exclusivity(u, np.ones(2)) == 3.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            relaxed_exclusivity([1], [1, 2])

    def test_nonnegative_symmetric_zero_iff_disjoint(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            u = np.where(rng.random(8) < 0.5, rng.normal(size=8), 0.0)
            v = np.where(rng.random(8) < 0.5, rng.normal(size=8), 0.0)
            value = relaxed_exclusivity(u, v)
            assert value >= 0.0
            assert value == relaxed_exclusivity(v, u)
            disjoint = not np.any((u != 0) & (v != 0))
            assert (value == 0.0) == disjoint


class TestRegularizer:
    def test_two_column_example(self):
        W = np.array([[1.0, -1.0], [2.0, 0.0]])
        assert exclusivity_regularizer(W) == pytest.approx(4.0)

    def test_single_column_is_half_squared_norm(self):
        assert exclusivity_regularizer(np.array([[3.0], [4.0]])) == pytest.approx(12.5)

    def test_zero_matrix(self):
        assert exclusivity_regularizer(np.zeros((4, 3))) == 0.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            exclusivity_regularizer(np.array([[np.nan, 1.0]]))

    def test_decomposition_identity(self):
        # half squared l1,2 of W^T  ==  half Frobenius^2 + unordered pair sum
        rng = np.random.default_rng(5)
        for _ in range(300):
            M = int(rng.integers(1, 12))
            C = int(rng.integers(1, 8))
            W = rng.normal(size=(M, C)) * rng.uniform(0.1, 10.0)
            pair_sum = sum(
                relaxed_exclusivity(W[:, c], W[:, cc])
                for c in range(C)
                for cc in range(c + 1, C)
            )
            lhs = exclusivity_regularizer(W)
            rhs = 0.5 * np.linalg.norm(W) ** 2 + pair_sum
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_convexity(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            W1 = rng.normal(size=(5, 4))
            W2 = rng.normal(size=(5, 4))
            theta = rng.random()
            mixed = exclusivity_regularizer(theta * W1 + (1 - theta) * W2)
            bound = theta * exclusivity_regularizer(W1) + (1 - theta) * exclusivity_regularizer(W2)
            assert mixed <= bound + 1e-9


class TestDiversityReport:
    def test_identical_columns(self):
        W = np.array([[1.0, 1.0], [0.0, 0.0]])
        report = diversity_report(W)
        assert report.pairwise_relaxed_exclusivity[0, 1] == 1.0
        assert report.pairwise_exclusivity[0, 1] == 1

    def test_orthogonal_supports(self):
        W = np.array([[1.0, 0.0], [0.0, 1.0]])
        report = diversity_report(W)
        assert report.pairwise_relaxed_exclusivity[0, 1] == 0.0
        assert report.pairwise_exclusivity[0, 1] == 0

    def test_structure(self):
        rng = np.random.default_rng(7)
        W = rng.normal(size=(6, 4))
        report = diversity_report(W)
        rel = report.pairwise_relaxed_exclusivity
        np.testing.assert_allclose(rel, rel.T)
        np.testing.assert_allclose(np.diag(rel), (W**2).sum(axis=0))
        assert report.regularizer_value >= 0.5 * np.linalg.norm(W) ** 2
        assert report.regularizer_value == exclusivity_regularizer(W)

    def test_serializes(self):
        report = diversity_report(np.ones((2, 2)))
        payload = report.to_dict()
        assert payload["regularizer_value"] == 4.0
        assert payload["pairwise_exclusivity"] == [[2, 2], [2, 2]]

    def test_pairwise_counts_match_exclusivity_with_underflow(self):
        # 1e-200 * 1e-200 underflows to 0, so that coordinate does not count,
        # on the diagonal either; every entry equals exclusivity pair by pair.
        W = np.array([[1e-200, 1e-200, 1.0, 0.0],
                      [1.0, 0.0, 2.0, -3.0],
                      [3.0, 1.0, 0.0, 5e-324],
                      [-2.0, 4.0, 1e-200, 1.0]])
        counts = diversity_report(W).pairwise_exclusivity
        for c in range(4):
            for other in range(4):
                assert counts[c, other] == exclusivity(W[:, c], W[:, other])
        assert counts[0, 1] == 2
        assert counts[0, 0] == 3
        assert counts[3, 3] == 2

    def test_distinct_components(self):
        W = np.array([[1.0, 1.0, 0.0, 1.0], [2.0, 2.0, 1.0, 2.0 + 1e-12]])
        report = diversity_report(W)
        assert report.distinct_components == 2
        assert report.to_dict()["distinct_components"] == 2
        assert diversity_report(np.repeat(W[:, :1], 5, axis=1)).distinct_components == 1
        assert diversity_report(np.zeros((3, 4))).distinct_components == 1
        assert diversity_report(np.eye(3)).distinct_components == 3
