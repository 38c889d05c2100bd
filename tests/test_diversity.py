import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import make_blobs
from xrm import SolverConfig, train
from xrm.diversity import (
    DISTINCT_RTOL,
    _distinct_columns,
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

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError, match="expected a features-by-components matrix"):
            diversity_report(np.ones(3))

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


def _interleaved_repeats(rng, M, C):
    """An M x C matrix whose columns repeat earlier ones exactly, or differ
    from one by 1 ulp, by far less than the distinct-components tolerance,
    by far more, or only in the sign of a zero; some entries underflow when
    multiplied."""
    W = rng.normal(size=(M, C)) * np.where(rng.random((M, C)) < 0.3, 0.0, 1.0)
    W[rng.random((M, C)) < 0.1] = 1e-200
    for c in range(1, C):
        source = int(rng.integers(0, c))
        kind = rng.integers(0, 6)
        if kind == 0:
            continue
        W[:, c] = W[:, source]
        row = int(rng.integers(0, M))
        if kind == 2:
            W[row, c] = np.nextafter(W[row, c], np.inf)
        elif kind == 3:
            W[row, c] += 1e-12
        elif kind == 4:
            W[row, c] += 1e-3
        elif kind == 5:
            W[row, source] = 0.0
            W[row, c] = -0.0
    return W


class TestDistinctColumnReport:
    """``diversity_report`` works on the exactly distinct columns; the
    references below evaluate every column and every pair."""

    @staticmethod
    def _distinct_reference(W):
        tolerance = DISTINCT_RTOL * np.max(np.abs(W))
        return sum(all(np.max(np.abs(W[:, c] - W[:, earlier])) > tolerance
                       for earlier in range(c))
                   for c in range(W.shape[1]))

    def test_matches_pairwise_references(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            M, C = int(rng.integers(1, 9)), int(rng.integers(1, 13))
            W = _interleaved_repeats(rng, M, C)
            report = diversity_report(W)
            for c in range(C):
                for other in range(C):
                    assert report.pairwise_exclusivity[c, other] == exclusivity(W[:, c], W[:, other])
                    assert report.pairwise_relaxed_exclusivity[c, other] == pytest.approx(
                        relaxed_exclusivity(W[:, c], W[:, other]), rel=1e-14, abs=0.0)
            assert report.distinct_components == self._distinct_reference(W)
            assert report.regularizer_value == exclusivity_regularizer(W)

    def test_signed_zero_columns_are_one_component(self):
        W = np.array([[0.0, -0.0, 1.0], [2.0, 2.0, 2.0]])
        report = diversity_report(W)
        assert report.distinct_components == 2
        np.testing.assert_array_equal(report.pairwise_exclusivity,
                                      [[1, 1, 1], [1, 1, 1], [1, 1, 2]])

    @settings(max_examples=200, deadline=None)
    @given(W=hnp.arrays(np.float64, st.tuples(st.integers(0, 4), st.integers(0, 8)),
                        elements=st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 5e-324])),
           data=st.data())
    @example(W=np.array([[0.0, -0.0, 0.0], [1.0, 1.0, 1.0]]), data=None)
    def test_distinct_columns_match_the_per_column_form(self, W, data):
        # Keyed on slices of one transpose, the distinct columns are those of
        # the per-column keys, with and without biases: the same first
        # occurrences and inverse, and -0.0 and 0.0 apart in W and in b.
        C = W.shape[1]
        b = (np.array([-0.0, 0.0, 1.0][:C]) if data is None else
             data.draw(hnp.arrays(np.float64, C, elements=st.sampled_from([0.0, -0.0, 1.0]))))

        def per_column(W, b=None):
            index_of, first, inverse = {}, [], []
            for c in range(C):
                key = W[:, c].tobytes() if b is None else W[:, c].tobytes() + b[c].tobytes()
                if key not in index_of:
                    index_of[key] = len(first)
                    first.append(c)
                inverse.append(index_of[key])
            return first, inverse

        for args in ((W,), (W, b)):
            first, inverse = _distinct_columns(*args)
            assert first.dtype == inverse.dtype == np.intp
            assert (first.tolist(), inverse.tolist()) == per_column(*args)

    @pytest.mark.parametrize("shape, components", [((60, 4), 7), ((8, 20), 5)])
    def test_trained_model_report(self, shape, components):
        data = make_blobs(*shape, seed=13)
        model, report = train(data, SolverConfig(components=components, outer_max_iters=60))
        W = model.W
        assert report.diversity.distinct_components == 1
        assert report.diversity.regularizer_value == exclusivity_regularizer(W)
        expected = np.array([[exclusivity(W[:, c], W[:, other]) for other in range(components)]
                             for c in range(components)])
        np.testing.assert_array_equal(report.diversity.pairwise_exclusivity, expected)
        np.testing.assert_allclose(report.diversity.pairwise_relaxed_exclusivity,
                                   np.abs(W).T @ np.abs(W), rtol=1e-14, atol=0.0)
