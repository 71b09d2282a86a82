import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilcohom import (
    ConsistencyError,
    SparseExactMatrix,
    quotient_representatives,
    rank_exact,
    rank_multimodular,
    rank_only,
    upper_tri_model,
)
from dense_oracle import dense_rank_mod_p


def random_sparse(rng, rows, cols, density=0.3):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                entries[(r, c)] = Fraction(
                    rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3])
                )
    return SparseExactMatrix(rows, cols, entries)


class TestRankExact:
    def test_identity(self):
        result = rank_exact(SparseExactMatrix.identity(3))
        assert result.rank == 3
        assert result.kernel_basis == ()
        assert result.pivot_columns == (0, 1, 2)

    def test_zero_matrix(self):
        result = rank_exact(SparseExactMatrix(4, 7))
        assert result.rank == 0
        assert len(result.kernel_basis) == 7
        for j, vec in enumerate(result.kernel_basis):
            assert vec[j] == 1 and sum(map(abs, vec)) == 1

    def test_u3_degree_one(self):
        matrix = upper_tri_model(3).differential_matrix(1)
        assert rank_exact(matrix).rank == 1

    def test_rank_plus_kernel_is_cols(self):
        rng = random.Random(7)
        m = random_sparse(rng, 6, 9)
        result = rank_exact(m)
        assert result.rank + len(result.kernel_basis) == m.cols

    def test_kernel_vectors_map_to_zero(self):
        rng = random.Random(11)
        for seed in range(5):
            m = random_sparse(random.Random(seed), 5, 8)
            for vec in rank_exact(m).kernel_basis:
                assert all(v == 0 for v in m.apply(vec))

    def test_rational_entries(self):
        m = SparseExactMatrix.from_dense(
            [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), 1]]
        )
        assert rank_exact(m).rank == 2

    def test_rational_singular_kernel(self):
        m = SparseExactMatrix.from_dense(
            [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]
        )
        result = rank_exact(m)
        assert result.rank == 1
        assert result.kernel_basis == ((Fraction(-2), Fraction(3)),)

    @given(st.integers(0, 10_000))
    def test_rank_equals_rank_of_transpose(self, seed):
        rng = random.Random(seed)
        m = random_sparse(rng, rng.randint(1, 7), rng.randint(1, 7))
        assert rank_only(m) == rank_only(m.transpose())

    def test_deterministic_across_runs(self):
        m = random_sparse(random.Random(3), 8, 8)
        first = rank_exact(m)
        second = rank_exact(m)
        assert first == second


class TestQuotientRepresentatives:
    def test_completion_of_partial_span(self):
        e1 = (Fraction(1), Fraction(0))
        e2 = (Fraction(0), Fraction(1))
        reps = quotient_representatives([e1, e2], [e1])
        assert reps == [e2]

    def test_boundaries_equal_cocycles(self):
        e1 = (Fraction(1), Fraction(0))
        e2 = (Fraction(0), Fraction(1))
        assert quotient_representatives([e1, e2], [e1, e2]) == []

    def test_boundary_outside_span_raises(self):
        e1 = (Fraction(1), Fraction(0))
        bad = (Fraction(0), Fraction(1))
        with pytest.raises(ConsistencyError):
            quotient_representatives([e1], [bad])

    def test_classes_independent_mod_boundaries(self):
        rng = random.Random(23)
        m = random_sparse(rng, 6, 10)
        kernel = rank_exact(m).kernel_basis
        boundaries = list(kernel[:2])
        reps = quotient_representatives(kernel, boundaries)
        # augmented rank: boundaries + reps must be independent
        stacked = boundaries + reps
        entries = {}
        for r, vec in enumerate(stacked):
            for c, v in enumerate(vec):
                if v:
                    entries[(r, c)] = v
        stacked_rank = rank_only(SparseExactMatrix(len(stacked), m.cols, entries))
        assert stacked_rank == len(stacked)
        assert len(reps) == len(kernel) - len(boundaries)


class TestRankMultimodular:
    def test_identity_confirmed_by_minor(self):
        cert = rank_multimodular(SparseExactMatrix.identity(3), [5])
        assert cert.bound == 3
        assert cert.confirmed and cert.method == "minor"

    def test_bad_prime_not_confirmed(self):
        m = SparseExactMatrix.from_dense([[2]])
        cert = rank_multimodular(m, [2])
        assert cert.bound == 0
        assert not cert.confirmed
        assert cert.exact_rank == 1

    def test_bad_prime_bound_without_confirmation(self):
        m = SparseExactMatrix.from_dense([[2]])
        cert = rank_multimodular(m, [2], confirm=False)
        assert cert.bound == 0 and not cert.confirmed and cert.exact_rank is None

    def test_second_prime_recovers(self):
        m = SparseExactMatrix.from_dense([[2]])
        cert = rank_multimodular(m, [2, 3])
        assert cert.bound == 1 and cert.confirmed

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_exact_on_triangular_models(self, n):
        model = upper_tri_model(n)
        for degree in range(model.top_degree() + 1):
            matrix = model.differential_matrix(degree)
            cert = rank_multimodular(matrix, [97], confirm=True)
            exact = rank_only(matrix)
            assert cert.bound <= exact
            assert cert.confirmed and cert.exact_rank == exact == cert.bound

    @given(st.integers(0, 5_000))
    def test_bound_never_exceeds_exact(self, seed):
        rng = random.Random(seed)
        m = random_sparse(rng, rng.randint(1, 6), rng.randint(1, 6))
        cert = rank_multimodular(m, [2, 5], confirm=False)
        assert cert.bound <= rank_only(m)

    @given(
        st.lists(
            st.lists(
                st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                min_size=1,
                max_size=3,
            ),
            min_size=1,
            max_size=3,
        ),
        st.sampled_from([2, 3, 5]),
    )
    def test_bound_matches_dense_oracle_mod_p(self, blocks, p):
        # Block-diagonal stacking of random blocks gives several components.
        width = 3 * len(blocks)
        dense = []
        for k, block in enumerate(blocks):
            for row in block:
                dense.append([0] * (3 * k) + row + [0] * (width - 3 * k - 3))
        m = SparseExactMatrix.from_dense(dense)
        cert = rank_multimodular(m, [p], confirm=False)
        assert cert.bound == dense_rank_mod_p(dense, p)
        assert cert.per_prime == ((p, cert.bound),)

    def test_rank_drops_only_during_elimination_mod_2(self):
        # No entry vanishes mod 2, but the determinant 2 does.
        m = SparseExactMatrix.from_dense([[1, 1], [1, 3]])
        cert = rank_multimodular(m, [2])
        assert cert.bound == 1
        assert cert.exact_rank == 2
        assert not cert.confirmed

    def test_minor_from_two_components_mod_7(self):
        dense = [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 3, 1], [0, 0, 5, 3]]
        cert = rank_multimodular(SparseExactMatrix.from_dense(dense), [7])
        assert cert.bound == 4
        assert cert.confirmed and cert.method == "minor"

    def test_non_invertible_pivot_modulus_rejected(self):
        # 4 is no prime: the first pivot, 2, has no inverse mod 4.
        with pytest.raises(ValueError):
            rank_multimodular(SparseExactMatrix.from_dense([[2, 1], [1, 1]]), [4])

    def test_distinct_primes_required(self):
        with pytest.raises(ValueError):
            rank_multimodular(SparseExactMatrix.identity(2), [5, 5])
