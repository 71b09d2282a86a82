import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilcohom import (
    ConsistencyError,
    SparseExactMatrix,
    betti,
    quotient_representatives,
    rank_exact,
    rank_multimodular,
    rank_only,
    upper_tri_model,
)
from nilcohom import cohomology
from nilcohom.linalg import (
    _eliminate,
    _extend_echelon,
    _integer_rows,
    _kernel,
    _quotient,
    _row_pivots,
)
from dense_oracle import (
    components,
    count_pivot,
    count_rule_elimination,
    dense_rank,
    dense_rank_mod_p,
)


def random_sparse(rng, rows, cols, density=0.3):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                entries[(r, c)] = Fraction(
                    rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3])
                )
    return SparseExactMatrix(rows, cols, entries)


NONZERO_RATIONALS = st.builds(
    Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4)
)


@st.composite
def sparse_rational_matrices(draw, max_dim=8):
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    entries = {}
    if rows and cols:
        entries = draw(
            st.dictionaries(
                st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
                NONZERO_RATIONALS,
                max_size=rows * cols,
            )
        )
    return SparseExactMatrix(rows, cols, entries)


def spread(vec: dict, length: int) -> tuple:
    dense = [Fraction(0)] * length
    for j, v in vec.items():
        dense[j] = v
    return tuple(dense)


def combine(coeffs, vectors) -> dict:
    out: dict = {}
    for c, vec in zip(coeffs, vectors):
        for j, v in vec.items():
            out[j] = out.get(j, 0) + c * v
    return {j: v for j, v in sorted(out.items()) if v}


class TestMatmul:
    @given(sparse_rational_matrices())
    def test_matches_dense_product(self, m):
        # Integral entries take the int path; the product must stay exact.
        t = m.transpose()
        for a, b in ((m, t), (t, m)):
            expected = {}
            for r in range(a.rows):
                for c in range(b.cols):
                    expected[(r, c)] = sum(
                        (a.entries.get((r, k), 0) * b.entries.get((k, c), 0))
                        for k in range(a.cols)
                    )
            assert a @ b == SparseExactMatrix(a.rows, b.cols, expected)


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


class TestSparseKernel:
    @given(sparse_rational_matrices())
    def test_rank_exact_is_the_dense_spread(self, m):
        pivot_columns, vectors = _kernel(_integer_rows(m), m.cols)
        result = rank_exact(m)
        assert result.rank == len(pivot_columns)
        assert result.pivot_columns == tuple(pivot_columns)
        assert result.kernel_basis == tuple(spread(v, m.cols) for v in vectors)

    @given(sparse_rational_matrices())
    def test_vectors_primitive_integral_positive_at_free_column(self, m):
        pivot_columns, vectors = _kernel(_integer_rows(m), m.cols)
        pivots = set(pivot_columns)
        assert pivot_columns == sorted(pivots)
        free = [j for j in range(m.cols) if j not in pivots]
        assert len(vectors) == len(free)
        for f, vec in zip(free, vectors):
            assert list(vec) == sorted(vec)
            assert all(isinstance(v, Fraction) and v and v.denominator == 1 for v in vec.values())
            assert gcd(*(v.numerator for v in vec.values())) == 1
            assert vec[f] > 0
            assert all(j == f or j in pivots for j in vec)
            assert not any(m.apply(spread(vec, m.cols)))


class TestSparseQuotient:
    @given(sparse_rational_matrices(), st.data())
    def test_dense_wrapper_picks_the_sparse_choice(self, m, data):
        pivot_columns, kernel = _kernel(_integer_rows(m), m.cols)
        # Dependent cocycles: integer combinations of the kernel basis.
        combos = st.lists(st.integers(-2, 2), min_size=len(kernel), max_size=len(kernel))
        cocycles = kernel + [
            combine(coeffs, kernel) for coeffs in data.draw(st.lists(combos, max_size=3))
        ]
        picks = st.lists(st.sampled_from(cocycles), max_size=4) if cocycles else st.just([])
        boundaries = data.draw(picks)
        dense_cocycles = [spread(v, m.cols) for v in cocycles]
        dense_boundaries = [spread(v, m.cols) for v in boundaries]
        chosen = _quotient(cocycles, boundaries)
        assert chosen == sorted(set(chosen))
        assert quotient_representatives(dense_cocycles, dense_boundaries) == [
            dense_cocycles[i] for i in chosen
        ]
        if pivot_columns:
            # A pivot column is a nonzero column, so its unit vector is no cocycle.
            bad = {pivot_columns[0]: Fraction(1)}
            with pytest.raises(ConsistencyError):
                _quotient(cocycles, boundaries + [bad])
            with pytest.raises(ConsistencyError):
                quotient_representatives(
                    dense_cocycles, dense_boundaries + [spread(bad, m.cols)]
                )


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

    def test_composite_modulus_rejected_before_elimination(self):
        # No pivot of [[1, 2], [2, 1]] is a zero divisor mod 4; the modulus
        # itself must be refused.
        m = SparseExactMatrix.from_dense([[1, 2], [2, 1]])
        with pytest.raises(ValueError):
            rank_multimodular(m, [4])

    # The last value is the least strong pseudoprime to the first 12 prime
    # bases, where the deterministic test stops being exact.
    @pytest.mark.parametrize("modulus", [1, 0, -7, 318665857834031151167461])
    def test_non_prime_moduli_rejected(self, modulus):
        with pytest.raises(ValueError):
            rank_multimodular(SparseExactMatrix.identity(2), [modulus])

    @pytest.mark.parametrize("p", [2, 1000003])
    def test_prime_moduli_accepted(self, p):
        m = SparseExactMatrix.from_dense([[1, 2], [2, 1]])
        cert = rank_multimodular(m, [p])
        assert cert.per_prime == ((p, 2),)
        assert cert.confirmed and cert.bound == 2

    def test_distinct_primes_required(self):
        with pytest.raises(ValueError):
            rank_multimodular(SparseExactMatrix.identity(2), [5, 5])


@st.composite
def block_structured_matrices(draw):
    """One to three random rational blocks, at most 5 x 5 each, on disjoint
    rows and columns that are then shuffled, so the pattern interleaves."""
    shapes = draw(
        st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=3)
    )
    rows = sum(h for h, _ in shapes)
    cols = sum(w for _, w in shapes)
    row_of = draw(st.permutations(range(rows)))
    col_of = draw(st.permutations(range(cols)))
    entries = {}
    r0 = c0 = 0
    for h, w in shapes:
        block = draw(
            st.dictionaries(
                st.tuples(st.integers(0, h - 1), st.integers(0, w - 1)),
                NONZERO_RATIONALS,
                min_size=1,
                max_size=h * w,
            )
        )
        for (r, c), v in block.items():
            entries[(row_of[r0 + r], col_of[c0 + c])] = v
        r0 += h
        c0 += w
    return SparseExactMatrix(rows, cols, entries)


def kernel_by_components(rows: dict, cols: int) -> tuple:
    """(pivot columns, kernel basis) of ``_kernel``, each component of the
    nonzero pattern eliminated alone, with every frozen row visited latest
    first for every free column, and the results merged by column."""
    pivot_columns = []
    kernel = {j: {j: Fraction(1)} for j in range(cols)}
    for component, row_ids in components(rows):
        pivots, frozen = _eliminate({r: dict(rows[r]) for r in row_ids}, keep_pivot_rows=True)
        pivot_columns += [c for _, c in pivots]
        for f in component:
            kernel.pop(f)
        for f in set(component) - set(pivot_columns):
            y = {f: 1}
            for r, c in reversed(pivots):
                row = frozen[r]
                s = sum(v * y[j] for j, v in row.items() if j != c and j in y)
                if s:
                    if s % row[c]:
                        k = abs(row[c]) // gcd(s, row[c])
                        y = {j: v * k for j, v in y.items()}
                        s *= k
                    y[c] = -s // row[c]
            kernel[f] = {j: Fraction(y[j]) for j in sorted(y)}
    return sorted(pivot_columns), [kernel[f] for f in sorted(kernel)]


class TestOnePieceElimination:
    """``_kernel`` eliminates a matrix as one piece and back-substitutes
    each free column over the pivot rows it reaches; ``representatives``
    keeps a free column's class when no boundary has its greatest index
    there."""

    @given(block_structured_matrices())
    def test_kernel_equals_the_kernels_of_its_components(self, m):
        rows = _integer_rows(m)
        whole = _kernel(rows, m.cols)
        assert whole == kernel_by_components(rows, m.cols)
        # Each component solved alone by ``_kernel`` on its own columns,
        # renumbered in order, and mapped back.
        pivot_columns = []
        kernel = {j: {j: Fraction(1)} for j in range(m.cols)}
        for component, row_ids in components(rows):
            local = {c: i for i, c in enumerate(component)}
            sub = {r: {local[c]: v for c, v in rows[r].items()} for r in row_ids}
            pivots, vectors = _kernel(sub, len(component))
            pivot_columns += [component[i] for i in pivots]
            free = [c for i, c in enumerate(component) if i not in set(pivots)]
            for c in component:
                kernel.pop(c)
            for f, vec in zip(free, vectors):
                kernel[f] = {component[i]: v for i, v in vec.items()}
        assert whole == (sorted(pivot_columns), [kernel[f] for f in sorted(kernel)])

    @staticmethod
    def two_pass_greedy(boundaries, free) -> tuple:
        # The least-index echelon of the boundaries, then every free unit
        # vector reduced against it in turn, kept when its residue is nonzero.
        echelon: dict = {}
        _extend_echelon(echelon, boundaries)
        rank = len(echelon)
        units = _extend_echelon(echelon, ({f: Fraction(1)} for f in free))
        return rank, [f for f, residue in zip(free, units) if residue]

    @given(st.data())
    def test_greatest_lead_rule_keeps_the_two_pass_choice(self, data):
        n = data.draw(st.integers(1, 8))
        column = st.integers(0, n - 1)
        free = sorted(data.draw(st.sets(column, min_size=1)))
        vectors = data.draw(
            st.lists(st.dictionaries(column, NONZERO_RATIONALS, max_size=n), max_size=6)
        )
        # Projected onto the free columns, plus dependent combinations.
        boundaries = [{j: v for j, v in vec.items() if j in free} for vec in vectors]
        boundaries += [combine((1, -2), boundaries[i : i + 2]) for i in range(len(boundaries) - 1)]
        echelon: dict = {}
        _extend_echelon(echelon, ({-j: v for j, v in b.items()} for b in boundaries))
        kept = [f for f in free if -f not in echelon]
        assert (len(echelon), kept) == self.two_pass_greedy(boundaries, free)


class TestPivotRules:
    """Every elimination pivots by column count: ``rank_only``,
    ``rank_exact`` and ``rank_multimodular`` alike."""

    # Column 0 has the fewest rows, and row 1 is the shorter of its two.
    ROWS = {0: {0: 1, 1: 1, 2: 1}, 1: {0: 1, 2: 1}, 2: {1: 1}, 3: {1: 2, 2: 1}}

    @given(block_structured_matrices(), st.sampled_from([2, 3, 5, 1000003]))
    def test_ranks_match_the_dense_oracle(self, m, p):
        dense = [[m.entries.get((r, c), Fraction(0)) for c in range(m.cols)] for r in range(m.rows)]
        expected = dense_rank(dense)
        assert rank_only(m) == rank_exact(m).rank == expected
        scaled = []
        for row in dense:
            den = 1
            for v in row:
                den = den * v.denominator // gcd(den, v.denominator)
            scaled.append([int(v * den) for v in row])
        cert = rank_multimodular(m, [p])
        assert cert.per_prime == ((p, dense_rank_mod_p(scaled, p)),)
        assert cert.exact_rank == expected

    @given(block_structured_matrices())
    def test_kernel_and_rank_pivot_on_the_same_columns(self, m):
        pivot_columns, _ = _kernel(_integer_rows(m), m.cols)
        assert pivot_columns == sorted(c for _, c in _row_pivots(_integer_rows(m)))

    def test_count_rule_takes_the_sparsest_column_then_its_shortest_row(self):
        assert count_pivot(self.ROWS) == (0, 1)

    def test_count_rule_breaks_ties_by_lowest_column_then_row(self):
        # Columns 7, 5 and 2 have two rows each; rows 2 and 0 of column 2
        # have two entries each. Dict order is the reverse of the answer.
        rows = {3: {7: 1}, 2: {7: 1, 2: 1}, 1: {5: 1}, 0: {5: 1, 2: 1}}
        assert count_pivot(rows) == (2, 0)
        assert _eliminate(rows, keep_pivot_rows=False)[0][0] == (0, 2)

    def test_count_rule_pivot_sequence(self):
        assert count_rule_elimination(self.ROWS)[0] == [(1, 0), (3, 2), (0, 1)]
        rows = {r: dict(row) for r, row in self.ROWS.items()}
        pivots, frozen = _eliminate(rows, keep_pivot_rows=False)
        assert pivots == [(1, 0), (3, 2), (0, 1)]
        assert frozen == {} and rows == {2: {}}

    @given(block_structured_matrices(), st.sampled_from([None, 3, 1000003]))
    def test_count_rule_heap_follows_the_scan(self, m, p):
        # ``_eliminate`` keeps the columns in a heap; the oracle scans every
        # live column on each step and must give the same pivots and rows.
        rows = _integer_rows(m)
        if p is not None:
            rows = {r: {c: v % p for c, v in row.items() if v % p} for r, row in rows.items()}
            rows = {r: row for r, row in rows.items() if row}
        scan = count_rule_elimination(rows, modulus=p)
        heap = _eliminate(rows, keep_pivot_rows=True, modulus=p)
        assert heap == scan

    @staticmethod
    def assert_heap_follows_the_scan(rows):
        # Exact, and mod a prime on the rows reduced, as ``_rank_mod_p`` does.
        for p in (None, 1000003):
            if p is not None:
                rows = {r: {c: v % p for c, v in row.items() if v % p} for r, row in rows.items()}
                rows = {r: row for r, row in rows.items() if row}
            scan = count_rule_elimination(rows, modulus=p)
            heap = _eliminate({r: dict(row) for r, row in rows.items()}, True, modulus=p)
            assert heap == scan

    def test_count_rule_heap_follows_the_scan_on_larger_matrices(self):
        rng = random.Random(5)
        for _ in range(60):
            cols = rng.randint(5, 120)
            rows = {}
            for r in range(rng.randint(2, 120)):
                support = rng.sample(range(cols), rng.randint(1, 5))
                rows[r] = {c: rng.choice([1, -1, 2, -3, 5]) for c in support}
            self.assert_heap_follows_the_scan(rows)
        # Most columns hold one row: each row has up to three private
        # columns and one to three of a few shared ones, so most pivots are
        # the only live row of their column.
        for _ in range(60):
            shared = rng.randint(1, 10)
            rows = {}
            for r in range(rng.randint(2, 120)):
                support = rng.sample(range(shared), rng.randint(1, min(3, shared)))
                support += [shared + 3 * r + k for k in range(rng.randint(0, 3))]
                rows[r] = {c: rng.choice([1, -1, 2, -3, 5]) for c in support}
            self.assert_heap_follows_the_scan(rows)

    @pytest.mark.parametrize("n", [5, 6])
    def test_count_rule_heap_follows_the_scan_on_u_n_blocks(self, n, monkeypatch):
        # The blocks the Betti pass ranks: on u_5 one per ranked degree (226
        # rows in all), on u_6 one per weight of the orbit share (5259 rows).
        # Most of their pivots are the only live row of their column.
        blocks = []
        real = cohomology._row_pivots

        def record(rows):
            blocks.append({r: dict(row) for r, row in rows.items()})
            return real(rows)

        monkeypatch.setattr(cohomology, "_row_pivots", record)
        betti(upper_tri_model(n))
        assert sum(map(len, blocks)) > 200 and max(map(len, blocks)) > 20
        for rows in blocks:
            self.assert_heap_follows_the_scan(rows)

    def test_rank_exact_shows_the_count_rule_pivots(self):
        # The count rule pivots on column 3 here and leaves column 2 free,
        # where a Markowitz order, least (row_nnz-1)*(col_nnz-1), would take
        # column 2 and give (-5, 1, -1, 3): the pivots rank_exact shows tell
        # the rules apart.
        m = SparseExactMatrix.from_dense([[1, 0, 1, 2], [0, 1, 1, 0], [0, 0, 0, 0], [1, 2, 0, 1]])
        rows = {0: {0: 1, 2: 1, 3: 2}, 1: {1: 1, 2: 1}, 3: {0: 1, 1: 2, 3: 1}}
        pivots, _ = _eliminate(rows, keep_pivot_rows=False)
        assert sorted(c for _, c in pivots) == [0, 1, 3]
        result = rank_exact(m)
        assert result.pivot_columns == (0, 1, 3)
        assert result.kernel_basis == ((5, -1, 1, -3),)
