import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilcohom import (
    CDGA,
    DifferentialError,
    Element,
    Signature,
    SparseExactMatrix,
    TruncationError,
    basis_of_degree,
    borel_twist,
    check_d_squared,
    degree_shift,
    elem_mul,
    upper_tri_model,
    torus_model,
    xr_model,
)
from nilcohom import cdga
from nilcohom.algebra import Monomial, basis_dimensions, basis_index
from nilcohom.linalg import _integer_rows
from conftest import random_two_step_cdga, seeded_two_step_cdgas
from dense_oracle import dense_differential


def _failing_candidate():
    # du = 0, da = u, dv = u*a: then d(dv) = u*u != 0
    sig = Signature([("u", 2), ("a", 1), ("v", 2)])
    u = Element.generator(sig, "u")
    return sig, {
        "u": Element.zero(sig),
        "a": u,
        "v": elem_mul(u, Element.generator(sig, "a")),
    }


class TestCheckDSquared:
    def test_x5_differential_is_valid(self, x5):
        assert x5.d_of("x1") == elem_mul(
            Element.generator(x5.signature, "a"), Element.generator(x5.signature, "b")
        )

    def test_u4_differential_is_valid(self):
        u4 = upper_tri_model(4)
        assert set(u4.signature.names) == {
            "x_2_1", "x_3_2", "x_4_3", "x_3_1", "x_4_2", "x_4_1",
        }

    def test_failing_candidate_reports_residue(self):
        sig, diffs = _failing_candidate()
        with pytest.raises(DifferentialError) as err:
            check_d_squared(sig, diffs)
        violation = err.value.violation
        assert violation.generator == "v"
        u = Element.generator(sig, "u")
        assert violation.residue == elem_mul(u, u)

    def test_inhomogeneous_value_rejected(self):
        sig = Signature([("a", 1), ("b", 1)])
        mixed = Element.generator(sig, "a") + elem_mul(
            Element.generator(sig, "a"), Element.generator(sig, "b")
        )
        with pytest.raises(DifferentialError):
            CDGA(sig, {"a": Element.zero(sig), "b": mixed})

    def test_missing_differential_rejected(self):
        sig = Signature([("a", 1)])
        with pytest.raises(DifferentialError):
            CDGA(sig, {})


class TestApplyD:
    def test_listed_cocycle_is_closed(self, x5):
        sig = x5.signature
        x1x2 = Element(sig, {sig.monomial_of("x1", "x2"): 1})
        bx3 = Element(sig, {sig.monomial_of("b", "x3"): 1})
        assert x5.apply_d(x1x2 - bx3).is_zero()

    def test_u3_top_generator(self):
        u3 = upper_tri_model(3)
        sig = u3.signature
        expected = Element(sig, {sig.monomial_of("x_2_1", "x_3_2"): -1})
        assert u3.apply_d(Element.generator(sig, "x_3_1")) == expected

    def test_unit_is_closed(self, x5):
        assert x5.apply_d(Element.unit(x5.signature)).is_zero()

    @given(st.data())
    def test_leibniz_rule_on_random_pairs(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**16)))
        model = random_two_step_cdga(rng, closed=3, upper=2)
        sig = model.signature

        def homogeneous(label):
            d = data.draw(st.integers(1, 3), label=label)
            basis = basis_of_degree(sig, d)
            coeffs = data.draw(
                st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis)),
                label=label + "-c",
            )
            return d, Element(sig, dict(zip(basis, coeffs)))

        p, e1 = homogeneous("p")
        _, e2 = homogeneous("q")
        lhs = model.apply_d(elem_mul(e1, e2))
        rhs = elem_mul(model.apply_d(e1), e2) + elem_mul(e1, model.apply_d(e2)).scale(
            (-1) ** p
        )
        assert lhs == rhs

    def test_apply_d_is_linear(self, x5):
        sig = x5.signature
        e1 = Element.generator(sig, "x3")
        e2 = Element(sig, {sig.monomial_of("b", "x5"): Fraction(2, 3)})
        assert x5.apply_d(e1 + e2) == x5.apply_d(e1) + x5.apply_d(e2)

    def test_polynomial_generator_with_nonzero_differential(self):
        # d(u^2) = 2*u*y and d(x*u) = -x*y exercise the power rule and the
        # prefix sign past an even factor
        sig = Signature([("x", 1), ("y", 3), ("u", 2)])
        model = CDGA(
            sig,
            {
                "x": Element.zero(sig),
                "y": Element.zero(sig),
                "u": Element.generator(sig, "y"),
            },
            truncation=12,
        )
        u_sq = Element(sig, {sig.monomial_of("u", "u"): 1})
        assert model.apply_d(u_sq) == Element(sig, {sig.monomial_of("y", "u"): 2})
        xu = Element(sig, {sig.monomial_of("x", "u"): 1})
        assert model.apply_d(xu) == Element(sig, {sig.monomial_of("x", "y"): -1})


class TestDifferentialMatrix:
    def test_u3_degree_one_rank(self):
        u3 = upper_tri_model(3)
        matrix = u3.differential_matrix(1)
        assert matrix.rows == 3 and matrix.cols == 3
        # only the x_3_1 column is nonzero
        basis = basis_of_degree(u3.signature, 1)
        x31_col = next(i for i, m in enumerate(basis) if repr(m) == "x_3_1")
        assert {c for (_, c) in matrix.entries} == {x31_col}

    def test_torus_matrices_vanish(self):
        t3 = torus_model(3)
        for n in range(4):
            assert t3.differential_matrix(n).is_zero()

    def test_x5_degree_zero(self, x5):
        matrix = x5.differential_matrix(0)
        assert matrix.cols == 1 and matrix.is_zero()

    def test_truncation_enforced(self):
        twisted = CDGA(
            Signature([("x", 1), ("t", 2)]),
            {
                "x": Element(Signature([("x", 1), ("t", 2)]), ()),
                "t": Element(Signature([("x", 1), ("t", 2)]), ()),
            },
            truncation=6,
        )
        twisted.differential_matrix(5)
        with pytest.raises(TruncationError):
            twisted.differential_matrix(6)

    @pytest.mark.parametrize(
        "model",
        [xr_model(4), upper_tri_model(4), torus_model(3)],
        ids=lambda m: m.name,
    )
    def test_d_squared_matrix_product_zero(self, model):
        top = model.top_degree()
        for n in range(top):
            product = model.differential_matrix(n + 1) @ model.differential_matrix(n)
            assert product.is_zero()

    def test_purely_odd_euler_characteristic_of_basis(self, x5):
        sig = x5.signature
        total = sum(
            (-1) ** n * len(basis_of_degree(sig, n)) for n in range(sig.top_degree() + 1)
        )
        assert total == 0


def _polynomial_model():
    """The model of TestApplyD's polynomial-generator test: d u = y."""
    sig = Signature([("x", 1), ("y", 3), ("u", 2)])
    return CDGA(
        sig,
        {
            "x": Element.zero(sig),
            "y": Element.zero(sig),
            "u": Element.generator(sig, "y"),
        },
        truncation=12,
    )


def _leibniz_columns(model, n):
    """d on each degree-n basis monomial via d(g*m) = d(g)*m + (-1)^|g| g*d(m).

    g is the first factor of the monomial in signature order, so g*m needs no
    sign; products go through the public elem_mul only.
    """
    sig = model.signature
    memo = {}

    def d_of(mono):
        if mono in memo:
            return memo[mono]
        exps = list(mono.exponents())
        if not any(exps):
            memo[mono] = Element.zero(sig)
            return memo[mono]
        first = next(i for i, e in enumerate(exps) if e)
        gen = sig.generators[first]
        exps[first] -= 1
        rest = sig.monomial(exps)
        rest_elem = Element.from_monomial(rest)
        g_elem = Element.generator(sig, gen.name)
        assert elem_mul(g_elem, rest_elem) == Element.from_monomial(mono)
        value = elem_mul(model.d_of(gen.name), rest_elem) + elem_mul(
            g_elem, d_of(rest)
        ).scale((-1) ** gen.degree)
        memo[mono] = value
        return value

    return [d_of(mono) for mono in basis_of_degree(sig, n)]


class TestDifferentialMatrixAgainstOracles:
    @pytest.mark.parametrize(
        "model",
        [
            upper_tri_model(3),
            upper_tri_model(4),
            xr_model(5),
            degree_shift(upper_tri_model(3), 1),
        ]
        + [
            random_two_step_cdga(random.Random(seed), closed=4, upper=3)
            for seed in range(20)
        ],
        ids=lambda m: m.name,
    )
    def test_purely_odd_matches_dense_oracle(self, model):
        for n in range(model.top_degree()):
            rows, cols, dense = dense_differential(model, n)
            expected = SparseExactMatrix(
                rows,
                cols,
                {(r, c): v for r, row in enumerate(dense) for c, v in enumerate(row)},
            )
            assert model.differential_matrix(n) == expected

    @pytest.mark.parametrize(
        "model",
        [borel_twist(xr_model(r), f"x{r}") for r in range(3, 6)] + [_polynomial_model()],
        ids=lambda m: m.name,
    )
    def test_mixed_parity_matches_leibniz_recursion(self, model):
        sig = model.signature
        for n in range(model.truncation):
            matrix = model.differential_matrix(n)
            target = basis_of_degree(sig, n + 1)
            for col, value in enumerate(_leibniz_columns(model, n)):
                column = {
                    target.index(mono): coeff for mono, coeff in value.terms.items()
                }
                actual = {r: v for (r, c), v in matrix.entries.items() if c == col}
                assert actual == column


def _flattened_blocks(model, n):
    """The rows of ``_weight_blocks(n)`` on the global basis indices of
    ``differential_matrix(n)``; asserts that no row lies in two blocks."""
    sig = model.signature
    col_of = basis_index(sig, n)
    row_of = basis_index(sig, n + 1)
    flat = {}
    for sources, targets, rows in model._weight_blocks(n):
        key_of = {r: key for key, r in targets.items()}
        assert set(key_of) == set(rows)
        for r, row in rows.items():
            g = row_of[Monomial(sig, *key_of[r])]
            assert g not in flat
            flat[g] = {col_of[sources[c]]: v for c, v in row.items()}
    return flat


@pytest.fixture(params=["default", "every-degree"])
def grouping(request, monkeypatch):
    """Blocks as ``betti`` gets them, and with every degree grouped by weight."""
    if request.param == "every-degree":
        monkeypatch.setattr(cdga, "_BLOCK_MIN_MONOMIALS", 0)
    return request.param


class TestWeightBlocks:
    """``CDGA._weight_blocks`` assembles d_n one weight block at a time,
    without a matrix; flattened onto the global basis indices, the blocks
    must be exactly what ``linalg._integer_rows`` makes of
    ``differential_matrix(n)``, int entries included."""

    @pytest.mark.parametrize(
        "model",
        [upper_tri_model(n) for n in range(2, 6)]
        + [xr_model(5)]
        + [borel_twist(xr_model(r), f"x{r}") for r in range(1, 5)]
        + [_polynomial_model()]
        + seeded_two_step_cdgas(),
        ids=lambda m: m.name,
    )
    def test_flattened_blocks_match_the_matrix_path(self, model, grouping):
        degrees = range(model.truncation) if model.truncation else range(model.top_degree() + 1)
        for n in degrees:
            flat = _flattened_blocks(model, n)
            assert flat == _integer_rows(model.differential_matrix(n)), n
            assert all(type(v) is int for row in flat.values() for v in row.values()), n

    def test_rational_models_clear_denominators(self):
        models = seeded_two_step_cdgas()
        assert any(not m._integral for m in models)
        assert any(m._integral for m in models)

    def test_blocks_build_no_matrix(self):
        model = upper_tri_model(6)
        assert len(list(model._weight_blocks(4))) > 1
        assert model._matrix_cache == {}

    def test_small_degrees_need_no_lattice(self):
        model = xr_model(5)
        for n in range(model.top_degree()):
            assert len(list(model._weight_blocks(n))) == 1
        assert model._weights is None

    def test_truncation_enforced(self):
        with pytest.raises(TruncationError):
            list(_polynomial_model()._weight_blocks(12))
        with pytest.raises(ValueError):
            list(upper_tri_model(3)._weight_blocks(-1))


class TestBasisDimensions:
    """``basis_dimensions`` counts each degree from the generating function;
    it must agree with the enumerated basis in every degree of the window
    and, for purely odd models, be 0 just past the top."""

    @pytest.mark.parametrize(
        "model",
        [upper_tri_model(n) for n in range(2, 7)]
        + [xr_model(r) for r in range(10)]
        + [borel_twist(xr_model(r), f"x{r}") for r in range(1, 5)]
        + [_polynomial_model()]
        + seeded_two_step_cdgas(),
        ids=lambda m: m.name,
    )
    def test_counts_match_the_enumerated_basis(self, model):
        sig = model.signature
        upto = model.truncation if model.truncation else model.top_degree() + 1
        dims = basis_dimensions(sig, upto)
        assert dims == [len(basis_of_degree(sig, n)) for n in range(upto + 1)]
        if model.truncation is None:
            assert dims[-1] == 0

    def test_polynomial_generators_repeat(self):
        sig = Signature([("u", 2), ("v", 4)])
        assert basis_dimensions(sig, 8) == [1, 0, 1, 0, 2, 0, 2, 0, 3]


class TestTruncationArgument:
    @pytest.mark.parametrize("truncation", [0, -5])
    def test_below_one_rejected(self, truncation):
        model = xr_model(3)
        with pytest.raises(ValueError, match="truncation must be >= 1"):
            CDGA(model.signature, model.differentials, truncation=truncation)

    def test_one_accepted(self):
        model = xr_model(3)
        assert CDGA(model.signature, model.differentials, truncation=1).truncation == 1
