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
    betti,
    borel_twist,
    check_d_squared,
    degree_shift,
    elem_mul,
    representatives,
    tensor_product,
    upper_tri_model,
    torus_model,
    verify_classes,
    xr_model,
)
from nilcohom import cdga
from nilcohom.algebra import (
    _EXPONENT_LIMIT,
    Monomial,
    _decode,
    _encode,
    _keys_by_weight,
    basis_dimensions,
)
from nilcohom.linalg import _integer_rows
from conftest import random_two_step_cdga, seeded_two_step_cdgas
from dense_oracle import dense_betti, dense_differential


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


def _flattened_blocks(model, n, by_weight):
    """The columns of ``_blocks(n, by_weight)``, assembled by
    ``_block_columns``, on the global basis indices of
    ``differential_matrix(n)``; asserts that every basis monomial is a
    source once."""
    sig = model.signature
    col_of = {m: i for i, m in enumerate(basis_of_degree(sig, n))}
    row_of = {m: i for i, m in enumerate(basis_of_degree(sig, n + 1))}
    flat = {}
    sources_seen = 0
    for sources in model._blocks(n, by_weight).values():
        sources_seen += len(sources)
        for c, column in model._block_columns(sources).items():
            g = col_of[_decode(sig, sources[c])]
            assert g not in flat
            flat[g] = {row_of[_decode(sig, key)]: v for key, v in column.items()}
    assert sources_seen == len(col_of)
    return flat


def _integer_columns(m):
    """The nonzero columns of a matrix, each scaled by its denominators' lcm."""
    return _integer_rows(m.transpose())


class TestWeightBlocks:
    """``CDGA._blocks`` splits a degree into monomial keys, one block per
    torus weight or one for the whole degree, and ``CDGA._block_columns``
    assembles the columns of d on a block without a matrix; flattened onto
    the global basis indices, they must be exactly the columns of
    ``differential_matrix(n)``, each scaled by the lcm of its denominators,
    int entries included."""

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
        by_weight = model._by_weight(basis_dimensions(model.signature, degrees[-1] + 1))
        for n in degrees:
            flat = _flattened_blocks(model, n, by_weight)
            assert flat == _integer_columns(model.differential_matrix(n)), n
            assert all(type(v) is int for row in flat.values() for v in row.values()), n

    def test_rational_models_clear_denominators(self):
        models = seeded_two_step_cdgas()
        assert any(not m._integral for m in models)
        assert any(m._integral for m in models)

    def test_blocks_build_no_matrix(self):
        model = upper_tri_model(6)
        blocks = model._blocks(4, True)
        assert len(blocks) > 1
        assert any(model._block_columns(keys) for keys in blocks.values())
        assert model._matrix_cache == {}
        assert model.signature._basis_cache == {}

    def test_a_share_keeps_only_its_weights(self):
        model = upper_tri_model(5)
        full = model._blocks(5, True)
        share = set(list(full)[::3])
        assert model._blocks(5, True, share) == {w: full[w] for w in full if w in share}

    def test_small_degrees_need_no_lattice(self):
        model = xr_model(5)
        assert not model._by_weight(basis_dimensions(model.signature, model.top_degree()))
        for n in range(model.top_degree()):
            assert len(model._blocks(n, False)) == 1
        betti(model)
        assert model._weights is None

    def test_truncation_enforced(self):
        with pytest.raises(TruncationError):
            _polynomial_model()._blocks(12, True)
        with pytest.raises(ValueError):
            upper_tri_model(3)._blocks(-1, False)


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


def _two_polynomials():
    return tensor_product(borel_twist(xr_model(3), "x3"), borel_twist(xr_model(2), "x2"))


def _growing_model():
    """d x = y with y and z polynomial: d(x * y^e * z^f) = y^(e+1) * z^f."""
    sig = Signature([("x", 1), ("y", 2), ("z", 2)])
    y = Element.generator(sig, "y")
    return CDGA(sig, {"x": y, "y": Element.zero(sig), "z": Element.zero(sig)}, truncation=4)


class TestMonomialKeys:
    """One int per monomial: the odd mask in the low bits, one fixed-width
    exponent field per polynomial generator above it. The key path must
    round-trip through ``Monomial``, agree with the matrix path, and refuse
    an exponent that one step of d could carry into the next field."""

    def test_the_model_has_two_polynomial_generators(self):
        assert _two_polynomials().signature.even_indices == (5, 10)

    def test_every_basis_monomial_round_trips(self):
        model = _two_polynomials()
        sig = model.signature
        zero = (0,) * len(sig)
        for n in range(model.truncation + 1):
            basis = basis_of_degree(sig, n)
            keys = [_encode(mono) for mono in basis]
            assert [_decode(sig, key) for key in keys] == list(basis), n
            assert len(set(keys)) == len(keys), n
            assert _keys_by_weight(sig, n, zero).get(0, []) == keys, n

    def test_d_on_keys_matches_the_matrix(self):
        model = _two_polynomials()
        sig = model.signature
        for n in range(model.truncation):
            row_of = {m: i for i, m in enumerate(basis_of_degree(sig, n + 1))}
            columns = {}
            for col, mono in enumerate(basis_of_degree(sig, n)):
                for key, val in model._d_key(_encode(mono)).items():
                    columns[row_of[_decode(sig, key)], col] = Fraction(val)
            assert columns == model.differential_matrix(n).entries, n

    def test_an_exponent_growing_past_half_a_field_decodes_exactly(self):
        model = _growing_model()
        sig = model.signature
        top = _EXPONENT_LIMIT - 1
        source = Monomial(sig, 1, (top, 5))
        image = Monomial(sig, 0, (top + 1, 5))
        assert model.apply_d(Element.from_monomial(source, 3)) == Element.from_monomial(image, 3)
        assert model._d_key(_encode(source)) == {_encode(source) - 1 + (1 << 1): 1}
        assert _decode(sig, next(iter(model._d_key(_encode(source))))) == image

    def test_apply_d_refuses_an_exponent_at_the_limit(self):
        model = _growing_model()
        sig = model.signature
        big = Element.from_monomial(Monomial(sig, 1, (_EXPONENT_LIMIT, 0)))
        with pytest.raises(ValueError, match=f"exponent {_EXPONENT_LIMIT} is not below"):
            model.apply_d(big)
        with pytest.raises(ValueError, match="is not below"):
            _encode(Monomial(sig, 0, (0, _EXPONENT_LIMIT)))

    @pytest.mark.parametrize("exponent", [_EXPONENT_LIMIT - 1, _EXPONENT_LIMIT])
    def test_construction_refuses_an_exponent_at_the_limit(self, exponent):
        # d w = y^exponent, homogeneous when |w| = 2 * exponent - 1.
        sig = Signature([("y", 2), ("w", 2 * exponent - 1)])
        power = Element.from_monomial(Monomial(sig, 0, (exponent,)))
        diffs = {"y": Element.zero(sig), "w": power}
        if exponent < _EXPONENT_LIMIT:
            assert CDGA(sig, diffs, truncation=4).d_of("w") == power
        else:
            with pytest.raises(DifferentialError, match=f"exponent {exponent} is not below"):
                CDGA(sig, diffs, truncation=4)

    def test_betti_matches_the_dense_oracle(self):
        model = _two_polynomials()
        table = betti(model)
        assert table.per_degree == dense_betti(model) == (1, 4, 8, 11, 11, 8, 4, 1)
        assert model._by_weight(basis_dimensions(model.signature, model.truncation))

    def test_representatives_pass_verify(self):
        model = _two_polynomials()
        classes = [z for n in range(model.truncation) for z in representatives(model, n)]
        report = verify_classes(model, classes)
        assert report.ok, report
        assert len(classes) == betti(model).total
