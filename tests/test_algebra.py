import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from nilcohom import (
    Element,
    Signature,
    SignatureMismatchError,
    basis_of_degree,
    elem_mul,
    mono_mul,
)
from nilcohom.algebra import _decode, _keys_by_weight, _weight_dimensions
from nilcohom.cohomology import _weight_costs
from nilcohom.models import upper_tri_model


def _brute_force_ranges(degrees, n):
    """Per-generator exponent ranges up to degree n, for ``itertools.product``;
    skips an example whose product is too long to run in a test."""
    ranges = [range(2) if d % 2 else range(n // d + 1) for d in degrees]
    assume(math.prod(map(len, ranges)) <= 100_000)
    return ranges


@pytest.fixture
def odd3():
    return Signature([("x", 1), ("y", 1), ("z", 1)])


@pytest.fixture
def mixed():
    # one polynomial generator t of degree 2, two exterior ones
    return Signature([("t", 2), ("x1", 1), ("x2", 1)])


class TestSignature:
    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            Signature([("a", 0)])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            Signature([("a", 1), ("a", 2)])

    @pytest.mark.parametrize("degree", [1.9, 2.0, "3", Fraction(2), None])
    def test_rejects_a_degree_that_is_not_an_integer(self, degree):
        with pytest.raises(ValueError, match="generator 'y' has degree"):
            Signature([("x", 1), ("y", degree)])

    @pytest.mark.parametrize("exponent", [1.7, 1.0, "1", Fraction(1)])
    def test_monomial_rejects_an_exponent_that_is_not_an_integer(self, odd3, exponent):
        with pytest.raises(ValueError, match="generator 'x' has exponent"):
            odd3.monomial([exponent, 1, 0])

    def test_index_is_position(self, odd3):
        assert [g.index for g in odd3.generators] == [0, 1, 2]

    def test_parity_partition(self, mixed):
        assert mixed.even_indices == (0,)
        assert mixed.odd_indices == (1, 2)


class TestMonoMul:
    def test_odd_square_is_zero(self, odd3):
        x = odd3.monomial_of("x")
        assert mono_mul(x, x) is None

    def test_graded_commutativity_signs(self, odd3):
        x, y = odd3.monomial_of("x"), odd3.monomial_of("y")
        assert mono_mul(x, y) == (1, odd3.monomial_of("x", "y"))
        assert mono_mul(y, x) == (-1, odd3.monomial_of("x", "y"))

    def test_even_generator_is_central(self, mixed):
        t, x = mixed.monomial_of("t"), mixed.monomial_of("x1")
        assert mono_mul(t, x) == (1, mixed.monomial_of("t", "x1"))
        assert mono_mul(x, t) == (1, mixed.monomial_of("t", "x1"))

    def test_even_exponents_add(self, mixed):
        t = mixed.monomial_of("t")
        sign, sq = mono_mul(t, t)
        assert sign == 1 and sq == mixed.monomial_of("t", "t")
        assert sq.degree() == 4

    def test_signature_mismatch(self, odd3, mixed):
        with pytest.raises(SignatureMismatchError):
            mono_mul(odd3.monomial_of("x"), mixed.monomial_of("x1"))

    @given(st.data())
    def test_associativity_of_signs(self, data):
        sig = Signature([(f"g{i}", 1) for i in range(8)])
        basis = [sig.monomial_of(f"g{i}") for i in range(8)]

        def pick(label):
            idx = data.draw(
                st.lists(st.integers(0, 7), min_size=0, max_size=3, unique=True),
                label=label,
            )
            mono = sig.unit_monomial()
            sign = 1
            for i in idx:
                r = mono_mul(mono, basis[i])
                if r is None:
                    return None
                s, mono = r
                sign *= s
            return sign, mono

        triple = [pick(lab) for lab in "abc"]
        if any(t is None for t in triple):
            return
        (sa, a), (sb, b), (sc, c) = triple

        def mul(p, q):
            r = mono_mul(p, q)
            return r

        left = mul(a, b)
        left_total = None if left is None else mul(left[1], c)
        right = mul(b, c)
        right_total = None if right is None else mul(a, right[1])
        if left is None or right is None or left_total is None or right_total is None:
            # zero either way: at least one shared odd generator
            assert (left is None or left_total is None) and (
                right is None or right_total is None
            )
            return
        assert left[0] * left_total[0] == right[0] * right_total[0]
        assert left_total[1] == right_total[1]


class TestElement:
    def test_sum_of_odds_squares_to_zero(self, odd3):
        a = Element.generator(odd3, "x") + Element.generator(odd3, "y")
        assert elem_mul(a, a).is_zero()

    def test_product_of_generators(self, odd3):
        a, b = Element.generator(odd3, "x"), Element.generator(odd3, "y")
        assert elem_mul(a, b) == Element(odd3, {odd3.monomial_of("x", "y"): 1})

    def test_no_zero_terms_stored(self, odd3):
        e = Element(odd3, {odd3.monomial_of("x"): 0, odd3.monomial_of("y"): 2})
        assert list(e.terms.values()) == [Fraction(2)]

    def test_homogeneous_degree(self, mixed):
        t = Element.generator(mixed, "t")
        x = Element.generator(mixed, "x1")
        assert t.homogeneous_degree() == 2
        assert (t + elem_mul(x, Element.generator(mixed, "x2"))).homogeneous_degree() == 2
        assert (t + x).homogeneous_degree() is None
        assert Element.zero(mixed).homogeneous_degree() is None

    def test_scalar_arithmetic(self, odd3):
        x = Element.generator(odd3, "x")
        assert (2 * x - x) == x
        assert (Fraction(1, 2) * x + Fraction(1, 2) * x) == x

    @given(st.data())
    def test_graded_commutativity_on_homogeneous(self, data):
        sig = Signature([("a", 1), ("b", 1), ("u", 2), ("v", 3)])
        degrees = sorted({m.degree() for n in range(8) for m in basis_of_degree(sig, n)})

        def homogeneous(label):
            d = data.draw(st.sampled_from(degrees), label=label + "-deg")
            basis = basis_of_degree(sig, d)
            coeffs = data.draw(
                st.lists(
                    st.integers(-3, 3), min_size=len(basis), max_size=len(basis)
                ),
                label=label + "-coeffs",
            )
            return d, Element(sig, dict(zip(basis, coeffs)))

        p, e1 = homogeneous("e1")
        q, e2 = homogeneous("e2")
        lhs = elem_mul(e1, e2)
        rhs = elem_mul(e2, e1).scale((-1) ** (p * q))
        assert lhs == rhs


class TestBasisOfDegree:
    def test_pairs_of_three_odd(self, odd3):
        assert len(basis_of_degree(odd3, 2)) == 3

    def test_mixed_degree_two(self, mixed):
        basis = basis_of_degree(mixed, 2)
        assert set(basis) == {mixed.monomial_of("t"), mixed.monomial_of("x1", "x2")}
        assert len(basis) == 2

    def test_top_word_of_x5_signature(self, x5):
        top = basis_of_degree(x5.signature, 7)
        assert len(top) == 1
        assert repr(top[0]) == "a*b*x1*x2*x3*x4*x5"

    def test_lex_order_on_exponent_vectors(self, odd3):
        assert [m.exponents() for m in basis_of_degree(odd3, 2)] == [
            (0, 1, 1),
            (1, 0, 1),
            (1, 1, 0),
        ]

    def test_polynomial_generator_unbounded_window(self, mixed):
        # degree 6: t^3, t^2*x1*x2
        assert len(basis_of_degree(mixed, 6)) == 2

    @given(st.integers(1, 15))
    def test_purely_odd_total_count(self, k):
        sig = Signature([(f"g{i}", 1) for i in range(k)])
        total = sum(len(basis_of_degree(sig, n)) for n in range(k + 1))
        assert total == 2**k
        assert len(basis_of_degree(sig, k // 2)) == math.comb(k, k // 2)

    # Up to 9 generators, so the halves of the meet-in-the-middle join meet
    # an empty half, odd counts and a split between odd and even generators.
    @given(st.lists(st.integers(1, 4), min_size=0, max_size=9), st.integers(0, 8))
    def test_matches_brute_force_in_lex_order(self, degrees, n):
        sig = Signature([(f"g{i}", d) for i, d in enumerate(degrees)])
        ranges = _brute_force_ranges(degrees, n)
        expected = sorted(
            exps
            for exps in itertools.product(*ranges)
            if sum(e * d for e, d in zip(exps, degrees)) == n
        )
        basis = basis_of_degree(sig, n)
        assert [m.exponents() for m in basis] == expected
        assert all(m == sig.monomial(m.exponents()) for m in basis)

    def test_negative_degree_raises(self, odd3):
        with pytest.raises(ValueError):
            basis_of_degree(odd3, -1)

    @given(
        st.lists(st.tuples(st.integers(1, 4), st.integers(-3, 3)), min_size=0, max_size=9),
        st.integers(0, 8),
        st.data(),
    )
    def test_weight_walk_matches_brute_force(self, gens, n, data):
        degrees = [d for d, _ in gens]
        weights = [w for _, w in gens]
        sig = Signature([(f"g{i}", d) for i, d in enumerate(degrees)])
        ranges = _brute_force_ranges(degrees, n)
        # itertools.product runs in lex order, so each weight's list is in
        # lex order and the dict's keys in the order of their first vector.
        expected: dict = {}
        counts = [{} for _ in range(n + 1)]
        for exps in itertools.product(*ranges):
            degree = sum(e * d for e, d in zip(exps, degrees))
            if degree > n:
                continue
            weight = sum(e * w for e, w in zip(exps, weights))
            counts[degree][weight] = counts[degree].get(weight, 0) + 1
            if degree == n:
                expected.setdefault(weight, []).append(exps)
        keep = data.draw(st.none() | st.sets(st.sampled_from(sorted(expected) + [25])))
        groups = _keys_by_weight(sig, n, weights, keep)
        assert [
            (w, [_decode(sig, key).exponents() for key in keys]) for w, keys in groups.items()
        ] == [(w, v) for w, v in expected.items() if keep is None or w in keep]
        assert _weight_dimensions(sig, n, weights) == counts

    def test_u5_orbit_share_matches_the_product_in_order(self):
        # The share ``betti`` walks on u_5: the orbit representatives of
        # sigma, about half of the weights of each degree.
        model = upper_tri_model(5)
        sig = model.signature
        weights = model._weight_lattice().generators
        degrees = list(range(len(sig) + 1))
        share = {w: mirror for w, (_, mirror) in _weight_costs(model, degrees).items()}
        for n in degrees:
            expected: dict = {}
            for exps in itertools.product(range(2), repeat=len(sig)):
                weight = sum(w for e, w in zip(exps, weights) if e)
                if sum(exps) == n and weight in share:
                    expected.setdefault(weight, []).append(exps)
            groups = _keys_by_weight(sig, n, weights, share)
            assert [
                (w, [_decode(sig, key).exponents() for key in keys])
                for w, keys in groups.items()
            ] == list(expected.items()), n
