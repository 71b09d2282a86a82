import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcohom import (
    Element,
    basis_of_degree,
    betti,
    representatives,
    split_at_k,
    tensor_product,
    torus_model,
    upper_tri_model,
    verify_classes,
    xr_model,
)
from nilcohom.dsl import parse_element
from conftest import random_two_step_cdga
from dense_oracle import dense_betti

X5_CLASSES = [
    "1",
    "a",
    "b",
    "b*x1",
    "x1*x2 - b*x3",
    "b*x1*x2",
    "x2*x3 - x1*x4 + b*x5",
    "a*x5",
    "a*x2*x3",
    "b*x2*x3 - b*x1*x4",
    "x1*x2*x3 - b*x2*x4 + b*x1*x5",
    "a*x3*x4",
    "b*x1*x2*x3",
    "a*x4*x5",
    "b*x1*x3*x4 - b*x1*x2*x5",
    "a*x2*x3*x4",
    "x1*x2*x3*x4 - b*x2*x3*x5 + b*x1*x4*x5",
    "a*x2*x3*x5",
    "a*x1*x2*x3*x4",
    "b*x1*x2*x3*x4",
    "a*x3*x4*x5",
    "a*x1*x2*x4*x5",
    "a*x2*x3*x4*x5",
    "a*x1*x2*x3*x4*x5",
    "b*x1*x2*x3*x4*x5",
    "a*b*x1*x2*x3*x4*x5",
]


def x5_class_elements(model):
    return [parse_element(model.signature, text) for text in X5_CLASSES]


class TestBetti:
    def test_x5_total_and_profile(self, x5):
        table = betti(x5)
        assert table.total == 26
        assert table.per_degree == (1, 2, 4, 6, 6, 4, 2, 1)

    @pytest.mark.parametrize("r,total", [(4, 16), (9, 180)])
    def test_xr_totals(self, r, total):
        assert betti(xr_model(r)).total == total

    def test_torus_binomials(self):
        assert betti(torus_model(3)).per_degree == (1, 3, 3, 1)

    def test_b0_is_computed_for_connected_models(self, x5):
        assert betti(x5).b(0) == 1

    def test_jobs_flag_changes_nothing(self, x5):
        assert betti(x5, jobs=4) == betti(x5, jobs=1) == betti(x5)

    def test_polynomial_signature_gets_default_window(self):
        from nilcohom import CDGA, Signature

        sig = Signature([("x", 1), ("t", 2)])
        model = CDGA(
            sig, {"x": Element.zero(sig), "t": Element.zero(sig)}, name="poly"
        )
        # default window: odd degree sum + 2 * max even degree
        assert model.truncation == 1 + 2 * 2
        table = betti(model)
        assert table.truncated_at == 5
        assert len(table.per_degree) == 5

    def test_json_shape(self, x5):
        d = betti(x5).to_json_dict()
        assert d == {
            "per_degree": [1, 2, 4, 6, 6, 4, 2, 1],
            "total": 26,
            "truncated_at": None,
        }


class TestRepresentatives:
    def test_degree_zero_is_unit(self, x5):
        reps = representatives(x5, 0)
        assert len(reps) == 1
        assert reps[0] == Element.unit(x5.signature)

    def test_degree_one_spans_a_and_b(self, x5):
        reps = representatives(x5, 1)
        assert len(reps) == 2
        names = {repr(e) for e in reps}
        assert names == {"a", "b"}

    def test_u3_degree_one(self):
        u3 = upper_tri_model(3)
        reps = representatives(u3, 1)
        assert len(reps) == 2
        assert {repr(e) for e in reps} == {"x_2_1", "x_3_2"}

    def test_top_degree_class(self, x5):
        reps = representatives(x5, 7)
        assert len(reps) == 1
        assert repr(reps[0]) == "a*b*x1*x2*x3*x4*x5"

    def test_counts_match_betti_everywhere(self, x5):
        table = betti(x5)
        for n in range(8):
            assert len(representatives(x5, n)) == table.b(n)

    def test_representatives_are_closed(self, x5):
        for n in range(8):
            for rep in representatives(x5, n):
                assert x5.apply_d(rep).is_zero()


class TestVerifyClasses:
    def test_reference_26_generators(self, x5):
        report = verify_classes(x5, x5_class_elements(x5))
        assert report.ok
        assert report.all_closed and report.independent and report.spanning

    def test_scalar_multiple_dependency(self, x5):
        a = Element.generator(x5.signature, "a")
        report = verify_classes(x5, [a, 2 * a])
        assert report.all_closed
        assert not report.independent
        # 2*[first] - [second] vanishes
        assert report.dependency == ((0, 2), (1, -1)) or report.dependency == (
            (0, -2),
            (1, 1),
        )
        assert not report.spanning

    def test_exact_class_detected(self, x5):
        sig = x5.signature
        ab = Element(sig, {sig.monomial_of("a", "b"): 1})
        report = verify_classes(x5, [ab])
        assert report.all_closed
        assert not report.independent  # [ab] = [d x1] = 0
        assert report.dependency == ((0, 1),)

    def test_non_closed_witness(self, x5):
        x3 = Element.generator(x5.signature, "x3")
        report = verify_classes(x5, [x3])
        assert not report.all_closed
        assert report.non_closed == (0,)

    def test_missing_degree_reported(self, x5):
        report = verify_classes(x5, x5_class_elements(x5)[:-1])
        assert not report.spanning
        assert report.missing_degrees == ((7, 0, 1),)

    def test_class_plus_boundary_depends_on_class(self, x5):
        # [c + beta] = [c]: reducing c against c + beta exposes a boundary
        # pivot, which the reduction must still clear.
        sig = x5.signature
        pairs = 0
        for n in range(1, 5):
            boundaries = [
                x5.apply_d(Element(sig, {mono: 1}))
                for mono in basis_of_degree(sig, n - 1)
            ]
            for c in representatives(x5, n):
                for beta in boundaries:
                    if beta.is_zero():
                        continue
                    report = verify_classes(x5, [c + beta, c])
                    assert report.independent is False, (c, beta)
                    assert report.dependency == ((0, -1), (1, 1)), (c, beta)
                    pairs += 1
        assert pairs == 218

    def test_inhomogeneous_input_rejected(self, x5):
        sig = x5.signature
        bad = Element.generator(sig, "a") + Element(sig, {sig.monomial_of("a", "b"): 1})
        with pytest.raises(ValueError):
            verify_classes(x5, [bad])


class TestTensorProduct:
    def test_two_circles(self):
        product = tensor_product(torus_model(1), torus_model(1))
        assert betti(product).per_degree == (1, 2, 1)

    def test_x5_times_circle(self, x5):
        assert betti(tensor_product(x5, torus_model(1))).total == 52

    def test_x5_squared(self, x5):
        table = betti(tensor_product(x5, x5))
        assert table.total == 676

    def test_renaming_policy(self, x5):
        product = tensor_product(x5, x5)
        names = product.signature.names
        assert "a" in names and "a_2" in names
        assert len(names) == 14

    def test_kunneth_per_degree_convolution(self, x5):
        t2 = torus_model(2)
        left, right = betti(x5), betti(t2)
        product = betti(tensor_product(x5, t2))
        for n, value in enumerate(product.per_degree):
            convolution = sum(
                left.b(i) * right.b(n - i) for i in range(n + 1)
            )
            assert value == convolution

    @given(st.integers(0, 10_000))
    @settings(max_examples=15)
    def test_kunneth_total_on_random_models(self, seed):
        rng = random.Random(seed)
        a = random_two_step_cdga(rng, closed=rng.randint(1, 3), upper=rng.randint(0, 2))
        b = random_two_step_cdga(rng, closed=rng.randint(1, 2), upper=rng.randint(0, 2))
        product = tensor_product(a, b)
        assert betti(product).total == betti(a).total * betti(b).total


class TestStructuralProperties:
    MODELS = [
        torus_model(1),
        torus_model(3),
        xr_model(0),
        xr_model(2),
        xr_model(5),
        upper_tri_model(2),
        upper_tri_model(3),
        upper_tri_model(4),
        split_at_k(5, 4).base,
        split_at_k(5, 4).fiber,
        split_at_k(5, 3).fiber,
    ]

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_euler_characteristic_vanishes(self, model):
        table = betti(model)
        assert sum((-1) ** n * b for n, b in enumerate(table.per_degree)) == 0

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_poincare_duality(self, model):
        table = betti(model)
        n = len(model.signature)
        for k in range(n + 1):
            assert table.b(k) == table.b(n - k)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_dense_oracle_agrees(self, model):
        assert len(model.signature) <= 8
        sparse = betti(model).per_degree
        dense = dense_betti(model)
        assert sparse == dense
