import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcohom import (
    CDGA,
    ConsistencyError,
    Element,
    Signature,
    SparseExactMatrix,
    basis_of_degree,
    betti,
    borel_twist,
    chevalley_eilenberg,
    degree_shift,
    rank_only,
    representatives,
    split_at_k,
    tensor_product,
    torus_model,
    u_n_presentation,
    upper_tri_model,
    verify_classes,
    xr_model,
)
from nilcohom.algebra import basis_index
from nilcohom.cli import main
from nilcohom.cohomology import _boundary_vectors, _degree_range, _mirror_top
from nilcohom.dsl import parse_element, render_element
from nilcohom.linalg import _kernel, _quotient
from conftest import random_two_step_cdga, seeded_two_step_cdgas
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

    def test_purely_odd_dims_enumerate_only_the_lower_half(self):
        model = upper_tri_model(6)
        betti(model)
        # Ranks of d_0..d_7 need the bases of degrees 0..8 and the d_14 = 0
        # gate those of 14 and 15; dim_n for n > 7 is read off degree 15 - n.
        assert sorted(model.signature._basis_cache) == [0, 1, 2, 3, 4, 5, 6, 7, 8, 14, 15]

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


def mahonian_row(n: int) -> list:
    """Number of permutations of n letters with k inversions, for each k."""
    row = [0] * (n * (n - 1) // 2 + 1)
    for perm in itertools.permutations(range(n)):
        row[sum(a > b for a, b in itertools.combinations(perm, 2))] += 1
    return row


class TestRepresentativesOfUn:
    """For u_n, dim H^k is the Mahonian number (Kostant): one oracle that
    does not touch the kernel, quotient or rank code."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_class_counts_are_mahonian(self, n):
        model = upper_tri_model(n)
        counts = [len(representatives(model, k)) for k in range(model.top_degree() + 1)]
        assert counts == mahonian_row(n)

    def test_u7_low_degrees_are_mahonian(self):
        # Truncated at 6, u_7 ranks d_0..d_5 on components far larger than u_6's.
        u7 = upper_tri_model(7)
        model = CDGA(u7.signature, u7.differentials, truncation=6)
        row = mahonian_row(7)
        assert sum(row) == 5040
        assert betti(model).per_degree == tuple(row[:6]) == (1, 6, 20, 49, 98, 169)

    def test_representatives_seed_the_rank_cache(self):
        model = upper_tri_model(4)
        degrees = range(model.top_degree() + 1)
        for k in degrees:
            representatives(model, k)
        assert model._rank_cache == {
            k: rank_only(model.differential_matrix(k)) for k in degrees
        }
        assert betti(model) == betti(upper_tri_model(4))

    @pytest.mark.slow
    def test_cli_u6_representatives_span(self, capsys):
        assert main(["cohomology", "--builtin", "upper-tri:6", "--representatives"]) == 0
        reps = json.loads(capsys.readouterr().out)["outputs"]["representatives"]
        row = mahonian_row(6)
        assert sum(row) == 720
        assert [len(reps.get(str(k), [])) for k in range(len(row))] == row
        model = upper_tri_model(6)
        elems = [parse_element(model.signature, t) for k in sorted(reps, key=int) for t in reps[k]]
        assert len(elems) == 720
        assert verify_classes(model, elems).ok


def quotient_reference(model, n):
    """Representatives from the generic ``_quotient`` on full-length kernel vectors."""
    _, cocycles = _kernel(model.differential_matrix(n))
    basis = basis_of_degree(model.signature, n)
    return [
        Element(model.signature, {basis[j]: v for j, v in cocycles[i].items()})
        for i in _quotient(cocycles, _boundary_vectors(model, n))
    ]


class TestRepresentativesAgainstQuotient:
    """``representatives`` quotients on free-column coordinates; it must pick
    the cocycles that the full-length reference picks, in every degree."""

    @pytest.mark.parametrize(
        "model",
        [upper_tri_model(n) for n in range(2, 6)]
        + [xr_model(r) for r in range(8)]
        + [borel_twist(xr_model(r), f"x{r}") for r in range(1, 5)]
        + [degree_shift(upper_tri_model(3), 1)],
        ids=lambda m: m.name,
    )
    def test_same_choice_as_reference(self, model):
        for n in _degree_range(model):
            assert representatives(model, n) == quotient_reference(model, n), n

    @pytest.mark.parametrize("seed", range(12))
    def test_same_choice_on_rational_models(self, seed):
        rng = random.Random(seed)
        model = random_two_step_cdga(rng, closed=rng.randint(2, 5), upper=rng.randint(1, 4))
        for n in _degree_range(model):
            assert representatives(model, n) == quotient_reference(model, n), n


class TestBrokenDifferential:
    """A differential matrix with d_n o d_(n-1) != 0 must reach the user as a
    ConsistencyError (exit code 3), not as wrong classes."""

    @pytest.fixture
    def broken_u4(self, monkeypatch):
        original = CDGA.differential_matrix
        sig = upper_tri_model(4).signature
        # d x_4_1 = x_4_3*x_3_1 - x_2_1*x_4_2; negating one term breaks d^2.
        column = basis_index(sig, 1)[sig.monomial_of("x_4_1")]

        def broken(self, n):
            m = original(self, n)
            if n != 1:
                return m
            key = min(k for k in m.entries if k[1] == column)
            return SparseExactMatrix(m.rows, m.cols, {**m.entries, key: -m.entries[key]})

        monkeypatch.setattr(CDGA, "differential_matrix", broken)
        model = upper_tri_model(4)
        assert not (model.differential_matrix(2) @ model.differential_matrix(1)).is_zero()
        return model

    def test_representatives_raise(self, broken_u4):
        assert representatives(broken_u4, 1)
        with pytest.raises(ConsistencyError):
            representatives(broken_u4, 2)

    def test_cli_exits_3(self, broken_u4, capsys):
        assert main(["cohomology", "--builtin", "upper-tri:4", "--representatives"]) == 3
        assert "internal consistency error" in capsys.readouterr().err


GOLDEN_REPRESENTATIVES = Path(__file__).parent / "data" / "representatives_golden.json"


class TestRepresentativesGolden:
    """Representatives of u_2..u_5 and X_5 in every degree, as rendered text.

    The golden file fixes the exact elements, not only their count, so any
    change of pivot choice, basis order or sign shows up here.
    """

    @pytest.mark.parametrize(
        "model",
        [upper_tri_model(n) for n in range(2, 6)] + [xr_model(5)],
        ids=lambda m: m.name,
    )
    def test_matches_golden_file(self, model):
        golden = json.loads(GOLDEN_REPRESENTATIVES.read_text())[model.name]
        actual = {
            str(k): [render_element(e) for e in representatives(model, k)]
            for k in range(model.top_degree() + 1)
        }
        assert actual == golden


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


def full_path_table(model):
    """The unshortcut Betti row: every degree ranked from ``differential_matrix``."""
    degrees = _degree_range(model)
    ranks = [rank_only(model.differential_matrix(n)) for n in degrees]
    dims = [len(basis_of_degree(model.signature, n)) for n in degrees]
    return tuple(dims[n] - ranks[n] - (ranks[n - 1] if n else 0) for n in degrees)


class TestPoincareMirroredRanks:
    """``betti`` ranks only the lower half of a purely odd model with
    d_(top-1) = 0 and mirrors the rest. These tests compare it with the full
    path, which ranks every degree; the duality tests above are tautological
    for such models."""

    MIRRORED = (
        [upper_tri_model(n) for n in range(2, 7)]
        + [xr_model(r) for r in range(10)]
        + [
            chevalley_eilenberg(u_n_presentation(4)),
            degree_shift(upper_tri_model(3), 1),
            degree_shift(upper_tri_model(4), 2),
            split_at_k(5, 4).base,
            split_at_k(5, 4).fiber,
            split_at_k(6, 4).fiber,
            tensor_product(xr_model(2), xr_model(3)),
            tensor_product(xr_model(1), tensor_product(xr_model(1), xr_model(2))),
        ]
        + seeded_two_step_cdgas()
    )

    @pytest.mark.parametrize("model", MIRRORED, ids=lambda m: m.name)
    def test_matches_full_path(self, model):
        assert _mirror_top(model) == model.top_degree()
        table = betti(model)
        assert table.per_degree == full_path_table(model)
        assert table.total == sum(table.per_degree)
        assert model._rank_cache == {
            n: rank_only(model.differential_matrix(n)) for n in range(model.top_degree() + 1)
        }

    def test_betti_builds_no_matrix(self):
        model = upper_tri_model(5)
        betti(model)
        assert model._matrix_cache == {}
        assert set(model._rank_cache) == set(range(model.top_degree() + 1))

    def test_non_unimodular_takes_the_full_path(self):
        sig = Signature([("x", 1), ("y", 1)])
        model = CDGA(
            sig,
            {"x": Element.zero(sig), "y": Element.from_monomial(sig.monomial_of("x", "y"))},
        )
        assert _mirror_top(model) is None
        assert betti(model).per_degree == (1, 1, 0) == full_path_table(model)

    def test_non_unimodular_file_through_cli(self, capsys):
        path = Path(__file__).parent / "data" / "axb.cdga"
        assert main(["cohomology", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["outputs"]["betti"]["per_degree"] == [1, 1, 0]

    @pytest.mark.parametrize("truncation", [1, 4, 6])
    def test_truncation_at_or_below_top_takes_the_full_path(self, truncation):
        base = upper_tri_model(4)
        model = CDGA(base.signature, base.differentials, truncation=truncation)
        assert _mirror_top(model) is None
        table = betti(model)
        assert table.per_degree == full_path_table(model) == betti(base).per_degree[:truncation]
        assert table.truncated_at == truncation

    def test_truncation_above_top_mirrors(self):
        base = upper_tri_model(4)
        model = CDGA(base.signature, base.differentials, truncation=base.top_degree() + 1)
        assert _mirror_top(model) == base.top_degree()
        assert betti(model) == betti(base)

    def test_mixed_parity_takes_the_full_path(self):
        model = borel_twist(xr_model(3), "x3")
        assert _mirror_top(model) is None
        assert betti(model).per_degree == full_path_table(model)
