import pytest

from dense_oracle import obstruction_by_copies
from nilcohom import (
    Element,
    betti,
    borel_twist,
    c_formula,
    d_formula,
    degree_shift,
    principal_obstruction,
    split_at_k,
    torus_model,
    upper_tri_model,
    xr_model,
)
from nilcohom import models
from nilcohom.linalg import rank_exact


class TestUpperTriModel:
    def test_heisenberg(self):
        u3 = upper_tri_model(3)
        sig = u3.signature
        assert u3.d_of("x_3_1") == Element(sig, {sig.monomial_of("x_2_1", "x_3_2"): -1})

    def test_circle_for_n_two(self):
        u2 = upper_tri_model(2)
        assert u2.signature.names == ("x_2_1",)
        assert u2.d_of("x_2_1").is_zero()

    def test_n4_corner_differential(self):
        # d x_4_1 = -(x_2_1*x_4_2) - (x_3_1*x_4_3); the second word sorts to
        # -x_4_3*x_3_1 in signature order, flipping its stored coefficient
        u4 = upper_tri_model(4)
        sig = u4.signature
        expected = Element(
            sig,
            {
                sig.monomial_of("x_2_1", "x_4_2"): -1,
                sig.monomial_of("x_4_3", "x_3_1"): 1,
            },
        )
        assert u4.d_of("x_4_1") == expected

    def test_n4_corner_differential_via_word_products(self):
        u4 = upper_tri_model(4)

        def word(*names):
            out = Element.unit(u4.signature)
            for name in names:
                out = out * Element.generator(u4.signature, name)
            return out

        expected = -word("x_2_1", "x_4_2") - word("x_3_1", "x_4_3")
        assert u4.d_of("x_4_1") == expected


class TestSplitAtK:
    def test_5_4_fiber_is_torus_of_rank_d(self):
        triple = split_at_k(5, 4)
        assert triple.fiber.signature.names == ("x_4_1", "x_5_2", "x_5_1")
        assert len(triple.fiber.signature) == d_formula(5, 4) == 3
        assert triple.fiber_differential_is_zero()

    def test_5_3_fiber_differential_survives(self):
        triple = split_at_k(5, 3)
        assert not triple.fiber_differential_is_zero()
        sig = triple.fiber.signature
        value = triple.fiber.d_of("x_5_1")
        assert value.coefficient(sig.monomial_of("x_3_1", "x_5_3")) == -1

    def test_3_3_bookkeeping(self):
        triple = split_at_k(3, 3)
        assert triple.base.signature.names == ("x_2_1", "x_3_2")
        assert triple.fiber.signature.names == ("x_3_1",)

    def test_base_differentials_restrict(self):
        triple = split_at_k(6, 4)
        total = triple.total
        for g in triple.base.signature.names:
            base_terms = {
                tuple(sorted(repr(m).split("*"))): c
                for m, c in triple.base.d_of(g).terms.items()
            }
            total_terms = {
                tuple(sorted(repr(m).split("*"))): c
                for m, c in total.d_of(g).terms.items()
            }
            assert base_terms == total_terms

    def test_projection_maps_base_to_none(self):
        triple = split_at_k(5, 4)
        assert triple.projection["x_2_1"] is None
        assert triple.projection["x_5_1"] == "x_5_1"
        assert triple.inclusion == {g: g for g in triple.base.signature.names}

    @pytest.mark.parametrize("n,k", [(5, 3), (6, 3), (6, 4), (7, 4)])
    def test_fiber_differential_is_projection_of_total(self, n, k):
        # drop every total-differential term touching a base generator and
        # compare with the fiber differential, word by word
        triple = split_at_k(n, k)
        fiber_names = set(triple.fiber.signature.names)
        for g in triple.fiber.signature.names:
            projected = {}
            for mono, coeff in triple.total.d_of(g).terms.items():
                word = repr(mono).split("*")
                if all(name in fiber_names for name in word):
                    projected[tuple(word)] = coeff
            direct = {
                tuple(repr(m).split("*")): c
                for m, c in triple.fiber.d_of(g).terms.items()
            }
            assert projected == direct, g

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (5, 4), (6, 4), (7, 5)])
    def test_fiber_count_matches_formula(self, n, k):
        assert len(split_at_k(n, k).fiber.signature) == d_formula(n, k)

    @pytest.mark.parametrize(
        "n,k,zero",
        [(5, 4, True), (6, 4, True), (7, 5, True), (8, 5, True), (5, 3, False), (6, 3, False)],
    )
    def test_abelian_threshold(self, n, k, zero):
        assert (k >= n / 2 + 1) == zero
        assert split_at_k(n, k).fiber_differential_is_zero() == zero

    def test_range_validation(self):
        with pytest.raises(ValueError):
            split_at_k(5, 1)
        with pytest.raises(ValueError):
            split_at_k(5, 6)


class TestFormulas:
    def test_d_5_4(self):
        assert d_formula(5, 4) == 3
        assert c_formula(5, 4) == 7

    def test_k2_takes_everything(self):
        for n in range(2, 8):
            assert d_formula(n, 2) == n * (n - 1) // 2
            assert c_formula(n, 2) == 0

    def test_sum_is_triangular_number(self):
        for n in range(2, 9):
            for k in range(2, n + 1):
                assert d_formula(n, k) + c_formula(n, k) == n * (n - 1) // 2


class TestXrModel:
    def test_degrees_and_differentials(self, x5):
        sig = x5.signature
        assert sig.names == ("a", "b", "x1", "x2", "x3", "x4", "x5")
        assert x5.d_of("a").is_zero() and x5.d_of("b").is_zero()
        assert x5.d_of("x1") == Element(sig, {sig.monomial_of("a", "b"): 1})
        for i in range(2, 6):
            assert x5.d_of(f"x{i}") == Element(
                sig, {sig.monomial_of("a", f"x{i-1}"): 1}
            )

    def test_r0_total_is_four(self):
        assert betti(xr_model(0)).total == 4


class TestDegreeShift:
    def test_kappa_zero_is_identity(self):
        u4 = upper_tri_model(4)
        assert degree_shift(u4, 0) == u4

    def test_n3_kappa1_degrees(self):
        shifted = degree_shift(upper_tri_model(3), 1)
        degs = {g.name: g.degree for g in shifted.signature.generators}
        assert degs == {"x_2_1": 3, "x_3_2": 3, "x_3_1": 5}
        value = shifted.d_of("x_3_1")
        assert value.homogeneous_degree() == 6

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("kappa", [0, 1, 2])
    def test_betti_totals_preserved(self, n, kappa):
        # regrading redistributes classes across degrees (they split by
        # off-diagonal weight) but the same matrices compute the same total
        original = betti(upper_tri_model(n))
        shifted = betti(degree_shift(upper_tri_model(n), kappa))
        assert shifted.total == original.total
        if kappa == 0:
            assert shifted.per_degree == original.per_degree

    def test_rejects_foreign_labels(self, x5):
        with pytest.raises(ValueError):
            degree_shift(x5, 1)


class TestBorelTwist:
    def test_circle_contracts(self):
        twisted = borel_twist(torus_model(1), "y1")
        table = betti(twisted)
        assert table.per_degree[0] == 1
        assert all(b == 0 for b in table.per_degree[1:])

    def test_x5_window_equals_x4(self, x5):
        twisted = borel_twist(x5, "x5")
        assert twisted.truncation == 11
        window = twisted.truncation - 2
        twisted_table = betti(twisted)
        x4_table = betti(xr_model(4))
        for n in range(window + 1):
            assert twisted_table.b(n) == x4_table.b(n)

    def test_u3_window_equals_two_torus(self):
        twisted = borel_twist(upper_tri_model(3), "x_3_1")
        quotient = torus_model(2)
        twisted_table = betti(twisted)
        expected = betti(quotient)
        for n in range(twisted.truncation - 1):
            assert twisted_table.b(n) == expected.b(n)
        assert sum(twisted_table.per_degree[: twisted.truncation - 1]) == 4

    def test_parity_validation(self):
        from nilcohom import Signature, CDGA

        sig = Signature([("u", 2)])
        model = CDGA(sig, {"u": Element.zero(sig)})
        with pytest.raises(ValueError):
            borel_twist(model, "u")

    def test_twist_differential_shape(self, x5):
        twisted = borel_twist(x5, "x5", t_name="s")
        value = twisted.d_of("x5")
        sig = twisted.signature
        assert value.coefficient(sig.monomial_of("s")) == 1
        assert value.coefficient(sig.monomial_of("a", "x4")) == 1
        assert twisted.d_of("s").is_zero()


OBSTRUCTION_MODELS = {
    **{f"X{r}": lambda r=r: xr_model(r) for r in range(10)},
    **{f"u{n}": lambda n=n: upper_tri_model(n) for n in range(2, 7)},
    **{f"torus{k}": lambda k=k: torus_model(k) for k in range(1, 5)},
    **{
        f"split{n}_4_{part}": lambda n=n, part=part: getattr(split_at_k(n, 4), part)
        for n in (6, 7)
        for part in ("base", "total", "fiber")
    },
    "u4_shift1": lambda: degree_shift(upper_tri_model(4), 1),
}


class TestPrincipalObstruction:
    def test_x5_rank_one_forcing(self, x5):
        report = principal_obstruction(x5, ["x1", "x2", "x3", "x4", "x5"], 1)
        assert report.solution_dimension == 1
        assert report.free == (("x5", "t1"),)
        forced_gens = {g for g, _ in report.forced_zero}
        assert forced_gens == {"a", "b", "x1", "x2", "x3", "x4"}

    def test_torus_has_no_constraints(self):
        t3 = torus_model(3)
        report = principal_obstruction(t3, list(t3.signature.names), 3)
        assert report.ansatz_dimension == 9
        assert report.solution_dimension == 9
        assert report.forced_zero == ()

    def test_u4_rank_one_leaves_center_dual(self):
        u4 = upper_tri_model(4)
        report = principal_obstruction(u4, list(u4.signature.names), 1)
        assert report.free == (("x_4_1", "t1"),)

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_xr_solution_dimension_is_rank(self, r):
        model = xr_model(r)
        fiber = [f"x{i}" for i in range(1, r + 1)]
        report = principal_obstruction(model, fiber, r)
        assert report.solution_dimension == r
        assert {g for g, _ in report.free} == {f"x{r}"}

    def test_forced_plus_free_is_ansatz(self, x5):
        report = principal_obstruction(x5, ["x5"], 3)
        assert len(report.forced_zero) + len(report.free) == report.ansatz_dimension
        assert report.ansatz_dimension == 7 * 3

    @pytest.mark.parametrize("name", sorted(OBSTRUCTION_MODELS))
    def test_matches_the_r_copy_reference(self, name):
        model = OBSTRUCTION_MODELS[name]()
        deg1 = [g.name for g in model.signature.generators if g.degree == 1]
        for r in range(1, 5):
            for fiber in ([], deg1):
                expected = obstruction_by_copies(model, fiber, r)
                assert principal_obstruction(model, fiber, r) == expected, (r, fiber)

    def test_twist_is_refused_like_the_reference(self):
        twisted = borel_twist(xr_model(3), "x3")
        for solve in (principal_obstruction, obstruction_by_copies):
            with pytest.raises(ValueError) as err:
                solve(twisted, [], 2)
            assert str(err.value) == (
                "differential of 'x3' is not quadratic in degree-1 generators"
            )

    @pytest.mark.parametrize("model", ["X5", "u5", "split7_4_total"])
    def test_one_block_of_degree_one_columns_for_every_rank(self, monkeypatch, model):
        # The constraints on different t_s never mix: one block, solved once.
        model = OBSTRUCTION_MODELS[model]()
        deg1 = [g for g in model.signature.generators if g.degree == 1]
        cols = []

        def recording(matrix):
            cols.append(matrix.cols)
            return rank_exact(matrix)

        monkeypatch.setattr(models, "rank_exact", recording)
        for r in range(1, 5):
            cols.clear()
            principal_obstruction(model, [], r)
            assert cols == [len(deg1)], (r, cols)

    def test_rank_zero_is_refused(self):
        with pytest.raises(ValueError, match=r"^need torus rank r >= 1$"):
            principal_obstruction(xr_model(2), [], 0)

    def test_even_fiber_generator_is_refused(self):
        twisted = borel_twist(xr_model(3), "x3")
        with pytest.raises(ValueError, match=r"^fiber generator 't' has even degree$"):
            principal_obstruction(twisted, ["t"], 1)

    def test_unknown_fiber_generator_raises_key_error(self):
        with pytest.raises(KeyError):
            principal_obstruction(xr_model(2), ["zz"], 1)
