import ast
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilcohom import (
    JacobiError,
    LiePresentation,
    abelian_presentation,
    betti,
    center,
    chevalley_eilenberg,
    dual_homotopy_lie,
    lower_central_series,
    nilpotency_class,
    rank_only,
    u_n_presentation,
    upper_tri_model,
    xr_model,
)
from conftest import seeded_two_step_cdgas
from dense_oracle import lower_central_series as oracle_series


class TestUnPresentation:
    def test_basis_order_follows_off_diagonals(self):
        u4 = u_n_presentation(4)
        assert u4.basis == ("X_2_1", "X_3_2", "X_4_3", "X_3_1", "X_4_2", "X_4_1")

    def test_heisenberg_bracket(self):
        u3 = u_n_presentation(3)
        i = u3.basis.index("X_3_2")
        j = u3.basis.index("X_2_1")
        k = u3.basis.index("X_3_1")
        assert u3.bracket_basis(i, j) == {k: Fraction(-1)}
        assert u3.bracket_basis(j, i) == {k: Fraction(1)}

    def test_disjoint_indices_commute(self):
        u4 = u_n_presentation(4)
        i = u4.basis.index("X_2_1")
        j = u4.basis.index("X_4_3")
        assert u4.bracket_basis(i, j) == {}

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            u_n_presentation(1)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_jacobi_holds(self, n):
        u_n_presentation(n)  # construction validates exhaustively

    def test_jacobi_rejects_broken_bracket(self):
        # [e1,e2]=e3, [e1,e3]=e1 breaks Jacobi on (e1,e2,e3)
        with pytest.raises(JacobiError):
            LiePresentation(
                ["e1", "e2", "e3"],
                {(0, 1): {2: 1}, (0, 2): {0: 1}},
            )


def _bracket(brackets: dict, a: int, b: int) -> dict:
    if a < b:
        return brackets.get((a, b), {})
    if a > b:
        return {k: -c for k, c in brackets.get((b, a), {}).items()}
    return {}


def jacobiator(brackets: dict, i: int, j: int, k: int) -> dict:
    """[[X_i, X_j], X_k] + [[X_j, X_k], X_i] + [[X_k, X_i], X_j], by brute force."""
    acc: dict = {}
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        for l, x in _bracket(brackets, a, b).items():
            for m, y in _bracket(brackets, l, c).items():
                acc[m] = acc.get(m, 0) + x * y
    return {m: v for m, v in acc.items() if v}


def jacobi_holds(n: int, brackets: dict) -> bool:
    return not any(jacobiator(brackets, *t) for t in itertools.combinations(range(n), 3))


def check_against_oracle(basis: list, brackets: dict) -> None:
    """Construction raises JacobiError exactly when the oracle finds a
    nonzero Jacobiator, and the triple it names has one."""
    try:
        LiePresentation(basis, brackets)
    except JacobiError as err:
        named = ast.literal_eval(str(err).split("triple ", 1)[1])
        i, j, k = (basis.index(b) for b in named)
        assert i < j < k
        assert jacobiator(brackets, i, j, k), err
        return
    assert jacobi_holds(len(basis), brackets)


def _legal_presentations() -> list:
    out = [u_n_presentation(n) for n in range(2, 9)]
    out += [abelian_presentation(k) for k in range(1, 7)]
    out += [dual_homotopy_lie(xr_model(r)) for r in range(10)]
    out += [dual_homotopy_lie(model) for model in seeded_two_step_cdgas()]
    return out


LEGAL = _legal_presentations()


def _one_constant_changed(L: LiePresentation, seed: int) -> dict:
    rng = random.Random(seed)
    n = len(L.basis)
    i, j = sorted(rng.sample(range(n), 2))
    k = rng.randrange(n)
    brackets = {ij: dict(entry) for ij, entry in L.brackets.items()}
    entry = brackets.setdefault((i, j), {})
    entry[k] = entry.get(k, 0) + rng.choice([1, -1, 2, Fraction(1, 2)])
    return brackets


class TestJacobiOracle:
    @pytest.mark.parametrize("L", LEGAL, ids=lambda L: L.name)
    def test_legal_presentations_satisfy_the_oracle(self, L):
        assert jacobi_holds(len(L.basis), L.brackets)
        check_against_oracle(list(L.basis), L.brackets)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "L", [L for L in LEGAL if len(L.basis) >= 2], ids=lambda L: L.name
    )
    def test_one_constant_changed(self, L, seed):
        check_against_oracle(list(L.basis), _one_constant_changed(L, seed))

    def test_changed_constants_break_jacobi_somewhere(self):
        broken = sum(
            not jacobi_holds(len(L.basis), _one_constant_changed(L, seed))
            for L in LEGAL
            if len(L.basis) >= 2
            for seed in range(3)
        )
        assert broken >= 50

    @given(st.data())
    def test_drawn_brackets(self, data):
        n = data.draw(st.integers(1, 5), label="n")
        coeff = st.sampled_from([0, 1, -1, 2, Fraction(1, 2)])
        brackets = {
            ij: data.draw(st.dictionaries(st.integers(0, n - 1), coeff, max_size=2), label=str(ij))
            for ij in itertools.combinations(range(n), 2)
        }
        check_against_oracle([f"E{i}" for i in range(1, n + 1)], brackets)

    def test_basis_names_need_not_be_generator_names(self):
        # cochains are built on synthetic names, so a basis of arbitrary strings works
        L = LiePresentation(["[x,y]", "x", "y"], {(1, 2): {0: 1}})
        assert center(L).descriptions == ("[x,y]",)
        with pytest.raises(JacobiError, match=r"\('g1', 'x y', '1'\)"):
            LiePresentation(["g1", "x y", "1"], {(0, 1): {2: 1}, (0, 2): {0: 1}})

    def test_least_triple_of_the_residue_is_named(self):
        # d^2 of the fourth cochain is -x1 x2 x4 - 2 x1 x2 x3: both (e1,e2,e4)
        # and (e1,e2,e3) fail, and the lexicographically least is named
        basis = ["e1", "e2", "e3", "e4"]
        brackets = {(0, 1): {3: 1}, (0, 2): {0: 1}, (0, 3): {0: 1}, (1, 2): {1: 1}}
        with pytest.raises(JacobiError, match=r"\('e1', 'e2', 'e3'\)"):
            LiePresentation(basis, brackets)
        check_against_oracle(basis, brackets)


class TestCenter:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_triangular_center_is_corner_entry(self, n):
        report = center(u_n_presentation(n))
        assert report.dimension == 1
        assert report.descriptions == (f"X_{n}_1",)

    def test_abelian_center_is_everything(self):
        report = center(abelian_presentation(4))
        assert report.dimension == 4

    @pytest.mark.parametrize("r", range(1, 10))
    def test_xr_dual_center_is_top_generator(self, r):
        L = dual_homotopy_lie(xr_model(r))
        report = center(L)
        assert report.dimension == 1
        assert report.descriptions == (f"X{r}",)

    def test_hidden_center_found_in_combinations(self):
        # basis rotated so the center is not a basis vector: u(3) with
        # Z1 = X_2_1 + X_3_1, Z2 = X_3_2, Z3 = X_3_1 - X_2_1.
        # [Z1, Z2] = X_3_1 = (Z1 + Z3)/2, center spans Z1 + Z3.
        L = LiePresentation(
            ["Z1", "Z2", "Z3"],
            {
                (0, 1): {0: Fraction(1, 2), 2: Fraction(1, 2)},
                (1, 2): {0: Fraction(1, 2), 2: Fraction(1, 2)},
            },
        )
        report = center(L)
        assert report.dimension == 1
        assert report.descriptions == ("Z1 + Z3",)


class TestLowerCentralSeries:
    def test_u3_series(self):
        assert lower_central_series(u_n_presentation(3)) == (3, 1, 0)
        assert nilpotency_class(u_n_presentation(3)) == 2

    def test_abelian_series(self):
        assert lower_central_series(abelian_presentation(5)) == (5, 0)
        assert nilpotency_class(abelian_presentation(5)) == 1

    @pytest.mark.parametrize("n", range(2, 7))
    def test_triangular_class_is_n_minus_one(self, n):
        assert nilpotency_class(u_n_presentation(n)) == n - 1

    def test_non_nilpotent_flagged(self):
        # sl2-style bracket is not nilpotent: [h,e]=2e, [h,f]=-2f, [e,f]=h
        L = LiePresentation(
            ["h", "e", "f"],
            {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}},
        )
        assert not L.is_nilpotent
        with pytest.raises(ValueError):
            chevalley_eilenberg(L)


def _solvable() -> LiePresentation:
    """The 2-dimensional non-abelian Lie algebra, [X, Y] = Y."""
    return LiePresentation(["X", "Y"], {(0, 1): {1: 1}}, name="solvable2")


def _sl2() -> LiePresentation:
    """sl_2: [h, e] = 2e, [h, f] = -2f, [e, f] = h."""
    return LiePresentation(
        ["h", "e", "f"], {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}, name="sl2"
    )


def _halved(L: LiePresentation) -> LiePresentation:
    """L with every structure constant halved; Jacobi is quadratic in them."""
    brackets = {ij: {k: c / 2 for k, c in entry.items()} for ij, entry in L.brackets.items()}
    return LiePresentation(L.basis, brackets, name=f"{L.name}_halved")


def _series_presentations() -> list:
    out = [u_n_presentation(n) for n in range(2, 13)]
    out += [abelian_presentation(k) for k in range(1, 6)]
    out += [dual_homotopy_lie(xr_model(r)) for r in range(1, 10)]
    out += [_halved(u_n_presentation(5)), _halved(dual_homotopy_lie(xr_model(4)))]
    out.append(
        LiePresentation(
            ["Z1", "Z2", "Z3"],
            {
                (0, 1): {0: Fraction(1, 2), 2: Fraction(1, 2)},
                (1, 2): {0: Fraction(1, 2), 2: Fraction(1, 2)},
            },
            name="rotated_u3",
        )
    )
    out += [
        dual_homotopy_lie(model)
        for model in seeded_two_step_cdgas()
        if any(c.denominator != 1 for d in model.differentials.values() for c in d.terms.values())
    ]
    return out


class TestSeriesOracle:
    @pytest.mark.parametrize("L", _series_presentations(), ids=lambda L: L.name)
    def test_series_matches_the_fraction_loop(self, L):
        expected = oracle_series(L)
        assert expected[-1] == 0
        assert lower_central_series(L) == expected
        assert L.is_nilpotent
        assert nilpotency_class(L) == len(expected) - 1

    def test_fraction_constants_are_covered(self):
        fractional = [
            L
            for L in _series_presentations()
            if any(c.denominator != 1 for e in L.brackets.values() for c in e.values())
        ]
        assert len(fractional) >= 4

    @pytest.mark.parametrize(
        "L, series", [(_solvable(), (2, 1, 1)), (_sl2(), (3, 3))], ids=["solvable2", "sl2"]
    )
    def test_non_nilpotent_series(self, L, series):
        assert oracle_series(L) == series
        assert lower_central_series(L) == series
        assert not L.is_nilpotent
        with pytest.raises(ValueError):
            nilpotency_class(L)
        with pytest.raises(ValueError):
            chevalley_eilenberg(L)


class TestSeriesLaziness:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Names of the presentations whose series gets computed, in order."""
        seen = []
        compute = LiePresentation._lower_central_series

        def counted(L):
            seen.append(L.name)
            return compute(L)

        monkeypatch.setattr(LiePresentation, "_lower_central_series", counted)
        return seen

    def test_center_never_computes_the_series(self, calls):
        L = u_n_presentation(12)
        assert center(L).descriptions == ("X_12_1",)
        assert calls == []

    def test_series_is_computed_once(self, calls):
        L = u_n_presentation(12)
        series = lower_central_series(L)
        assert series == (66, 55, 45, 36, 28, 21, 15, 10, 6, 3, 1, 0)
        assert calls == ["u12"]
        assert lower_central_series(L) == series
        assert L.is_nilpotent
        assert nilpotency_class(L) == 11
        chevalley_eilenberg(L)
        assert calls == ["u12"]

    def test_chevalley_eilenberg_computes_the_series(self, calls):
        chevalley_eilenberg(u_n_presentation(4))
        assert calls == ["u4"]

    def test_broken_bracket_fails_at_construction(self, calls):
        with pytest.raises(JacobiError, match=r"^Jacobi fails on triple \('e1', 'e2', 'e3'\)$"):
            LiePresentation(["e1", "e2", "e3"], {(0, 1): {2: 1}, (0, 2): {0: 1}})
        assert calls == []


class TestChevalleyEilenberg:
    def test_u3_differentials(self):
        model = chevalley_eilenberg(u_n_presentation(3))
        sig = model.signature
        assert model.d_of("x_2_1").is_zero()
        assert model.d_of("x_3_2").is_zero()
        from nilcohom import Element

        assert model.d_of("x_3_1") == Element(
            sig, {sig.monomial_of("x_2_1", "x_3_2"): -1}
        )

    def test_abelian_gives_torus(self):
        model = chevalley_eilenberg(abelian_presentation(3))
        assert all(model.d_of(g).is_zero() for g in model.signature.names)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_matches_triangular_model_generator_for_generator(self, n):
        assert chevalley_eilenberg(u_n_presentation(n)) == upper_tri_model(n)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_abelianization_dimension(self, n):
        # b1 = dim L - dim [L,L]; for the triangular family that is n - 1
        model = chevalley_eilenberg(u_n_presentation(n))
        series = lower_central_series(u_n_presentation(n))
        b1 = (
            len(model.signature)
            - rank_only(model.differential_matrix(1))
            - rank_only(model.differential_matrix(0))
        )
        assert b1 == series[0] - series[1] == n - 1


class TestDualHomotopyLie:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_round_trip_on_triangular(self, n):
        L = u_n_presentation(n)
        back = dual_homotopy_lie(chevalley_eilenberg(L))
        assert back.basis == L.basis
        assert back.brackets == L.brackets

    def test_round_trip_starting_from_cdga(self, x5):
        again = chevalley_eilenberg(dual_homotopy_lie(x5))
        assert again == x5

    def test_xr_bracket_table(self, x5):
        L = dual_homotopy_lie(x5)
        names = L.basis
        a, b = names.index("A"), names.index("B")
        x = [names.index(f"X{i}") for i in range(1, 6)]
        assert L.bracket_basis(a, b) == {x[0]: Fraction(-1)}
        for i in range(1, 5):
            assert L.bracket_basis(a, x[i - 1]) == {x[i]: Fraction(-1)}
        assert L.bracket_basis(x[0], x[1]) == {}

    def test_torus_dualizes_to_abelian(self):
        from nilcohom import torus_model

        L = dual_homotopy_lie(torus_model(4))
        assert L.brackets == {}

    def test_degree_metadata_kept(self):
        from nilcohom import degree_shift

        shifted = degree_shift(upper_tri_model(3), 1)
        L = dual_homotopy_lie(shifted)
        assert L.degrees == (3, 3, 5)
        assert center(L).dimension == 1

    def test_rejects_non_quadratic(self):
        from nilcohom import borel_twist

        for r in (2, 3):
            twisted = borel_twist(xr_model(r), f"x{r}")
            with pytest.raises(ValueError, match=r"^dualization needs a purely odd signature$"):
                dual_homotopy_lie(twisted)

    def test_rejects_a_quartic_differential(self):
        from nilcohom import CDGA, Element, Signature

        sig = Signature([("a", 1), ("b", 1), ("c", 1), ("e", 1), ("g", 3)])
        diffs = {name: Element.zero(sig) for name in "abce"}
        diffs["g"] = Element(sig, {sig.monomial_of("a", "b", "c", "e"): 1})
        with pytest.raises(ValueError, match=r"^differential of 'g' is not purely quadratic$"):
            dual_homotopy_lie(CDGA(sig, diffs))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_betti_of_cochains_counts_cohomology(self, n):
        import math

        assert betti(chevalley_eilenberg(u_n_presentation(n))).total == math.factorial(n)
