import functools
import hashlib
import itertools
import json
import marshal
import math
import os
import random
import threading
import time
from fractions import Fraction
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
    VerifyReport,
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
from nilcohom import cohomology
from nilcohom.algebra import (
    _EXPONENT_BITS,
    _encode,
    _keys_by_weight,
    _weight_dimensions,
    basis_dimensions,
    transport,
)
from nilcohom.cli import main
from nilcohom import cdga as cdga_module
from nilcohom.cohomology import (
    _degree_range,
    _mirror_top,
    _rank_blocks,
    _shares,
    _weight_shares,
)
from nilcohom.dsl import parse, parse_element, render_element, serialize, to_cdga
from nilcohom.linalg import _extend_echelon, _integer_rows, _kernel, _quotient, _row_pivots
from conftest import random_two_step_cdga, refuse, seeded_rational_models, seeded_two_step_cdgas
from dense_oracle import components, dense_betti

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

    def test_purely_odd_dims_enumerate_only_the_lower_half(self, no_basis_or_matrix):
        model = upper_tri_model(6)
        # Ranks of d_0..d_7 walk the keys of their source degrees 0..7,
        # which builds no Monomial; targets are keyed as d reaches them, and
        # dim_n is counted. The d_14 = 0 gate walks the keys of degree 14,
        # so no basis is enumerated at all.
        assert betti(model).total == 720

    def test_one_generator_of_a_high_degree(self):
        # 10001 degrees are ranked, each checked once for the next one.
        sig = Signature([("a", 20001)])
        table = betti(CDGA(sig, {"a": Element.zero(sig)}))
        assert table.total == 2
        assert [n for n, b in enumerate(table.per_degree) if b] == [0, 20001]

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

    @staticmethod
    def record_passes(monkeypatch) -> list:
        """The degree lists ``_rank_blocks`` is called with, in call order."""
        passes = []
        real = cohomology._rank_blocks

        def recording(cdga, degrees, *args):
            passes.append(list(degrees))
            return real(cdga, degrees, *args)

        monkeypatch.setattr(cohomology, "_rank_blocks", recording)
        return passes

    def test_representatives_of_every_degree_share_one_pass(self, monkeypatch):
        passes = self.record_passes(monkeypatch)
        model = upper_tri_model(4)
        degrees = range(model.top_degree() + 1)
        for k in degrees:
            representatives(model, k)
        # Top degree 6: d_0..d_2 ranked, the rest mirrored.
        assert passes == [[0, 1, 2]]
        assert ledger_row_sums(model) == full_path_table(model)
        assert betti(model) == betti(upper_tri_model(4))

    @pytest.mark.parametrize(
        "make, degrees",
        [(lambda n=n: upper_tri_model(n), None) for n in range(2, 6)]
        + [(lambda r=r: xr_model(r), None) for r in range(1, 8)]
        # u_6 from degree 2 on is solved one torus-weight block at a time.
        + [(lambda: upper_tri_model(6), range(3, 6))],
        ids=[f"u{n}" for n in range(2, 6)] + [f"xr{r}" for r in range(1, 8)] + ["u6"],
    )
    def test_each_degree_is_ranked_once(self, make, degrees, monkeypatch):
        # Each degree on a fresh model: the one Betti pass ranks the table,
        # and the solved blocks leave its ledger as the pass stored it.
        passes = self.record_passes(monkeypatch)
        reference = make()
        expected = full_path_table(reference)
        for n in degrees or range(1, reference.top_degree() + 1):
            model = make()
            passes.clear()
            representatives(model, n)
            assert len(passes) == 1 and len(set(passes[0])) == len(passes[0]), n
            assert ledger_row_sums(model) == expected, n

    def test_representatives_and_verify_share_one_pass(self, monkeypatch):
        passes = self.record_passes(monkeypatch)
        model = upper_tri_model(5)
        report = verify_classes(model, representatives(model, 4))
        assert report.all_closed and report.independent
        table = betti(model)
        assert passes == [[0, 1, 2, 3, 4]]
        assert table == betti(upper_tri_model(5))

    def test_verify_writes_no_rank(self, monkeypatch):
        stubbed = []

        def stub(cdga):
            # The ledger's generator weights, all 0 as for an unsplit model,
            # are all verify reads of it; no block is ranked.
            cdga._ledger = ((0,) * len(cdga.signature), {})
            stubbed.append(cdga._ledger)
            return BettiStub()

        monkeypatch.setattr(cohomology, "betti", stub)
        model = xr_model(5)
        verify_classes(model, x5_class_elements(model)[3:5])
        assert stubbed == [model._ledger] and model._ledger[1] == {}

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


@pytest.mark.parametrize(
    "make",
    [lambda: upper_tri_model(5), lambda: xr_model(6), lambda: borel_twist(xr_model(7), "x7")],
    ids=["u5", "xr6", "twist-x7"],
)
def test_a_ranked_model_counts_and_ranks_nothing(make, monkeypatch):
    # The first ``betti`` stores the ledger; every later one, with any jobs,
    # and the ones ``representatives`` and ``verify_classes`` make, read the
    # table off it. The twist of X_7 is ranked as its quotient X_6.
    model = make()
    table = betti(model)
    monkeypatch.setattr(cohomology, "basis_dimensions", refuse)
    monkeypatch.setattr(cohomology, "_rank_blocks", refuse)
    assert betti(model) == betti(model, jobs=2) == table
    classes = [c for n in range(len(table.per_degree)) for c in representatives(model, n)]
    assert len(classes) == table.total
    assert verify_classes(model, classes).ok


class BettiStub:
    """A Betti table with no classes, for tests that skip ranking."""

    def b(self, n):
        return 0


def boundary_vectors(model, n):
    """Images of the degree-(n-1) basis under d, as sparse degree-n vectors.

    These are the nonzero columns of ``differential_matrix(n - 1)`` in column
    order, each a dict from row index to Fraction.
    """
    if n == 0:
        return []
    cols: dict = {}
    for (r, c), v in model.differential_matrix(n - 1).entries.items():
        cols.setdefault(c, {})[r] = v
    return [cols[c] for c in sorted(cols)]


def quotient_reference(model, n):
    """Representatives from the generic ``_quotient`` on full-length kernel
    vectors of the whole-degree matrix."""
    d_n = model.differential_matrix(n)
    _, cocycles = _kernel(_integer_rows(d_n), d_n.cols)
    basis = basis_of_degree(model.signature, n)
    return [
        Element(model.signature, {basis[j]: v for j, v in cocycles[i].items()})
        for i in _quotient(cocycles, boundary_vectors(model, n))
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

    @pytest.mark.parametrize(
        "make, degrees",
        [
            (lambda: upper_tri_model(6), range(3, 6)),
            (lambda: borel_twist(xr_model(7), "x7"), range(7, 10)),
        ],
        ids=["u6", "xr7_twist_x7"],
    )
    def test_same_choice_on_weight_blocks(self, make, degrees):
        # These degrees reach _BLOCK_MIN_MONOMIALS, so representatives
        # solves one torus-weight block at a time; the reference does not.
        # Degree 7 of the twisted X_7 has its two classes in two blocks,
        # which must be merged in global basis order.
        model = make()
        for n in degrees:
            assert model._by_weight(basis_dimensions(model.signature, n + 1)), n
            assert representatives(model, n) == quotient_reference(model, n), n

    # Seed 38 breaks a pivot tie by row id, so it needs the target rows of
    # each block numbered in the global basis order.
    @pytest.mark.parametrize("seed", [*range(12), 38])
    def test_same_choice_on_rational_models(self, seed):
        rng = random.Random(seed)
        model = random_two_step_cdga(rng, closed=rng.randint(2, 5), upper=rng.randint(1, 4))
        for n in _degree_range(model):
            assert representatives(model, n) == quotient_reference(model, n), n


class TestBrokenDifferential:
    """A differential with d_n o d_(n-1) != 0 must reach the user as a
    ConsistencyError (exit code 3), not as wrong classes."""

    @pytest.fixture
    def broken_u4(self, monkeypatch):
        original = CDGA._d_key
        sig = upper_tri_model(4).signature
        # d x_4_1 = x_4_3*x_3_1 - x_2_1*x_4_2; negating one term breaks d^2.
        # The d^2 check at construction expands d only on the degree-2 terms
        # of each d g, never on the key of a generator, so the model builds.
        column = _encode(sig.monomial_of("x_4_1"))

        def broken(self, key):
            image = original(self, key)
            if key == column:
                target = min(image)
                image[target] = -image[target]
            return image

        monkeypatch.setattr(CDGA, "_d_key", broken)
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


class TestLedgerChecks:
    """The ledger of ``betti`` is checked where it is made and where it is
    used: a negative block Betti number, or a solved block whose class count
    differs from its ledger entry, is a ConsistencyError (exit code 3)."""

    @pytest.fixture
    def extra_pivot(self, monkeypatch):
        # One pivot too many in every block that has one, so a weight block
        # of u_6 with b = 0 and a nonzero rank comes out at b = -1.
        real = cohomology._row_pivots

        def padded(rows):
            pivots = real(rows)
            return pivots + pivots[:1]

        monkeypatch.setattr(cohomology, "_row_pivots", padded)

    def test_negative_block_betti_raises(self, extra_pivot):
        model = upper_tri_model(6)
        with pytest.raises(ConsistencyError, match="has Betti number -"):
            betti(model)
        assert model._ledger is None

    def test_negative_block_betti_exits_3(self, extra_pivot, capsys):
        assert main(["cohomology", "--builtin", "upper-tri:6"]) == 3
        assert "internal consistency error" in capsys.readouterr().err

    @pytest.mark.parametrize("n, k", [(4, 3), (6, 5)])
    def test_class_count_off_the_ledger_raises(self, n, k):
        model = upper_tri_model(n)
        betti(model)
        row = model._ledger[1][k]
        weight = next(iter(row))
        row[weight] += 1
        with pytest.raises(ConsistencyError, match=f"gave {row[weight] - 1} classes"):
            representatives(model, k)


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


class TestRepresentativesPinned:
    def test_u6_classes_by_digest(self, capsys):
        # All 720 classes of u_6, with the digest of the CI step. The golden
        # file's models all take the one-block path; this pin reaches the
        # weight blocks, the sigma-copies and the mirrored degrees 8..15.
        args = ["cohomology", "--builtin", "upper-tri:6", "--representatives", "--format", "json"]
        assert main(args) == 0
        reps = json.loads(capsys.readouterr().out)["outputs"]["representatives"]
        assert sum(len(classes) for classes in reps.values()) == 720
        digest = hashlib.sha256(json.dumps(reps, sort_keys=True).encode()).hexdigest()
        assert digest == "ad57b2197f5e7629cdb5b1a44fa924ca7ba9dc25dbfe278931ac75a729fb7ffa"


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

    def test_class_plus_boundary_above_the_exponent_fields(self):
        # The twisted X_7 has a polynomial generator t, so a monomial key
        # carries t's exponent field above the odd bits. The tags must sit
        # above that field too, or a t term would be read as a tag and
        # leak into the witness.
        model = borel_twist(xr_model(7), "x7")
        sig = model.signature
        t = sig.generator("t").index
        pairs = 0
        for n in (4, 6, 8):
            c = representatives(model, n)[0]
            assert any(mono.exponents()[t] for mono in c.terms), n
            sources = [mono for mono in basis_of_degree(sig, n - 1) if mono.exponents()[t]]
            betas = [model.apply_d(Element(sig, {mono: 1})) for mono in sources]
            for beta in [beta for beta in betas if not beta.is_zero()][:3]:
                report = verify_classes(model, [c + beta, c])
                assert report.independent is False, (c, beta)
                assert report.dependency == ((0, -1), (1, 1)), (c, beta)
                pairs += 1
        assert pairs == 9

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


def ledger_row_sums(model) -> tuple:
    """The b_n of every degree of the ledger ``betti`` stored on ``model``."""
    return tuple(sum(row.values()) for row in model._ledger[1].values())


def ledger_items(model) -> list:
    """The stored ledger's rows, each with its items, in key order."""
    return [(n, list(row.items())) for n, row in model._ledger[1].items()]


def ledger_ranks(counts: dict, ledger: dict) -> dict:
    """{n: rank d_n} of a ``_rank_blocks`` pass over consecutive degrees
    from 0, from its result: rank d_n = dim_n - b_n - rank d_(n-1)."""
    ranks: dict = {}
    for n in counts:
        ranks[n] = counts[n] - sum(ledger[n].values()) - ranks.get(n - 1, 0)
    return ranks


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

    def test_betti_builds_no_matrix(self, monkeypatch):
        monkeypatch.setattr(CDGA, "differential_matrix", refuse)
        model = upper_tri_model(5)
        betti(model)
        assert list(model._ledger[1]) == list(range(model.top_degree() + 1))

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


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkedRanks:
    """``betti`` with ``jobs`` >= 2 deals torus weights to forked children
    above the size gate. The table and the ledger, order included, must
    equal the serial ones; no test here starts more than two children."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """Two usable CPUs, and a list that grows by one per os.fork call."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        calls = []
        real_fork = os.fork

        def counting_fork():
            calls.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        return calls

    @pytest.fixture
    def no_fork(self, monkeypatch):
        def refuse():
            raise AssertionError("os.fork called")

        monkeypatch.setattr(os, "fork", refuse)

    def test_u6_matches_the_serial_path(self, forks):
        serial = upper_tri_model(6)
        forked = upper_tri_model(6)
        assert betti(forked, jobs=2) == betti(serial)
        assert len(forks) == 2
        assert ledger_items(forked) == ledger_items(serial)

    def test_truncated_window_matches_the_serial_path(self, forks):
        base = upper_tri_model(6)
        serial = CDGA(base.signature, base.differentials, truncation=7)
        forked = CDGA(base.signature, base.differentials, truncation=7)
        assert _mirror_top(forked) is None
        assert betti(forked, jobs=2) == betti(serial)
        assert len(forks) == 2
        assert ledger_items(forked) == ledger_items(serial)

    def test_orbits_match_the_serial_path_without_symmetry(self, forks):
        # Children rank sigma-orbit representatives; the rebuild has no sigma
        # and ranks every weight block in this process.
        forked = upper_tri_model(6)
        plain = CDGA(forked.signature, forked.differentials)
        assert betti(forked, jobs=2) == betti(plain)
        assert len(forks) == 2
        assert forked._weights.mirrors is not None and plain._weights.mirrors is None
        assert ledger_items(forked) == ledger_items(plain)

    def test_two_polynomial_generators_match_the_serial_path(self, forks, monkeypatch):
        # Keys with two exponent fields, ranked in children: under the size
        # gate, so the gate is lowered.
        monkeypatch.setattr(cohomology, "FORK_MIN_MONOMIALS", 0)
        serial = tensor_product(borel_twist(xr_model(3), "x3"), borel_twist(xr_model(2), "x2"))
        forked = tensor_product(borel_twist(xr_model(3), "x3"), borel_twist(xr_model(2), "x2"))
        assert betti(forked, jobs=2) == betti(serial)
        assert len(forks) == 2
        assert ledger_items(forked) == ledger_items(serial)

    def test_x9_is_under_the_size_gate(self, monkeypatch, no_fork):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        assert betti(xr_model(9), jobs=4) == betti(xr_model(9))

    def test_one_job_and_the_default_stay_in_process(self, no_fork):
        table = betti(upper_tri_model(6))
        assert betti(upper_tri_model(6), jobs=1) == table

    def test_a_running_thread_keeps_ranking_in_process(self, no_fork):
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            table = betti(upper_tri_model(6), jobs=2)
        finally:
            release.set()
            waiter.join()
        assert table == betti(upper_tri_model(6))

    def test_children_are_capped_by_the_usable_cpus(self, forks):
        assert betti(upper_tri_model(6), jobs=1000) == betti(upper_tri_model(6))
        assert len(forks) == 2

    def test_a_ranked_table_is_not_ranked_again(self, forks, monkeypatch):
        serial = upper_tri_model(6)
        table = betti(serial)
        model = upper_tri_model(6)
        asked = []
        real = cohomology._ranks_in_children

        def recording(cdga, degrees, *args):
            asked.append(list(degrees))
            return real(cdga, degrees, *args)

        monkeypatch.setattr(cohomology, "_ranks_in_children", recording)
        # One pass deals every degree ranked to two children; later calls
        # read the ledger, with any jobs.
        assert betti(model, jobs=2) == table
        assert verify_classes(model, representatives(model, 4)).independent
        assert betti(model, jobs=2) == table
        assert asked == [list(range(8))]
        assert len(forks) == 2
        assert ledger_items(model) == ledger_items(serial)

    @pytest.mark.parametrize("name", ["u6", "u6_fiber_k4"])
    def test_ledger_does_not_depend_on_jobs(self, forks, monkeypatch, name):
        # The fiber of split_at_k(6, 4) is under both gates, so they are
        # lowered: it is then split by weight, has an even top degree (its
        # middle row comes from the weights' Euler characteristics) and
        # carries sigma.
        if name == "u6":
            make = lambda: upper_tri_model(6)
        else:
            make = lambda: split_at_k(6, 4).fiber
            monkeypatch.setattr(cohomology, "FORK_MIN_MONOMIALS", 0)
            monkeypatch.setattr(cdga_module, "_BLOCK_MIN_MONOMIALS", 0)
        serial, forked = make(), make()
        assert betti(forked, jobs=2) == betti(serial)
        assert len(forks) == 2
        assert forked._ledger[0] != (0,) * len(forked.signature)
        assert forked._weights.mirrors is not None
        assert ledger_items(forked) == ledger_items(serial)
        assert forked._ledger[0] == serial._ledger[0]

    def test_u6_middle_pairs_do_not_depend_on_jobs(self, forks, monkeypatch):
        # Degree 7 of u_6, the middle of top degree 15, is ranked by duality
        # pairs in this process and in each child, on both halves of every
        # pair the child is dealt.
        real = cohomology._rank_blocks
        tops = []

        def paired(cdga, degrees, by_weight, share=None, top=None):
            if top != 15:
                raise AssertionError(f"ranked without the mirror top: {top}")
            tops.append(top)
            return real(cdga, degrees, by_weight, share, top)

        monkeypatch.setattr(cohomology, "_rank_blocks", paired)
        serial, forked = upper_tri_model(6), upper_tri_model(6)
        assert betti(forked, jobs=2) == betti(serial, jobs=1)
        assert len(forks) == 2 and tops == [15]
        assert ledger_items(forked) == ledger_items(serial)

    def test_failing_child_raises_and_leaves_no_zombie(self, forks, monkeypatch):
        def broken(*args):
            raise ZeroDivisionError("injected")

        monkeypatch.setattr(cohomology, "_row_pivots", broken)
        model = upper_tri_model(6)
        with pytest.raises(RuntimeError, match="exit status 1"):
            betti(model, jobs=2)
        assert len(forks) == 2
        assert model._ledger is None
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_short_reply_raises(self, forks, monkeypatch):
        monkeypatch.setattr(cohomology, "_rank_share", lambda *args: os._exit(0))
        with pytest.raises(RuntimeError, match="exit status 0"):
            betti(upper_tri_model(6), jobs=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_child_that_skips_a_weight_raises(self, forks, monkeypatch):
        real = cohomology._rank_blocks

        def skipping(cdga, degrees, by_weight, share=None, top=None):
            return real(cdga, degrees, by_weight, dict(sorted(share.items())[1:]), top)

        monkeypatch.setattr(cohomology, "_rank_blocks", skipping)
        model = upper_tri_model(6)
        with pytest.raises(RuntimeError, match="monomials of degree"):
            betti(model, jobs=2)
        assert len(forks) == 2
        assert model._ledger is None
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_doubled_weight_raises(self, forks, monkeypatch):
        real = cohomology._shares

        def doubling(cost, workers):
            shares = real(cost, workers)
            shares[1].append(shares[0][0])
            return shares

        monkeypatch.setattr(cohomology, "_shares", doubling)
        with pytest.raises(RuntimeError, match="monomials of degree"):
            betti(upper_tri_model(6), jobs=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize(
        "reply",
        [b"not marshal", b"garbage", b"0:1:2", marshal.dumps(({}, {}))],
        ids=["unknown-type", "short", "null", "no-degrees"],
    )
    def test_a_malformed_reply_raises(self, forks, monkeypatch, reply):
        # The child exits 0, but its reply is not a (counts, ledger) pair
        # over every degree.
        def garbled(cdga, degrees, index, workers, fd, top=None):
            os.write(fd, reply)
            os._exit(0)

        monkeypatch.setattr(cohomology, "_rank_share", garbled)
        model = upper_tri_model(6)
        with pytest.raises(ConsistencyError, match="exit status 0"):
            betti(model, jobs=2)
        assert len(forks) == 2
        assert model._ledger is None
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_serial_pass_that_drops_a_representative_raises(self, no_fork, monkeypatch):
        # Without the count check the table would total 980, not 6! = 720.
        real = cohomology._weight_costs

        def dropping(cdga, degrees):
            costs = real(cdga, degrees)
            del costs[max(costs, key=lambda w: costs[w][0])]
            return costs

        monkeypatch.setattr(cohomology, "_weight_costs", dropping)
        model = upper_tri_model(6)
        with pytest.raises(ConsistencyError, match="monomials of degree"):
            betti(model, jobs=1)
        assert model._ledger is None

    def test_shares_are_longest_first(self):
        cost = {0: 1, 1: 15, 2: 8, 3: 9, 4: 2}
        assert _shares(cost, 2) == [[1, 4, 0], [3, 2]]
        assert _shares(cost, 5) == [[1], [3], [2], [4], [0]]


def kostant_weight(name: str, n: int) -> tuple:
    """The standard torus weight e_i - e_j of the generator x_i_j of u_n."""
    _, i, j = name.split("_")
    weight = [0] * n
    weight[int(i) - 1] += 1
    weight[int(j) - 1] -= 1
    return tuple(weight)


class TestKostantOracle:
    """Kostant (1961): H^*(u_n) is one-dimensional in each weight
    w(rho) - rho with rho = (n-1, ..., 0), in degree l(w), and zero in every
    other weight. The weights here come from the generator names, not from
    the library's lattice, and each weight block of d is ranked with
    ``rank_only`` on its sub-matrix of ``differential_matrix``."""

    @staticmethod
    def nonzero_blocks(n):
        model = upper_tri_model(n)
        sig = model.signature
        gen_weights = [kostant_weight(g.name, n) for g in sig.generators]
        top = model.top_degree()
        # blocks[k][weight]: {position in the degree-k basis: position in the block}
        blocks = []
        for k in range(top + 1):
            by_weight: dict = {}
            for pos, mono in enumerate(basis_of_degree(sig, k)):
                weight = tuple(
                    sum(e * gen_weights[i][q] for i, e in enumerate(mono.exponents()))
                    for q in range(n)
                )
                block = by_weight.setdefault(weight, {})
                block[pos] = len(block)
            blocks.append(by_weight)
        ranks = []
        for k in range(top):
            weight_of = {c: w for w, cols in blocks[k].items() for c in cols}
            entries: dict = {}
            for (r, c), v in model.differential_matrix(k).entries.items():
                w = weight_of[c]
                entries.setdefault(w, {})[blocks[k + 1][w][r], blocks[k][w][c]] = v
            ranks.append({
                w: rank_only(SparseExactMatrix(len(blocks[k + 1][w]), len(blocks[k][w]), block))
                for w, block in entries.items()
            })
        ranks.append({})
        nonzero = {}
        for k in range(top + 1):
            for w, cols in blocks[k].items():
                h = len(cols) - ranks[k].get(w, 0) - (ranks[k - 1].get(w, 0) if k else 0)
                if h:
                    nonzero[k, w] = h
        return nonzero

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_cohomology_sits_in_the_kostant_weights(self, n):
        rho = tuple(range(n - 1, -1, -1))
        expected = {}
        for perm in itertools.permutations(range(n)):
            length = sum(a > b for a, b in itertools.combinations(perm, 2))
            expected[length, tuple(rho[perm[i]] - rho[i] for i in range(n))] = 1
        assert len(expected) == len(list(itertools.permutations(range(n))))
        assert self.nonzero_blocks(n) == expected


def kostant_count(n: int) -> dict:
    """{(degree, weight vector): 1} with one entry per permutation of n
    letters: its number of inversions, and e_q - e_p summed over its
    inversions p < q. Every other (degree, weight) block has b = 0."""
    count = {}
    for perm in itertools.permutations(range(n)):
        weight = [0] * n
        length = 0
        for p, q in itertools.combinations(range(n), 2):
            if perm[p] > perm[q]:
                weight[p] -= 1
                weight[q] += 1
                length += 1
        count[length, tuple(weight)] = 1
    assert len(count) == math.factorial(n)
    return count


def kostant_weights(model, n: int) -> dict:
    """{packed lattice weight: weight vector from the generator names} for
    every monomial of u_n, one exterior generator at a time. Both are linear
    in the exponents, so each packed weight must meet one vector only."""
    packed = model._weight_lattice().generators
    table = {0: (0,) * n}
    for g in model.signature.generators:
        step = kostant_weight(g.name, n)
        for w, vector in list(table.items()):
            moved = tuple(a + b for a, b in zip(vector, step))
            assert table.setdefault(w + packed[g.index], moved) == moved, g.name
    return table


def ledger_by_vector(model, n: int) -> dict:
    """The ledger of ``betti`` as {(degree, weight vector): b}."""
    vectors = kostant_weights(model, n)
    return {(k, vectors[w]): b for k, row in model._ledger[1].items() for w, b in row.items()}


class TestKostantLedger:
    """The ledger of ``betti`` holds b_(n,w) for each block that carries
    cohomology; by Kostant it is 1 on the block of each permutation, at its
    length and weight, and 0 elsewhere. The count comes from inversions
    alone, and the engine never reads it."""

    def test_u6_ledger(self):
        model = upper_tri_model(6)
        betti(model)
        assert model._ledger[0] == model._weight_lattice().generators
        assert ledger_by_vector(model, 6) == kostant_count(6)

    @pytest.mark.slow
    def test_u7_ledger(self):
        model = upper_tri_model(7)
        assert betti(model).total == 5040
        assert ledger_by_vector(model, 7) == kostant_count(7)

    @pytest.mark.parametrize("n", [4, 5])
    def test_block_numbers_of_small_u_n(self, n):
        # Under _BLOCK_MIN_MONOMIALS the engine's ledger has one block per
        # degree, so the per-block numbers come from ``CDGA._blocks`` and
        # ``_row_pivots``, each block ranked on its own.
        model = upper_tri_model(n)
        vectors = kostant_weights(model, n)
        blocks = u_n_weight_blocks(n)
        found = {}
        for (k, w), (dim, rank) in blocks.items():
            b = dim - rank - blocks.get((k - 1, w), (0, 0))[1]
            if b:
                found[k, vectors[w]] = b
        assert found == kostant_count(n)

    @pytest.mark.parametrize("n", [4, 5])
    def test_even_top_ledger_by_weight(self, n, monkeypatch):
        # With the gate at 0, u_4 and u_5 are ranked by weight; their top
        # degrees 6 and 10 are even, so the middle row comes from the
        # weights' Euler characteristics rather than from a ranked degree.
        monkeypatch.setattr(cdga_module, "_BLOCK_MIN_MONOMIALS", 0)
        model = upper_tri_model(n)
        assert model.top_degree() % 2 == 0
        betti(model)
        assert ledger_by_vector(model, n) == kostant_count(n)
        monkeypatch.undo()
        for k in range(model.top_degree() + 1):
            assert len(representatives(model, k)) == sum(model._ledger[1][k].values())

    def test_u6_classes_sit_in_kostant_weights(self):
        # Each class is weight-homogeneous, and degree n has one class in
        # the weight of each permutation of length n.
        model = upper_tri_model(6)
        sig = model.signature
        gens = [kostant_weight(g.name, 6) for g in sig.generators]
        count = kostant_count(6)
        for k in range(model.top_degree() + 1):
            weights = []
            for c in representatives(model, k):
                found = {
                    tuple(sum(e * g[q] for e, g in zip(mono.exponents(), gens)) for q in range(6))
                    for mono in c.terms
                }
                assert len(found) == 1, (k, c)
                weights.extend(found)
            assert sorted(weights) == sorted(w for length, w in count if length == k), k


def _axb_model():
    sig = Signature([("x", 1), ("y", 1)])
    return CDGA(
        sig, {"x": Element.zero(sig), "y": Element.from_monomial(sig.monomial_of("x", "y"))}
    )


class TestWeightBlocksAgainstComponents:
    """The Betti path ranks d_n one block at a time, by torus weight when
    ``CDGA._by_weight`` says so, and drops from each block the pivot rows
    of d_(n-1) of its weight (clearing). These tests check it, with the
    default grouping and with every degree grouped by weight, against
    ``rank_only(differential_matrix(n))``, the uncleared ranks and the
    connected components of the whole degree."""

    MODELS = (
        [upper_tri_model(n) for n in range(2, 7)]
        + [xr_model(r) for r in range(10)]
        + [borel_twist(xr_model(r), f"x{r}") for r in range(1, 8)]
        + [
            tensor_product(xr_model(2), xr_model(3)),
            tensor_product(xr_model(1), tensor_product(xr_model(1), xr_model(2))),
            tensor_product(upper_tri_model(3), xr_model(1)),
            split_at_k(5, 4).fiber,
            split_at_k(5, 3).fiber,
            split_at_k(6, 4).fiber,
            degree_shift(upper_tri_model(3), 1),
            degree_shift(upper_tri_model(4), 2),
            _axb_model(),
        ]
        + seeded_rational_models()
    )

    @staticmethod
    def by_weight(model, degrees):
        dims = basis_dimensions(model.signature, degrees[-1] + 1)
        return model._by_weight([dims[n] for n in degrees])

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_block_ranks_match_the_matrix_path(self, model, grouping):
        degrees = list(_degree_range(model))
        expected = {n: rank_only(model.differential_matrix(n)) for n in degrees}
        counts, ledger = _rank_blocks(model, degrees, self.by_weight(model, degrees))
        dims = {n: len(basis_of_degree(model.signature, n)) for n in degrees}
        assert counts == dims
        # The blocks' Betti numbers add up to each degree's.
        assert {n: sum(row.values()) for n, row in ledger.items()} == {
            n: dims[n] - expected[n] - (expected[n - 1] if n else 0) for n in degrees
        }

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_cleared_ranks_equal_uncleared_ranks(self, model, grouping):
        # The cleared pass's ranks follow from its ledger; uncleared, every
        # block of a degree is ranked on its own, whole and without orbits.
        degrees = list(_degree_range(model))
        by_weight = self.by_weight(model, degrees)
        uncleared = {
            n: sum(
                len(_row_pivots(model._block_columns(keys)))
                for keys in model._blocks(n, by_weight).values()
            )
            for n in degrees
        }
        assert ledger_ranks(*_rank_blocks(model, degrees, by_weight)) == uncleared

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_clearing_drops_exactly_the_pivot_rows_below(self, model, grouping, monkeypatch):
        # A block has as many pivot rows as its rank, so with d_(n-1) ranked
        # just before, d is expanded on the sources of the ranked blocks of
        # degree n less the pivot rows found in degree n - 1. Every block
        # walked is ranked: with sigma-orbits only the representatives are
        # walked, without them every block, dim_n - rank d_(n-1) sources.
        degrees = list(_degree_range(model))
        by_weight = self.by_weight(model, degrees)
        orbits = by_weight and model._weight_lattice().mirrors is not None
        expanded = dict.fromkeys(degrees, 0)
        ranked = dict.fromkeys(degrees, 0)
        pivot_rows = dict.fromkeys(degrees, 0)
        current = []
        real_blocks, real_columns = CDGA._blocks, CDGA._block_columns
        real_pivots = cohomology._row_pivots

        def blocks(cdga, n, *args):
            current.append(n)
            found = real_blocks(cdga, n, *args)
            ranked[n] = sum(len(keys) for keys in found.values())
            return found

        def columns(cdga, sources):
            expanded[current[-1]] += len(sources)
            return real_columns(cdga, sources)

        def pivots(rows):
            found = real_pivots(rows)
            pivot_rows[current[-1]] += len(found)
            return found

        monkeypatch.setattr(CDGA, "_blocks", blocks)
        monkeypatch.setattr(CDGA, "_block_columns", columns)
        monkeypatch.setattr(cohomology, "_row_pivots", pivots)
        ranks = ledger_ranks(*_rank_blocks(model, degrees, by_weight))
        assert expanded == {n: ranked[n] - (pivot_rows[n - 1] if n else 0) for n in degrees}
        if not orbits:
            dims = basis_dimensions(model.signature, degrees[-1])
            assert ranked == {n: dims[n] for n in degrees}
            assert pivot_rows == ranks

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_blocks_are_unions_of_components(self, model):
        sig = model.signature
        for n in _degree_range(model):
            col_of = {_encode(mono): c for c, mono in enumerate(basis_of_degree(sig, n))}
            block_of = {}
            for b, keys in enumerate(model._blocks(n, True).values()):
                block_of.update((col_of[key], b) for key in keys)
                assert len(set(keys)) == len(keys), n
            assert len(block_of) == len(col_of), n
            for cols, _ in components(_integer_rows(model.differential_matrix(n))):
                assert len({block_of[c] for c in cols}) == 1, n

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_differentials_are_weight_homogeneous(self, model):
        weights = model._weight_lattice()
        for g in model.signature.generators:
            for mono in model.d_of(g.name).terms:
                weight = sum(e * weights.generators[i] for i, e in enumerate(mono.exponents()))
                assert weight == weights.generators[g.index], g.name
                walk = _keys_by_weight(model.signature, g.degree + 1, weights.generators)
                assert _encode(mono) in walk[weight], g.name

    def test_lattice_ranks(self):
        for n in range(2, 8):
            assert upper_tri_model(n)._weight_lattice().rank == n - 1
        for r in range(10):
            assert xr_model(r)._weight_lattice().rank == 2
        assert _axb_model()._weight_lattice().rank == 1
        assert any(m._weight_lattice().rank == 0 for m in seeded_rational_models())

    @pytest.mark.parametrize(
        "model",
        [m for m in MODELS if m.name in {"u5", "u6"} | {f"xr{r}" for r in range(1, 10)}],
        ids=lambda m: m.name,
    )
    def test_blocks_equal_components(self, model):
        # On u_n and X_r a nonzero weight block is exactly one component of
        # the nonzero pattern of d.
        for n in _degree_range(model):
            rows = _integer_rows(model.differential_matrix(n))
            blocks = model._blocks(n, True).values()
            nonzero = [keys for keys in blocks if model._block_columns(keys)]
            assert len(nonzero) == len(components(rows)), n


def mirror_indices(model, n: int) -> list:
    """For each generator x_i_j of a model on u_n's names, the index of
    x_(n+1-j)_(n+1-i): the anti-transpose read off the names."""
    sig = model.signature
    out = []
    for g in sig.generators:
        _, i, j = g.name.split("_")
        out.append(sig.generator(f"x_{n + 1 - int(j)}_{n + 1 - int(i)}").index)
    return out


def weight_block_ranks(model) -> dict:
    """{(degree, packed weight): (dim, rank of d on the block)} for every
    weight block of a purely odd model, each ranked on its own: no
    clearing, no orbits."""
    return {
        (k, w): (len(keys), len(_row_pivots(model._block_columns(keys))))
        for k in range(model.top_degree() + 1)
        for w, keys in model._blocks(k, True).items()
    }


@functools.lru_cache(maxsize=None)
def u_n_weight_blocks(n: int) -> dict:
    return weight_block_ranks(upper_tri_model(n))


def u_n_partners(n: int) -> dict:
    """{packed weight: packed weight of its anti-transpose image} over the
    weights of u_n, from the generator names and the lattice alone."""
    model = upper_tri_model(n)
    weights = model._weight_lattice().generators
    mirror = mirror_indices(model, n)
    partners = {}
    for k in range(model.top_degree() + 1):
        for w, keys in model._blocks(k, True).items():
            mask = keys[0]
            partners[w] = sum(weights[mirror[p]] for p in range(len(mirror)) if mask >> p & 1)
    return partners


class TestOrbitRanking:
    """sigma(x_i_j) = -x_(n+1-j)_(n+1-i) commutes with d on u_n, so the
    weight blocks w and sigma(w) have equal ranks and ``betti`` ranks one of
    each pair. The oracles: every block ranked on its own, and the ranking
    of a rebuild that carries no sigma."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_mirror_blocks_have_equal_ranks(self, n):
        blocks = u_n_weight_blocks(n)
        partners = u_n_partners(n)
        assert {partners[partners[w]] == w for w in partners} == {True}
        moved = 0
        for (k, w), (dim, rank) in blocks.items():
            assert blocks[k, partners[w]] == (dim, rank), (k, w)
            moved += partners[w] != w
        assert 0 < moved < len(blocks)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_orbit_ranks_equal_the_unshortcut_ranks(self, n, monkeypatch):
        model = upper_tri_model(n)
        degrees = list(range(8 if n == 7 else model.top_degree()))
        plain = CDGA(model.signature, model.differentials)
        assert plain._symmetry is None
        expanded = []
        real_columns = CDGA._block_columns

        def columns(cdga, sources):
            expanded.append((cdga is model, len(sources)))
            return real_columns(cdga, sources)

        monkeypatch.setattr(CDGA, "_block_columns", columns)
        assert _rank_blocks(model, degrees, True) == _rank_blocks(plain, degrees, True)
        assert model._weights.mirrors is not None
        orbit = sum(size for own, size in expanded if own)
        assert 0 < orbit < sum(size for own, size in expanded if not own)

    def test_the_serial_path_walks_only_the_representatives(self, monkeypatch):
        model = upper_tri_model(6)
        partners = u_n_partners(6)
        walked = []
        real_blocks = CDGA._blocks

        def blocks(cdga, n, *args):
            found = real_blocks(cdga, n, *args)
            walked.extend(found)
            return found

        monkeypatch.setattr(CDGA, "_blocks", blocks)
        _rank_blocks(model, list(range(8)), True)
        assert all(w <= partners[w] for w in walked)
        assert any(w < partners[w] for w in walked)

    def test_shares_deal_each_representative_once(self):
        model = upper_tri_model(6)
        degrees = list(range(8))
        partners = u_n_partners(6)
        shares = _weight_shares(model, degrees, 2)
        dealt = [w for share in shares for w in share]
        weights = {w for k in degrees for w in model._blocks(k, True)}
        assert sorted(dealt) == sorted(w for w in weights if w <= partners[w])

    def test_the_anti_transpose_is_attached_and_checked_lazily(self, monkeypatch):
        checks = []
        real = CDGA._check_symmetry
        monkeypatch.setattr(CDGA, "_check_symmetry", lambda cdga: checks.append(real(cdga)))
        model = upper_tri_model(6)
        assert model._symmetry == tuple((j, -1) for j in mirror_indices(model, 6))
        assert model._weights is None and not checks
        betti(upper_tri_model(5))  # under the weight-block gate: no lattice, no check
        assert not checks
        betti(model)
        assert len(checks) == 1
        betti(CDGA(model.signature, model.differentials))
        assert len(checks) == 1

    def test_which_models_carry_the_symmetry(self):
        split = split_at_k(6, 3)
        u4 = upper_tri_model(4)
        carried = [u4, split.base, split.total, split.fiber, degree_shift(u4, 1)]
        for model in carried:
            assert model._symmetry is not None, model.name
            assert model._weight_lattice().mirrors is not None, model.name
        dropped = [
            CDGA(u4.signature, u4.differentials),
            to_cdga(parse(serialize(u4)).document),
            borel_twist(u4, "x_4_1"),
            tensor_product(u4, xr_model(1)),
            chevalley_eilenberg(u_n_presentation(4)),
            xr_model(3),
        ]
        for model in dropped:
            assert model._symmetry is None, model.name
            assert model._weight_lattice().mirrors is None, model.name

    @staticmethod
    def mutant(model, n, kind):
        sigma = list(model._symmetry)
        if kind == "sign +1":
            return tuple((j, 1) for j, _ in sigma)
        # sigma fixes x_(m+1)_m and x_n_1 (m = n // 2, i + j = n + 1); the
        # swapped mutant gives each the other's image.
        index = model.signature.generator
        a, b = index(f"x_{n // 2 + 1}_{n // 2}").index, index(f"x_{n}_1").index
        if kind == "swapped":
            sigma[a], sigma[b] = (b, -1), (a, -1)
        elif kind == "not an involution":
            c = index("x_2_1").index
            sigma[a], sigma[c] = sigma[c], sigma[a]
        return tuple(sigma)

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("sign +1", "does not commute with d at 'x_3_1'"),
            ("swapped", "does not commute with d at 'x_{m}_{n}'"),
            ("not an involution", "not a signed involution at 'x_2_1'"),
        ],
    )
    @pytest.mark.parametrize("n", [4, 6])
    def test_a_mutant_symmetry_is_refused(self, n, kind, message):
        # u_6 is ranked by weight, so ``betti`` itself must refuse first.
        model = upper_tri_model(n)
        model._symmetry = self.mutant(model, n, kind)
        with pytest.raises(ValueError, match=message.format(m=n // 2 + 1, n=n // 2)):
            betti(model) if n == 6 else model._weight_lattice()
        assert model._weights is None
        assert model._ledger is None

    def test_a_degree_changing_symmetry_is_refused(self):
        # degree_shift keeps u_4's generator order and the off-diagonal
        # distance, so sigma still keeps degrees there; the swapped mutant
        # sends x_3_2 (degree 3) to x_4_1 (degree 7).
        u4 = upper_tri_model(4)
        shifted = degree_shift(u4, 1)
        shifted._symmetry = u4._symmetry
        assert shifted._weight_lattice().mirrors is not None
        shifted = degree_shift(u4, 1)
        shifted._symmetry = self.mutant(u4, 4, "swapped")
        with pytest.raises(ValueError, match="maps 'x_3_2' to degree 7"):
            shifted._weight_lattice()

    def test_a_permutation_is_required(self):
        model = upper_tri_model(3)
        model._symmetry = ((0, -1), (0, -1), (2, -1))
        with pytest.raises(ValueError, match="not a permutation"):
            model._weight_lattice()


def exterior_counts(gens) -> dict:
    """{(degree, weight): number of monomials} of an exterior algebra on
    generators given as (degree, weight tuple): the coefficients of
    prod (1 + t^degree z^weight), multiplied out one generator at a time."""
    counts = {(0, (0,) * len(gens[0][1])): 1}
    for d, w in gens:
        for (n, v), c in list(counts.items()):
            key = (n + d, tuple(a + b for a, b in zip(v, w)))
            counts[key] = counts.get(key, 0) + c
    return counts


def euler_characteristics(counts) -> dict:
    """{weight: sum over n of (-1)^n dim(n, weight)}."""
    chi: dict = {}
    for (n, w), c in counts.items():
        chi[w] = chi.get(w, 0) + (-c if n % 2 else c)
    return chi


class TestWeightedEulerCharacteristic:
    """d preserves the torus weight, so each weight w has its own Euler
    characteristic chi_w = sum over n of (-1)^n dim(n, w), and
    sum over w of dim H_w >= |chi_w|. dim(n, w) is counted here from the
    generating function prod_odd (1 + t^deg z^w), independently of the key
    walk and of every rank."""

    FULL_ODD = [
        m
        for m in TestWeightBlocksAgainstComponents.MODELS
        if m.signature.is_purely_odd and (m.truncation is None or m.truncation > m.top_degree())
    ]

    @staticmethod
    def lattice_counts(model):
        weights = model._weight_lattice().generators
        gens = model.signature.generators
        return exterior_counts([(g.degree, (weights[g.index],)) for g in gens])

    def test_walk_counts_match_the_generating_function(self):
        assert len(self.FULL_ODD) > 20
        for model in self.FULL_ODD:
            weights = model._weight_lattice().generators
            walked = {
                (n, (w,)): len(keys)
                for n in range(model.top_degree() + 1)
                for w, keys in _keys_by_weight(model.signature, n, weights).items()
            }
            assert walked == self.lattice_counts(model), model.name

    def test_weight_dimensions_match_the_walk(self):
        # The counts that deal weights to forked children, on every model
        # and window, even generators included.
        for model in TestWeightBlocksAgainstComponents.MODELS:
            weights = model._weight_lattice().generators
            degrees = _degree_range(model)
            cells = _weight_dimensions(model.signature, degrees[-1], weights)
            for n in degrees:
                walk = _keys_by_weight(model.signature, n, weights)
                assert cells[n] == {w: len(keys) for w, keys in walk.items()}, (model.name, n)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_euler_characteristics_of_u_n_add_up_to_n_factorial(self, n):
        # Kostant: H(u_n) has one class in each of n! weights, so every
        # weight's complex has |chi_w| classes in all.
        sig = upper_tri_model(n).signature
        counts = exterior_counts([(g.degree, kostant_weight(g.name, n)) for g in sig.generators])
        chi = euler_characteristics(counts)
        assert sum(map(abs, chi.values())) == len(list(itertools.permutations(range(n))))

    @staticmethod
    def block_totals(model, blocks) -> tuple:
        """({weight: sum over n of b_(n,w)}, {weight: chi_w}): the Betti
        numbers from the ranks of every weight block, chi_w from the
        generating function (``_weight_dimensions``)."""
        cells = _weight_dimensions(
            model.signature, model.top_degree(), model._weight_lattice().generators
        )
        chi: dict = {}
        for k, cell in enumerate(cells):
            for w, c in cell.items():
                chi[w] = chi.get(w, 0) + (-c if k % 2 else c)
        totals: dict = {}
        for (k, w), (dim, rank) in blocks.items():
            assert cells[k][w] == dim, (model.name, k, w)
            below = blocks[k - 1, w][1] if (k - 1, w) in blocks else 0
            totals[w] = totals.get(w, 0) + dim - rank - below
        assert totals.keys() == chi.keys(), model.name
        return totals, chi

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_block_betti_totals_bound_the_block_euler_characteristics(self, n):
        # Per block: sum over n of b_(n,w) >= |chi_w|, which the per-degree
        # oracles cannot see. Kostant: sum over w of |chi_w| is n!, the
        # total of H(u_n).
        totals, chi = self.block_totals(upper_tri_model(n), u_n_weight_blocks(n))
        assert all(totals[w] >= abs(c) for w, c in chi.items())
        assert sum(map(abs, chi.values())) == math.factorial(n) == sum(totals.values())

    def test_block_betti_totals_bound_chi_on_every_full_odd_model(self):
        checked = 0
        for model in self.FULL_ODD:
            fresh = CDGA(model.signature, model.differentials, model.truncation, model.name)
            if fresh._weight_lattice().rank == 0:
                continue
            totals, chi = self.block_totals(fresh, weight_block_ranks(fresh))
            assert all(totals[w] >= abs(c) for w, c in chi.items()), model.name
            assert sum(totals.values()) == betti(fresh).total, model.name
            checked += 1
        assert checked > 20

    def test_betti_total_bounds_the_euler_characteristics(self):
        for model in self.FULL_ODD:
            fresh = CDGA(model.signature, model.differentials, model.truncation)
            chi = euler_characteristics(self.lattice_counts(model))
            assert betti(fresh).total >= sum(map(abs, chi.values())), model.name


def middle_pairs(model, m: int) -> dict:
    """{weight: (sigma(weight), partner)} over the degree-m weight blocks of a
    purely odd model. sigma(w) is the weight of the sigma-image of a key of
    the block, from the images of its generators (w itself without a
    symmetry), and the partner is w_top - sigma(w), w_top the weight of the
    top monomial."""
    lattice = model._weight_lattice()
    top_weight = sum(lattice.generators)
    images = lattice.generators if lattice.mirrors is None else lattice.mirrors
    pairs = {}
    for w, keys in model._blocks(m, True).items():
        image = sum(images[p] for p in range(len(images)) if keys[0] >> p & 1)
        pairs[w] = (image, top_weight - image)
    return pairs


class TestMiddleDegreePairs:
    """In the middle degree m of an odd mirror top 2m + 1, d_m on the block
    of weight w and on the block of w_top - sigma(w) are adjoint under the
    product into the top degree, so ``_rank_blocks`` ranks the lesser of
    each pair and gives the other its rank. The oracle is the unpaired
    ranking, which ranks every middle block by ``_row_pivots``."""

    MODELS = {
        **{f"u{n}": (lambda n=n: upper_tri_model(n)) for n in range(3, 7)},
        "u7_fiber_k3": lambda: split_at_k(7, 3).fiber,
        "xr9": lambda: xr_model(9),
    }

    @staticmethod
    def paired_pass(model, degrees, monkeypatch) -> tuple:
        """(``_rank_blocks`` with the mirror top, the number of middle blocks
        it expanded d on)."""
        current, expanded = [], []
        real_blocks, real_columns = CDGA._blocks, CDGA._block_columns

        def blocks(cdga, n, *args):
            current.append(n)
            return real_blocks(cdga, n, *args)

        def columns(cdga, sources):
            expanded.append(current[-1])
            return real_columns(cdga, sources)

        with monkeypatch.context() as patch:
            patch.setattr(CDGA, "_blocks", blocks)
            patch.setattr(CDGA, "_block_columns", columns)
            result = _rank_blocks(model, degrees, True, None, _mirror_top(model))
        return result, expanded.count(degrees[-1])

    def check(self, make, monkeypatch) -> dict:
        model = make()
        top = _mirror_top(model)
        degrees = list(range((top - 1) // 2 + 1))
        paired, expanded = self.paired_pass(model, degrees, monkeypatch)
        assert paired == _rank_blocks(make(), degrees, True)
        pairs = middle_pairs(model, degrees[-1])
        walked = {w: partner for w, (image, partner) in pairs.items() if w <= image}
        if top % 2:
            assert expanded == sum(partner >= w for w, partner in walked.items())
        else:
            assert expanded == len(walked)
        return walked

    @pytest.mark.parametrize("name", MODELS)
    def test_pairs_match_the_unpaired_ranking(self, name, monkeypatch):
        walked = self.check(self.MODELS[name], monkeypatch)
        if name in ("u6", "u7_fiber_k3", "xr9"):
            # Some pairs have both halves, and some greater halves have a
            # lesser partner with no keys.
            assert any(p < w and p in walked for w, p in walked.items())
            assert any(p < w and p not in walked for w, p in walked.items())

    @pytest.mark.slow
    def test_u7_pairs_match_the_unpaired_ranking(self, monkeypatch):
        self.check(lambda: upper_tri_model(7), monkeypatch)

    def test_only_an_odd_last_middle_degree_pairs(self):
        assert cohomology._middle([0, 1, 2, 3, 4, 5, 6, 7], True, 15) == 7
        assert cohomology._middle([0, 1, 2, 3, 4, 5, 6, 7], False, 15) is None
        assert cohomology._middle([0, 1, 2, 3, 4, 5, 6], True, 15) is None
        assert cohomology._middle([0, 1, 2], True, 6) is None
        assert cohomology._middle([0, 1, 2], True, None) is None

    def test_shares_keep_both_halves_of_each_pair(self):
        model = upper_tri_model(6)
        degrees = list(range(8))
        top_weight = sum(model._weight_lattice().generators)
        unpaired = _weight_shares(model, degrees, 2)
        shares = _weight_shares(model, degrees, 2, 15)
        assert sorted(w for share in shares for w in share) == sorted(
            w for share in unpaired for w in share
        )
        dealt = {w for share in shares for w in share}
        split = kept = 0
        for plain, share in zip(unpaired, shares):
            for w, image in share.items():
                partner = top_weight - image
                assert partner in share or partner not in dealt, w
                kept += partner != w and partner in share
            split += sum(
                top_weight - image in dealt and top_weight - image not in plain
                for image in plain.values()
            )
        # Dealt by cost alone, some pairs would be split.
        assert kept and split


@functools.lru_cache(maxsize=None)
def seeded_rational_models_once() -> tuple:
    return tuple(seeded_rational_models())


def fresh(model):
    """The same CDGA rebuilt, with empty caches."""
    return CDGA(model.signature, model.differentials, model.truncation, model.name)


class TestVerifyByBlock:
    """``verify_classes`` reduces each degree in one echelon over the weights
    its elements carry: ``_keys_by_weight`` is called once per degree above
    0, with the ledger's generator weights and ``keep`` the union of the
    elements' term weights, also when an element spans several weights. The
    reference is one tagged echelon of the whole degree for every degree;
    the reports must agree byte for byte, ``dependency`` included."""

    MODELS = {
        "u4": lambda: upper_tri_model(4),
        "u5": lambda: upper_tri_model(5),
        "xr5": lambda: xr_model(5),
    }

    @staticmethod
    def classes(model) -> list:
        return [c for k in _degree_range(model) for c in representatives(model, k)]

    def check_classes(self, make):
        elems = self.classes(make())
        report = verify_classes(make(), elems)
        assert report.ok
        assert report.to_json_dict() == verify_by_whole_degrees(make(), elems).to_json_dict()

    @pytest.mark.parametrize("name", MODELS)
    def test_classes_of_every_degree(self, name, grouping):
        self.check_classes(self.MODELS[name])

    def test_classes_of_every_degree_of_u6(self):
        # u_6 is split by weight either way.
        self.check_classes(lambda: upper_tri_model(6))

    def test_reference_class_file(self, grouping):
        text = (Path(__file__).parent / "data" / "x5_classes.txt").read_text()
        exprs = [line.split("#", 1)[0].strip() for line in text.splitlines()]
        elems = [parse_element(xr_model(5).signature, e) for e in exprs if e]
        report = verify_classes(xr_model(5), elems)
        assert report.ok
        assert report.to_json_dict() == verify_by_whole_degrees(xr_model(5), elems).to_json_dict()

    SEEDED = {
        "xr5": lambda: xr_model(5),
        "u5": lambda: upper_tri_model(5),
        "xr3_twist": lambda: borel_twist(xr_model(3), "x3"),
        **{f"rational{i}": (lambda i=i: fresh(seeded_rational_models_once()[i])) for i in (0, 5, 10, 12)},
    }

    @pytest.mark.parametrize("name", SEEDED)
    def test_seeded_inputs(self, name, grouping, monkeypatch):
        make = self.SEEDED[name]
        model = make()
        assert name != "rational5" or not model._integral
        classes = self.classes(model)
        ledger = tuple(model._ledger[0])
        calls = record_splits(monkeypatch)
        several = False
        for seed in range(12):
            elems = mixed_inputs(model, classes, random.Random(seed))
            by_degree: dict = {}
            for e in elems:
                by_degree.setdefault(e.homogeneous_degree(), []).append(e)
            calls.clear()
            report = verify_classes(model, elems)
            # Each degree above 0 is walked once, under the ledger's weights,
            # keeping the weights its elements' terms carry.
            assert calls == [
                (d, ledger, set().union(*(term_weights(e, ledger) for e in es)))
                for d, es in sorted(by_degree.items())
                if d
            ]
            several |= any(len(term_weights(e, ledger)) > 1 for e in elems)
            assert report.to_json_dict() == verify_by_whole_degrees(make(), elems).to_json_dict()
        # Some seed gave an element of several weights, unless every
        # generator weight is 0 and so every element has one weight.
        assert several or not any(ledger)

    def test_a_sum_walks_only_its_weights(self, monkeypatch):
        monkeypatch.setattr(cdga_module, "_BLOCK_MIN_MONOMIALS", 0)
        model = xr_model(5)
        classes = self.classes(model)
        weights = tuple(model._ledger[0])
        calls = record_splits(monkeypatch)

        def run(elems) -> list:
            """The (degree, keep) of each degree's walk."""
            calls.clear()
            report = verify_classes(model, elems)
            walks = [(d, keep) for d, w, keep in calls if w == weights]
            assert len(walks) == len(calls)
            assert report.to_json_dict() == verify_by_whole_degrees(xr_model(5), elems).to_json_dict()
            return walks

        by_degree = {}
        for c in classes:
            by_degree.setdefault(c.homogeneous_degree(), []).append(c)
        sig = model.signature
        x3 = Element.generator(sig, "x3")
        boundary = model.apply_d(Element.from_monomial(sig.monomial_of("x1", "x2")))
        first, second = by_degree[2][:2]
        assert term_weights(first, weights) != term_weights(second, weights)
        assert len(term_weights(x3, weights)) == 1
        run(classes)
        run(classes + [x3])  # not closed, but independent
        run(classes + [by_degree[3][0].scale(2)])
        run(classes + [boundary])
        # Several weights, independent: only the sum's two weights are walked.
        pair = term_weights(first, weights) | term_weights(second, weights)
        assert run([first + second, second]) == [(2, pair)]

    def test_a_sum_of_two_u6_classes_is_reduced_over_their_weights(self, monkeypatch):
        # The sum spans two weights; the degree is walked under the ledger's
        # weights, kept to those two, and the dependency is the sum's.
        model = upper_tri_model(6)
        sevens = representatives(model, 7)
        weights = tuple(model._ledger[0])
        a = sevens[0]
        b = next(c for c in sevens if term_weights(c, weights) != term_weights(a, weights))
        (wa,), (wb,) = term_weights(a, weights), term_weights(b, weights)
        elems = [a + b, a, b]
        calls = record_splits(monkeypatch)
        report = verify_classes(model, elems)
        assert calls == [(7, weights, {wa, wb})]
        assert report.dependency == ((0, -1), (1, 1), (2, 1))
        assert report.to_json_dict() == verify_by_whole_degrees(upper_tri_model(6), elems).to_json_dict()

    def test_a_doubled_class_stays_in_its_block(self, monkeypatch):
        # A dependent element is reduced under the ledger's weights; it must
        # not make its degree one block under all-zero weights.
        model = upper_tri_model(6)
        classes = self.classes(model)
        weights = tuple(model._ledger[0])
        assert any(weights)
        i = next(i for i, c in enumerate(classes) if c.homogeneous_degree() == 8)
        elems = classes + [classes[i].scale(2)]
        calls = record_splits(monkeypatch)
        report = verify_classes(model, elems)
        assert [w for d, w, _ in calls if d == 8] == [weights]
        assert report.dependency == ((i, -2), (len(classes), 1))
        assert report.to_json_dict() == verify_by_whole_degrees(upper_tri_model(6), elems).to_json_dict()


def term_weights(e, weights) -> set:
    """The weights of the terms of ``e`` under the generator ``weights``."""
    return {sum(w * k for w, k in zip(weights, mono.exponents())) for mono in e.terms}


def record_splits(monkeypatch) -> list:
    """Record (degree, generator weights, kept weights) of every
    ``_keys_by_weight`` call made through ``cohomology``, one per degree
    above 0 that ``verify_classes`` reduces once the CDGA is ranked; returns
    the list."""
    calls = []
    real = cohomology._keys_by_weight

    def spy(sig, n, weights, keep=None):
        calls.append((n + 1, tuple(weights), None if keep is None else set(keep)))
        return real(sig, n, weights, keep)

    monkeypatch.setattr(cohomology, "_keys_by_weight", spy)
    return calls


def mixed_inputs(model, classes: list, rng: random.Random) -> list:
    """A shuffled list from ``classes``: scalar multiples with Fraction
    coefficients, classes plus a boundary, boundaries alone, non-closed
    monomials and sums of two classes of one degree (or a class and its
    multiple), some classes dropped.
    Zero elements are left out, as ``verify_classes`` refuses them."""
    sig = model.signature
    by_degree: dict = {}
    for c in classes:
        by_degree.setdefault(c.homogeneous_degree(), []).append(c)
    bases = {n: basis_of_degree(sig, n) for d in by_degree for n in (d - 1, d) if n >= 0}
    out = []
    for d, c in ((d, c) for d, cs in by_degree.items() for c in cs):
        below = bases[d - 1] if d else ()
        boundary = model.apply_d(Element.from_monomial(rng.choice(below))) if below else c.scale(0)
        same = by_degree[d]
        kinds = [
            c.scale(Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2, 5]))),
            c + boundary,
            boundary.scale(rng.choice([1, Fraction(-1, 3)])),
            Element.from_monomial(rng.choice(bases[d]), Fraction(2, 3)),
            c + rng.choice(same).scale(rng.choice([2, Fraction(1, 2)])),
            c.scale(0),
        ]
        out.append(kinds[rng.randrange(len(kinds))])
        if rng.random() < 0.8:
            out.append(c)
    out = [e for e in out if not e.is_zero()]
    rng.shuffle(out)
    return out


def verify_by_whole_degrees(cdga, elems) -> VerifyReport:
    """``verify_classes`` with every degree reduced as one tagged ``Fraction``
    echelon of all its boundaries, d of the degree-(d-1) basis in basis
    order, elements after them: the reference for the block path."""
    sig = cdga.signature
    tag = 1 << (len(sig.odd_indices) + _EXPONENT_BITS * len(sig.even_indices))
    by_degree: dict = {}
    for i, e in enumerate(elems):
        by_degree.setdefault(e.homogeneous_degree(), []).append(i)
    dependency = None
    have: dict = {}
    for d in sorted(by_degree):
        echelon: dict = {}
        if d:
            boundaries = (
                cdga.apply_d(Element.from_monomial(mono)) for mono in basis_of_degree(sig, d - 1)
            )
            _extend_echelon(echelon, ({_encode(m): c for m, c in b.terms.items()} for b in boundaries))
        tagged = (
            {**{_encode(m): c for m, c in elems[i].terms.items()}, tag + i: Fraction(1)}
            for i in by_degree[d]
        )
        for residue in _extend_echelon(echelon, tagged):
            if min(residue) < tag:
                have[d] = have.get(d, 0) + 1
            elif dependency is None:
                dependency = tuple(sorted((j - tag, v) for j, v in residue.items()))
    non_closed = tuple(i for i, e in enumerate(elems) if not cdga.apply_d(e).is_zero())
    table = betti(cdga)
    missing = tuple(
        (d, have.get(d, 0), table.b(d))
        for d in _degree_range(cdga)
        if have.get(d, 0) < table.b(d)
    )
    return VerifyReport(not non_closed, dependency is None, not missing, non_closed, dependency, missing)


@pytest.mark.slow
def test_all_u7_classes_verify_within_a_minute():
    model = upper_tri_model(7)
    elems = [c for k in range(22) for c in representatives(model, k)]
    assert len(elems) == 5040
    start = time.perf_counter()
    report = verify_classes(upper_tri_model(7), elems)
    elapsed = time.perf_counter() - start
    assert report.ok
    assert elapsed < 60, f"{elapsed:.1f} s"
    # A doubled degree-8 class is found dependent in its own block; the
    # model is ranked by now.
    i = next(i for i, c in enumerate(elems) if c.homogeneous_degree() == 8)
    start = time.perf_counter()
    report = verify_classes(model, elems + [elems[i].scale(2)])
    elapsed = time.perf_counter() - start
    assert not report.independent
    assert report.dependency == ((i, -2), (5040, 1))
    assert elapsed < 10, f"{elapsed:.1f} s"


DATA = Path(__file__).parent / "data"

# d z = 2/3 y + x1*x2 over X_2: a contractible pair (z, y) with a fractional
# coefficient c and a phi whose d is not zero, so d y = -d(phi)/c.
FRACTIONAL_PAIR = """\
algebra fractional_pair
truncate 7
gen a : 1
gen b : 1
gen x1 : 1
gen x2 : 1
gen z : 1
gen y : 2
d a = 0
d b = 0
d x1 = a*b
d x2 = a*x1
d z = 2/3*y + x1*x2
d y = -3/2*a*b*x2
"""


def dsl_model(text: str) -> CDGA:
    parsed = parse(text)
    assert parsed.ok, parsed.diagnostics
    return to_cdga(parsed.document)


def ranked_state(model, jobs=None) -> tuple:
    """The table, and the generator weights and the ledger items in key
    order that one ``betti`` pass stores on ``model``."""
    table = betti(model, jobs=jobs)
    return table, model._ledger[0], ledger_items(model)


def unreduced_state(make, jobs=None) -> tuple:
    """``ranked_state`` of a fresh ``make()`` with no pair cancelled."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cohomology, "_contractible_pair", lambda cdga: None)
        return ranked_state(make(), jobs)


def with_pair(base: CDGA, rng: random.Random) -> tuple:
    """``base`` with two generators px, py added at random places,
    d px = c*py + phi and d py = -d(phi)/c, for a random phi in ``base``'s
    generators of degree |py|; returns (model, truncation). |px| is 1..3,
    so either may be even."""
    k = rng.randint(1, 3)
    names = list(base.signature.names)
    gens = [(g.name, g.degree) for g in base.signature.generators]
    gens.insert(rng.randint(0, len(gens)), ("px", k))
    gens.insert(rng.randint(0, len(gens)), ("py", k + 1))
    sig = Signature(gens)
    monos = list(basis_of_degree(base.signature, k + 1))
    phi = Element(
        base.signature,
        {
            mono: Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2, 7]))
            for mono in rng.sample(monos, min(len(monos), rng.randint(0, 3)))
        },
    )
    c = Fraction(rng.choice([1, -2, 3, 5]), rng.choice([1, 3, 4]))
    diffs = {name: transport(base.d_of(name), sig, {}) for name in names}
    diffs["px"] = Element.generator(sig, "py").scale(c) + transport(phi, sig, {})
    diffs["py"] = transport(base.apply_d(phi), sig, {}).scale(-1 / c)
    truncation = rng.randint(1, base.top_degree() + 3)
    return CDGA(sig, diffs, truncation=truncation, name=f"{base.name}_pair"), truncation


def twist_xr(r: int) -> CDGA:
    return borel_twist(xr_model(r), f"x{r}")


def twist_un(n: int) -> CDGA:
    return borel_twist(upper_tri_model(n), f"x_{n}_1")


def swapped_square(symmetric: bool) -> CDGA:
    """The tensor square of the twist of X_3, with the swap of its factors
    attached as a symmetry when ``symmetric``; it splits by weight."""
    factor = twist_xr(3)
    model = tensor_product(factor, factor)
    if symmetric:
        half = len(factor.signature)
        model._symmetry = tuple(((i + half) % (2 * half), 1) for i in range(2 * half))
    return model


class TestContractiblePairs:
    """A pair (x, y) with d x = c*y + phi, x in no differential and y in no
    differential but d x, is cancelled before ranking: the model is the
    quotient tensored with the contractible Lambda(x, d x). The table and
    the ledger must equal the unreduced pass's, item for item; with
    ``jobs=2`` the fork gate is lowered so that the models split
    by weight are ranked in children."""

    MODELS = {
        **{f"twist-x{r}": functools.partial(twist_xr, r) for r in range(1, 10)},
        **{f"twist-u{n}": functools.partial(twist_un, n) for n in (3, 4, 5)},
        "two-polynomials": lambda: dsl_model((DATA / "two_polynomials.cdga").read_text()),
        "fractional": lambda: dsl_model(FRACTIONAL_PAIR),
        # The quotient has no generators at all.
        "acyclic": lambda: dsl_model(
            "algebra acyclic\ntruncate 6\ngen x : 2\ngen y : 3\nd x = 5*y\nd y = 0\n"
        ),
    }

    @pytest.mark.parametrize("jobs", [None, 2])
    @pytest.mark.parametrize("name", list(MODELS))
    def test_matches_the_unreduced_pass(self, name, jobs, monkeypatch):
        make = self.MODELS[name]
        if jobs:
            monkeypatch.setattr(cohomology, "FORK_MIN_MONOMIALS", 0)
        sizes = []
        real = cohomology._rank_table

        def recording(cdga, *args):
            sizes.append(len(cdga.signature))
            return real(cdga, *args)

        monkeypatch.setattr(cohomology, "_rank_table", recording)
        model = make()
        reduced = ranked_state(model, jobs)
        pairs = 2 if name == "two-polynomials" else 1
        assert sizes == [len(model.signature) - 2 * i for i in range(pairs + 1)]
        assert reduced == unreduced_state(make, jobs)

    def test_the_two_polynomial_row_is_the_dense_oracles(self):
        model = self.MODELS["two-polynomials"]()
        assert betti(model).per_degree == dense_betti(model) == (1, 4, 8, 11, 11, 8, 4, 1)

    def test_a_fractional_pair_leaves_x2(self):
        model = dsl_model(FRACTIONAL_PAIR)
        assert cohomology._contractible_pair(model) == (4, 5)
        assert betti(model).per_degree == betti(xr_model(2)).per_degree + (0, 0)
        assert betti(model).per_degree == dense_betti(model)

    def test_representatives_and_verify_run_on_the_reduced_ledger(self):
        model = twist_un(5)
        degrees = range(len(betti(model).per_degree))
        classes = [c for n in degrees for c in representatives(model, n)]
        assert len(classes) == betti(model).total
        assert verify_classes(model, classes).ok

    @pytest.mark.parametrize(
        "text",
        [
            # x occurs in another generator's differential. d^2 = 0 then
            # puts y there too, as it does in the case of d x = y + x*z.
            "gen x : 2\ngen y : 3\ngen w : 4\nd x = y\nd y = 0\nd w = x*y",
            # y occurs in another generator's differential.
            "gen a : 1\ngen x : 1\ngen y : 2\ngen w : 2\n"
            "d a = 0\nd x = y\nd y = 0\nd w = a*y",
            # x occurs in its own differential: d x = y + x*z.
            "gen z : 1\ngen x : 2\ngen y : 3\n"
            "d z = 0\nd x = y + x*z\nd y = -y*z",
        ],
        ids=["x-used", "y-used", "x-in-own-d"],
    )
    def test_no_pair_keeps_the_full_path(self, text):
        model = dsl_model(f"algebra nopair\ntruncate 7\n{text}\n")
        assert cohomology._contractible_pair(model) is None
        assert betti(model).per_degree == dense_betti(model)

    def test_a_symmetry_keeps_the_orbit_path(self):
        symmetric, plain = swapped_square(True), swapped_square(False)
        assert cohomology._contractible_pair(symmetric) is None
        assert cohomology._contractible_pair(plain) is not None
        table, weights, ledger = ranked_state(symmetric)
        assert symmetric._weights.mirrors is not None
        assert (table, weights, ledger) == ranked_state(plain)
        assert table.per_degree == betti(tensor_product(xr_model(2), xr_model(2))).per_degree

    @settings(max_examples=60, deadline=None)
    @given(
        base=st.sampled_from(
            [("xr", r) for r in range(5)] + [("u", n) for n in (2, 3, 4)] + [("torus", k) for k in (1, 2, 3)]
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_random_pair_leaves_the_base_cohomology(self, base, seed):
        family, p = base
        make_base = {"xr": xr_model, "u": upper_tri_model, "torus": torus_model}[family]
        rng = random.Random(seed)
        model, truncation = with_pair(make_base(p), rng)
        row = betti(make_base(p)).per_degree
        expected = tuple(row[n] if n < len(row) else 0 for n in range(truncation))
        rebuilt = lambda: CDGA(model.signature, model.differentials, truncation=truncation)
        assert cohomology._contractible_pair(model) is not None
        reduced = ranked_state(model)
        assert reduced[0].per_degree == expected
        assert reduced == unreduced_state(rebuilt)
