"""Acceptance suite: one test (or pair) per criterion, each printing a
PASS/FAIL line and enforcing its stated time budget.

Criterion 5b is expected to fail and is kept failing on purpose: the
sufficient Stirling-style threshold at (n, k) = (49, 26) is asserted true by
the stated expectation, but exact arithmetic gives 2^529 < 49^98, so the
predicate is false at that point (it holds at (49, 25) and (50, 26), and the
main inequality 49! < 2^300 holds comfortably). The exact evaluation is kept
rather than loosening the predicate.
"""

import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcohom import (
    betti,
    borel_twist,
    center,
    certificate_xr,
    certificate_xr_product,
    chevalley_eilenberg,
    degree_shift,
    dual_homotopy_lie,
    principal_obstruction,
    rank_multimodular,
    ratio_table,
    scan_minimal_counterexample,
    split_at_k,
    stirling_threshold,
    tensor_product,
    torus_model,
    trc_inequality,
    u_n_presentation,
    upper_tri_model,
    xr_model,
)
from nilcohom.algebra import basis_of_degree
from nilcohom.dsl import parse, parse_element, serialize, to_cdga
from conftest import random_two_step_cdga
from dense_oracle import dense_betti

DATA = Path(__file__).parent / "data"

TABLE1_TOTALS = {1: 6, 2: 8, 3: 12, 4: 16, 5: 26, 6: 40, 7: 64, 8: 104, 9: 180}
X5_PROFILE = (1, 2, 4, 6, 6, 4, 2, 1)


@contextmanager
def criterion(label, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"{label} took {elapsed:.1f}s"
    print(f"ACCEPTANCE {label}: PASS ({elapsed:.2f}s)")


def x5_reference_classes(model):
    lines = (DATA / "x5_classes.txt").read_text().splitlines()
    exprs = [line.split("#", 1)[0].strip() for line in lines]
    return [parse_element(model.signature, e) for e in exprs if e]


def test_criterion_1_table1_reproduction():
    with criterion("1 (table of X_r totals, r = 1..9)", budget_seconds=60):
        for r, expected in TABLE1_TOTALS.items():
            assert betti(xr_model(r)).total == expected, f"r={r}"
        # the r = 0 row: direct computation gives 4, the tabulated value is 3;
        # reported as a discrepancy, not adopted (see the table1 CLI note)
        assert betti(xr_model(0)).total == 4


def test_criterion_2_x5_structure():
    with criterion("2 (H*(X_5) profile and the 26 reference classes)", budget_seconds=10):
        model = xr_model(5)
        classes = x5_reference_classes(model)
        assert len(classes) == 26
        counted = [0] * 8
        for elem in classes:
            counted[elem.homogeneous_degree()] += 1
        assert tuple(counted) == X5_PROFILE
        assert betti(model).per_degree == X5_PROFILE
        from nilcohom import verify_classes

        report = verify_classes(model, classes)
        assert report.all_closed and report.independent and report.spanning


def test_criterion_3_factorial_law_fast():
    with criterion("3 (total dimension n! for n = 2..5)", budget_seconds=120):
        for n in range(2, 6):
            model = chevalley_eilenberg(u_n_presentation(n))
            assert betti(model).total == math.factorial(n), f"n={n}"


@pytest.mark.slow
def test_criterion_3_factorial_law_extended():
    with criterion("3-slow (n = 6 with multimodular prefilter)", budget_seconds=1800):
        model = upper_tri_model(6)
        top = model.top_degree()
        dims = [len(basis_of_degree(model.signature, n)) for n in range(top + 1)]
        ranks = []
        for n in range(top):
            cert = rank_multimodular(
                model.differential_matrix(n), [1000003], confirm=True
            )
            assert cert.confirmed, f"degree {n} prefilter unconfirmed"
            assert cert.bound == cert.exact_rank
            ranks.append(cert.exact_rank)
        ranks.append(0)
        total = sum(
            dims[n] - ranks[n] - (ranks[n - 1] if n else 0) for n in range(top + 1)
        )
        assert total == math.factorial(6) == 720
        assert betti(model).total == 720


def test_criterion_4_fiber_splittings():
    with criterion("4 (abelian fiber splittings)", budget_seconds=10):
        from nilcohom import d_formula

        for n, k in [(5, 4), (6, 4), (7, 5), (8, 5)]:
            assert k >= n / 2 + 1
            triple = split_at_k(n, k)
            assert triple.fiber_differential_is_zero(), (n, k)
            assert betti(triple.fiber).total == 2 ** d_formula(n, k), (n, k)
        assert not split_at_k(5, 3).fiber_differential_is_zero()


def test_criterion_5a_certificates():
    with criterion("5a (counterexample certificates)", budget_seconds=5):
        cert = trc_inequality(49, 26)
        assert cert.inequality_holds is True
        assert {r for r in range(10) if certificate_xr(r).verdict} == {5, 6, 7, 8, 9}
        product = certificate_xr_product([5, 5])
        assert product.total_betti == 676 and product.power == 1024
        assert product.verdict is True


def test_criterion_5b_stirling_threshold_at_stated_point():
    # Stated expectation: stirling_threshold(49, 26) is true. Exact
    # evaluation refutes it (2^529 < 49^98); see the module docstring.
    # The assertion is kept as stated rather than weakened to (49, 25).
    with criterion("5b (Stirling threshold at (49, 26) as stated)"):
        assert stirling_threshold(49, 26) is True


def test_criterion_6_exact_crossover_golden():
    with criterion("6 (exact crossover scan)", budget_seconds=30):
        scan = scan_minimal_counterexample(60)
        # derived golden value, frozen after exact verification
        assert scan.minimal_n == 26
        assert scan == scan_minimal_counterexample(60)


def test_criterion_6_ratio_table_derived_check():
    # The asymptotic-ratio statement is replaced by an exact check on
    # n = 50..80. Derived golden facts: every entry is below 1, entries
    # decrease strictly along each parity class (d(n, ceil(n/2)+1) depends
    # only on floor(n/2)), and consecutive entries are NOT monotone:
    # ratio(51) = 51 * ratio(50).
    with criterion("6-ratio (exact decrease of n!/2^d along parity classes)", budget_seconds=30):
        entries = {e.n: e.ratio for e in ratio_table(range(49, 83))}
        for n in range(50, 81):
            assert entries[n] < 1
            assert entries[n + 2] < entries[n]
        assert entries[51] == 51 * entries[50]


def test_criterion_7_non_realizability():
    with criterion("7 (obstructions and centers)", budget_seconds=30):
        for r in range(2, 6):
            model = xr_model(r)
            report = principal_obstruction(
                model, [f"x{i}" for i in range(1, r + 1)], 1
            )
            assert report.free == ((f"x{r}", "t1"),), f"r={r}"
            assert {g for g, _ in report.forced_zero} == set(
                model.signature.names
            ) - {f"x{r}"}
        for n in range(2, 9):
            report = center(u_n_presentation(n))
            assert report.dimension == 1
            assert report.descriptions == (f"X_{n}_1",)
        for r in range(1, 10):
            report = center(dual_homotopy_lie(xr_model(r)))
            assert report.dimension == 1
            assert report.descriptions == (f"X{r}",)


def test_criterion_8_twist_window():
    with criterion("8 (twist window against X_4)", budget_seconds=30):
        twisted = borel_twist(xr_model(5), "x5")
        reference = betti(xr_model(4))
        table = betti(twisted)
        assert table.truncated_at == twisted.truncation == 11
        for n in range(twisted.truncation - 1):
            assert table.b(n) == reference.b(n), f"degree {n}"


# --------------------------------------------------------------------------
# criterion 9: the always-on property suites


CONSTRUCTED_MODELS = [
    torus_model(1),
    torus_model(3),
    xr_model(0),
    xr_model(3),
    xr_model(5),
    upper_tri_model(2),
    upper_tri_model(3),
    upper_tri_model(4),
    upper_tri_model(5),
    split_at_k(5, 4).base,
    split_at_k(5, 4).fiber,
    split_at_k(5, 3).fiber,
    split_at_k(6, 4).base,
    degree_shift(upper_tri_model(3), 1),
    degree_shift(upper_tri_model(4), 1),
    chevalley_eilenberg(u_n_presentation(4)),
]


@pytest.mark.parametrize("model", CONSTRUCTED_MODELS, ids=lambda m: m.name)
def test_criterion_9_d_squared_matrix_products(model):
    d = [model.differential_matrix(n) for n in range(model.top_degree() + 1)]
    for n in range(len(d) - 1):
        assert (d[n + 1] @ d[n]).is_zero()


@pytest.mark.parametrize("model", CONSTRUCTED_MODELS, ids=lambda m: m.name)
def test_criterion_9_euler_and_poincare(model):
    table = betti(model)
    assert sum((-1) ** n * b for n, b in enumerate(table.per_degree)) == 0
    top = model.top_degree()
    for k in range(top + 1):
        assert table.b(k) == table.b(top - k)


@given(st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_criterion_9_kunneth_randomized(seed):
    rng = random.Random(seed)
    a = random_two_step_cdga(rng, closed=rng.randint(1, 3), upper=rng.randint(0, 2))
    b = random_two_step_cdga(rng, closed=rng.randint(1, 2), upper=rng.randint(0, 2))
    left, right, product = betti(a), betti(b), betti(tensor_product(a, b))
    assert product.total == left.total * right.total
    for n, value in enumerate(product.per_degree):
        assert value == sum(left.b(i) * right.b(n - i) for i in range(n + 1))


@pytest.mark.parametrize(
    "model",
    [m for m in CONSTRUCTED_MODELS if len(m.signature) <= 8],
    ids=lambda m: m.name,
)
def test_criterion_9_dense_oracle_equivalence(model):
    assert betti(model).per_degree == dense_betti(model)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("kappa", [0, 1, 2])
def test_criterion_9_degree_shift_totals(n, kappa):
    assert (
        betti(degree_shift(upper_tri_model(n), kappa)).total
        == betti(upper_tri_model(n)).total
    )


@pytest.mark.parametrize(
    "model",
    CONSTRUCTED_MODELS + [borel_twist(xr_model(5), "x5")],
    ids=lambda m: m.name,
)
def test_criterion_9_dsl_round_trip(model):
    result = parse(serialize(model))
    assert result.ok
    assert to_cdga(result.document) == model


@given(st.text(max_size=120))
@settings(max_examples=150, deadline=None)
def test_criterion_9_parser_fuzz_no_crash(text):
    result = parse(text)
    assert result.document is not None or result.diagnostics
