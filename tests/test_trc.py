import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilcohom import (
    certificate_xr,
    certificate_xr_product,
    decimal_string,
    factorial_iterative,
    factorial_split,
    ratio_table,
    scan_minimal_counterexample,
    stirling_threshold,
    trc_inequality,
)
from nilcohom.cohomology import betti, tensor_product
from nilcohom.models import xr_model
from nilcohom.trc import XrCertificate, default_k
import dense_oracle

# Every shape of two to four X_r factors with at most 10 generators (r + 2 per
# factor), so each folded tensor model has at most 2^10 monomials.
SMALL_PRODUCTS = tuple(
    shape
    for factors in (2, 3, 4)
    for shape in itertools.combinations_with_replacement(range(9, -1, -1), factors)
    if sum(shape) + 2 * factors <= 10
)


class TestFactorials:
    @given(st.integers(0, 200))
    def test_two_implementations_agree(self, n):
        assert factorial_iterative(n) == factorial_split(n) == math.factorial(n)


class TestTrcInequality:
    def test_paper_point_49_26(self):
        cert = trc_inequality(49, 26)
        assert cert.d_nk == 300
        assert cert.inequality_holds is True

    def test_small_case_fails(self):
        cert = trc_inequality(5, 4)
        assert cert.factorial == 120 and cert.power == 8
        assert cert.inequality_holds is False

    def test_fields_are_exact(self):
        cert = trc_inequality(10, 7)
        assert cert.factorial == math.factorial(10)
        assert cert.power == 2 ** cert.d_nk
        assert cert.fiber_rank == cert.d_nk

    def test_range_validation(self):
        with pytest.raises(ValueError):
            trc_inequality(5, 1)

    def test_json_uses_decimal_strings(self):
        d = trc_inequality(49, 26).to_json_dict()
        assert d["factorial"] == str(math.factorial(49))
        assert d["power"] == str(2**300)


class TestStirlingThreshold:
    def test_exact_values_near_the_claimed_bound(self):
        # The sufficient condition 2^{(n-k)^2} >= n^{2n} evaluated exactly:
        # with k = ceil(n/2)+1 it first holds at n = 50; at (49, 26) it is
        # exactly false (2^529 < 49^98) although the main inequality holds.
        # With k = floor(n/2)+1, i.e. (49, 25), it holds.
        assert stirling_threshold(49, 26) is False
        assert stirling_threshold(49, 25) is True
        assert stirling_threshold(50, 26) is True
        assert stirling_threshold(48, 25) is False

    def test_tiny_case(self):
        assert stirling_threshold(10, 9) is False

    @given(st.integers(2, 60))
    def test_threshold_implies_inequality(self, n):
        # the sufficiency chain n! < n^n <= 2^{d^2/2} < 2^{d(n,k)}
        for k in range(max(2, (n + 2) // 2 + 1), n + 1):
            if stirling_threshold(n, k):
                assert trc_inequality(n, k).inequality_holds


class TestRatioTable:
    def test_small_entry_exceeds_one(self):
        entry = ratio_table([5])[0]
        assert entry.ratio == Fraction(120, 8) == 15

    def test_entry_at_49_below_one(self):
        assert ratio_table([49])[0].ratio < 1

    def test_parity_class_monotonicity(self):
        entries = {e.n: e.ratio for e in ratio_table(range(49, 83))}
        # strictly decreasing two apart, and below one throughout
        for n in range(49, 81):
            assert entries[n + 2] < entries[n]
            assert entries[n] < 1
        # consecutive entries are NOT monotone: d(n,k) stalls on odd steps
        assert entries[51] == 51 * entries[50]

    def test_decimal_rendering_is_exact(self):
        entry = ratio_table([6])[0]  # 720 / 2^6 = 11.25
        assert entry.d_nk == 6
        assert decimal_string(entry.ratio) == "11.25"
        assert decimal_string(Fraction(1, 8)) == "0.125"
        assert decimal_string(Fraction(-3, 2)) == "-1.5"
        assert decimal_string(Fraction(7)) == "7"
        with pytest.raises(ValueError):
            decimal_string(Fraction(1, 3))


def _rendered(render, value):
    """The decimal string, or the ValueError's message when rendering refuses."""
    try:
        return render(value)
    except ValueError as err:
        return ("ValueError", str(err))


class TestDecimalAgainstReference:
    """``decimal_string`` against the halving renderer in ``dense_oracle``."""

    @pytest.mark.slow
    def test_ratio_table_2_to_400(self):
        # n >= 216 passes the 4300-digit int-to-str limit: both must refuse
        # with CPython's own message.
        refused = 0
        for entry in ratio_table(range(2, 401)):
            got = _rendered(decimal_string, entry.ratio)
            assert got == _rendered(dense_oracle.decimal_string, entry.ratio), entry.n
            refused += isinstance(got, tuple)
        assert refused == 185
        assert "integer string conversion" in _rendered(decimal_string, entry.ratio)[1]

    def test_seeded_fractions_over_2a_5b(self):
        rng = random.Random(20)
        values = [Fraction(0), Fraction(10**40), Fraction(-3)]
        for _ in range(3000):
            den = 2 ** rng.randrange(0, 90) * 5 ** rng.randrange(0, 60)
            kind = rng.randrange(4)
            if kind == 0:
                num = rng.randrange(-(10**30), 10**30)
            elif kind == 1:
                num = rng.randrange(-50, 51) * den  # integral value
            elif kind == 2:
                num = rng.randrange(-(10**3), 10**3)
            else:
                num = rng.randrange(-(2**400), 2**400)
            values.append(Fraction(num, den))
        assert any(v == 0 for v in values) and any(v < 0 for v in values)
        assert any(v.denominator == 1 and v for v in values)
        for value in values:
            assert decimal_string(value) == dense_oracle.decimal_string(value), value

    @pytest.mark.parametrize(
        "den", [3, 6, 7, 15, 2**10 * 3, 5**7 * 11, 2**5 * 5**5 * 13, 10**9 + 7]
    )
    def test_other_prime_in_denominator_refused(self, den):
        for num in (1, -1, den + 1):
            value = Fraction(num, den)
            expected = ("ValueError", "fraction has no finite decimal expansion")
            assert _rendered(dense_oracle.decimal_string, value) == expected
            assert _rendered(decimal_string, value) == expected


class TestScan:
    def test_minimal_crossover_is_26(self):
        # frozen after exact big-integer verification: 26! = 403291461126605635584000000
        # < 2^91 = 2475880078570760549798248448, while 25! > 2^78 and 24! > 2^78
        scan = scan_minimal_counterexample(60)
        assert scan.minimal_n == 26
        assert math.factorial(26) < 2 ** ((26 // 2) * (26 // 2 + 1) // 2)

    def test_verdict_set_has_a_gap_at_27(self):
        # d(n, ceil(n/2)+1) depends only on floor(n/2), so 27 pairs with 26
        # but multiplies the factorial by 27: the verdict dips back to False
        scan = scan_minimal_counterexample(30)
        verdicts = dict(scan.verdicts)
        assert verdicts[26] is True
        assert verdicts[27] is False
        assert all(verdicts[n] for n in range(28, 31))

    def test_stable_across_runs(self):
        assert scan_minimal_counterexample(40) == scan_minimal_counterexample(40)

    def test_k_rule(self):
        assert default_k(49) == 26
        assert default_k(50) == 26
        assert default_k(51) == 27


class TestXrCertificates:
    def test_r5_verdict(self):
        cert = certificate_xr(5)
        assert (cert.total_betti, cert.power, cert.verdict) == (26, 32, True)

    def test_r4_boundary(self):
        cert = certificate_xr(4)
        assert (cert.total_betti, cert.power, cert.verdict) == (16, 16, False)

    def test_verdict_pattern_up_to_nine(self):
        verdicts = {r: certificate_xr(r).verdict for r in range(10)}
        assert {r for r, v in verdicts.items() if v} == {5, 6, 7, 8, 9}

    def test_rank_ten_product(self):
        cert = certificate_xr_product([5, 5])
        assert cert.fiber_rank == 10
        assert (cert.total_betti, cert.power, cert.verdict) == (676, 1024, True)

    def test_direct_range_enforced(self):
        with pytest.raises(ValueError):
            certificate_xr(10)


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestKunnethProducts:
    def test_shape_count(self):
        assert len(SMALL_PRODUCTS) == 31

    @pytest.mark.parametrize("shape", SMALL_PRODUCTS, ids=lambda s: ",".join(map(str, s)))
    def test_matches_tensor_model(self, shape):
        model = xr_model(shape[0])
        for r in shape[1:]:
            model = tensor_product(model, xr_model(r))
        table = betti(model)
        rank = sum(shape)
        assert certificate_xr_product(shape) == XrCertificate(
            fiber_rank=rank,
            total_betti=table.total,
            power=2**rank,
            verdict=table.total < 2**rank,
            factors=shape,
        )
        row = [1]
        for r in shape:
            row = _convolve(row, betti(xr_model(r)).per_degree)
        assert list(table.per_degree) == row

    @pytest.mark.parametrize("rs", [[5], [], [10, 1], [5, -1]])
    def test_argument_checks(self, rs):
        with pytest.raises(ValueError):
            certificate_xr_product(rs)
