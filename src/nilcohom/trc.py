"""Big-integer counterexample certificates.

Everything here is exact: factorials are computed with arbitrary precision,
the comparison n! < 2^{d(n,k)} is a direct big-integer comparison, and the
Stirling-style sufficient condition d >= sqrt(2 n log2 n) is evaluated in the
equivalent integer form 2^{(n-k)^2} >= n^{2n}, so no irrational arithmetic or
tolerance enters anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, prod
from typing import Callable, NamedTuple, Optional, Sequence

from .cohomology import betti
from .models import d_formula, xr_model


def factorial_iterative(n: int) -> int:
    """Plain running product."""
    if n < 0:
        raise ValueError("need n >= 0")
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def _prod_range(lo: int, hi: int) -> int:
    """The product lo * (lo + 1) * ... * hi, split in halves; 1 when lo > hi."""
    if hi - lo < 8:
        out = 1
        for i in range(lo, hi + 1):
            out *= i
        return out
    mid = (lo + hi) // 2
    return _prod_range(lo, mid) * _prod_range(mid + 1, hi)


def factorial_split(n: int) -> int:
    """Divide-and-conquer product; the independent cross-check of the iterative path."""
    if n < 0:
        raise ValueError("need n >= 0")
    return _prod_range(2, n) if n >= 2 else 1


def default_k(n: int) -> int:
    """k = ceil(n/2) + 1, the splitting used for the certificate family."""
    return ceil(n / 2) + 1


class TrcCertificate(NamedTuple):
    """Exact comparison record for one (n, k)."""

    n: int
    k: int
    d_nk: int
    factorial: int
    power: int
    inequality_holds: bool
    stirling_threshold_holds: bool
    fiber_rank: int
    computed_total_betti: Optional[int] = None

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "d_nk": self.d_nk,
            "factorial": str(self.factorial),
            "power": str(self.power),
            "inequality_holds": self.inequality_holds,
            "stirling_threshold_holds": self.stirling_threshold_holds,
            "fiber_rank": self.fiber_rank,
            "computed_total_betti": self.computed_total_betti,
        }


def stirling_threshold(n: int, k: int) -> bool:
    """True iff 2^{(n-k)^2} >= n^{2n}, i.e. n-k >= sqrt(2 n log2 n).

    A sufficient condition for n! < 2^{d(n,k)}, never necessary.
    """
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got n={n}, k={k}")
    d = n - k
    return 2 ** (d * d) >= n ** (2 * n)


def trc_inequality(n: int, k: int) -> TrcCertificate:
    """Exact verdict on n! < 2^{d(n,k)}; no floating point anywhere."""
    d = d_formula(n, k)
    fact = factorial_split(n)
    power = 2**d
    return TrcCertificate(
        n=n,
        k=k,
        d_nk=d,
        factorial=fact,
        power=power,
        inequality_holds=fact < power,
        stirling_threshold_holds=stirling_threshold(n, k),
        fiber_rank=d,
    )


class RatioEntry(NamedTuple):
    n: int
    k: int
    d_nk: int
    ratio: Fraction

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "d_nk": self.d_nk,
            "ratio_numerator": str(self.ratio.numerator),
            "ratio_denominator": str(self.ratio.denominator),
            "ratio_decimal": decimal_string(self.ratio),
        }


def decimal_string(value: Fraction) -> str:
    """Exact decimal rendering; defined when the reduced denominator is 2^a 5^b.

    The ratios n!/2^d always qualify. No rounding: every digit is exact.
    With digits = max(a, b), the fractional part (num mod den) / den has the
    digits (num mod den) * 5^(digits-b) * 2^(digits-a): a power of 5 and a
    shift, with no division by 10^digits.
    """
    num, den = value.numerator, value.denominator
    sign = "-" if num < 0 else ""
    num = abs(num)
    a = (den & -den).bit_length() - 1
    rest = den >> a
    b = 0
    while rest % 5 == 0:
        rest //= 5
        b += 1
    if rest != 1:
        raise ValueError("fraction has no finite decimal expansion")
    digits = max(a, b)
    whole, rem = divmod(num, den)
    if rem == 0:
        return f"{sign}{whole}"
    frac = rem * 5 ** (digits - b) << (digits - a)
    return f"{sign}{whole}." + str(frac).rjust(digits, "0").rstrip("0")


def ratio_table(
    n_values: Sequence[int], k_rule: Callable[[int], int] = default_k
) -> list:
    """Exact ratios n! / 2^{d(n, k_rule(n))}.

    With the default rule, d(n, k) depends only on floor(n/2), so the table
    decreases strictly along each parity class of n (entries two apart) while
    consecutive entries may rise; the limit is still zero.
    """
    out = []
    for n in n_values:
        k = k_rule(n)
        d = d_formula(n, k)
        out.append(RatioEntry(n=n, k=k, d_nk=d, ratio=Fraction(factorial_split(n), 2**d)))
    return out


class ScanResult(NamedTuple):
    """Exact crossover scan for k = ceil(n/2)+1 over 2 <= n <= n_max."""

    n_max: int
    minimal_n: Optional[int]
    verdicts: tuple  # (n, inequality_holds) pairs

    def to_json_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "minimal_n": self.minimal_n,
            "true_at": [n for n, ok in self.verdicts if ok],
        }


def scan_minimal_counterexample(n_max: int = 60) -> ScanResult:
    """Smallest n with n! < 2^{d(n, ceil(n/2)+1)}, by exhaustive exact scan."""
    verdicts = []
    minimal = None
    for n in range(2, n_max + 1):
        ok = trc_inequality(n, default_k(n)).inequality_holds
        verdicts.append((n, ok))
        if ok and minimal is None:
            minimal = n
    return ScanResult(n_max=n_max, minimal_n=minimal, verdicts=tuple(verdicts))


class XrCertificate(NamedTuple):
    """Total Betti number of a fiber-rank-r total space against 2^r."""

    fiber_rank: int
    total_betti: int
    power: int
    verdict: bool
    factors: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "fiber_rank": self.fiber_rank,
            "total_betti": self.total_betti,
            "power": str(self.power),
            "verdict": self.verdict,
            "factors": list(self.factors),
        }


def certificate_xr(r: int) -> XrCertificate:
    """Direct computation for a single X_r; verdict is total < 2^r."""
    if not 0 <= r <= 9:
        raise ValueError("direct certificates cover 0 <= r <= 9; use products beyond")
    total = betti(xr_model(r)).total
    return XrCertificate(
        fiber_rank=r, total_betti=total, power=2**r, verdict=total < 2**r, factors=(r,)
    )


def certificate_xr_product(rs: Sequence[int]) -> XrCertificate:
    """Kunneth product certificate: fiber ranks add, totals multiply.

    Each distinct factor X_r is ranked once; no tensor model is built.
    """
    rs = tuple(rs)
    if len(rs) < 2:
        raise ValueError("need at least two factors")
    if any(not 0 <= r <= 9 for r in rs):
        raise ValueError("each factor must satisfy 0 <= r <= 9")
    totals = {r: betti(xr_model(r)).total for r in set(rs)}
    total = prod(totals[r] for r in rs)
    rank = sum(rs)
    return XrCertificate(
        fiber_rank=rank,
        total_betti=total,
        power=2**rank,
        verdict=total < 2**rank,
        factors=rs,
    )
