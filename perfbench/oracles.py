"""Reference answers that do not call the engine.

Each value here comes from combinatorics, exact integer arithmetic in the
standard library, or the paper's published table, so a wrong engine answer
cannot agree with it by sharing code.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

# Total Betti numbers of X_r as tabulated in the paper (r = 1..9). X_0 is the
# exterior algebra on two closed generators, so its total is 2^2 = 4; the
# paper's printed 3 for that row is a known misprint.
XR_TOTALS = {0: 4, 1: 6, 2: 8, 3: 12, 4: 16, 5: 26, 6: 40, 7: 64, 8: 104, 9: 180}

# CPython refuses int <-> str conversions beyond this many digits by default.
# The certificates workload keeps the library's resulting failures visible;
# these thresholds say which requests hit them.
RATIO_RENDER_LIMIT_N = 216
CERTIFICATE_RENDER_LIMIT_N = 338


@lru_cache(maxsize=None)
def mahonian_row(n: int) -> tuple:
    """Number of permutations of n letters with k inversions, k = 0..n(n-1)/2.

    By Kostant's theorem this is the Betti row of the upper-triangular model u_n.
    """
    row = [0] * (n * (n - 1) // 2 + 1)
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        row[inversions] += 1
    return tuple(row)


def default_k(n: int) -> int:
    """The certificate family's splitting k = ceil(n/2) + 1."""
    return (n + 1) // 2 + 1


def d_closed_form(n: int, k: int) -> int:
    """Fiber torus rank d(n, k) = (n-k+1)(n-k+2)/2."""
    return (n - k + 1) * (n - k + 2) // 2


def factorial_beats_power(n: int) -> bool:
    """The exact verdict n! < 2^{d(n, k)} for the default splitting."""
    return math.factorial(n) < 2 ** d_closed_form(n, default_k(n))


def stirling_verdict(n: int, k: int) -> bool:
    """The integer form 2^{(n-k)^2} >= n^{2n} of the sufficient condition."""
    return 2 ** ((n - k) ** 2) >= n ** (2 * n)


def parse_decimal(text: str) -> Fraction:
    """Exact value of a finite decimal string such as '-0.0125'.

    Leading zeros of the fractional part are stripped before int() so that
    only significant digits count against the interpreter's digit limit.
    """
    sign = -1 if text.startswith("-") else 1
    whole, _, frac = text.lstrip("-").partition(".")
    value = Fraction(int(whole))
    if frac:
        value += Fraction(int(frac.lstrip("0") or "0"), 10 ** len(frac))
    return sign * value
