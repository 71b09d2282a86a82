"""Independent brute-force Betti computation for purely odd signatures.

Deliberately shares nothing with the sparse pipeline: monomials are sorted
index tuples, signs come from insertion-sort swap counting, matrices are
dense lists of Fractions, and the eliminator is textbook Gaussian reduction.
Only the generator data (names, degrees, differentials) is read off the
model under test.
"""

from fractions import Fraction
from itertools import combinations


def _sort_word(word):
    """Sort an index word, counting swaps; None when an index repeats."""
    word = list(word)
    swaps = 0
    for i in range(1, len(word)):
        j = i
        while j > 0 and word[j - 1] > word[j]:
            word[j - 1], word[j] = word[j], word[j - 1]
            swaps += 1
            j -= 1
    for a, b in zip(word, word[1:]):
        if a == b:
            return None, 0
    return tuple(word), (-1) ** swaps


def _generator_data(cdga):
    sig = cdga.signature
    assert sig.is_purely_odd, "oracle covers purely odd signatures"
    degrees = [g.degree for g in sig.generators]
    diffs = []
    for g in sig.generators:
        terms = {}
        for mono, coeff in cdga.d_of(g.name).terms.items():
            word = tuple(i for i, e in enumerate(mono.exponents()) if e)
            terms[word] = Fraction(coeff)
        diffs.append(terms)
    return degrees, diffs


def _d_word(word, degrees, diffs):
    """Differential of one monomial word as {word: coefficient}."""
    out = {}
    for pos, idx in enumerate(word):
        prefix_parity = sum(degrees[i] for i in word[:pos]) % 2
        outer = -1 if prefix_parity else 1
        rest = word[:pos] + word[pos + 1 :]
        for dword, coeff in diffs[idx].items():
            merged, sign = _sort_word(dword + rest)
            if merged is None:
                continue
            out[merged] = out.get(merged, Fraction(0)) + outer * sign * coeff
            if not out[merged]:
                del out[merged]
    return out


def _dense_rank(matrix):
    """Textbook Gaussian elimination over Fractions."""
    if not matrix or not matrix[0]:
        return 0
    m = [row[:] for row in matrix]
    rows, cols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(cols):
        pivot = None
        for r in range(row, rows):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        for r in range(rows):
            if r != row and m[r][col]:
                factor = m[r][col] / pv
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == rows:
            break
    return rank


def dense_rank_mod_p(matrix, p):
    """Textbook Gaussian elimination over Z/p on a dense integer matrix."""
    m = [[v % p for v in row] for row in matrix]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, p)
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col] * inv % p
                m[r] = [(a - factor * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def dense_betti(cdga):
    """Per-degree Betti numbers over the full 2^g basis."""
    degrees, diffs = _generator_data(cdga)
    g = len(degrees)
    top = sum(degrees)
    by_degree = {n: [] for n in range(top + 1)}
    for size in range(g + 1):
        for word in combinations(range(g), size):
            by_degree[sum(degrees[i] for i in word)].append(word)
    index = {
        n: {w: i for i, w in enumerate(words)} for n, words in by_degree.items()
    }
    ranks = {}
    for n in range(top + 1):
        source = by_degree[n]
        target = by_degree.get(n + 1, [])
        dense = [[Fraction(0)] * len(source) for _ in target]
        for col, word in enumerate(source):
            for image, coeff in _d_word(word, degrees, diffs).items():
                dense[index[n + 1][image]][col] = coeff
        ranks[n] = _dense_rank(dense)
    out = []
    for n in range(top + 1):
        below = ranks[n - 1] if n > 0 else 0
        out.append(len(by_degree[n]) - ranks[n] - below)
    return tuple(out)
