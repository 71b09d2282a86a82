"""Independent brute-force Betti computation.

Deliberately shares nothing with the sparse pipeline: monomials are sorted
index tuples, an even generator repeated once per unit of its exponent,
signs come from insertion-sort swap counting, matrices are dense lists of
Fractions, and the eliminator is textbook Gaussian reduction. Only the
generator data (names, degrees, differentials) and the truncation window
are read off the model under test.
"""

from fractions import Fraction
from itertools import product


def _sort_word(word, degrees):
    """Sort an index word, counting swaps of two odd-degree factors; None
    when an odd-degree index repeats."""
    word = list(word)
    swaps = 0
    for i in range(1, len(word)):
        j = i
        while j > 0 and word[j - 1] > word[j]:
            word[j - 1], word[j] = word[j], word[j - 1]
            swaps += degrees[word[j - 1]] * degrees[word[j]] % 2
            j -= 1
    for a, b in zip(word, word[1:]):
        if a == b and degrees[a] % 2:
            return None, 0
    return tuple(word), (-1) ** swaps


def _generator_data(cdga):
    sig = cdga.signature
    degrees = [g.degree for g in sig.generators]
    diffs = []
    for g in sig.generators:
        terms = {}
        for mono, coeff in cdga.d_of(g.name).terms.items():
            word = tuple(i for i, e in enumerate(mono.exponents()) for _ in range(e))
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
            merged, sign = _sort_word(dword + rest, degrees)
            if merged is None:
                continue
            out[merged] = out.get(merged, Fraction(0)) + outer * sign * coeff
            if not out[merged]:
                del out[merged]
    return out


def dense_rank(matrix):
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
        support = [j for j, b in enumerate(m[row]) if b]
        for r in range(rows):
            if r != row and m[r][col]:
                factor = m[r][col] / pv
                for j in support:
                    m[r][j] -= factor * m[row][j]
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


def _words_by_degree(degrees, upto):
    """Every monomial word of degree at most ``upto``, grouped by degree and
    sorted by exponent vector."""
    ranges = [range(2) if d % 2 else range(upto // d + 1) for d in degrees]
    by_degree = {n: [] for n in range(upto + 1)}
    for exps in product(*ranges):
        n = sum(e * d for e, d in zip(exps, degrees))
        if n <= upto:
            by_degree[n].append(tuple(i for i, e in enumerate(exps) for _ in range(e)))
    return by_degree


def _matrix(source, target, degrees, diffs):
    """Dense rows of d from the words ``source`` to the words ``target``."""
    index = {w: i for i, w in enumerate(target)}
    dense = [[Fraction(0)] * len(source) for _ in target]
    for col, word in enumerate(source):
        for image, coeff in _d_word(word, degrees, diffs).items():
            dense[index[image]][col] = coeff
    return dense


def dense_differential(cdga, n):
    """(rows, cols, dense rows) of the matrix of d from degree n to n + 1.

    Rows and columns follow the exponent-vector lexicographic order that
    ``basis_of_degree`` documents; the entries come from ``_d_word``.
    """
    degrees, diffs = _generator_data(cdga)
    by_degree = _words_by_degree(degrees, n + 1)
    source, target = by_degree[n], by_degree[n + 1]
    return len(target), len(source), _matrix(source, target, degrees, diffs)


def dense_betti(cdga):
    """Per-degree Betti numbers from every monomial word: degrees 0 .. top of
    a purely odd model, 0 .. truncation - 1 of one with even generators."""
    degrees, diffs = _generator_data(cdga)
    top = sum(degrees) if cdga.signature.is_purely_odd else cdga.truncation - 1
    by_degree = _words_by_degree(degrees, top + 1)
    ranks = {
        n: dense_rank(_matrix(by_degree[n], by_degree[n + 1], degrees, diffs))
        for n in range(top + 1)
    }
    return tuple(
        len(by_degree[n]) - ranks[n] - (ranks[n - 1] if n else 0) for n in range(top + 1)
    )
