"""Independent brute-force Betti computation.

Deliberately shares nothing with the sparse pipeline: monomials are sorted
index tuples, an even generator repeated once per unit of its exponent,
signs come from insertion-sort swap counting, matrices are dense lists of
Fractions, and the eliminator is textbook Gaussian reduction. Only the
generator data (names, degrees, differentials) and the truncation window
are read off the model under test.

``count_rule_elimination`` is the reference for the pivot order of the
sparse core: the same row arithmetic, with each pivot found by a plain scan
of every live column instead of a heap. ``components`` cuts sparse rows
into the connected components of their nonzero pattern, the reference for
the torus-weight blocks and for a kernel solved one component at a time.
``lower_central_series`` is the reference for a Lie presentation's series:
brackets of Fraction dicts read off the structure constants, reduced to an
echelon basis of their span. ``decimal_string`` is the reference for the
exact ratio rendering: it finds the powers of 2 and 5 in the denominator one
factor at a time and divides ``num * 10**digits`` by the denominator.
``obstruction_by_copies`` is the reference for the principal-twist
obstruction: it shares the rank core, but builds and eliminates one copy of
the constraint block per torus generator.
"""

from fractions import Fraction
from itertools import product
from math import gcd

from nilcohom.linalg import SparseExactMatrix, rank_exact
from nilcohom.models import ObstructionReport


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
        # The Leibniz sign (-1)^|prefix| times the sign of moving d(idx), of
        # degree |idx| + 1, to the front, where the word below is sorted:
        # (-1)^(|idx| * |prefix|) in all.
        prefix_parity = sum(degrees[i] for i in word[:pos]) % 2
        outer = -1 if prefix_parity * degrees[idx] % 2 else 1
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


def count_pivot(rows):
    """(column, row) the count rule picks among sparse rows {row: {col: value}}.

    The column with the fewest rows, lowest column on ties, then in it the
    row with the fewest entries, lowest row id on ties; found by scanning.
    """
    counts = {}
    for row in rows.values():
        for c in row:
            counts[c] = counts.get(c, 0) + 1
    col = min(counts, key=lambda c: (counts[c], c))
    row = min((r for r in rows if col in rows[r]), key=lambda r: (len(rows[r]), r))
    return col, row


def count_rule_elimination(rows, modulus=None):
    """(pivots, frozen rows) of a count-rule elimination of integer rows.

    Over Z, or over Z/modulus on entries already reduced. Each pivot comes
    from ``count_pivot``. Every other row x with an entry a in the pivot
    column becomes p * x - a * (pivot row), p being the pivot, and over Z
    it is then divided by the gcd of its entries; for p = -1 over Z it
    becomes x + a * (pivot row) instead, the negation.
    ``pivots`` lists (row, col) in elimination order; ``frozen`` maps each
    pivot row to its content when it was chosen. The input is not changed.
    """
    rows = {r: dict(row) for r, row in rows.items() if row}
    pivots, frozen = [], {}
    while rows:
        col, r = count_pivot(rows)
        pivot_row = rows.pop(r)
        p = pivot_row[col]
        for i, row in list(rows.items()):
            a = row.get(col)
            if a is None:
                continue
            out = {}
            for j in set(row) | set(pivot_row):
                if modulus is None and p == -1:
                    v = row.get(j, 0) + a * pivot_row.get(j, 0)
                else:
                    v = p * row.get(j, 0) - a * pivot_row.get(j, 0)
                if modulus is not None:
                    v %= modulus
                if v:
                    out[j] = v
            if modulus is None and out:
                g = gcd(*out.values())
                out = {j: v // g for j, v in out.items()}
            if out:
                rows[i] = out
            else:
                del rows[i]
        pivots.append((r, col))
        frozen[r] = pivot_row
    return pivots, frozen


def components(rows):
    """Connected components of the nonzero pattern of rows {row: {col: value}}.

    Row r and column c are joined when rows[r] has an entry at c. Returns a
    list of (sorted column list, sorted row id list), ordered by smallest
    column; empty rows belong to no component.
    """
    rows_of = {}
    for r, row in rows.items():
        for c in row:
            rows_of.setdefault(c, []).append(r)
    seen = set()
    out = []
    for start in sorted(rows_of):
        if start in seen:
            continue
        seen.add(start)
        cols, row_ids, stack = [], set(), [start]
        while stack:
            c = stack.pop()
            cols.append(c)
            for r in rows_of[c]:
                if r not in row_ids:
                    row_ids.add(r)
                    for j in rows[r]:
                        if j not in seen:
                            seen.add(j)
                            stack.append(j)
        out.append((sorted(cols), sorted(row_ids)))
    return out


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


def lower_central_series(presentation):
    """Dimensions of L, [L,L], [L,[L,L]], ... from the structure constants alone.

    Each step brackets every basis element with every vector of an echelon
    basis of the current term, on Fraction dicts, and reduces the products
    to an echelon basis of their span (lead = least index, scaled to 1).
    It stops when a term is zero or has the dimension of the one before.
    """
    n = len(presentation.basis)
    brackets = presentation.brackets

    def bracket(i, v):
        out = {}
        for j, a in v.items():
            if i < j:
                entry, sign = brackets.get((i, j), {}), 1
            elif i > j:
                entry, sign = brackets.get((j, i), {}), -1
            else:
                continue
            for k, c in entry.items():
                out[k] = out.get(k, Fraction(0)) + sign * a * Fraction(c)
        return {k: x for k, x in out.items() if x}

    dims = [n]
    current = [{i: Fraction(1)} for i in range(n)]
    while True:
        echelon = {}
        for i in range(n):
            for v in current:
                w = bracket(i, v)
                while w:
                    lead = min(w)
                    if lead not in echelon:
                        echelon[lead] = {k: x / w[lead] for k, x in w.items()}
                        break
                    factor = w[lead]
                    for k, x in echelon[lead].items():
                        y = w.get(k, 0) - factor * x
                        if y:
                            w[k] = y
                        else:
                            w.pop(k, None)
        current = [echelon[k] for k in sorted(echelon)]
        dims.append(len(current))
        if not current or dims[-1] == dims[-2]:
            break
    return tuple(dims)


def decimal_string(value):
    """Exact decimal of a Fraction whose reduced denominator is 2^a 5^b."""
    num, den = value.numerator, value.denominator
    sign = "-" if num < 0 else ""
    num = abs(num)
    a = b = 0
    rest = den
    while rest % 2 == 0:
        rest //= 2
        a += 1
    while rest % 5 == 0:
        rest //= 5
        b += 1
    if rest != 1:
        raise ValueError("fraction has no finite decimal expansion")
    digits = max(a, b)
    scaled = num * 10**digits // den
    whole, frac = divmod(scaled, 10**digits)
    if digits == 0 or frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}." + str(frac).rjust(digits, "0").rstrip("0")


def obstruction_by_copies(c, fiber_gens, r):
    """The principal-twist obstruction solved as r identical copies.

    Unknowns are every pair (g, t_s) of a degree-1 generator and a torus
    generator, so the system has r copies of the one-t block; it is
    eliminated whole and each unknown is looked up in every dense kernel
    vector. Forced and free pairs read off the kernel's support, so the
    report must equal ``models.principal_obstruction``'s, which solves one
    block once.
    """
    if r < 1:
        raise ValueError("need torus rank r >= 1")
    sig = c.signature
    deg1 = [g for g in sig.generators if g.degree == 1]
    deg1_index = {g.index: pos for pos, g in enumerate(deg1)}
    for name in fiber_gens:
        g = sig.generator(name)
        if g.degree % 2 == 0:
            raise ValueError(f"fiber generator {name!r} has even degree")
    t_names = tuple(f"t{s}" for s in range(1, r + 1))
    unknowns = [(g.name, t) for g in deg1 for t in t_names]
    col = {key: idx for idx, key in enumerate(unknowns)}

    # Constraint rows are indexed by (h, t_s, x_u): the coefficient of
    # t_s * x_u in d^2(h) must vanish. The system is identical for every s.
    entries: dict = {}
    row_keys: dict = {}

    def row_of(key) -> int:
        if key not in row_keys:
            row_keys[key] = len(row_keys)
        return row_keys[key]

    for h in deg1:
        dh = c.d_of(h.name)
        for mono, coeff in dh.terms.items():
            if mono.odd_mask.bit_count() != 2 or any(mono.even_exps):
                raise ValueError(
                    f"differential of {h.name!r} is not quadratic in degree-1 generators"
                )
            mask = mono.odd_mask
            low = mask & -mask
            i_idx = sig.odd_indices[low.bit_length() - 1]
            j_idx = sig.odd_indices[(mask ^ low).bit_length() - 1]
            if i_idx not in deg1_index or j_idx not in deg1_index:
                raise ValueError(
                    f"differential of {h.name!r} involves generators above degree 1"
                )
            gi = sig.generators[i_idx].name
            gj = sig.generators[j_idx].name
            for t in t_names:
                # + coeff * lambda_i x_j  - coeff * lambda_j x_i
                ri = row_of((h.name, t, gj))
                key = (ri, col[(gi, t)])
                entries[key] = entries.get(key, Fraction(0)) + coeff
                rj = row_of((h.name, t, gi))
                key = (rj, col[(gj, t)])
                entries[key] = entries.get(key, Fraction(0)) - coeff
    entries = {k: v for k, v in entries.items() if v}
    matrix = SparseExactMatrix(max(len(row_keys), 1), len(unknowns), entries)
    result = rank_exact(matrix)
    forced = []
    free = []
    for key, idx in col.items():
        if any(vec[idx] for vec in result.kernel_basis):
            free.append(key)
        else:
            forced.append(key)
    return ObstructionReport(
        rank=r,
        ansatz_dimension=len(unknowns),
        forced_zero=tuple(forced),
        free=tuple(free),
        solution_dimension=len(result.kernel_basis),
        fiber_generators=tuple(fiber_gens),
    )
