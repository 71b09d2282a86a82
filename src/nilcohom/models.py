"""Constructors for the model families, the degree-shift transform, and the
two realizability probes (polynomial-generator twist, principal obstruction).

Naming is canonical so golden files and the text format stay stable:
upper-triangular generators are "x_{i}_{j}", the two base generators of the
X_r family are "a" and "b", its fiber generators "x1".."xr", and polynomial
twist generators "t", "t1".."tr".
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional, Sequence

from .algebra import Element, Monomial, Signature
from .cdga import CDGA, default_truncation
from .linalg import SparseExactMatrix, rank_exact

_XIJ_RE = re.compile(r"x_(\d+)_(\d+)\Z")


def d_formula(n: int, k: int) -> int:
    """Fiber torus rank d(n,k) = (n-k+1)(n-k+2)/2."""
    _check_nk(n, k)
    return (n - k + 1) * (n - k + 2) // 2


def c_formula(n: int, k: int) -> int:
    """Euclidean factor dimension c(n,k) = n(n-1)/2 - d(n,k)."""
    _check_nk(n, k)
    c = n * (n - 1) // 2 - d_formula(n, k)
    assert 2 * c == (2 - k) * (-1 + k - 2 * n), "closed forms disagree"
    return c


def _check_nk(n: int, k: int) -> None:
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got n={n}, k={k}")


def _pairs(n: int) -> list:
    """Index pairs (i, j), 1 <= j < i <= n, off-diagonal by off-diagonal."""
    return sorted(
        ((i, j) for i in range(1, n + 1) for j in range(1, i)),
        key=lambda ij: (ij[0] - ij[1], ij[1]),
    )


def _tri_cdga(n: int, pairs: Sequence, fiber_floor: Optional[int], name: str) -> CDGA:
    """Shared builder: d x_i_j = - sum over j < l < i of x_l_j * x_i_l.

    With ``fiber_floor`` set to k-1 the sum keeps only terms whose both
    factors have off-diagonal distance >= k-1 (the projected differential on
    the fiber generators).

    The model carries the symmetry sigma(x_i_j) = -x_(n+1-j)_(n+1-i), the
    dual of the anti-transpose automorphism, as private data. It keeps the
    off-diagonal distance i - j, so every ``pairs`` given here (all of u_n,
    the base and the fiber of ``split_at_k``) is closed under it. The CDGA
    checks that sigma commutes with d before ``betti`` ranks one torus-weight
    block per sigma-orbit. ``degree_shift`` and the CLI's ``--truncate``
    carry it; any other rebuild through ``CDGA(...)`` drops it.
    """
    index = {ij: pos for pos, ij in enumerate(pairs)}
    sig = Signature([(f"x_{i}_{j}", 1) for (i, j) in pairs])
    diffs = {}
    for (i, j) in pairs:
        terms: dict = {}
        for l in range(j + 1, i):
            if (l, j) not in index or (i, l) not in index:
                continue
            if fiber_floor is not None and (l - j < fiber_floor or i - l < fiber_floor):
                continue
            a, b = index[(l, j)], index[(i, l)]
            sign = 1 if a < b else -1
            lo, hi = (a, b) if a < b else (b, a)
            mono = Monomial(sig, (1 << lo) | (1 << hi), ())
            terms[mono] = terms.get(mono, 0) - sign
        diffs[f"x_{i}_{j}"] = Element(sig, terms)
    cdga = CDGA(sig, diffs, name=name)
    cdga._symmetry = tuple((index[n + 1 - j, n + 1 - i], -1) for (i, j) in pairs)
    return cdga


def upper_tri_model(n: int) -> CDGA:
    """Cochain model of the upper-triangular nilmanifold family.

    Generators x_i_j, 1 <= j < i <= n, all of degree 1, with
    d x_i_j = - sum_{j<l<i} x_l_j * x_i_l. For n = 3 this is the classical
    Heisenberg model.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return _tri_cdga(n, _pairs(n), None, name=f"u{n}")


class FibrationTriple(NamedTuple):
    """Base -> total -> fiber with generator assignments.

    Base generators are a subset of the total signature with identical
    differentials; the fiber differential is the total one with base
    generators projected to zero.
    """

    base: CDGA
    total: CDGA
    fiber: CDGA
    inclusion: dict  # base generator -> total generator (identity on names)
    projection: dict  # total generator -> fiber generator or None

    def fiber_differential_is_zero(self) -> bool:
        return all(self.fiber.d_of(g).is_zero() for g in self.fiber.signature.names)


def split_at_k(n: int, k: int) -> FibrationTriple:
    """Split the upper-triangular model at off-diagonal k.

    Base lives on 1 <= i-j < k-1, the fiber on i-j >= k-1 with the projected
    differential. The fiber differential vanishes identically exactly when
    k >= n/2 + 1; that is a property to check, not a precondition.
    """
    _check_nk(n, k)
    total = upper_tri_model(n)
    base_pairs = [ij for ij in _pairs(n) if 1 <= ij[0] - ij[1] < k - 1]
    fiber_pairs = [ij for ij in _pairs(n) if ij[0] - ij[1] >= k - 1]
    base = _tri_cdga(n, base_pairs, None, name=f"u{n}_base_k{k}")
    fiber = _tri_cdga(n, fiber_pairs, k - 1, name=f"u{n}_fiber_k{k}")
    inclusion = {g: g for g in base.signature.names}
    projection = {
        g: (g if g in fiber.signature else None) for g in total.signature.names
    }
    assert len(fiber.signature) == d_formula(n, k), "fiber size disagrees with d(n,k)"
    return FibrationTriple(base, total, fiber, inclusion, projection)


def xr_model(r: int) -> CDGA:
    """Two closed degree-1 generators a, b and a chain x1..xr with
    d x1 = a*b and d x_i = a*x_(i-1)."""
    if r < 0:
        raise ValueError("need r >= 0")
    names = ["a", "b"] + [f"x{i}" for i in range(1, r + 1)]
    sig = Signature([(name, 1) for name in names])
    diffs = {name: Element.zero(sig) for name in names}
    if r >= 1:
        diffs["x1"] = Element(sig, {Monomial(sig, 0b11, ()): 1})
    for i in range(2, r + 1):
        # x_(i-1) sits at signature index i (a and b occupy 0 and 1)
        mono = Monomial(sig, (1 << 0) | (1 << i), ())
        diffs[f"x{i}"] = Element(sig, {mono: 1})
    return CDGA(sig, diffs, name=f"xr{r}")


def torus_model(k: int) -> CDGA:
    """k odd degree-1 generators with zero differential."""
    if k < 1:
        raise ValueError("need k >= 1")
    sig = Signature([(f"y{i}", 1) for i in range(1, k + 1)])
    return CDGA(sig, {g: Element.zero(sig) for g in sig.names}, name=f"torus{k}")


def degree_shift(model: CDGA, kappa: int) -> CDGA:
    """Regrade x_i_j to degree (i-j)*2*kappa + 1, keeping the differential.

    Valid because the differential is homogeneous for the off-diagonal
    distance: every term of d x_i_j is a product x_l_j * x_i_l with
    (l-j) + (i-l) = i-j. kappa = 0 returns the original grading. A symmetry
    of ``model`` is carried over: the anti-transpose keeps i - j, hence the
    new degrees, and the shifted CDGA checks it again on first use.
    """
    if kappa < 0:
        raise ValueError("need kappa >= 0")
    degrees = {}
    for g in model.signature.generators:
        m = _XIJ_RE.match(g.name)
        if not m:
            raise ValueError(f"generator {g.name!r} is not an x_i_j label")
        i, j = int(m.group(1)), int(m.group(2))
        degrees[g.name] = (i - j) * 2 * kappa + 1
    sig = Signature([(g.name, degrees[g.name]) for g in model.signature.generators])
    diffs = {}
    for g in model.signature.generators:
        old = model.d_of(g.name)
        diffs[g.name] = Element(
            sig, {Monomial(sig, m.odd_mask, ()): c for m, c in old.terms.items()}
        )
    shifted = CDGA(sig, diffs, name=f"{model.name}_shift{kappa}")
    shifted._symmetry = model._symmetry
    return shifted


def borel_twist(
    c: CDGA, gen_name: str, t_name: str = "t", truncation: Optional[int] = None
) -> CDGA:
    """Adjoin one polynomial generator t of degree |g|+1 and set d(g) += t.

    The result has infinite-dimensional basis, so a truncation window is
    attached (the default from the cdga module unless supplied). Finiteness
    of the twisted cohomology is not claimed: consumers compare truncated
    Betti data against a predicted quotient model inside the window.

    When g occurs in no differential, g and t form a contractible pair:
    the twist is the model without g tensored with Lambda(g, d g), whose
    cohomology is Q, so the twist's cohomology is that quotient's, degree
    by degree and torus weight by weight, and ``betti`` ranks the quotient.
    """
    if gen_name not in c.signature:
        raise ValueError(f"no generator {gen_name!r} to twist")
    g = c.signature.generator(gen_name)
    if g.degree % 2 == 0:
        raise ValueError("twisted generator must have odd degree")
    if t_name in c.signature:
        raise ValueError(f"name {t_name!r} already used")
    sig = Signature(
        [(h.name, h.degree) for h in c.signature.generators] + [(t_name, g.degree + 1)]
    )
    old_evens = len(c.signature.even_indices)
    diffs = {}
    for h in c.signature.generators:
        old = c.d_of(h.name)
        diffs[h.name] = Element(
            sig,
            {
                Monomial(sig, m.odd_mask, m.even_exps + (0,)): coeff
                for m, coeff in old.terms.items()
            },
        )
    diffs[t_name] = Element.zero(sig)
    t_elem = Element(sig, {Monomial(sig, 0, (0,) * old_evens + (1,)): 1})
    diffs[gen_name] = diffs[gen_name] + t_elem
    if truncation is None:
        truncation = default_truncation(sig)
    return CDGA(sig, diffs, truncation=truncation, name=f"{c.name}_twist_{gen_name}")


class ObstructionReport(NamedTuple):
    """Linear constraints on twisting every degree-1 generator by degree-2
    polynomial generators t1..tr.

    ``forced_zero`` and ``free`` partition the ansatz parameters (g, t_s);
    a parameter is forced when it vanishes on the whole solution space.
    """

    rank: int
    ansatz_dimension: int
    forced_zero: tuple  # ((generator, t name), ...)
    free: tuple
    solution_dimension: int
    fiber_generators: tuple

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank,
            "ansatz_dimension": self.ansatz_dimension,
            "forced_zero": [list(p) for p in self.forced_zero],
            "free": [list(p) for p in self.free],
            "solution_dimension": self.solution_dimension,
            "fiber_generators": list(self.fiber_generators),
        }


def principal_obstruction(
    c: CDGA, fiber_gens: Sequence[str], r: int
) -> ObstructionReport:
    """Solve d^2 = 0 for the ansatz d(g) := d(g) + lambda_g, lambda_g an
    unknown linear form in t1..tr, over EVERY degree-1 generator g.

    The closedness of the putative base generators is derived, not assumed.
    Constraints come from expanding d^2(h) for each degree-1 generator h whose
    differential is quadratic in degree-1 generators: each term x_i x_j of
    d(h) contributes lambda_i x_j - lambda_j x_i. Those on the coefficients of
    t_s never mix with those of another t, so one block, with a column per
    degree-1 generator, is solved once: its kernel, once per t_s, is the
    solution space, and (g, t_s) is free when g's coordinate is nonzero
    somewhere on it.
    """
    if r < 1:
        raise ValueError("need torus rank r >= 1")
    sig = c.signature
    deg1 = [g for g in sig.generators if g.degree == 1]
    col = {g.index: pos for pos, g in enumerate(deg1)}
    for name in fiber_gens:
        g = sig.generator(name)
        if g.degree % 2 == 0:
            raise ValueError(f"fiber generator {name!r} has even degree")

    # Rows are indexed by (h, x_u): the coefficient of t * x_u in d^2(h) must
    # vanish. d(h) has degree 2, so each odd factor below has degree 1.
    entries: dict = {}
    rows: dict = {}
    for h in deg1:
        for mono, coeff in c.d_of(h.name).terms.items():
            if mono.odd_mask.bit_count() != 2 or any(mono.even_exps):
                raise ValueError(
                    f"differential of {h.name!r} is not quadratic in degree-1 generators"
                )
            mask = mono.odd_mask
            low = mask & -mask
            i = col[sig.odd_indices[low.bit_length() - 1]]
            j = col[sig.odd_indices[(mask ^ low).bit_length() - 1]]
            # + coeff * lambda_i x_j  - coeff * lambda_j x_i
            key = (rows.setdefault((h.index, j), len(rows)), i)
            entries[key] = entries.get(key, 0) + coeff
            key = (rows.setdefault((h.index, i), len(rows)), j)
            entries[key] = entries.get(key, 0) - coeff
    matrix = SparseExactMatrix(max(len(rows), 1), len(deg1), entries)
    kernel = rank_exact(matrix).kernel_basis
    t_names = tuple(f"t{s}" for s in range(1, r + 1))
    forced = []
    free = []
    for pos, g in enumerate(deg1):
        side = free if any(vec[pos] for vec in kernel) else forced
        side.extend((g.name, t) for t in t_names)
    return ObstructionReport(
        rank=r,
        ansatz_dimension=len(deg1) * r,
        forced_zero=tuple(forced),
        free=tuple(free),
        solution_dimension=len(kernel) * r,
        fiber_generators=tuple(fiber_gens),
    )
