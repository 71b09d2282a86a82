import random
from fractions import Fraction

import pytest
from hypothesis import settings

from nilcohom import CDGA, Element, Signature, basis_of_degree, rank_exact, xr_model
from nilcohom import cdga
from nilcohom.algebra import transport

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def x5():
    return xr_model(5)


@pytest.fixture(params=["default", "every-degree"])
def grouping(request, monkeypatch):
    """Blocks as ``betti`` gets them, and with every degree grouped by weight."""
    if request.param == "every-degree":
        monkeypatch.setattr(cdga, "_BLOCK_MIN_MONOMIALS", 0)
    return request.param


def random_two_step_cdga(rng: random.Random, closed: int, upper: int) -> CDGA:
    """Random valid CDGA: `closed` exterior generators with d = 0 and `upper`
    generators whose differentials are random quadratics in the closed ones.
    d^2 = 0 holds automatically."""
    names = [f"c{i}" for i in range(closed)] + [f"w{i}" for i in range(upper)]
    sig = Signature([(n, 1) for n in names])
    diffs = {n: Element.zero(sig) for n in names}
    pairs = [(i, j) for i in range(closed) for j in range(i + 1, closed)]
    for w in range(upper):
        terms = {}
        for (i, j) in pairs:
            if rng.random() < 0.5:
                coeff = rng.choice([1, -1, 2, Fraction(1, 2)])
                terms[sig.monomial_of(names[i], names[j])] = coeff
        diffs[f"w{w}"] = Element(sig, terms)
    return CDGA(sig, diffs, name=f"rand{closed}_{upper}")


def seeded_two_step_cdgas() -> list:
    """Twelve seeded ``random_two_step_cdga`` models; some have coefficient 1/2."""
    models = []
    for seed in range(12):
        rng = random.Random(seed)
        models.append(random_two_step_cdga(rng, closed=rng.randint(2, 5), upper=rng.randint(1, 4)))
    return models


def cocycle_extension(rng: random.Random, model: CDGA, extra: int) -> CDGA:
    """``model`` (degree-1 generators) with ``extra`` more degree-1 generators
    v0, v1, ..., each with a random degree-2 cocycle of the model before it
    as d. d^2 = 0 holds by construction. Cocycles that mix terms of different
    word length in the closed generators pin weights, so some of these
    models have a torus-weight lattice of rank 0."""
    for k in range(extra):
        sig = model.signature
        basis = basis_of_degree(sig, 2)
        cocycle = {}
        for vec in rank_exact(model.differential_matrix(2)).kernel_basis:
            c = rng.choice([0, 1, -1, 2, Fraction(1, 3)])
            for j, v in enumerate(vec):
                if c and v:
                    cocycle[basis[j]] = cocycle.get(basis[j], 0) + c * v
        bigger = Signature([(g.name, g.degree) for g in sig.generators] + [(f"v{k}", 1)])
        diffs = {name: transport(model.d_of(name), bigger, {}) for name in sig.names}
        diffs[f"v{k}"] = transport(Element(sig, cocycle), bigger, {})
        model = CDGA(bigger, diffs, name=f"{model.name}_v{k + 1}")
    return model


def seeded_rational_models() -> list:
    """The twelve ``seeded_two_step_cdgas`` and thirty seeded cocycle
    extensions of random two-step models, some with a rank-0 weight lattice."""
    models = seeded_two_step_cdgas()
    for seed in range(30):
        rng = random.Random(1000 + seed)
        base = random_two_step_cdga(rng, closed=rng.randint(2, 4), upper=rng.randint(1, 3))
        models.append(cocycle_extension(rng, base, rng.randint(1, 2)))
    return models
