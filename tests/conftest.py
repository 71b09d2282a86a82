import random
from fractions import Fraction

import pytest
from hypothesis import settings

from nilcohom import CDGA, Element, Signature, xr_model

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def x5():
    return xr_model(5)


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
