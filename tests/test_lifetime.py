"""Models and certificates are freed by reference counting alone.

No library object points back at itself: a signature holds no cache of
monomials that point at it, and no call leaves a self-referencing closure.
So once the collector has run, a run of every certificate kind, the class
computations and the Betti pass, serial and forked, leave it nothing.
"""

import gc

from nilcohom import (
    betti,
    borel_twist,
    center,
    dual_homotopy_lie,
    principal_obstruction,
    representatives,
    u_n_presentation,
    upper_tri_model,
    verify_classes,
    xr_model,
)
from nilcohom import dsl, trc


def _certificates() -> None:
    trc.trc_inequality(12, trc.default_k(12))
    trc.ratio_table([12])
    trc.scan_minimal_counterexample(40)
    trc.certificate_xr(5)
    trc.certificate_xr_product((3, 2))
    betti(borel_twist(xr_model(4), "x4"))
    center(u_n_presentation(5))
    center(dual_homotopy_lie(xr_model(4)))
    principal_obstruction(xr_model(4), ["x1", "x2", "x3", "x4"], 2)
    text = dsl.serialize(borel_twist(xr_model(3), "x3"))
    dsl.to_cdga(dsl.parse(text).document)


def _classes() -> None:
    for model in (upper_tri_model(5), borel_twist(xr_model(4), "x4")):
        degrees = range(len(betti(model).per_degree))
        classes = [c for n in degrees for c in representatives(model, n)]
        assert verify_classes(model, classes).ok


def test_nothing_is_left_to_the_cyclic_collector():
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        _certificates()
        _classes()
        betti(upper_tri_model(6), jobs=1)
        betti(upper_tri_model(6), jobs=2)
        upper_tri_model(5).differential_matrix(3)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
