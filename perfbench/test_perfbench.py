"""Tests of the benchmark itself: oracles, seeding, failure counting, the
fresh-model rule, the speed scaling and the tracer.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import pytest

from nilcohom import cohomology, models

import oracles
import run
import speed
import tracer as tracing
from worker import Loop
from workloads import (
    WORKLOADS,
    Outcome,
    Workload,
    certificate_check,
    certificate_run,
    is_render_defect,
)


def single_request_loop(request, op, check=certificate_check) -> Loop:
    loop = Loop(Workload(lambda seed: itertools.repeat(request), op, check))
    loop.run_op(request, traced=False)
    return loop


@pytest.mark.parametrize("n", range(1, 6))
def test_mahonian_rows_sum_to_factorial(n):
    row = oracles.mahonian_row(n)
    assert sum(row) == math.factorial(n)
    assert row == row[::-1]


def test_mahonian_row_of_u6_starts_as_published():
    assert oracles.mahonian_row(6)[:8] == (1, 5, 14, 29, 49, 71, 90, 101)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_same_inputs(workload):
    stream = WORKLOADS[workload].requests
    first = list(itertools.islice(stream(7), 300))
    assert first == list(itertools.islice(stream(7), 300))


def test_certificate_streams_differ_by_seed_but_not_in_mix():
    a = list(itertools.islice(WORKLOADS["certificates"].requests(1), 9 * 40))
    b = list(itertools.islice(WORKLOADS["certificates"].requests(2), 9 * 40))
    assert a != b
    kinds = lambda stream: sorted(kind for kind, _ in stream)  # noqa: E731
    assert kinds(a) == kinds(b)


def test_a_correct_op_passes():
    loop = single_request_loop(("xr", 5), certificate_run)
    assert loop.failures == [] and loop.attempted == 1


def test_a_wrong_answer_counts_as_failed():
    def wrong(ctx, request):
        value = dict(certificate_run(ctx, request).value)
        value["total_betti"] += 1
        return Outcome(value)

    loop = single_request_loop(("xr", 5), wrong)
    assert len(loop.failures) == 1 and "total" in loop.failures[0][1]


def test_a_model_built_outside_the_timed_op_is_rejected():
    prebuilt = models.borel_twist(models.xr_model(4), "x4")

    def reuse(ctx, request):
        return Outcome(cohomology.betti(prebuilt), (prebuilt,))

    loop = single_request_loop(("twist", 4), reuse)
    assert len(loop.failures) == 1
    assert "not built inside the timed op" in loop.failures[0][1]


@pytest.mark.parametrize(
    "request_, fails",
    [(("ratio", 215), False), (("ratio", 216), True), (("trc", 337), False), (("trc", 338), True)],
)
def test_render_defect_raises_exactly_where_predicted(request_, fails):
    # The library's known defect is counted apart and is not a failed op.
    loop = single_request_loop(request_, certificate_run)
    assert loop.defects == fails == is_render_defect(request_)
    assert loop.failures == []


@pytest.mark.parametrize("request_", [("xr", 5), ("ratio", 300)])
def test_an_op_that_raises_otherwise_is_rejected(request_):
    def broken(ctx, request):
        raise KeyError("total_betti")

    loop = single_request_loop(request_, broken)
    assert len(loop.failures) == 1 and "KeyError" in loop.failures[0][1]
    assert loop.defects == 0


def test_the_digit_limit_error_is_rejected_where_not_predicted():
    def too_long(ctx, request):
        raise ValueError("Exceeds the limit (4300 digits) for integer string conversion")

    loop = single_request_loop(("ratio", 215), too_long)
    assert len(loop.failures) == 1 and loop.defects == 0


def test_ops_are_scaled_by_the_kernel_runs_around_them(monkeypatch):
    kernel_times = iter([0.1, 0.3, 0.2, 0.4])
    monkeypatch.setattr(speed, "kernel", lambda: next(kernel_times))
    meter = speed.Speedometer(period=0.0)  # kernel 0.1
    meter.add(1.0)
    meter.mark()  # 0.3
    meter.add(2.0)
    meter.add(4.0)
    meter.mark()  # 0.2
    meter.add(8.0)
    meter.close()  # 0.4
    ref = speed.REFERENCE_S
    assert meter.raw == [1.0, 2.0, 4.0, 8.0]
    assert meter.scaled() == pytest.approx(
        [ref / 0.2, 2.0 * ref / 0.25, 4.0 * ref / 0.25, 8.0 * ref / 0.3]
    )


def test_the_reference_kernel_checks_its_own_answer():
    assert speed.kernel() > 0


def test_tracer_restores_the_library():
    from nilcohom import cdga, cli

    originals = (cli.betti, cohomology.betti, cdga.CDGA.__dict__["differential_matrix"])
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.betti is not originals[0] and cli.betti is cohomology.betti
    tracer.uninstall()
    assert (cli.betti, cohomology.betti, cdga.CDGA.__dict__["differential_matrix"]) == originals


def test_traced_op_spans_cover_the_op():
    loop = Loop(WORKLOADS["certificates"], tracing.Tracer())
    loop.run_op(("twist", 5), traced=True)
    sums = loop.layer_sums
    layers = sum(v for k, v in sums.items() if k.endswith(".self_s"))
    assert layers == pytest.approx(loop.traced[0], rel=0.05)
    assert sums["models.build_s"] > 0 and sums["algebra.basis_monomials"] > 0


def test_concurrent_children_share_time_equally():
    Span = tracing.Span
    spans = [
        Span(0, "bench.op", None, 0.0, 10.0, False),
        Span(1, "cohomology.betti", 0, 1.0, 9.0, False),
        Span(2, "linalg.rank_only", 1, 2.0, 6.0, False),  # two pool threads
        Span(3, "linalg.rank_only", 1, 4.0, 8.0, False),
    ]
    own = tracing.attribute(spans)
    assert own[0] == pytest.approx(2.0)
    assert own[1] == pytest.approx(2.0)  # 1-2 and 8-9
    assert own[2] == pytest.approx(3.0)  # 2-4 alone, 4-6 shared
    assert own[3] == pytest.approx(3.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    fake = {"untraced": [1.0, 2.0], "scaled": [0.9, 1.8], "failures": [], "attempted": 2,
            "peak_rss_mb": 9.0, "render_defect_ops": 0}
    metrics, _ = run.end_to_end(fake, ([0.1], [0.09]))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in metrics.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(WORKLOADS)
