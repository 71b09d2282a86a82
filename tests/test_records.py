"""The result records are NamedTuples; the DSL builders are mutable classes.

Each record keeps the field order, defaults, keyword construction and
``Name(field=value, ...)`` repr it had as a frozen record, refuses
assignment, and renders the same ``to_json_dict``. As tuples they also
iterate, index and equal plain tuples of the same values.
"""

from fractions import Fraction

import pytest

from nilcohom import (
    BettiTable,
    CenterReport,
    DSquaredViolation,
    FibrationTriple,
    MultimodularCertificate,
    ObstructionReport,
    RankResult,
    RatioEntry,
    ScanResult,
    TrcCertificate,
    VerifyReport,
    XrCertificate,
    betti,
    center,
    certificate_xr,
    certificate_xr_product,
    principal_obstruction,
    ratio_table,
    representatives,
    scan_minimal_counterexample,
    trc_inequality,
    u_n_presentation,
    verify_classes,
    xr_model,
)
from nilcohom.dsl import (
    AlgebraDecl,
    Diagnostic,
    ExprAst,
    LieDecl,
    ParseResult,
    SourceDocument,
    TermAst,
    Token,
)

# (record, fields in order, defaults)
RECORDS = [
    (DSquaredViolation, ("generator", "residue"), {}),
    (BettiTable, ("per_degree", "total", "truncated_at"), {"truncated_at": None}),
    (
        VerifyReport,
        ("all_closed", "independent", "spanning", "non_closed", "dependency", "missing_degrees"),
        {"non_closed": (), "dependency": None, "missing_degrees": ()},
    ),
    (Diagnostic, ("code", "message", "line", "column", "token"), {"token": ""}),
    (Token, ("text", "line", "column"), {}),
    (TermAst, ("coefficient", "names", "name_tokens", "line", "column"), {}),
    (ExprAst, ("terms",), {}),
    (ParseResult, ("document", "diagnostics"), {}),
    (CenterReport, ("dimension", "vectors", "descriptions"), {}),
    (RankResult, ("rank", "kernel_basis", "pivot_columns"), {}),
    (
        MultimodularCertificate,
        ("bound", "per_prime", "confirmed", "method", "exact_rank"),
        {},
    ),
    (FibrationTriple, ("base", "total", "fiber", "inclusion", "projection"), {}),
    (
        ObstructionReport,
        (
            "rank",
            "ansatz_dimension",
            "forced_zero",
            "free",
            "solution_dimension",
            "fiber_generators",
        ),
        {},
    ),
    (
        TrcCertificate,
        (
            "n",
            "k",
            "d_nk",
            "factorial",
            "power",
            "inequality_holds",
            "stirling_threshold_holds",
            "fiber_rank",
            "computed_total_betti",
        ),
        {"computed_total_betti": None},
    ),
    (RatioEntry, ("n", "k", "d_nk", "ratio"), {}),
    (ScanResult, ("n_max", "minimal_n", "verdicts"), {}),
    (
        XrCertificate,
        ("fiber_rank", "total_betti", "power", "verdict", "factors"),
        {"factors": ()},
    ),
]

IDS = [record.__name__ for record, _, _ in RECORDS]


def _sample(fields):
    return {name: f"v{i}" for i, name in enumerate(fields)}


@pytest.mark.parametrize("record, fields, defaults", RECORDS, ids=IDS)
class TestRecordShape:
    def test_field_order_and_defaults(self, record, fields, defaults):
        assert record._fields == fields
        assert record._field_defaults == defaults

    def test_keyword_construction(self, record, fields, defaults):
        values = _sample(fields)
        built = record(**values)
        assert [getattr(built, name) for name in fields] == list(values.values())
        assert built == tuple(values.values())
        assert list(built) == list(values.values())
        assert built[0] == values[fields[0]]

    def test_defaults_fill_omitted_fields(self, record, fields, defaults):
        values = {name: v for name, v in _sample(fields).items() if name not in defaults}
        built = record(**values)
        for name, default in defaults.items():
            assert getattr(built, name) == default

    def test_repr_names_each_field(self, record, fields, defaults):
        values = _sample(fields)
        inner = ", ".join(f"{name}={value!r}" for name, value in values.items())
        assert repr(record(**values)) == f"{record.__name__}({inner})"

    def test_assignment_raises(self, record, fields, defaults):
        built = record(**_sample(fields))
        with pytest.raises(AttributeError):
            setattr(built, fields[0], "other")
        with pytest.raises(AttributeError):
            built.extra = 1


class TestRecordBehaviour:
    def test_str_of_diagnostic_and_violation(self):
        assert str(Diagnostic("E1", "bad", 2, 5)) == "2:5: E1: bad"
        assert str(DSquaredViolation("y", "x*z")) == "d^2(y) = 'x*z' != 0"

    def test_methods_and_properties_stay(self):
        table = BettiTable((1, 2, 1), 4)
        assert table.b(1) == 2 and table.b(7) == 0
        assert VerifyReport(True, True, True).ok
        assert not VerifyReport(True, False, True).ok
        assert ParseResult(SourceDocument("x"), ()).ok
        assert not ParseResult(None, ()).ok

    def test_records_hash_by_value(self):
        assert hash(BettiTable((1, 1), 2)) == hash(BettiTable((1, 1), 2))


class TestToJsonDictUnchanged:
    """Each dict as the frozen records rendered it."""

    MISSING = [
        {"degree": 0, "have": 0, "need": 1},
        {"degree": 2, "have": 0, "need": 3},
        {"degree": 3, "have": 0, "need": 3},
        {"degree": 4, "have": 0, "need": 2},
        {"degree": 5, "have": 0, "need": 1},
    ]

    def test_betti_table(self):
        assert betti(xr_model(3)).to_json_dict() == {
            "per_degree": [1, 2, 3, 3, 2, 1],
            "total": 12,
            "truncated_at": None,
        }

    def test_verify_report(self):
        model = xr_model(3)
        reps = representatives(model, 1)
        assert verify_classes(model, reps).to_json_dict() == {
            "all_closed": True,
            "independent": True,
            "spanning": False,
            "non_closed_indices": [],
            "dependency": None,
            "missing_degrees": self.MISSING,
        }
        doubled = verify_classes(model, reps + [reps[0].scale(2)]).to_json_dict()
        assert doubled["independent"] is False
        assert doubled["dependency"] == [
            {"index": 0, "coefficient": "-2"},
            {"index": 2, "coefficient": "1"},
        ]

    def test_center_report(self):
        assert center(u_n_presentation(3)).to_json_dict() == {
            "dimension": 1,
            "basis": ["X_3_1"],
        }

    def test_obstruction_report(self):
        report = principal_obstruction(xr_model(2), ["x1", "x2"], 1)
        assert report.to_json_dict() == {
            "rank": 1,
            "ansatz_dimension": 4,
            "forced_zero": [["a", "t1"], ["b", "t1"], ["x1", "t1"]],
            "free": [["x2", "t1"]],
            "solution_dimension": 1,
            "fiber_generators": ["x1", "x2"],
        }

    def test_trc_certificate(self):
        assert trc_inequality(5, 4).to_json_dict() == {
            "n": 5,
            "k": 4,
            "d_nk": 3,
            "factorial": "120",
            "power": "8",
            "inequality_holds": False,
            "stirling_threshold_holds": False,
            "fiber_rank": 3,
            "computed_total_betti": None,
        }

    def test_ratio_entry(self):
        (entry,) = ratio_table([6])
        assert entry.ratio == Fraction(45, 4)
        assert entry.to_json_dict() == {
            "n": 6,
            "k": 4,
            "d_nk": 6,
            "ratio_numerator": "45",
            "ratio_denominator": "4",
            "ratio_decimal": "11.25",
        }

    def test_scan_result(self):
        assert scan_minimal_counterexample(10).to_json_dict() == {
            "n_max": 10,
            "minimal_n": None,
            "true_at": [],
        }

    def test_xr_certificates(self):
        assert certificate_xr(2).to_json_dict() == {
            "fiber_rank": 2,
            "total_betti": 8,
            "power": "4",
            "verdict": False,
            "factors": [2],
        }
        assert certificate_xr_product([1, 2]).to_json_dict() == {
            "fiber_rank": 3,
            "total_betti": 48,
            "power": "8",
            "verdict": False,
            "factors": [1, 2],
        }


BUILDERS = [
    (AlgebraDecl, ("name", "generators", "differentials", "truncate"), ("x",)),
    (LieDecl, ("name", "basis", "brackets"), ("L",)),
    (SourceDocument, ("text", "algebra", "lie"), ("text",)),
]


@pytest.mark.parametrize(
    "builder, fields, args", BUILDERS, ids=[b.__name__ for b, _, _ in BUILDERS]
)
class TestDslBuilders:
    def test_defaults_are_not_shared(self, builder, fields, args):
        one, two = builder(*args), builder(*args)
        for name in fields[1:]:
            value = getattr(one, name)
            if value is not None:
                assert value is not getattr(two, name)

    def test_mutable_and_compared_by_value(self, builder, fields, args):
        one, two = builder(*args), builder(*args)
        assert one == two
        setattr(one, fields[0], "changed")
        assert one != two
        assert one != tuple(vars(two).values())

    def test_unhashable(self, builder, fields, args):
        with pytest.raises(TypeError):
            hash(builder(*args))

    def test_repr_names_each_field(self, builder, fields, args):
        built = builder(*args)
        inner = ", ".join(f"{name}={getattr(built, name)!r}" for name in fields)
        assert repr(built) == f"{builder.__name__}({inner})"


def test_builder_defaults_and_keywords():
    decl = AlgebraDecl(name="A")
    decl.generators.append(("x", 1, None))
    decl.differentials["x"] = (ExprAst(()), None)
    assert AlgebraDecl(name="A").generators == []
    assert AlgebraDecl(name="A").differentials == {}
    assert decl.truncate is None
    assert decl == AlgebraDecl("A", [("x", 1, None)], {"x": (ExprAst(()), None)})
    lie = LieDecl(name="L", basis=["X"])
    lie.brackets[(0, 1)] = {2: Fraction(1)}
    assert lie == LieDecl("L", ["X"], {(0, 1): {2: Fraction(1)}})
    doc = SourceDocument(text="t", algebra=decl)
    doc.lie = lie
    assert (doc.text, doc.algebra, doc.lie) == ("t", decl, lie)
