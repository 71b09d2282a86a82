import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcohom import (
    borel_twist,
    chevalley_eilenberg,
    degree_shift,
    dual_homotopy_lie,
    split_at_k,
    torus_model,
    u_n_presentation,
    upper_tri_model,
    xr_model,
)
from nilcohom.dsl import (
    DslValidationError,
    parse,
    parse_element,
    render_element,
    serialize,
    to_cdga,
    to_lie,
)

XR3_GOLDEN = """algebra xr3
gen a : 1
gen b : 1
gen x1 : 1
gen x2 : 1
gen x3 : 1
d a = 0
d b = 0
d x1 = a*b
d x2 = a*x1
d x3 = a*x2
"""

U3_LIE_GOLDEN = """lie u3
basis X_2_1 X_3_2 X_3_1
bracket X_3_2 X_2_1 = -1 * X_3_1
"""


class TestParse:
    def test_x2_definition(self):
        text = (
            "algebra x2\n"
            "gen a : 1\ngen b : 1\ngen x1 : 1\ngen x2 : 1\n"
            "d a = 0\nd b = 0\nd x1 = a*b\nd x2 = a*x1\n"
        )
        result = parse(text)
        assert result.ok
        model = to_cdga(result.document)
        assert model == xr_model(2)

    def test_unknown_generator_diagnostic_with_span(self):
        text = "algebra t\ngen a : 1\ngen x1 : 1\nd a = 0\nd x1 = a*c\n"
        result = parse(text)
        assert not result.ok
        (diag,) = result.diagnostics
        assert diag.code == "unknown-generator"
        line = text.splitlines()[diag.line - 1]
        assert line[diag.column - 1 :].startswith(diag.token or "a*c")

    def test_duplicate_generator(self):
        result = parse("algebra t\ngen a : 1\ngen a : 2\n")
        assert any(d.code == "duplicate-generator" for d in result.diagnostics)

    def test_bad_degree(self):
        result = parse("algebra t\ngen a : 0\n")
        assert any(d.code == "bad-degree" for d in result.diagnostics)

    def test_malformed_rational(self):
        result = parse("algebra t\ngen a : 1\ngen b : 2\nd a = 0\nd b = 1/ * a\n")
        assert any(d.code == "bad-rational" for d in result.diagnostics)

    def test_zero_denominator(self):
        result = parse("algebra t\ngen a : 1\ngen b : 2\nd a = 0\nd b = 1/0 * a\n")
        assert any(d.code == "bad-rational" for d in result.diagnostics)

    def test_comments_and_blank_lines(self):
        text = "# header\nalgebra t\n\ngen a : 1  # the generator\nd a = 0\n"
        result = parse(text)
        assert result.ok

    def test_one_algebra_per_file(self):
        result = parse("algebra one\nalgebra two\n")
        assert any(d.code == "duplicate-algebra" for d in result.diagnostics)

    def test_parser_validator_separation(self):
        # parses cleanly; construction rejects the inhomogeneous value
        text = (
            "algebra bad\n"
            "gen u : 2\ngen a : 1\ngen v : 3\n"
            "d u = 0\nd a = u\nd v = u*a\n"
        )
        result = parse(text)
        assert result.ok
        with pytest.raises(DslValidationError) as err:
            to_cdga(result.document)
        assert err.value.diagnostics[0].code == "inhomogeneous-differential"

    def test_d_squared_failure_reported(self):
        # homogeneous but d^2(v) = u*u != 0 (v polynomial of degree 2)
        text = (
            "algebra bad\n"
            "gen u : 2\ngen a : 1\ngen v : 2\n"
            "d u = 0\nd a = u\nd v = u*a\n"
        )
        result = parse(text)
        assert result.ok
        with pytest.raises(DslValidationError) as err:
            to_cdga(result.document)
        assert err.value.diagnostics[0].code == "d-squared"
        assert "u^2" in str(err.value)

    def test_missing_differential_requires_explicit_zero(self):
        result = parse("algebra t\ngen a : 1\n")
        assert result.ok
        with pytest.raises(DslValidationError) as err:
            to_cdga(result.document)
        assert err.value.diagnostics[0].code == "missing-differential"

    def test_a_second_truncate_line_is_rejected(self):
        text = "algebra t\ntruncate 5\ngen a : 2\n  truncate 7\nd a = 0\n"
        (diag,) = parse(text).diagnostics
        assert (diag.code, diag.message) == ("syntax", "second truncate line")
        assert (diag.line, diag.column, diag.token) == (4, 3, "truncate")

    def test_diagnostics_are_position_accurate(self):
        text = "algebra t\ngen a : 1\nd a = 0\nd zz = a\n"
        result = parse(text)
        (diag,) = result.diagnostics
        line = text.splitlines()[diag.line - 1]
        assert line[diag.column - 1 : diag.column - 1 + len(diag.token)] == diag.token
        assert diag.token == "zz"


class TestLieBlocks:
    def test_paper_form_bracket_line(self):
        result = parse(U3_LIE_GOLDEN)
        assert result.ok
        L = to_lie(result.document)
        assert L.brackets == u_n_presentation(3).brackets

    def test_bracket_order_normalizes_with_sign(self):
        forward = parse(
            "lie t\nbasis A B C\nbracket A B = C\n"
        )
        backward = parse(
            "lie t\nbasis A B C\nbracket B A = -1 * C\n"
        )
        assert to_lie(forward.document).brackets == to_lie(backward.document).brackets

    def test_self_bracket_rejected(self):
        result = parse("lie t\nbasis A B\nbracket A A = B\n")
        assert any(d.code == "self-bracket" for d in result.diagnostics)

    def test_unknown_basis_name(self):
        result = parse("lie t\nbasis A B\nbracket A C = B\n")
        assert any(d.code == "unknown-generator" for d in result.diagnostics)

    def test_jacobi_failure_surfaces(self):
        text = "lie bad\nbasis E1 E2 E3\nbracket E1 E2 = E3\nbracket E1 E3 = E1\n"
        result = parse(text)
        assert result.ok
        with pytest.raises(DslValidationError) as err:
            to_lie(result.document)
        assert err.value.diagnostics[0].code == "jacobi"

    @pytest.mark.parametrize("first", ["0", "A - A"])
    def test_a_repeated_bracket_pair_is_rejected(self, first):
        # Whatever the first value, zero included, the pair was given.
        text = f"lie t\nbasis A B C\nbracket A B = {first}\nbracket B A = C\n"
        (diag,) = parse(text).diagnostics
        assert (diag.code, diag.line, diag.column, diag.token) == ("duplicate-bracket", 4, 9, "B")

    def test_omitted_brackets_default_to_zero(self):
        result = parse("lie t\nbasis A B C\n")
        L = to_lie(result.document)
        assert L.brackets == {}

# Bracket values always print their magnitude, "1 * X" included, and join
# their terms as elements do.
LIE_GOLDEN = {
    "u4": (
        "lie u4\n"
        "basis X_2_1 X_3_2 X_4_3 X_3_1 X_4_2 X_4_1\n"
        "bracket X_3_2 X_2_1 = -1 * X_3_1\n"
        "bracket X_4_2 X_2_1 = -1 * X_4_1\n"
        "bracket X_4_3 X_3_2 = -1 * X_4_2\n"
        "bracket X_3_1 X_4_3 = 1 * X_4_1\n"
    ),
    "xr3_dual": (
        "lie xr3_dual\n"
        "basis A B X1 X2 X3\n"
        "bracket B A = 1 * X1\n"
        "bracket X1 A = 1 * X2\n"
        "bracket X2 A = 1 * X3\n"
    ),
    "q": "lie q\nbasis A B C D\nbracket B A = -2/3 * C + 1 * D\n",
}


class TestSerialize:
    def test_xr3_golden_text(self):
        assert serialize(xr_model(3)) == XR3_GOLDEN

    def test_u3_lie_golden_text(self):
        assert serialize(u_n_presentation(3)) == U3_LIE_GOLDEN

    def test_lie_golden_texts(self):
        assert serialize(u_n_presentation(4)) == LIE_GOLDEN["u4"]
        assert serialize(dual_homotopy_lie(xr_model(3))) == LIE_GOLDEN["xr3_dual"]
        assert serialize(to_lie(parse(LIE_GOLDEN["q"]).document)) == LIE_GOLDEN["q"]

    def test_serializer_is_byte_stable(self):
        a = serialize(upper_tri_model(5))
        b = serialize(upper_tri_model(5))
        assert a == b

    CDGA_BUILTINS = [
        torus_model(1),
        torus_model(3),
        xr_model(0),
        xr_model(5),
        xr_model(9),
        upper_tri_model(2),
        upper_tri_model(4),
        upper_tri_model(5),
        split_at_k(5, 4).base,
        split_at_k(5, 4).fiber,
        split_at_k(5, 3).fiber,
        degree_shift(upper_tri_model(3), 1),
        degree_shift(upper_tri_model(4), 2),
        borel_twist(xr_model(5), "x5"),
        borel_twist(upper_tri_model(3), "x_3_1"),
        chevalley_eilenberg(u_n_presentation(4)),
    ]

    @pytest.mark.parametrize("model", CDGA_BUILTINS, ids=lambda m: m.name)
    def test_cdga_round_trip(self, model):
        result = parse(serialize(model))
        assert result.ok, result.diagnostics
        back = to_cdga(result.document)
        assert back == model
        assert back.name == model.name
        assert serialize(back) == serialize(model)

    LIE_BUILTINS = [
        u_n_presentation(2),
        u_n_presentation(4),
        u_n_presentation(6),
        dual_homotopy_lie(xr_model(5)),
        dual_homotopy_lie(xr_model(9)),
    ]

    @pytest.mark.parametrize("pres", LIE_BUILTINS, ids=lambda p: p.name)
    def test_lie_round_trip(self, pres):
        result = parse(serialize(pres))
        assert result.ok, result.diagnostics
        back = to_lie(result.document)
        assert back == pres
        assert back.name == pres.name

    def test_rational_coefficients_round_trip(self):
        text = (
            "algebra q\n"
            "gen a : 1\ngen b : 1\ngen c : 1\n"
            "d a = 0\nd b = 0\nd c = 2/3 * a*b\n"
        )
        model = to_cdga(parse(text).document)
        again = to_cdga(parse(serialize(model)).document)
        assert again == model


class TestParseElement:
    def test_simple_expression(self, x5):
        elem = parse_element(x5.signature, "x1*x2 - b*x3")
        assert render_element(elem) == "x1*x2 - b*x3"

    def test_constant_term(self, x5):
        elem = parse_element(x5.signature, "1")
        assert elem.homogeneous_degree() == 0

    def test_odd_square_evaluates_to_zero(self, x5):
        assert parse_element(x5.signature, "a*a").is_zero()

    def test_reversed_word_gets_koszul_sign(self, x5):
        assert parse_element(x5.signature, "b*a") == parse_element(
            x5.signature, "-a*b"
        )

    def test_unknown_name_raises(self, x5):
        with pytest.raises(DslValidationError):
            parse_element(x5.signature, "a*q")


class TestFuzz:
    @given(st.text(max_size=200))
    @settings(max_examples=300)
    def test_parser_never_raises(self, text):
        result = parse(text)
        assert result.document is not None or result.diagnostics

    @given(
        st.text(
            alphabet="algebra gen d lie basis bracket xt123:=*/+-# \n_",
            max_size=200,
        )
    )
    @settings(max_examples=300)
    def test_parser_never_raises_on_keyword_soup(self, text):
        result = parse(text)
        assert result.document is not None or result.diagnostics

    @given(st.binary(max_size=120))
    @settings(max_examples=150)
    def test_parser_survives_decoded_bytes(self, blob):
        result = parse(blob.decode("utf-8", errors="replace"))
        assert result.document is not None or result.diagnostics
