"""Line-oriented text format for algebra and Lie presentation definitions.

Grammar (one statement per line, ``#`` starts a comment, blank lines ignored,
whitespace free within lines)::

    algebra NAME
    truncate INT                  # optional degree window for polynomial generators
    gen NAME : DEGREE
    d NAME = EXPR
    lie NAME
    basis NAME NAME ...
    bracket NAME NAME = EXPR

    EXPR     := "0" | ["-"] TERM (("+" | "-") TERM)*
    TERM     := RATIONAL | RATIONAL "*" FACTORS | FACTORS
    FACTORS  := NAME ("*" NAME)*
    RATIONAL := INT ["/" INT]

A file holds at most one ``algebra`` block and at most one ``lie`` block.
Every declared generator needs an explicit ``d`` line, ``d NAME = 0``
included; omitted brackets in a ``lie`` block default to zero. Differential
lines may reference only previously declared generators. The serializer is
deterministic and byte-stable, and ``parse(serialize(x))`` reconstructs an
identical object.

Parsing never raises on arbitrary input: the result carries either a document
or a list of diagnostics with 1-based line/column positions and stable codes.
Constructing a CDGA from a document additionally runs homogeneity and
d-squared validation, so a file can parse cleanly yet fail validation.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .algebra import Element, Signature
from .cdga import CDGA, DifferentialError
from .lie import JacobiError, LiePresentation

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|[+\-*/=:]|\S")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INT_RE = re.compile(r"\d+\Z")


class Diagnostic(NamedTuple):
    """One problem, anchored at a 1-based (line, column) span."""

    code: str
    message: str
    line: int
    column: int
    token: str = ""

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.code}: {self.message}"


class DslValidationError(ValueError):
    """Raised when a document cannot be turned into a validated object."""

    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics = tuple(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class Token(NamedTuple):
    text: str
    line: int
    column: int


class TermAst(NamedTuple):
    coefficient: Fraction
    names: tuple
    name_tokens: tuple
    line: int
    column: int


class ExprAst(NamedTuple):
    terms: tuple  # of TermAst; empty means literal 0


class _Builder:
    """Mutable parse state, compared by value and left unhashable."""

    __hash__ = None

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({fields})"


class AlgebraDecl(_Builder):
    def __init__(
        self,
        name: str,
        generators: Optional[list] = None,
        differentials: Optional[dict] = None,
        truncate: Optional[int] = None,
    ):
        self.name = name
        self.generators = [] if generators is None else generators  # (name, degree, token)
        # name -> (ExprAst, token)
        self.differentials = {} if differentials is None else differentials
        self.truncate = truncate


class LieDecl(_Builder):
    def __init__(self, name: str, basis: Optional[list] = None, brackets: Optional[dict] = None):
        self.name = name
        self.basis = [] if basis is None else basis
        # (i, j) i<j -> dict k -> Fraction
        self.brackets = {} if brackets is None else brackets


class SourceDocument(_Builder):
    def __init__(
        self,
        text: str,
        algebra: Optional[AlgebraDecl] = None,
        lie: Optional[LieDecl] = None,
    ):
        self.text = text
        self.algebra = algebra
        self.lie = lie


class ParseResult(NamedTuple):
    document: Optional[SourceDocument]
    diagnostics: tuple

    @property
    def ok(self) -> bool:
        return self.document is not None and not self.diagnostics


def _tokenize_line(line: str, lineno: int) -> list:
    code = line.split("#", 1)[0]
    return [
        Token(m.group(0), lineno, m.start() + 1) for m in _TOKEN_RE.finditer(code)
    ]


class _LineParser:
    """Cursor over one line's tokens, reporting into a shared diagnostic list."""

    def __init__(self, tokens: list, lineno: int, diags: list):
        self.tokens = tokens
        self.pos = 0
        self.lineno = lineno
        self.diags = diags

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Optional[Token]:
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def error(self, code: str, message: str, tok: Optional[Token] = None) -> None:
        if tok is None:
            tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            line = self.lineno
            col = (last.column + len(last.text)) if last else 1
            self.diags.append(Diagnostic(code, message, line, col))
        else:
            self.diags.append(Diagnostic(code, message, tok.line, tok.column, tok.text))

    def expect_name(self, what: str) -> Optional[str]:
        tok = self.next()
        if tok is None or not _NAME_RE.match(tok.text):
            self.error("syntax", f"expected {what}", tok)
            return None
        return tok.text

    def expect_symbol(self, sym: str) -> bool:
        tok = self.next()
        if tok is None or tok.text != sym:
            self.error("syntax", f"expected {sym!r}", tok)
            return False
        return True

    def expect_int(self, what: str) -> Optional[int]:
        tok = self.next()
        if tok is None or not _INT_RE.match(tok.text):
            self.error("syntax", f"expected {what}", tok)
            return None
        return int(tok.text)

    def expect_end(self) -> None:
        if self.peek() is not None:
            self.error("syntax", "unexpected trailing input")

    # ---- expressions ----------------------------------------------------

    def parse_rational(self, first: Token) -> Optional[Fraction]:
        value = int(first.text)
        if self.peek() is not None and self.peek().text == "/":
            slash = self.next()
            den_tok = self.next()
            if den_tok is None or not _INT_RE.match(den_tok.text):
                self.error("bad-rational", "malformed rational literal", den_tok or slash)
                return None
            if int(den_tok.text) == 0:
                self.error("bad-rational", "zero denominator", den_tok)
                return None
            return Fraction(value, int(den_tok.text))
        return Fraction(value)

    def parse_expr(self) -> Optional[ExprAst]:
        first = self.peek()
        if first is None:
            self.error("syntax", "expected expression")
            return None
        if first.text == "0" and self.pos + 1 == len(self.tokens):
            self.next()
            return ExprAst(())
        terms = []
        sign = 1
        tok = self.peek()
        if tok is not None and tok.text == "-":
            self.next()
            sign = -1
        while True:
            term = self.parse_term(sign)
            if term is None:
                return None
            terms.append(term)
            tok = self.peek()
            if tok is None:
                return ExprAst(tuple(terms))
            if tok.text == "+":
                sign = 1
            elif tok.text == "-":
                sign = -1
            else:
                self.error("syntax", "expected '+' or '-' between terms", tok)
                return None
            self.next()

    def parse_term(self, sign: int) -> Optional[TermAst]:
        tok = self.next()
        if tok is None:
            self.error("syntax", "expected term")
            return None
        coeff = Fraction(sign)
        factors: list = []
        if _INT_RE.match(tok.text):
            rat = self.parse_rational(tok)
            if rat is None:
                return None
            coeff *= rat
        elif _NAME_RE.match(tok.text):
            factors.append(tok)
        else:
            self.error("syntax", "expected term", tok)
            return None
        while self.peek() is not None and self.peek().text == "*":
            self.next()
            name_tok = self.next()
            if name_tok is None or not _NAME_RE.match(name_tok.text):
                self.error("syntax", "expected generator name after '*'", name_tok)
                return None
            factors.append(name_tok)
        return TermAst(
            coeff,
            tuple(t.text for t in factors),
            tuple(factors),
            tok.line,
            tok.column,
        )


def parse(text: str) -> ParseResult:
    """Parse a document; returns the AST or position-accurate diagnostics."""
    diags: list = []
    doc = SourceDocument(text=text)
    declared: dict = {}
    lie_index: dict = {}
    bracketed: set = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, lineno)
        if not tokens:
            continue
        lp = _LineParser(tokens, lineno, diags)
        head = lp.next()
        word = head.text

        if word == "algebra":
            name = lp.expect_name("algebra name")
            lp.expect_end()
            if name is None:
                continue
            if doc.algebra is not None:
                lp.error("duplicate-algebra", "one algebra per file", head)
                continue
            doc.algebra = AlgebraDecl(name=name)

        elif word == "truncate":
            value = lp.expect_int("truncation degree")
            lp.expect_end()
            if doc.algebra is None:
                lp.error("syntax", "'truncate' before 'algebra' header", head)
            elif doc.algebra.truncate is not None:
                lp.error("syntax", "second truncate line", head)
            elif value is not None:
                if value < 1:
                    lp.error("bad-degree", "truncation must be >= 1", head)
                else:
                    doc.algebra.truncate = value

        elif word == "gen":
            if doc.algebra is None:
                lp.error("syntax", "'gen' before 'algebra' header", head)
                continue
            name_tok = lp.peek()
            name = lp.expect_name("generator name")
            ok = lp.expect_symbol(":")
            degree = lp.expect_int("degree") if ok else None
            lp.expect_end()
            if name is None or degree is None:
                continue
            if name in declared:
                lp.error("duplicate-generator", f"generator {name!r} already declared", name_tok)
                continue
            if degree < 1:
                lp.error("bad-degree", f"degree of {name!r} must be >= 1", name_tok)
                continue
            declared[name] = degree
            doc.algebra.generators.append((name, degree, name_tok))

        elif word == "d":
            if doc.algebra is None:
                lp.error("syntax", "'d' before 'algebra' header", head)
                continue
            name_tok = lp.peek()
            name = lp.expect_name("generator name")
            if name is None:
                continue
            if name not in declared:
                lp.error("unknown-generator", f"unknown generator {name!r}", name_tok)
                continue
            if not lp.expect_symbol("="):
                continue
            expr = lp.parse_expr()
            lp.expect_end()
            if expr is None:
                continue
            bad = False
            for term in expr.terms:
                for factor_tok in term.name_tokens:
                    if factor_tok.text not in declared:
                        message = f"unknown generator {factor_tok.text!r}"
                        lp.error("unknown-generator", message, factor_tok)
                        bad = True
            if bad:
                continue
            if name in doc.algebra.differentials:
                lp.error("duplicate-differential", f"second differential for {name!r}", name_tok)
                continue
            doc.algebra.differentials[name] = (expr, name_tok)

        elif word == "lie":
            name = lp.expect_name("lie block name")
            lp.expect_end()
            if name is None:
                continue
            if doc.lie is not None:
                lp.error("duplicate-algebra", "one lie block per file", head)
                continue
            doc.lie = LieDecl(name=name)

        elif word == "basis":
            if doc.lie is None:
                lp.error("syntax", "'basis' before 'lie' header", head)
                continue
            if doc.lie.basis:
                lp.error("syntax", "second basis line", head)
                continue
            while lp.peek() is not None:
                tok = lp.peek()
                bname = lp.expect_name("basis name")
                if bname is None:
                    break
                if bname in lie_index:
                    lp.error("duplicate-generator", f"basis name {bname!r} repeated", tok)
                    continue
                lie_index[bname] = len(doc.lie.basis)
                doc.lie.basis.append(bname)
            if not doc.lie.basis:
                lp.error("syntax", "empty basis line", head)

        elif word == "bracket":
            if doc.lie is None or not doc.lie.basis:
                lp.error("syntax", "'bracket' before 'basis' line", head)
                continue
            a_tok = lp.peek()
            a = lp.expect_name("basis name")
            b_tok = lp.peek()
            b = lp.expect_name("basis name")
            if a is None or b is None or not lp.expect_symbol("="):
                continue
            expr = lp.parse_expr()
            lp.expect_end()
            if expr is None:
                continue
            if a not in lie_index:
                lp.error("unknown-generator", f"unknown basis name {a!r}", a_tok)
                continue
            if b not in lie_index:
                lp.error("unknown-generator", f"unknown basis name {b!r}", b_tok)
                continue
            if a == b:
                lp.error("self-bracket", "bracket of a generator with itself", a_tok)
                continue
            value: dict = {}
            bad = False
            for term in expr.terms:
                if len(term.names) != 1 or term.names[0] not in lie_index:
                    diags.append(
                        Diagnostic(
                            "syntax",
                            "bracket value must be a linear combination of basis names",
                            term.line,
                            term.column,
                        )
                    )
                    bad = True
                    continue
                k = lie_index[term.names[0]]
                value[k] = value.get(k, Fraction(0)) + term.coefficient
            if bad:
                continue
            i, j = lie_index[a], lie_index[b]
            if i > j:
                i, j = j, i
                value = {k: -c for k, c in value.items()}
            if (i, j) in bracketed:
                lp.error("duplicate-bracket", f"bracket ({a}, {b}) already given", a_tok)
                continue
            bracketed.add((i, j))
            value = {k: c for k, c in value.items() if c}
            if value:
                doc.lie.brackets[(i, j)] = value

        else:
            lp.error("unknown-directive", f"unknown directive {word!r}", head)

    if doc.algebra is None and doc.lie is None and not diags:
        diags.append(Diagnostic("syntax", "no algebra or lie block found", 1, 1))
    if diags:
        return ParseResult(None, tuple(diags))
    return ParseResult(doc, ())


def _expr_to_element(sig: Signature, expr: ExprAst) -> Element:
    out = Element.zero(sig)
    for term in expr.terms:
        value = Element.unit(sig, term.coefficient)
        for name in term.names:
            value = value * Element.generator(sig, name)
        out = out + value
    return out


def to_cdga(document: SourceDocument) -> CDGA:
    """Build and fully validate the CDGA declared in a document.

    Raises DslValidationError carrying diagnostics for missing differentials,
    inhomogeneous values, an exponent too large for a monomial key, or a
    d-squared failure.
    """
    decl = document.algebra
    if decl is None:
        raise DslValidationError(
            [Diagnostic("syntax", "document has no algebra block", 1, 1)]
        )
    sig = Signature([(name, degree) for name, degree, _ in decl.generators])
    diags: list = []
    diffs = {}
    for name, degree, tok in decl.generators:
        if name not in decl.differentials:
            diags.append(
                Diagnostic(
                    "missing-differential",
                    f"no 'd {name} = ...' line (write 'd {name} = 0' for closed generators)",
                    tok.line,
                    tok.column,
                    name,
                )
            )
            continue
        expr, dtok = decl.differentials[name]
        value = _expr_to_element(sig, expr)
        if not value.is_zero() and value.homogeneous_degree() != degree + 1:
            diags.append(
                Diagnostic(
                    "inhomogeneous-differential",
                    f"d({name}) must be homogeneous of degree {degree + 1}",
                    dtok.line,
                    dtok.column,
                    name,
                )
            )
            continue
        diffs[name] = value
    if diags:
        raise DslValidationError(diags)
    try:
        return CDGA(sig, diffs, truncation=decl.truncate, name=decl.name)
    except DifferentialError as err:
        if err.violation is None:
            diagnostic = Diagnostic("differential", str(err), 1, 1)
        else:
            diagnostic = Diagnostic("d-squared", f"d^2 != 0: {err.violation}", 1, 1)
        raise DslValidationError([diagnostic]) from err


def to_lie(document: SourceDocument) -> LiePresentation:
    decl = document.lie
    if decl is None:
        raise DslValidationError(
            [Diagnostic("syntax", "document has no lie block", 1, 1)]
        )
    try:
        return LiePresentation(decl.basis, decl.brackets, name=decl.name)
    except JacobiError as err:
        raise DslValidationError([Diagnostic("jacobi", str(err), 1, 1)]) from err


def parse_element(sig: Signature, text: str) -> Element:
    """Parse a standalone expression over an existing signature."""
    diags: list = []
    tokens = _tokenize_line(text, 1)
    lp = _LineParser(tokens, 1, diags)
    expr = lp.parse_expr()
    if expr is not None:
        lp.expect_end()
    if expr is not None and not diags:
        for term in expr.terms:
            for factor_tok in term.name_tokens:
                if factor_tok.text not in sig:
                    message = f"unknown generator {factor_tok.text!r}"
                    lp.error("unknown-generator", message, factor_tok)
    if diags or expr is None:
        raise DslValidationError(diags or [Diagnostic("syntax", "empty expression", 1, 1)])
    return _expr_to_element(sig, expr)


# ---------------------------------------------------------------------------
# serialization


def _render_coeff_terms(parts: list, omit_one: bool = True) -> str:
    """Join (coefficient, body) pairs with +/- separators; a magnitude of 1
    is omitted unless ``omit_one`` is False (bracket values print "1 * X")."""
    rendered = []
    for coeff, body in parts:
        mag = abs(coeff)
        if body and mag == 1 and omit_one:
            piece = body
        elif body:
            piece = f"{mag} * {body}"
        else:
            piece = str(mag)
        rendered.append((coeff < 0, piece))
    negative, piece = rendered[0]
    out = ("-" if negative else "") + piece
    for negative, piece in rendered[1:]:
        out += (" - " if negative else " + ") + piece
    return out


def render_element(elem: Element) -> str:
    """Deterministic expression text for an element; '0' for zero."""
    if elem.is_zero():
        return "0"
    parts = []
    for mono, coeff in elem.sorted_terms():
        names = []
        for g, e in mono.factors():
            names.extend([g.name] * e)
        parts.append((coeff, "*".join(names)))
    return _render_coeff_terms(parts)


def _serialize_cdga(cdga: CDGA) -> str:
    lines = [f"algebra {cdga.name}"]
    if cdga.truncation is not None:
        lines.append(f"truncate {cdga.truncation}")
    for g in cdga.signature.generators:
        lines.append(f"gen {g.name} : {g.degree}")
    for g in cdga.signature.generators:
        lines.append(f"d {g.name} = {render_element(cdga.d_of(g.name))}")
    return "\n".join(lines) + "\n"


def _serialize_lie(L: LiePresentation) -> str:
    lines = [f"lie {L.name}", "basis " + " ".join(L.basis)]
    for (i, j) in sorted(L.brackets):
        entry = L.brackets[(i, j)]
        # written as [X_j, X_i] with j > i, matching the matrix bracket tables
        parts = [(-entry[k], L.basis[k]) for k in sorted(entry)]
        body = _render_coeff_terms(parts, omit_one=False)
        lines.append(f"bracket {L.basis[j]} {L.basis[i]} = {body}")
    return "\n".join(lines) + "\n"


def serialize(obj) -> str:
    """Deterministic text form; parse(serialize(x)) reconstructs x."""
    if isinstance(obj, CDGA):
        return _serialize_cdga(obj)
    if isinstance(obj, LiePresentation):
        return _serialize_lie(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")
