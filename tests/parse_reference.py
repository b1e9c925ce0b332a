"""The RatFunc-per-atom parser: the reference for `unipic.cli`'s equation parser.

Each atom becomes a reduced `RatFunc` and every operator works on reduced
values, so a term with k atoms takes up to k gcds.  The tokens are
NamedTuples read through a cursor.  `parse_form_equation_reference(s, k)`
should equal `cli.parse_form_equation(s, k)`, `parse_value_reference` the
`p1-complement --c` parse and `parse_field_spec_reference` the field spec
parse, or both should raise the same exception class with the same
message and position.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from unipic import FieldDesc, NotSeparable, RatFunc
from unipic.field import is_prime
from unipic.cli import BadExponent, EquationAST, NotAdditive, NotPrime, ParseError

# -- tokenizer ----------------------------------------------------------

_SYMBOLS = set("()+-*/^=,")


class _Tok(NamedTuple):
    kind: str  # "int", "name", or the symbol itself
    text: str
    pos: int


def _tokenize(s: str) -> list[_Tok]:
    out = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            out.append(_Tok(ch, ch, i))
            i += 1
            continue
        if "0" <= ch <= "9":  # ASCII only: str.isdigit() also accepts '²'
            j = i
            while j < len(s) and "0" <= s[j] <= "9":
                j += 1
            out.append(_Tok("int", s[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(s) and (s[j].isalnum() or s[j] == "_"):
                j += 1
            out.append(_Tok("name", s[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(_Tok("end", "", len(s)))
    return out


class _Cursor:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> _Tok:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text!r}", t.pos)
        return self.next()




# -- coefficient expressions --------------------------------------------


def parse_field_spec_reference(s: str) -> FieldDesc:
    """Grammar: "GF(" prime ")" ( "(" name ("," name)* ")" )?"""
    cur = _Cursor(_tokenize(s))
    head = cur.expect("name")
    if head.text != "GF":
        raise ParseError("field specs start with GF", head.pos)
    cur.expect("(")
    ptok = cur.expect("int")
    p = int(ptok.text)
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime", ptok.pos)
    cur.expect(")")
    names: tuple[str, ...] = ()
    if cur.peek().kind == "(":
        cur.next()
        while True:
            name = cur.expect("name")
            if name.text in ("x", "y"):
                raise ParseError(f"{name.text!r} is a curve variable, not a field variable", name.pos)
            if name.text in names:
                raise ParseError(f"duplicate variable name {name.text!r}", name.pos)
            names = names + (name.text,)
            t = cur.next()
            if t.kind == ")":
                break
            if t.kind != ",":
                raise ParseError(f"expected ',' or ')', found {t.text!r}", t.pos)
    cur.expect("end")
    return FieldDesc(p, names)


def _parse_expr(cur: _Cursor, field: FieldDesc) -> RatFunc:
    v = _parse_product(cur, field)
    while cur.peek().kind in ("+", "-"):
        op = cur.next().kind
        w = _parse_product(cur, field)
        v = v + w if op == "+" else v - w
    return v


def _parse_product(cur: _Cursor, field: FieldDesc) -> RatFunc:
    v = _parse_unary(cur, field)
    while cur.peek().kind in ("*", "/"):
        op = cur.next()
        w = _parse_unary(cur, field)
        if op.kind == "/":
            if not w:
                raise ParseError("division by zero constant", op.pos)
            v = v / w
        else:
            v = v * w
    return v


def _parse_unary(cur: _Cursor, field: FieldDesc) -> RatFunc:
    if cur.peek().kind == "-":
        cur.next()
        return -_parse_unary(cur, field)
    return _parse_atom(cur, field)


def _parse_atom(cur: _Cursor, field: FieldDesc) -> RatFunc:
    t = cur.next()
    if t.kind == "int":
        base = field.const(int(t.text))
    elif t.kind == "name":
        if t.text not in field.vars:
            raise ParseError(f"unknown variable {t.text!r}", t.pos)
        base = field.var(t.text)
    elif t.kind == "(":
        base = _parse_expr(cur, field)
        cur.expect(")")
    else:
        raise ParseError(f"expected a value, found {t.text!r}", t.pos)
    if cur.peek().kind == "^":
        cur.next()
        etok = cur.expect("int")
        e = int(etok.text)
        if e < 0:
            raise BadExponent("negative exponent", etok.pos)
        base = base ** e
    return base




def _p_log(value: int, p: int, tok: _Tok, exc: type) -> int:
    if value < 1:
        raise exc(f"exponent {value} must be a positive power of {p}", tok.pos)
    e = 0
    while value % p == 0:
        value //= p
        e += 1
    if value != 1:
        raise exc(f"exponent {tok.text} is not a power of {p}", tok.pos)
    return e


def parse_form_equation_reference(s: str, field: FieldDesc) -> EquationAST:
    """Parse y^(p^n) = sum of terms c*x^(p^i) plus constants.

    The right side must be additive: every x-exponent a power of p, no y.
    Integer coefficients reduce mod p; constants fold into the translation
    term.  The linear term in x must be present with nonzero coefficient.
    """
    p = field.p
    cur = _Cursor(_tokenize(s))
    lhs = cur.expect("name")
    if lhs.text != "y":
        raise ParseError("left side must be y or a power of y", lhs.pos)
    n = 0
    if cur.peek().kind == "^":
        cur.next()
        etok = cur.expect("int")
        n = _p_log(int(etok.text), p, etok, BadExponent)
    cur.expect("=")
    coeffs: dict[int, RatFunc] = {}
    b = field.zero()
    negate = False
    while True:
        coeff, xexp = _parse_term(cur, field)
        if negate:
            coeff = -coeff
        if xexp is None:
            b = b + coeff
        else:
            coeffs[xexp] = coeffs[xexp] + coeff if xexp in coeffs else coeff
        t = cur.next()
        if t.kind == "end":
            break
        if t.kind == "+":
            negate = False
        elif t.kind == "-":
            negate = True
        else:
            raise ParseError(f"expected '+', '-' or end of input, found {t.text!r}", t.pos)
    coeffs = {i: c for i, c in coeffs.items() if c}
    if 0 not in coeffs:
        raise NotSeparable("the equation needs a nonzero linear term in x")
    return EquationAST(field, n, tuple(sorted(coeffs.items())), b)


def _parse_term(cur: _Cursor, field: FieldDesc) -> tuple[RatFunc, Optional[int]]:
    """One additive term: product of factors, at most one x-power."""
    p = field.p
    coeff = field.one()
    xexp: Optional[int] = None
    while cur.peek().kind == "-":
        cur.next()
        coeff = -coeff
    expect_factor = True
    while expect_factor:
        t = cur.peek()
        if t.kind == "name" and t.text == "y":
            raise NotAdditive("y cannot appear on the right side", t.pos)
        if t.kind == "name" and t.text == "x":
            cur.next()
            if xexp is not None:
                raise NotAdditive("only one x-power per term", t.pos)
            if cur.peek().kind == "^":
                cur.next()
                etok = cur.expect("int")
                xexp = _p_log(int(etok.text), p, etok, NotAdditive)
            else:
                xexp = 0
        elif t.kind in ("int", "name", "("):
            coeff = coeff * _parse_unary(cur, field)
        else:
            raise ParseError(f"expected a term, found {t.text!r}", t.pos)
        expect_factor = False
        while True:
            nxt = cur.peek()
            if nxt.kind == "*":
                cur.next()
                expect_factor = True
                break
            if nxt.kind == "/":
                op = cur.next()
                nt = cur.peek()
                if nt.kind == "name" and nt.text in ("x", "y"):
                    raise NotAdditive("curve variables cannot appear in denominators", op.pos)
                w = _parse_unary(cur, field)
                if not w:
                    raise ParseError("division by zero constant", op.pos)
                coeff = coeff / w
                continue
            break
    return coeff, xexp


def parse_value_reference(s: str, field: FieldDesc) -> RatFunc:
    """One coefficient expression, as `p1-complement --c` reads it."""
    cur = _Cursor(_tokenize(s))
    c = _parse_expr(cur, field)
    cur.expect("end")
    return c
