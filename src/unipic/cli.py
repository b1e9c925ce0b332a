"""Command line front end: parsing, dispatch, deterministic serialization.

Field specs follow the grammar GF(p)(v1, v2, ...); equations are written
in the shape y^(p^n) = b + c0*x + c1*x^p + ... with coefficient
expressions over the field generators.  All output is byte-deterministic
for fixed inputs.  Exit codes: 0 success, 1 failing example catalogue,
2 parse or validation errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from .catalogue import run_catalogue
from .field import FieldDesc, RatFunc, basis_cap, is_prime
from .forms import (
    FormPresentation,
    NotSeparable,
    NValue,
    Torsor,
    find_rational_point,
    local_obstruction,
    make_form,
    make_torsor,
)
from .picard import (
    InvariantReport,
    NotIrreducible,
    ReportOptions,
    invariant_report,
    pic_p1_complement,
)
from .skew import SkewPoly
from .wproj import TrivialTau, cech_h1_dim, genus_from_formula, hilbert_dim, naive_completion


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class NotPrime(ParseError):
    pass


class NotAdditive(ParseError):
    pass


class BadExponent(ParseError):
    pass


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


# -- field specs --------------------------------------------------------


def parse_field_spec(s: str) -> FieldDesc:
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


# -- coefficient expressions --------------------------------------------


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


# -- equations ----------------------------------------------------------


@dataclass(frozen=True)
class EquationAST:
    field: FieldDesc
    n: int
    coeffs: tuple[tuple[int, RatFunc], ...]
    b: RatFunc

    def build(self) -> Union[FormPresentation, Torsor]:
        m = max(i for i, _ in self.coeffs)
        dense = [self.field.zero()] * (m + 1)
        for i, c in self.coeffs:
            dense[i] = c
        G = make_form(self.n, SkewPoly(self.field, dense))
        if self.b:
            return make_torsor(G, self.b)
        return G


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


def parse_form_equation(s: str, field: FieldDesc) -> EquationAST:
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


# -- serialization ------------------------------------------------------


def _nv(v: NValue) -> dict:
    return {"value": v.value, "kind": "exact" if v.is_exact else "bound"}


def report_to_dict(rep: InvariantReport) -> dict:
    seq = rep.exact_seq
    point = None
    if rep.point is not None:
        point = {"x": str(rep.point[0]), "y": str(rep.point[1])}
    genus_entry = _nv(rep.genus)
    if rep.genus_oracle is not None:
        genus_entry = dict(genus_entry)
        genus_entry["oracle"] = {
            "value": rep.genus_oracle[0],
            "stabilized": rep.genus_oracle[1],
        }
    return {
        "field": str(rep.target.field),
        "equation": rep.target.equation_str(),
        "n": _nv(rep.n),
        "n_prime": _nv(rep.n_prime),
        "r": _nv(rep.r),
        "m_X": _nv(rep.m_X),
        "splitting_degree": rep.splitting_degree,
        "genus": genus_entry,
        "torsion_bound": {
            "value": rep.torsion_bound,
            "kind": "exact" if rep.n.is_exact else "bound",
        },
        "exact_sequence": {
            "r": _nv(seq.r),
            "m_X": _nv(seq.m_X),
            "pic0_dim": _nv(seq.pic0_dim),
            "quotient": seq.quotient_desc,
            "assembled_group": rep.pic_group,
            "point": point,
        },
        "assertions": [[stmt, tag] for stmt, tag in rep.assertions],
        "flags": list(rep.flags),
    }


def render_report_text(rep: InvariantReport) -> str:
    lines = []
    kind = "torsor" if rep.is_torsor else "form"
    lines.append(f"{kind}: {rep.target.equation_str()} over {rep.target.field}")
    lines.append(f"n(X)   = {rep.n}")
    lines.append(f"n'(X)  = {rep.n_prime}")
    lines.append(f"r(X)   = {rep.r}")
    lines.append(f"m(X)   = {rep.m_X}")
    lines.append(f"[k':k] = {rep.splitting_degree}")
    lines.append(f"genus  = {rep.genus}")
    if rep.genus_oracle is not None:
        val, stab = rep.genus_oracle
        lines.append(f"genus oracle = {val} (stabilized: {str(stab).lower()})")
    lines.append(f"Pic(X) is p^n-torsion with p^n = {rep.torsion_bound}")
    lines.append(
        "exact sequence: 0 -> Pic0(C) -> Pic(X) -> M -> 0 with M = "
        + rep.exact_seq.quotient_desc
    )
    if rep.pic_group is not None:
        lines.append(f"assembled: Pic(X) = {rep.pic_group}")
    if rep.pic_nontrivial is not None:
        state, why = rep.pic_nontrivial
        lines.append(f"Pic(X) {'nontrivial' if state else 'trivial'}: {why}")
    if rep.point is not None:
        lines.append(f"point: x = {rep.point[0]}, y = {rep.point[1]}")
    lines.append("assertions:")
    for stmt, tag in rep.assertions:
        lines.append(f"  - [{tag}] {stmt}")
    if rep.flags:
        lines.append("flags: " + ", ".join(rep.flags))
    return "\n".join(lines)


# -- subcommands --------------------------------------------------------


def _build_target(args) -> Union[FormPresentation, Torsor]:
    return parse_form_equation(args.eq, parse_field_spec(args.field)).build()


def _cmd_analyze(args) -> int:
    X = _build_target(args)
    opts = ReportOptions(
        search_bound=args.search_bound,
        run_oracle=args.oracle,
        pole_bound=args.pole_bound,
    )
    rep = invariant_report(X, opts)
    if args.json:
        print(json.dumps(report_to_dict(rep), indent=2, sort_keys=True))
    else:
        print(render_report_text(rep))
    return 0


def _cmd_genus(args) -> int:
    X = _build_target(args)
    try:
        C = naive_completion(X)
    except TrivialTau:
        print("genus = 0 (completion is the projective line)")
        return 0
    # the oracle can reject its pole bound, so it runs before any output
    oracle = cech_h1_dim(C, args.pole_bound) if args.oracle else None
    print(f"genus = {int(genus_from_formula(C))}")
    if oracle:
        print(f"cech h1 = {oracle[0]} (stabilized: {str(oracle[1]).lower()})")
    return 0


def _cmd_hilbert(args) -> int:
    print(hilbert_dim(args.a, args.delta, args.mode))
    return 0


def _cmd_points(args) -> int:
    X = _build_target(args)
    obstructed = args.max_deg >= 0 and local_obstruction(X)  # a negative bound still raises
    pt = None if obstructed else find_rational_point(X, args.max_deg)
    if pt is None:
        print(f"no point found (bound {args.max_deg})")
    else:
        print(f"point: x = {pt[0]}, y = {pt[1]}")
    return 0


def _cmd_p1_complement(args) -> int:
    field = parse_field_spec(args.field)
    cur = _Cursor(_tokenize(args.c))
    c = _parse_expr(cur, field)
    cur.expect("end")
    data = pic_p1_complement(args.e, c)
    print(f"Pic = {data.pic_structure}")
    print(f"n(X) = {data.n.value} (exact), n'(X) = {data.n_prime.value}, r(X) = {data.r.value}")
    print(f"genus = {data.genus}")
    for note in data.notes:
        print(f"note: {note}")
    return 0


def _cmd_paper_examples(args) -> int:
    results = run_catalogue()
    failures = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        if not r.passed:
            failures += 1
        print(f"{mark} {r.name}: {r.details}")
    print(f"{len(results) - failures}/{len(results)} examples pass")
    return 1 if failures else 0


@functools.cache  # one parser per process: parsing leaves it unchanged
def _make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="unipic",
        description="Invariants, completions and Picard data of forms of the "
        "affine line over rational function fields of positive characteristic.",
        epilog="The environment variable UNIPIC_BASIS_CAP overrides the dense "
        "root-tower basis cap (default 4096).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_target(sp):
        sp.add_argument("--field", required=True, help='field spec, e.g. "GF(2)(t)"')
        sp.add_argument("--eq", required=True, help='equation, e.g. "y^2 = x + t*x^2"')

    sp = sub.add_parser("analyze", help="full invariant report")
    add_target(sp)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--search-bound", type=int, default=2)
    sp.add_argument("--oracle", action="store_true", help="also run the Cech genus oracle")
    sp.add_argument("--pole-bound", type=int, default=None)
    sp.set_defaults(fn=_cmd_analyze)

    sp = sub.add_parser("genus", help="arithmetic genus of the naive completion")
    add_target(sp)
    sp.add_argument("--oracle", action="store_true")
    sp.add_argument("--pole-bound", type=int, default=None)
    sp.set_defaults(fn=_cmd_genus)

    sp = sub.add_parser("hilbert", help="graded piece dimension in P(1,1,a)")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--delta", type=int, required=True)
    sp.add_argument("--mode", choices=("formula", "count"), default="formula")
    sp.set_defaults(fn=_cmd_hilbert)

    sp = sub.add_parser("points", help="bounded rational point search")
    add_target(sp)
    sp.add_argument("--max-deg", type=int, required=True)
    sp.set_defaults(fn=_cmd_points)

    sp = sub.add_parser("p1-complement", help="Pic of P^1 minus an inseparable point")
    sp.add_argument("--field", required=True)
    sp.add_argument("--e", type=int, required=True)
    sp.add_argument("--c", required=True, help="defining constant, not a p-th power")
    sp.set_defaults(fn=_cmd_p1_complement)

    sp = sub.add_parser("paper-examples", help="run the worked-example catalogue")
    sp.set_defaults(fn=_cmd_paper_examples)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = _make_parser()
    args = ap.parse_args(argv)
    try:
        basis_cap()  # a malformed UNIPIC_BASIS_CAP fails every subcommand alike
        return args.fn(args)
    except (ParseError, NotSeparable, NotIrreducible, TrivialTau, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
