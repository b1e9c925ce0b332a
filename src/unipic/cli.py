"""Command line front end: parsing, dispatch, deterministic serialization.

Field specs follow the grammar GF(p)(v1, v2, ...); equations are written
in the shape y^(p^n) = b + c0*x + c1*x^p + ... with coefficient
expressions over the field generators.  All output is byte-deterministic
for fixed inputs.  Exit codes: 0 success, 1 failing example catalogue,
2 parse or validation errors, and 141 (128 + SIGPIPE, as a shell reports
a writer killed by a closed pipe) when the reader of stdout stops early.
A well-formed `analyze` argv is read straight into the Namespace argparse
would build; argparse reads every other argv and words every message.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from typing import NamedTuple, Optional, Union

from .field import _SHARED, FieldDesc, MPoly, RatFunc, _add_terms, _mul_terms, _pow_terms, is_prime
from .forms import (
    FormPresentation,
    NotSeparable,
    Torsor,
    find_rational_point,
    local_obstruction,
    make_form,
)
from .picard import InvariantReport, invariant_report, pic_p1_complement
from .wproj import TrivialTau, cech_h1_dim, check_pole_bound, genus_from_formula, hilbert_dim, naive_completion


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

# one token per match, after any whitespace: ASCII digits (str.isdigit also
# takes '²'), a run of \w, a symbol, or any other character.  In str patterns
# \s is str.isspace and \w is str.isalnum or '_'; a run of \w is a name
# only when it starts with str.isalpha or '_'.
_TOKEN = re.compile(r"\s*(?:([0-9]+)|(\w+)|([()+\-*/^=,])|(\S))")


def _tokenize(s: str) -> list[tuple[str, str, int]]:
    """(kind, text, pos) triples, kind "int", "name", "end" or the symbol."""
    out = []
    for m in _TOKEN.finditer(s):
        k = m.lastindex
        text = m[k]
        if k == 4 or k == 2 and not (text[0].isalpha() or text[0] == "_"):
            raise ParseError(f"unexpected character {text[0]!r}", m.start(k))
        out.append((text if k == 3 else "int" if k == 1 else "name", text, m.start(k)))
    out.append(("end", "", len(s)))
    return out


class _Reader:
    """Recursive descent over one string's tokens, on unreduced (num, den)
    pairs of `MPoly` term dicts; the caller makes one `RatFunc` per additive
    term, and its constructor takes the one gcd.  The origin, one and unit
    exponents are the field's own, built once per field."""

    def __init__(self, s: str, field: Optional[FieldDesc] = None):
        self.toks, self.i = _tokenize(s), 0
        if field is not None:
            shared = _SHARED[field]
            self.p, self.r, self.origin, self.units = field.p, field.r, shared.origin, shared.units
            self.one = shared.one.num.terms

    def take(self, kind: str) -> tuple[str, str, int]:
        tok = self.toks[self.i]
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.i += 1
        return tok

    def expr(self) -> tuple[dict, dict]:
        num, den, _ = self.product(False)
        p = self.p
        while (op := self.toks[self.i][0]) in ("+", "-"):
            self.i += 1
            c, d, _ = self.product(op == "-")
            if not num:
                num, den = c, d
            elif d == den:
                num = _add_terms(num, c, p)
            elif c:
                num = _add_terms(_mul_terms(num, d, p), _mul_terms(c, den, p), p)
                den = _mul_terms(den, d, p)
        return num, den

    def product(self, negate: bool, top: bool = False) -> tuple[dict, dict, Optional[int]]:
        """Factors joined by '*' and '/'; at the top, one additive term, which
        may hold one power x^(p^i) of the curve variable (returned as i)."""
        toks, p, one = self.toks, self.p, self.one
        num, den, xexp, op, op_pos = one, one, None, None, 0
        while True:
            kind, text, pos = toks[self.i]
            term = top and op != "/"  # a factor where the curve variable x may stand
            if top and not term and text in ("x", "y"):
                raise NotAdditive("curve variables cannot appear in denominators", op_pos)
            if op is None or not term:
                while kind == "-":  # unary minus chains
                    self.i += 1
                    negate = not negate
                    kind, text, pos = toks[self.i]
            if term and text == "y":
                raise NotAdditive("y cannot appear on the right side", pos)
            if term and text == "x":
                self.i += 1
                if xexp is not None:
                    raise NotAdditive("only one x-power per term", pos)
                xexp = 0
                if toks[self.i][0] == "^":
                    self.i += 1
                    xexp = _p_log(self.take("int"), p, NotAdditive)
                a = b = one
            elif term and kind not in ("int", "name", "("):
                raise ParseError(f"expected a term, found {text!r}", pos)
            else:
                a, b = self.atom()
            if op == "/":
                if not a:
                    raise ParseError("division by zero constant", op_pos)
                a, b = b, a
            # the first factor is taken as is, not times one: no dict here is changed in place
            num = a if num is one else num if a is one else _mul_terms(num, a, p)
            den = b if den is one else den if b is one else _mul_terms(den, b, p)
            op, _, op_pos = toks[self.i]
            if op not in ("*", "/"):
                if negate:
                    num = {e: p - c for e, c in num.items()}
                return num, den, xexp
            self.i += 1

    def atom(self) -> tuple[dict, dict]:
        kind, text, pos = self.toks[self.i]
        self.i += 1
        one = self.one
        if kind == "int":
            c = int(text) % self.p
            num, den = {self.origin: c} if c else {}, one
        elif kind == "name":
            e = self.units.get(text)
            if e is None:
                raise ParseError(f"unknown variable {text!r}", pos)
            num, den = {e: 1}, one
        elif kind == "(":
            try:
                num, den = self.expr()
            except RecursionError:  # raised again one level up if no stack is left here
                raise ParseError("parentheses nested too deeply", pos) from None
            self.take(")")
        else:
            raise ParseError(f"expected a value, found {text!r}", pos)
        if self.toks[self.i][0] == "^":
            self.i += 1
            e = int(self.take("int")[1])
            num = _pow_terms(num, e, self.p, self.r)
            if den is not one:
                den = _pow_terms(den, e, self.p, self.r)
        return num, den


# -- field specs --------------------------------------------------------


def parse_field_spec(s: str) -> FieldDesc:
    """Grammar: "GF(" prime ")" ( "(" name ("," name)* ")" )?"""
    rd = _Reader(s)
    head = rd.take("name")
    if head[1] != "GF":
        raise ParseError("field specs start with GF", head[2])
    rd.take("(")
    _, ptext, ppos = rd.take("int")
    p = int(ptext)
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime", ppos)
    rd.take(")")
    names: tuple[str, ...] = ()
    if rd.toks[rd.i][0] == "(":
        sep = ","
        while sep == ",":
            rd.i += 1
            _, name, pos = rd.take("name")
            if name in ("x", "y"):
                raise ParseError(f"{name!r} is a curve variable, not a field variable", pos)
            if name in names:
                raise ParseError(f"duplicate variable name {name!r}", pos)
            names = names + (name,)
            sep, text, pos = rd.toks[rd.i]
        if sep != ")":
            raise ParseError(f"expected ',' or ')', found {text!r}", pos)
        rd.i += 1
    rd.take("end")
    return FieldDesc(p, names)


# -- equations ----------------------------------------------------------


class EquationAST(NamedTuple):
    field: FieldDesc
    n: int
    coeffs: tuple[tuple[int, RatFunc], ...]
    b: RatFunc

    def build(self) -> Union[FormPresentation, Torsor]:
        cs = dict(self.coeffs)
        G = make_form(self.n, [cs[i] if i in cs else self.field.zero() for i in range(max(cs) + 1)])
        if self.b:
            return Torsor(G, self.b)
        return G


def _p_log(tok: tuple[str, str, int], p: int, exc: type) -> int:
    _, text, pos = tok
    value = int(text)
    if value < 1:
        raise exc(f"exponent {value} must be a positive power of {p}", pos)
    e = 0
    while value % p == 0:
        value //= p
        e += 1
    if value != 1:
        raise exc(f"exponent {text} is not a power of {p}", pos)
    return e


def _parse_value(s: str, field: FieldDesc) -> RatFunc:
    """One coefficient expression in the field's variables."""
    rd = _Reader(s, field)
    num, den = rd.expr()
    rd.take("end")
    return RatFunc(MPoly(field, num), MPoly(field, den))


def parse_form_equation(s: str, field: FieldDesc) -> EquationAST:
    """Parse y^(p^n) = sum of terms c*x^(p^i) plus constants.

    The right side must be additive: every x-exponent a power of p, no y.
    Integer coefficients reduce mod p; constants fold into the translation
    term.  The linear term in x must be present with nonzero coefficient.
    """
    rd = _Reader(s, field)
    lhs = rd.take("name")
    if lhs[1] != "y":
        raise ParseError("left side must be y or a power of y", lhs[2])
    n = 0
    if rd.toks[rd.i][0] == "^":
        rd.i += 1
        n = _p_log(rd.take("int"), field.p, BadExponent)
    rd.take("=")
    coeffs: dict[int, RatFunc] = {}
    b = field.zero()
    negate = False
    while True:
        num, den, xexp = rd.product(negate, top=True)
        coeff = RatFunc(MPoly(field, num), MPoly(field, den))
        if xexp is None:
            b = b + coeff
        else:
            coeffs[xexp] = coeffs[xexp] + coeff if xexp in coeffs else coeff
        kind, text, pos = rd.toks[rd.i]
        rd.i += 1
        if kind == "end":
            break
        if kind not in ("+", "-"):
            raise ParseError(f"expected '+', '-' or end of input, found {text!r}", pos)
        negate = kind == "-"
    coeffs = {i: c for i, c in coeffs.items() if c}
    if 0 not in coeffs:
        raise NotSeparable("the equation needs a nonzero linear term in x")
    return EquationAST(field, n, tuple(sorted(coeffs.items())), b)


# -- serialization ------------------------------------------------------


_quote = json.encoder.encode_basestring_ascii  # bound here: a trace may swap cli.json


def _nv_json(exact: bool, value: int, pad: str, extra: str = "") -> str:
    """{"kind", "value"} and `extra` lines, as json.dumps(indent=2) writes them at depth pad."""
    kind = "exact" if exact else "bound"
    return f'{{\n{pad}  "kind": "{kind}",{extra}\n{pad}  "value": {value}\n{pad}}}'


def render_report_json(rep: InvariantReport) -> str:
    """The --json document, written in one pass in the layout and key order
    of json.dumps(report_to_dict(rep), indent=2, sort_keys=True)."""
    q = _quote
    point = "null"
    if rep.point is not None:
        x, y = rep.point
        point = f'{{\n      "x": {q(str(x))},\n      "y": {q(str(y))}\n    }}'
    oracle = ""
    if rep.genus_oracle is not None:
        value, stable = rep.genus_oracle
        oracle = (f'\n    "oracle": {{\n      "stabilized": {str(stable).lower()},'
                  f'\n      "value": {value}\n    }},')
    assertions = ",".join(f"\n    [\n      {q(stmt)},\n      {q(tag)}\n    ]" for stmt, tag in rep.assertions)
    flags = ",".join(f"\n    {q(flag)}" for flag in rep.flags)
    assertions, flags = (f"[{items}\n  ]" if items else "[]" for items in (assertions, flags))
    n, m_X, r, genus = rep.n, rep.m_X, rep.r, rep.genus
    return f"""{{
  "assertions": {assertions},
  "equation": {q(str(rep.target))},
  "exact_sequence": {{
    "assembled_group": {"null" if rep.pic_group is None else q(rep.pic_group)},
    "m_X": {_nv_json(m_X.is_exact, m_X.value, "    ")},
    "pic0_dim": {_nv_json(genus.is_exact, genus.value, "    ")},
    "point": {point},
    "quotient": {q(rep.quotient_desc)},
    "r": {_nv_json(r.is_exact, r.value, "    ")}
  }},
  "field": {q(str(rep.target.field))},
  "flags": {flags},
  "genus": {_nv_json(genus.is_exact, genus.value, "  ", oracle)},
  "m_X": {_nv_json(m_X.is_exact, m_X.value, "  ")},
  "n": {_nv_json(n.is_exact, n.value, "  ")},
  "n_prime": {_nv_json(rep.n_prime.is_exact, rep.n_prime.value, "  ")},
  "r": {_nv_json(r.is_exact, r.value, "  ")},
  "splitting_degree": {rep.splitting_degree},
  "torsion_bound": {_nv_json(n.is_exact, rep.torsion_bound, "  ")}
}}"""


def report_to_dict(rep: InvariantReport) -> dict:
    """The --json document as a dict; its schema is the writer's."""
    return json.loads(render_report_json(rep))


def render_report_text(rep: InvariantReport) -> str:
    lines = []
    kind = "torsor" if rep.is_torsor else "form"
    lines.append(f"{kind}: {rep.target} over {rep.target.field}")
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
    lines.append(f"exact sequence: 0 -> Pic0(C) -> Pic(X) -> M -> 0 with M = {rep.quotient_desc}")
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
    rep = invariant_report(_build_target(args), search_bound=args.search_bound,
                           oracle=args.oracle, pole_bound=args.pole_bound)
    print(render_report_json(rep) if args.json else render_report_text(rep))
    return 0


def _cmd_genus(args) -> int:
    check_pole_bound(args.pole_bound, args.oracle)  # a projective line never reads it
    X = _build_target(args)
    try:
        C = naive_completion(X)
    except TrivialTau:
        print("genus = 0 (completion is the projective line)")
        return 0
    oracle = cech_h1_dim(C, args.pole_bound) if args.oracle else None
    print(f"genus = {genus_from_formula(C)}")
    if oracle:
        print(f"cech h1 = {oracle[0]} (stabilized: {str(oracle[1]).lower()})")
    return 0


def _cmd_hilbert(args) -> int:
    print(hilbert_dim(args.a, args.delta))
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
    data = pic_p1_complement(args.e, _parse_value(args.c, parse_field_spec(args.field)))
    print(f"Pic = {data.pic_structure}")
    print(f"n(X) = {data.n.value} (exact), n'(X) = {data.n_prime.value}, r(X) = {data.r.value}")
    print(f"genus = {data.genus}")
    for note in data.notes:
        print(f"note: {note}")
    return 0


def _cmd_paper_examples(args) -> int:
    from . import catalogue  # loaded on demand: no analyze call reads it

    results = catalogue.run_catalogue()
    failures = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        if not r.passed:
            failures += 1
        print(f"{mark} {r.name}: {r.details}")
    print(f"{len(results) - failures}/{len(results)} examples pass")
    return 1 if failures else 0


# analyze's options as its parser declares them, flag -> (dest, type), no
# type for a store_true flag; a test holds both tables equal to the parser's
_ANALYZE_FLAGS = {"--field": ("field", str), "--eq": ("eq", str), "--json": ("json", None),
                  "--search-bound": ("search_bound", int), "--oracle": ("oracle", None),
                  "--pole-bound": ("pole_bound", int)}
_ANALYZE_DEFAULTS = {"json": False, "search_bound": 2, "oracle": False, "pole_bound": None}


def _read_analyze(argv: list[str]) -> Optional[argparse.Namespace]:
    """The Namespace argparse builds from a well-formed analyze argv, else
    None: known flags only, each value its own token, not starting with '-'
    and taken by its type, and --field and --eq given.  argparse reads and
    words all else, help, abbreviations and usage errors included."""
    ns, it = dict(_ANALYZE_DEFAULTS), iter(argv)
    for tok in it:
        if tok not in _ANALYZE_FLAGS:
            return None
        dest, kind = _ANALYZE_FLAGS[tok]
        if kind is None:
            ns[dest] = True
            continue
        value = next(it, "-")  # a missing value reads as a flag
        if value.startswith("-"):
            return None
        try:
            ns[dest] = kind(value)
        except ValueError:
            return None
    return argparse.Namespace(fn=_cmd_analyze, **ns) if "field" in ns and "eq" in ns else None


@functools.cache  # one parser per process: parsing leaves it unchanged
def _make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="unipic",
        description="Invariants, completions and Picard data of forms of the "
        "affine line over rational function fields of positive characteristic.",
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
    sp.add_argument("--pole-bound", type=int, default=None, help="Cech window of --oracle")
    sp.set_defaults(fn=_cmd_analyze)

    sp = sub.add_parser("genus", help="arithmetic genus of the naive completion")
    add_target(sp)
    sp.add_argument("--oracle", action="store_true")
    sp.add_argument("--pole-bound", type=int, default=None, help="Cech window of --oracle")
    sp.set_defaults(fn=_cmd_genus)

    sp = sub.add_parser("hilbert", help="graded piece dimension in P(1,1,a)")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--delta", type=int, required=True)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_analyze(argv[1:]) if argv[:1] == ["analyze"] else None
    if args is None:
        # argparse takes a value that starts with '-' (--c -t) for an option;
        # glued to its flag (--c=-t) it is read as the value
        for i in range(len(argv) - 1, 0, -1):
            if argv[i - 1] in ("--c", "--eq", "--field") and argv[i].startswith("-"):
                argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
        args = _make_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped early (| head); stdout goes to devnull so the
        # flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
