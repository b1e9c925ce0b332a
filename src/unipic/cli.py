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
from itertools import accumulate
from typing import NamedTuple, Optional, Union

from .field import _SHARED, FieldDesc, MPoly, RatFunc, _add_terms, _mul_terms, _pow_terms, is_prime
from .forms import (
    FormPresentation,
    NotSeparable,
    Torsor,
    find_rational_point,
    make_form,
)
from .picard import InvariantReport, invariant_report, pic_p1_complement
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

# a string's tokens are the plain strings of one findall, whitespace
# (str.isspace) skipped: a symbol, ASCII digits (str.isdigit also takes '²'), a
# \w run (str.isalnum or '_'), a name when it starts with str.isalpha or '_', or
# any other character, an error.  A token's text is its kind; "" is the end.
_TOKEN = re.compile(r"[()+\-*/^=,]|[0-9]+|\w+|\S")  # symbols, the most common, first
_ODD = re.compile(r"[^\s0-9A-Za-z_()+\-*/^=,]")  # only then may a token be an error
_NOT_VALUE = frozenset(("", ")", "+", "-", "*", "/", "^", "=", ","))  # tokens no value starts with


class _Parser:
    """Recursive descent on unreduced (num, den) pairs of term dicts, on the
    field's own origin, one and unit exponents; the caller makes one `RatFunc`,
    and takes one gcd, per additive term.  Tokens are kept last first (next
    toks[-1], taken by toks.pop()); only an error looks up a position."""

    def __init__(self, s: str, field: Optional[FieldDesc] = None):
        if _ODD.search(s):  # a character that may start no token
            for m in _TOKEN.finditer(s):
                if not (m[0][0] in "()+-*/^=,_0123456789" or m[0][0].isalpha()):
                    raise ParseError(f"unexpected character {m[0][0]!r}", m.start())
        self.s, self.toks = s, [""] + _TOKEN.findall(s)[::-1]
        self.n = len(self.toks)
        if field is not None:
            shared = _SHARED[field]
            self.p, self.r, self.origin, self.units = field.p, field.r, shared.origin, shared.units
            self.one = shared.one.num.terms

    def error(self, message: str, back: int = 0, exc: type = ParseError) -> ParseError:
        """exc at the token `back` tokens before the next one, placed by a rescan."""
        i = self.n - len(self.toks) - back
        return exc(message, ([m.start() for m in _TOKEN.finditer(self.s)] + [len(self.s)])[i])

    def take(self, kind: str) -> str:
        """The next token, taken: an "int", a "name", or the symbol `kind` ("" the end)."""
        tok = self.toks[-1]
        if not (tok.isdigit() if kind == "int" else
                tok[:1].isalpha() or tok[:1] == "_" if kind == "name" else tok == kind):
            raise self.error(f"expected {kind or 'end'!r}, found {tok!r}")
        return self.toks.pop()

    def p_log(self, exc: type) -> int:
        """e for the next token, an int p^e, taken."""
        p, text = self.p, self.take("int")
        value, e = int(text), 0
        if value < 1:
            raise self.error(f"exponent {value} must be a positive power of {p}", 1, exc)
        while value % p == 0:
            value //= p
            e += 1
        if value != 1:
            raise self.error(f"exponent {text} is not a power of {p}", 1, exc)
        return e

    def expr(self) -> tuple[dict, dict]:
        num, den, _ = self.product(False)
        p, toks = self.p, self.toks
        while (op := toks[-1]) == "+" or op == "-":
            toks.pop()
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
        num, den, xexp, op, left = one, one, None, None, 0
        while True:
            tok = toks[-1]
            term = top and op != "/"  # a factor where the curve variable x may stand
            if top and not term and (tok == "x" or tok == "y"):
                raise self.error("curve variables cannot appear in denominators", left - len(toks), NotAdditive)
            if op is None or not term:
                while tok == "-":  # unary minus chains
                    toks.pop()
                    negate = not negate
                    tok = toks[-1]
            if term and tok == "y":
                raise self.error("y cannot appear on the right side", exc=NotAdditive)
            if term and tok == "x":
                toks.pop()
                if xexp is not None:
                    raise self.error("only one x-power per term", 1, NotAdditive)
                xexp = 0
                if toks[-1] == "^":
                    toks.pop()
                    xexp = self.p_log(NotAdditive)
                a = b = one
            elif term and tok in _NOT_VALUE:
                raise self.error(f"expected a term, found {tok!r}")
            else:
                a, b = self.atom()
            if op == "/":
                if not a:
                    raise self.error("division by zero constant", left - len(toks))
                a, b = b, a
            # the first factor is taken as is, not times one: no dict here is changed in place
            num = a if num is one else num if a is one else _mul_terms(num, a, p)
            den = b if den is one else den if b is one else _mul_terms(den, b, p)
            op = toks[-1]
            if op != "*" and op != "/":
                if negate:
                    num = {e: p - c for e, c in num.items()}
                return num, den, xexp
            left = len(toks)
            toks.pop()

    def atom(self) -> tuple[dict, dict]:
        toks, one = self.toks, self.one
        tok = toks.pop()
        e = self.units.get(tok)
        if e is not None:
            num, den = {e: 1}, one
        elif tok.isdigit():
            c = int(tok) % self.p
            num, den = {self.origin: c} if c else {}, one
        elif tok == "(":
            try:
                num, den = self.expr()
            except RecursionError:  # raised again one level up if no stack is left here
                # the error names the outermost '(' still open, whatever the stack's depth
                taken = _TOKEN.findall(self.s)[:self.n - len(toks)]
                depth = list(accumulate((t == "(") - (t == ")") for t in taken))
                outer = max(i for i, t in enumerate(taken) if t == "(" and depth[i] == 1)
                raise self.error("parentheses nested too deeply", len(taken) - outer) from None
            self.take(")")
        else:
            message = f"expected a value, found {tok!r}" if tok in _NOT_VALUE else f"unknown variable {tok!r}"
            raise self.error(message, 1)
        if toks[-1] == "^":
            toks.pop()
            e = int(self.take("int"))
            num = _pow_terms(num, e, self.p, self.r)
            if den is not one:
                den = _pow_terms(den, e, self.p, self.r)
        return num, den


# -- field specs --------------------------------------------------------


@functools.lru_cache(maxsize=64)  # a constant bound; a spec that raises is not kept
def parse_field_spec(s: str) -> FieldDesc:
    """Grammar: "GF(" prime ")" ( "(" name ("," name)* ")" )?  Each spec
    string is read, tested for primality and built once per process."""
    rd = _Parser(s)
    toks = rd.toks
    if rd.take("name") != "GF":
        raise rd.error("field specs start with GF", 1)
    rd.take("(")
    p = int(rd.take("int"))
    if not is_prime(p):
        raise rd.error(f"{p} is not prime", 1, NotPrime)
    rd.take(")")
    names: tuple[str, ...] = ()
    if toks[-1] == "(":
        sep = ","
        while sep == ",":
            toks.pop()
            name = rd.take("name")
            if name in ("x", "y"):
                raise rd.error(f"{name!r} is a curve variable, not a field variable", 1)
            if name in names:
                raise rd.error(f"duplicate variable name {name!r}", 1)
            names = names + (name,)
            sep = toks[-1]
        if sep != ")":
            raise rd.error(f"expected ',' or ')', found {sep!r}")
        toks.pop()
    rd.take("")
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
        return Torsor(G, self.b) if self.b else G


def _parse_value(s: str, field: FieldDesc) -> RatFunc:
    """One coefficient expression in the field's variables."""
    rd = _Parser(s, field)
    num, den = rd.expr()
    rd.take("")
    return RatFunc(MPoly(field, num), MPoly(field, den))


def parse_form_equation(s: str, field: FieldDesc) -> EquationAST:
    """Parse y^(p^n) = sum of terms c*x^(p^i) plus constants.

    The right side must be additive: every x-exponent a power of p, no y.
    Integer coefficients reduce mod p; constants fold into the translation
    term.  The linear term in x must be present with nonzero coefficient.
    """
    rd = _Parser(s, field)
    toks = rd.toks
    if rd.take("name") != "y":
        raise rd.error("left side must be y or a power of y", 1)
    n = 0
    if toks[-1] == "^":
        toks.pop()
        n = rd.p_log(BadExponent)
    rd.take("=")
    coeffs: dict[int, RatFunc] = {}
    b, op = field.zero(), "+"
    while op:
        if op != "+" and op != "-":
            raise rd.error(f"expected '+', '-' or end of input, found {op!r}", 1)
        num, den, xexp = rd.product(op == "-", top=True)
        coeff = RatFunc(MPoly(field, num), MPoly(field, den))
        if xexp is None:
            b = b + coeff
        else:
            coeffs[xexp] = coeffs[xexp] + coeff if xexp in coeffs else coeff
        op = toks.pop()
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
    rep = invariant_report(_build_target(args), search_bound=args.search_bound, oracle=args.oracle)
    print(render_report_json(rep) if args.json else render_report_text(rep))
    return 0


def _cmd_genus(args) -> int:
    X = _build_target(args)
    try:
        C = naive_completion(X)
    except TrivialTau:
        print("genus = 0 (completion is the projective line)")
        return 0
    oracle = cech_h1_dim(C) if args.oracle else None
    print(f"genus = {genus_from_formula(C)}")
    if oracle:
        print(f"cech h1 = {oracle[0]} (stabilized: {str(oracle[1]).lower()})")
    return 0


def _cmd_hilbert(args) -> int:
    print(hilbert_dim(args.a, args.delta))
    return 0


def _cmd_points(args) -> int:
    X = _build_target(args)
    pt = find_rational_point(X, args.max_deg)
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
                  "--search-bound": ("search_bound", int), "--oracle": ("oracle", None)}
_ANALYZE_DEFAULTS = {"json": False, "search_bound": 2, "oracle": False}


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
    sp.set_defaults(fn=_cmd_analyze)

    sp = sub.add_parser("genus", help="arithmetic genus of the naive completion")
    add_target(sp)
    sp.add_argument("--oracle", action="store_true")
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
