"""Command line interface: parsing, rendering, JSON schema, exit codes."""

import argparse
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import unipic.catalogue as catalogue_mod
import unipic.cli as cli_mod
import unipic.picard
from unipic import FieldDesc, Torsor, invariant_report, run_catalogue
from unipic.catalogue import CatalogueResult
from unipic.cli import (
    BadExponent,
    NotAdditive,
    NotPrime,
    ParseError,
    _make_parser,
    _parse_value,
    main,
    parse_field_spec,
    parse_form_equation,
    render_report_json,
    render_report_text,
    report_to_dict,
)
from unipic.forms import NValue
from unipic.picard import InvariantReport
from conftest import ratfunc_strategy
from json_reference import report_to_dict_reference, to_json_reference
from parse_reference import (
    parse_field_spec_reference,
    parse_form_equation_reference,
    parse_value_reference,
)
from test_forms import _golden_variants

F3TU = FieldDesc(3, ("t", "u"))


# ------------------------------------------------------------------- parsing

def test_parse_field_spec():
    assert parse_field_spec("GF(2)(t)") == FieldDesc(2, ("t",))
    assert parse_field_spec("GF(3)(t,u)") == F3TU
    assert parse_field_spec("GF(5)") == FieldDesc(5)
    assert parse_field_spec(" GF( 2 )( t )") == FieldDesc(2, ("t",))


def test_parse_field_spec_errors():
    with pytest.raises(NotPrime):
        parse_field_spec("GF(4)(t)")
    with pytest.raises(ParseError) as exc:
        parse_field_spec("GF(2)(t")
    assert exc.value.pos is not None
    with pytest.raises(ParseError):
        parse_field_spec("GF(2)(t)x")
    # x and y name the curve's variables, never the field's
    for spec in ("GF(2)(x)", "GF(2)(y)", "GF(3)(t,x)"):
        with pytest.raises(ParseError, match="curve variable"):
            parse_field_spec(spec)
    # a repeated name is reported where it repeats
    with pytest.raises(ParseError, match="duplicate variable name 't'") as exc:
        parse_field_spec("GF(2)(t,u,t)")
    assert exc.value.pos == 10


def test_field_spec_is_read_once():
    # a repeated spec is the same object; the cache stays within its bound
    assert parse_field_spec("GF(3)(t,u)") is parse_field_spec("GF(3)(t,u)")
    bound = parse_field_spec.cache_info().maxsize
    for i in range(bound + 5):
        assert parse_field_spec("GF(2)(t)" + " " * i) == FieldDesc(2, ("t",))
    assert parse_field_spec.cache_info().currsize == bound
    # a spec that raises leaves no entry and raises the same on every call
    size = parse_field_spec.cache_info().currsize
    for spec, outcome in [("GF(4)(t)", (NotPrime, "4 is not prime (at position 3)", 3)),
                          ("GF(2)(t", (ParseError, "expected ',' or ')', found '' (at position 7)", 7)),
                          ("GF(2)(t,u,t)", (ParseError, "duplicate variable name 't' (at position 10)", 10))]:
        for _ in range(3):
            assert _outcome(parse_field_spec, spec) == outcome == _outcome(parse_field_spec_reference, spec)
            assert parse_field_spec.cache_info().currsize == size


def test_fresh_spec_tests_its_characteristic_once(capsys):
    # the spec parser and FieldDesc share one trial division per characteristic
    from unipic.field import is_prime

    is_prime.cache_clear()
    parse_field_spec.cache_clear()
    assert main(["analyze", "--field", "GF(2147483647)(t)", "--eq", "y = x + t*x^2147483647",
                 "--search-bound", "0"]) == 0
    assert is_prime.cache_info().misses == 1
    assert "n(X)   = 0 (exact: split)" in capsys.readouterr().out


def test_parse_form_equation():
    ast = parse_form_equation("y^9 = x + t*x^3 + u*x^9", F3TU)
    assert ast.n == 2
    assert dict(ast.coeffs) == {0: F3TU.one(), 1: F3TU.var("t"), 2: F3TU.var("u")}
    assert ast.b == F3TU.zero()
    X = ast.build()
    assert str(X) == "y^9 = x + t*x^3 + u*x^9"


def test_parse_torsor_equation():
    X = parse_form_equation("y^9 = t + x + t*x^3", F3TU).build()
    assert isinstance(X, Torsor)
    assert X.b == F3TU.var("t")


def test_parse_coefficient_expressions():
    # parenthesized arithmetic, division chains and constants reduce mod p
    X = parse_form_equation("y^3 = 4*x + (t+u)/t/u*x^3 - x^9", F3TU).build()
    t, u = F3TU.var("t"), F3TU.var("u")
    assert X.coeffs == (F3TU.one(), (t + u) / (t * u), F3TU.const(-1))


def test_parse_leading_sign():
    X = parse_form_equation("y^3 = -x + t*x^3", F3TU).build()
    # normalization rescales the constant coefficient back to 1
    assert X.coeffs[0] == F3TU.one()


@pytest.mark.parametrize("bad,exc,fragment", [
    ("y^9 = x + x*x", NotAdditive, "one x-power"),
    ("y^9 = x + y", NotAdditive, "y cannot appear"),
    ("y^9 = x + t*x^4", NotAdditive, "not a power of 3"),
    ("y^5 = x", BadExponent, "not a power of 3"),
    ("y^9 = x + t/x", NotAdditive, "denominators"),
    ("y^9 = x +", ParseError, "expected a term"),
    ("z^9 = x", ParseError, "left side"),
    ("y^9 = x + t*x^²", ParseError, "unexpected character '²'"),
    ("y^9 = x + t^-1*x^3", ParseError, "expected 'int', found '-' (at position 12)"),
])
def test_parse_equation_errors(bad, exc, fragment):
    with pytest.raises(exc) as info:
        parse_form_equation(bad, F3TU)
    assert fragment in str(info.value)


def _outcome(parse, *args):
    """What a parse returns, or the class, message and position it raises."""
    try:
        return parse(*args)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "pos", None)


GOLDEN_EQUATIONS = [(v["field"], v["eq"]) for slots in json.loads(
    (Path(__file__).parent.parent / "perfbench" / "golden.json").read_text())["workloads"].values()
    for slot in slots for v in slot["variants"]]


def test_parser_matches_reference_on_golden_equations():
    assert len(GOLDEN_EQUATIONS) == 1424
    fields = {spec: parse_field_spec(spec) for spec, _ in GOLDEN_EQUATIONS}
    for spec, eq in GOLDEN_EQUATIONS:
        k = fields[spec]
        assert parse_form_equation(eq, k) == parse_form_equation_reference(eq, k), (spec, eq)


def test_shared_field_constants_survive_golden_calls(capsys):
    # zero, one and the parser's table are built once per field and shared by
    # every call; no call may change them in place
    from unipic.field import _SHARED

    variants = _golden_variants()
    for v in variants:
        argv = ["analyze", "--field", v["field"], "--eq", v["eq"], "--search-bound", str(v["bound"])]
        for extra in (["--oracle"] * v["oracle"], ["--oracle"] * v["oracle"] + ["--json"]):
            assert main(argv + extra) == 0
    capsys.readouterr()
    specs = sorted({v["field"] for v in variants})
    assert len(specs) == 6
    for spec in specs:
        k = parse_field_spec(spec)
        origin = (0,) * k.r
        assert k.zero() is parse_field_spec(spec).zero() and k.one() is parse_field_spec(spec).one()
        zero, one = _SHARED[k].zero, _SHARED[k].one
        assert (zero.num.terms, zero.den.terms) == ({}, {origin: 1})
        assert (one.num.terms, one.den.terms) == ({origin: 1}, {origin: 1})
        assert {f.field for f in (zero.num, zero.den, one.num, one.den)} == {k}
        assert _SHARED[k].origin == origin
        assert _SHARED[k].units == {v: tuple(int(i == j) for j in range(k.r)) for i, v in enumerate(k.vars)}


# pieces of coefficient expressions: mostly the field's own variables and
# small ints, then unknown and curve variable names, zero divisors, and
# characters that str.isalpha, str.isalnum and str.isspace treat apart
# from ASCII ('²' is a digit to str.isdigit but not to the tokenizer, '½'
# is numeric, 'é' a letter, '\xa0' a space)
_ODD = ["z", "x", "y", "_a", "t2", "é", "²", "٣", "½", "\xa0", "", "t u", "(t-t)"]


def _exprs(field):
    atoms = st.sampled_from(list(field.vars) * 4 + ["0", "1", "2", "3", "10"] * 2 + _ODD)
    return st.recursive(atoms, lambda e: st.one_of(
        e.map(lambda a: f"({a})"),
        e.map(lambda a: f"-{a}"),
        st.tuples(e, st.sampled_from(["+", " - ", "*", "/", " / ", "*-", "/-", "^"]), e)
        .map("".join),
        st.tuples(e, st.sampled_from(["^0", "^1", "^2", "^3", "^4", "^-1", "^ 2", "^²", "^t"]))
        .map("".join),
    ), max_leaves=8)


def _equations(field):
    """Equations over field, mostly well formed, with every kind of slip."""
    q = [field.p ** i for i in range(3)]
    xs = [f"x^{e}" for e in q] + ["x"]
    term = st.one_of(
        _exprs(field),
        st.sampled_from(xs + ["x^0", "x^6", "x^-1", "-x", "--x", "y", "x*x", "x^²"]),
        st.tuples(_exprs(field), st.sampled_from(["*"] * 6 + ["/", "*-", ""]), st.sampled_from(xs))
        .map("".join),
        st.tuples(st.sampled_from(xs), st.sampled_from(["*", "/", "*-"]), _exprs(field)).map("".join),
    )
    return st.tuples(
        st.sampled_from([f"y^{e}" for e in q] * 3 + ["y^0", "y^6", "z", "y^", ""]),
        st.sampled_from([" = "] * 6 + ["=", " == ", " "]),
        term,
        st.lists(st.tuples(st.sampled_from([" + "] * 3 + [" - ", "+-", " ", "*"]), term), max_size=3),
    ).map(lambda eq: eq[0] + eq[1] + eq[2] + "".join(sep + s for sep, s in eq[3]))


_FIELDS = (FieldDesc(2, ("t",)), F3TU, FieldDesc(5, ("t",)))


@settings(max_examples=300, deadline=None)
@given(case=st.one_of([st.tuples(st.just(k), _equations(k)) for k in _FIELDS]))
@example(case=(F3TU, "y^9 = x + t*x^²"))
@example(case=(F3TU, "y^3 = x + t^-1*x^3"))
@example(case=(F3TU, "y^3 = x + t/(u-u)*x^3"))
@example(case=(F3TU, "y^3 = x + ((t+1)/(t-1) - (t+1)^2/(t^2-1))*x^3 + 1/(t^2+u)^3"))
@example(case=(_FIELDS[0], "y^2 = x + t*x²"))
@example(case=(_FIELDS[0], "y^2 = 2x"))
@example(case=(_FIELDS[0], "y^2 = x + $"))
@example(case=(_FIELDS[0], "y^2 = x + ٣"))
@example(case=(_FIELDS[0], ""))
@example(case=(_FIELDS[0], "   "))
@example(case=(_FIELDS[0], "y^2 = x +"))
# the deep-nesting argv; hypothesis raises the recursion limit, so both parse it
@example(case=(_FIELDS[0], "y^2 = x + " + "(" * 400 + "t" + ")" * 400 + "*x^2"))
@example(case=(_FIELDS[0], "y^1 = t*-x^1"))  # a unary minus may only lead a term
def test_parser_matches_reference_on_drawn_equations(case):
    field, eq = case
    assert _outcome(parse_form_equation, eq, field) == _outcome(parse_form_equation_reference, eq, field)


@settings(max_examples=300, deadline=None)
@given(case=st.one_of([st.tuples(st.just(k), _exprs(k)) for k in _FIELDS]))
def test_value_parser_matches_reference(case):
    field, expr = case
    # the p1-complement --c path
    assert _outcome(_parse_value, expr, field) == _outcome(parse_value_reference, expr, field)


@settings(max_examples=200, deadline=None)
@given(spec=st.tuples(
    st.sampled_from(["GF(3)", "GF(2)(", "GF(5)(t", "GF(5)(t,", "GF(4)", "GF(", "gf(", ""]),
    st.lists(st.sampled_from(["(", ")", ",", " ", "2", "t", "u", "x", "y", "_a", "é", "²", "GF"]),
             max_size=6),
).map(lambda s: s[0] + "".join(s[1])))
@example(spec="GF(2),t")
@example(spec="GF(3)(t,u,t)")
def test_field_spec_parser_matches_reference(spec):
    assert _outcome(parse_field_spec, spec) == _outcome(parse_field_spec_reference, spec)


def test_parse_requires_linear_term():
    from unipic import NotSeparable
    with pytest.raises(NotSeparable):
        parse_form_equation("y^9 = t*x^3", F3TU)


def test_format_round_trip_canonical():
    corpus = [
        "y^9 = x + t*x^3 + u*x^9",
        "y^3 = x + t*x^27",
        "y^9 = t + x + t*x^3",
        "y^3 = (1/t) + x + ((t^2 + 1)/t)*x^3",
    ]
    for s in corpus:
        ast = parse_form_equation(s, F3TU)
        assert str(ast.build()) == s
        assert parse_form_equation(str(ast.build()), F3TU) == ast


def test_format_round_trip_non_canonical():
    # non-canonical inputs normalize, so compare built objects instead
    s = "y^9 = 2*x + t*x^3"
    X = parse_form_equation(s, F3TU).build()
    assert parse_form_equation(str(X), F3TU).build() == X


# ----------------------------------------------------------------- rendering

@pytest.fixture
def conic_report():
    k = FieldDesc(2, ("t",))
    X = parse_form_equation("y^2 = x + t*x^2", k).build()
    return invariant_report(X)


def test_report_dict_schema(conic_report):
    d = report_to_dict(conic_report)
    assert set(d) == {
        "field", "equation", "n", "n_prime", "r", "m_X", "splitting_degree",
        "genus", "torsion_bound", "exact_sequence", "assertions", "flags",
    }
    for key in ("n", "n_prime", "r", "m_X", "genus", "torsion_bound"):
        assert set(d[key]) == {"value", "kind"}
        assert d[key]["kind"] in ("exact", "bound")
    assert d["field"] == "GF(2)(t)"
    assert d["equation"] == "y^2 = x + t*x^2"
    assert d["exact_sequence"]["assembled_group"] == "Z/2Z"
    assert d["exact_sequence"]["point"] == {"x": "0", "y": "0"}
    json.dumps(d)  # serializable


def test_report_text_notation(conic_report):
    text = render_report_text(conic_report)
    for token in ("n(X)", "n'(X)", "r(X)", "m(X)", "[k':k]",
                  "assembled: Pic(X) = Z/2Z", "point: x = 0, y = 0"):
        assert token in text


_TEXT = st.text(max_size=6) | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é ☃ 𝄞", "\u2028\ud800", ""])


def _nvalues(top):
    return st.builds(lambda exact, v: NValue("exact", v, "cert") if exact else NValue("upper_bound", v),
                     st.booleans(), st.integers(0, top))


_TARGETS = st.sampled_from([("GF(2)(t)", "y^2 = x + t*x^2"), ("GF(3)(t,u)", "y^9 = t/(t+u) + x + u*x^3"),
                            ("GF(2)(t,T)", "y^2 = T + x + t*x^2")]).map(
    lambda fe: parse_form_equation(fe[1], parse_field_spec(fe[0])).build())
# every field of a report the writer reads, each branch drawn both ways: the
# oracle entry, a point or none, empty and non-empty assertions and flags,
# an assembled group or none
_REPORTS = st.builds(
    InvariantReport,
    target=_TARGETS,
    n=_nvalues(40),  # the torsion bound is p^n
    n_prime=_nvalues(2 ** 70), r=_nvalues(2 ** 70), m_X=_nvalues(2 ** 70), genus=_nvalues(2 ** 70),
    splitting_degree=st.integers(1, 2 ** 70),
    genus_oracle=st.none() | st.tuples(st.integers(0, 2 ** 70), st.booleans()),
    quotient_desc=_TEXT,
    pic_nontrivial=st.none(),
    pic_group=st.none() | _TEXT,
    point=st.none() | st.tuples(ratfunc_strategy(F3TU), ratfunc_strategy(F3TU)),
    assertions=st.lists(st.tuples(_TEXT, _TEXT), max_size=3).map(tuple),
    flags=st.lists(_TEXT, max_size=3).map(tuple),
)


def _check_writer(rep):
    ref = report_to_dict_reference(rep)
    assert render_report_json(rep) == json.dumps(ref, indent=2, sort_keys=True) == to_json_reference(ref)
    assert report_to_dict(rep) == ref


@settings(max_examples=150, deadline=None)
@given(rep=_REPORTS)
def test_json_writer_matches_json_dumps(rep):
    _check_writer(rep)


def test_json_writer_on_golden_reports(capsys, monkeypatch):
    # every report analyze --json writes on the pinned cases, each against the
    # dict-then-writer path it replaced
    reports = []

    def record(rep):
        reports.append(rep)
        return render_report_json(rep)

    monkeypatch.setattr(cli_mod, "render_report_json", record)
    for case in GOLDEN:
        assert main(case["argv"]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    assert len(reports) == sum("--json" in case["argv"] for case in GOLDEN) > 0
    for rep in reports:
        _check_writer(rep)
    # the branches of the layout: the oracle entry, a point or none, no flags
    # and the generic fiber's flag
    assert any(rep.genus_oracle is not None for rep in reports)
    assert {rep.point is None for rep in reports} == {True, False}
    assert any(not rep.flags for rep in reports)
    assert any("pic-trivial-by-construction" in rep.flags for rep in reports)


@pytest.mark.parametrize("value", [
    1.5, {1, 2}, b"x", object(), {1: "a"}, [1, 2.0], {"a": {"b": frozenset()}},
])
def test_json_writer_refuses_other_types(value):
    # the reference writer, the oracle above, writes nothing json.dumps would not
    with pytest.raises(TypeError):
        to_json_reference(value)


# --------------------------------------------------------------- subcommands

def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_text(capsys):
    code, out, err = run_cli(capsys, "analyze", "--field", "GF(2)(t)",
                             "--eq", "y^2 = x + t*x^2")
    assert code == 0
    assert "n(X)   = 1 (exact: coefficient-not-pth-power)" in out
    assert "assembled: Pic(X) = Z/2Z" in out


def test_analyze_json_deterministic(capsys):
    argv = ("analyze", "--field", "GF(2)(t)",
            "--eq", "y^2 = x + t*x^2", "--json")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    assert json.loads(out1)["splitting_degree"] == 2


def test_genus_with_oracle(capsys):
    code, out, _ = run_cli(capsys, "genus", "--field", "GF(2)(t)",
                           "--eq", "y^4 = x + t*x^8", "--oracle")
    assert code == 0
    assert "genus = 9" in out
    assert "cech h1 = 9 (stabilized: true)" in out


def test_genus_oracle_large_window(capsys):
    # a level n = 4 puts the window at 2 * 81: the oracle costs O(1) arithmetic steps
    code, out, _ = run_cli(capsys, "genus", "--field", "GF(3)(t)",
                           "--eq", "y^81 = x + t*x^3", "--oracle")
    assert code == 0
    assert "genus = 79" in out
    assert "cech h1 = 79 (stabilized: true)" in out


def test_analyze_oracle_large_window(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--field", "GF(3)(t)",
                           "--eq", "y^9 = x + t*x^3", "--oracle")
    assert code == 0
    assert "genus oracle = 7 (stabilized: true)" in out


def test_genus_trivial_completion(capsys):
    code, out, _ = run_cli(capsys, "genus", "--field", "GF(2)(t)",
                           "--eq", "y^2 = x")
    assert code == 0
    assert "projective line" in out


def test_hilbert(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "--a", "2", "--delta", "1")
    assert (code, out.strip()) == (0, "4")
    # the monomial count, linear in delta, is the oracle in tests/ now
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "hilbert", "--a", "1", "--delta", "1000000000000")
    assert time.perf_counter() - start < 1
    assert (code, out) == (0, "500000000001500000000001\n")
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "--a", "2", "--delta", "1", "--mode", "count"])
    assert exc.value.code == 2


def test_option_values_may_start_with_a_minus(capsys):
    # argparse read "-t" after --c as an option and exited 2 with
    # "expected one argument"; only --c=-t worked
    glued = run_cli(capsys, "p1-complement", "--field", "GF(3)(t)", "--e", "1", "--c=-t")
    assert glued[0] == 0 and glued[1].startswith("Pic = Z/3Z\n")
    assert run_cli(capsys, "p1-complement", "--field", "GF(3)(t)", "--e", "1", "--c", "-t") == glued
    # a leading minus reaches the equation and field parsers, which reject it
    for argv in (["--field", "GF(3)(t)", "--eq", "-y^3 = x"], ["--field", "-GF(3)(t)", "--eq", "y^3 = x"]):
        code, _, err = run_cli(capsys, "analyze", *argv)
        assert (code, err) == (2, "error: expected 'name', found '-' (at position 0)\n")


def test_points_found(capsys):
    code, out, _ = run_cli(capsys, "points", "--field", "GF(2)(t)",
                           "--eq", "y^2 = t + x + t*x^2", "--max-deg", "2")
    assert code == 0
    assert out.strip() == "point: x = 1, y = 1"


def test_points_not_found(capsys):
    code, out, _ = run_cli(capsys, "points", "--field", "GF(2)(t)",
                           "--eq", "y^2 = 1/t + x + t*x^2", "--max-deg", "1")
    assert code == 0
    assert "no point found (bound 1)" in out


def test_points_found_f3(capsys):
    code, out, _ = run_cli(capsys, "points", "--field", "GF(3)(t)",
                           "--eq", "y^3 = x + t*x^3 + t^3 - 1/t - 1/t^2", "--max-deg", "1")
    assert code == 0
    assert out.strip() == "point: x = 1/t, y = t"


@pytest.mark.parametrize("field, eq, bound", [
    ("GF(3)(t)", "y^3 = 1/t + x + t*x^3", 1),
    # obstructed at t = oo, so none of the 3,906 monic denominators of
    # degree <= 2 in t, u (about 2.4e6 at degree <= 3) is searched
    ("GF(5)(t,u)", "y^5 = u + x + t*x^5", 2),
    ("GF(5)(t,u)", "y^5 = u + x + t*x^5", 3),
], ids=["GF(3)(t)", "GF(5)(t,u)", "GF(5)(t,u) degree 3"])
def test_points_not_found_f3(capsys, field, eq, bound):
    code, out, _ = run_cli(capsys, "points", "--field", field,
                           "--eq", eq, "--max-deg", str(bound))
    assert code == 0
    assert out.strip() == f"no point found (bound {bound})"


def test_analyze_obstructed_without_search(capsys):
    # at --search-bound 3 the search alone ran past 60 s; the obstruction
    # at t = oo proves that no point has degree prime to 5
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "analyze", "--field", "GF(5)(t,u)",
                           "--eq", "y^5 = u + x + t*x^5", "--search-bound", "3")
    assert time.perf_counter() - start < 1
    assert code == 0
    # a generic fiber: Pic(X) = 0 maps onto m(X) Z/5Z, so m(X) = 5
    assert "m(X)   = 5 (exact: generic-fiber)\n" in out
    # b = u^2 is no variable, so m(X) stays the bound
    code, out, _ = run_cli(capsys, "analyze", "--field", "GF(5)(t,u)",
                           "--eq", "y^5 = u^2 + x + t*x^5", "--search-bound", "3")
    assert code == 0
    assert "m(X)   = <= 5 (bound)\n" in out


@pytest.mark.parametrize("command, flag, eq", [
    ("analyze", "--search-bound", "y^2 = u + x + t*x^2"),  # obstructed at t = oo
    ("analyze", "--search-bound", "y^2 = t + x + t*x^2"),
    ("points", "--max-deg", "y^2 = u + x + t*x^2"),
])
def test_negative_search_bound_is_refused(capsys, command, flag, eq):
    # the obstruction skips the search, so the bound is checked before it;
    # the message names the bound as the command calls it
    code, out, err = run_cli(capsys, command, "--field", "GF(2)(t,u)", "--eq", eq, flag, "-1")
    name = {"analyze": "search_bound", "points": "max_deg"}[command]
    assert (code, out, err) == (2, "", f"error: {name} must be nonnegative\n")


def test_analyze_high_power_of_a_sum(capsys):
    # binary square-and-multiply formed dense powers (t+1)^(2^j) and was
    # killed at 100 s; by base-3 digits the power has 432 terms
    eq = "y^3 = x + (t+1)^100000*x^3"
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "analyze", "--field", "GF(3)(t)", "--eq", eq)
    assert time.perf_counter() - start < 2
    assert code == 0 and "[k':k] = 3\n" in out
    assert len(parse_form_equation(eq, FieldDesc(3, ("t",))).coeffs[1][1].num.terms) == 432


def test_p1_complement(capsys):
    code, out, _ = run_cli(capsys, "p1-complement", "--field", "GF(2)(t)",
                           "--e", "3", "--c", "t")
    assert code == 0
    assert "Pic = Z/8Z" in out


def test_p1_complement_order_too_long_is_refused(capsys):
    # str() of 2^20000 raised Python's own "Exceeds the limit (4300 digits)"
    code, out, err = run_cli(capsys, "p1-complement", "--field", "GF(2)(t)",
                             "--e", "20000", "--c", "t")
    assert (code, out) == (2, "")
    assert err == "error: e = 20000 is too large: the order 2^20000 has more than 4300 digits\n"
    # 2^14284 has 4300 digits, the most the order may have
    code, out, _ = run_cli(capsys, "p1-complement", "--field", "GF(2)(t)",
                           "--e", "14284", "--c", "t")
    assert code == 0
    assert out.startswith(f"Pic = Z/{2 ** 14284}Z\n") and len(str(2 ** 14284)) == 4300
    code, _, err = run_cli(capsys, "p1-complement", "--field", "GF(2)(t)",
                           "--e", "14285", "--c", "t")
    assert code == 2 and "more than 4300 digits" in err


def test_exit_code_parse_errors(capsys):
    code, _, err = run_cli(capsys, "analyze", "--field", "GF(4)(t)",
                           "--eq", "y^2 = x + t*x^2")
    assert code == 2
    assert "not prime" in err
    code, _, err = run_cli(capsys, "analyze", "--field", "GF(2)(t)",
                           "--eq", "y^2 = x^3")
    assert code == 2
    assert "not a power of 2" in err
    # a characteristic from 2^31 up is refused instead of trial division
    code, _, err = run_cli(capsys, "analyze", "--field", "GF(1000000000000000003)",
                           "--eq", "y = x + t*x")
    assert code == 2
    assert "characteristic 1000000000000000003 is too large" in err


def _nested_t(depth):
    return "(" * depth + "t" + ")" * depth


@pytest.mark.parametrize("argv", [
    ("analyze", "--field", "GF(2)(t)", "--eq", "y^2 = x + " + _nested_t(400) + "*x^2"),
    ("p1-complement", "--field", "GF(2)(t)", "--e", "1", "--c", _nested_t(400)),
])
def test_deep_nesting_is_a_parse_error(capsys, argv):
    # parsing recurses once per parenthesis; running out of stack exits 2, and
    # the error names the outermost parenthesis open, whatever the stack depth
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: parentheses nested too deeply (at position {argv[-1].index('(')})\n"


def test_moderate_nesting_still_parses(capsys):
    plain = run_cli(capsys, "analyze", "--field", "GF(2)(t)", "--eq", "y^2 = x + t*x^2")
    nested = run_cli(capsys, "analyze", "--field", "GF(2)(t)",
                     "--eq", "y^2 = x + " + _nested_t(300) + "*x^2")
    assert nested == plain
    assert plain[0] == 0


@pytest.mark.parametrize("command", ["analyze", "genus"])
def test_rejected_pole_bound_prints_nothing(capsys, command):
    # the oracle's window is fixed at twice the degree, where it is settled
    with pytest.raises(SystemExit) as exc:
        main([command, "--field", "GF(2)(t)", "--eq", "y^4 = x + t*x^2",
              "--oracle", "--pole-bound", "4"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "unrecognized arguments: --pole-bound 4" in err


def test_cech_not_stabilized_pinned(capsys, monkeypatch):
    # the default window is settled on every input, so an unsettled count is
    # stood in for; the report flags it and prints both values
    monkeypatch.setattr(unipic.picard, "cech_h1_dim", lambda C: (2, False))
    argv = ["analyze", "--field", "GF(2)(t)", "--eq", "y^2 = x + t*x^8", "--oracle"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "genus  = 3 (exact: regular-completion)\ngenus oracle = 2 (stabilized: false)\n" in out
    assert out.endswith("\nflags: cech-not-stabilized\n")
    code, out, _ = run_cli(capsys, *argv, "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["genus"] == {"kind": "exact", "value": 3, "oracle": {"value": 2, "stabilized": False}}
    assert doc["flags"] == ["cech-not-stabilized"]


def test_analyze_proves_trivial_pic_of_generic_fiber(capsys):
    # b is the variable T and a_1 = t does not involve it: the generic fiber
    # of (x, y) -> y^2 - x - t*x^2 over GF(2)(t), a nontrivial form with Pic 0
    code, out, _ = run_cli(capsys, "analyze", "--field", "GF(2)(t,T)",
                           "--eq", "y^2 = T + x + t*x^2")
    assert code == 0
    assert "[k':k] = 2\n" in out
    assert "\nassembled: Pic(X) = 0\n" in out
    assert out.endswith("\nflags: pic-trivial-by-construction\n")


def test_output_ignores_the_environment():
    # the chain bounds leave this input open, so it builds the dense basis of
    # 2^(2*3) = 64; the cap on that basis is a constant, not a setting
    src = Path(__file__).resolve().parents[1] / "src"
    argv = [sys.executable, "-m", "unipic.cli", "analyze", "--field", "GF(2)(t,u)",
            "--eq", "y^8 = x + t/u*x^2 + u/t*x^4 + t*u*x^8"]
    env = {k: v for k, v in os.environ.items() if k != "UNIPIC_BASIS_CAP"}
    env["PYTHONPATH"] = str(src)
    runs = [subprocess.run(argv, capture_output=True, text=True, timeout=60,
                           env={**env, **extra})
            for extra in ({}, {"UNIPIC_BASIS_CAP": "2"}, {"UNIPIC_BASIS_CAP": "abc"})]
    assert runs[0].returncode == 0 and "[k':k] = 32\n" in runs[0].stdout
    assert [(r.returncode, r.stdout, r.stderr) for r in runs] == [(0, runs[0].stdout, "")] * 3


_LEAN_IMPORT = """
import sys
sys.path.insert(0, sys.argv[1])
import unipic.cli
print(sorted(set(sys.argv[2:]) & set(sys.modules)))
print(sorted(m for m in sys.modules if m == "unipic" or m.startswith("unipic.")))
import unipic
unipic.run_catalogue
names = {}
exec("from unipic import *", names)
print(len(unipic.__all__), sorted(set(unipic.__all__) - set(names)), "unipic.catalogue" in sys.modules)
"""


def test_import_loads_only_what_analyze_runs():
    # dataclasses (and the inspect it pulls in) and the example catalogue
    # stay unloaded until named; -S keeps site's own imports out of the count.
    # The library modules that analyze runs are all that load
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-S", "-c", _LEAN_IMPORT, str(src),
                           "dataclasses", "inspect", "unipic.catalogue"],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    modules = ["unipic", "unipic.cli", "unipic.field", "unipic.forms", "unipic.picard", "unipic.wproj"]
    assert proc.stdout == f"[]\n{modules}\n41 [] True\n"


def test_closed_stdout_exits_quietly():
    # `unipic analyze ... | head -1` ended in a BrokenPipeError traceback
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "unipic.cli", "analyze", "--field", "GF(2)(t)",
         "--eq", "y^2 = x + t*x^2", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)})
    proc.stdout.close()  # before the report is written
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


def test_exit_code_trivial_completion(capsys):
    code, _, err = run_cli(capsys, "p1-complement", "--field", "GF(2)(t)",
                           "--e", "1", "--c", "t^2")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("field,eq,extra,degree", [
    ("GF(2)(t,u)", "y^128 = x + t*x^2", (), 128),
    ("GF(5)(t,u)", "y^25 = x + (t+u)*x^5 + (t*u+1)*x^25", ("--search-bound", "0"), 625),
    ("GF(7)(t,u)", "y^49 = x + (t+u)*x^7 + (t*u+1)*x^49", ("--search-bound", "0"), 2401),
    ("GF(5)(t,u)", "y^25 = x + t^5*x^5 + 1/(t+u+1)*x^25", ("--search-bound", "0"), 125),
    ("GF(5)(t,u)", "y^25 = x + (t/(t+u))^5*x^5 + u/(t^2+u+1)*x^25", ("--search-bound", "0"), 125),
    ("GF(5)(t,u)", "y^25 = x + (t+1)^5/(u^2+t)^5*x^5 + (u+t)/(t^2*u+1)*x^25",
     ("--search-bound", "0"), 125),
    ("GF(5)(t,u)", "y^25 = x + u^5*x^5 + t/(t+u)*x^25 + (t/(t+u) + u^5/(t^2+1)^5)*x^125",
     ("--search-bound", "0"), 125),
    ("GF(2)(t,u)", "y^128 = x + t^32*x^2 + t^32/u^64*x^4", (), 8),
])
def test_analyze_large_splitting_degree(capsys, field, eq, extra, degree):
    # the Frobenius chain bounds settle the first six without a dense basis
    # of 2^14, 5^4 or 7^4 unknowns; the fifth and sixth once ran past 100 s
    # on that basis.  The seventh is left open at 125 <= [k':k] <= 625, so
    # the dense basis of 5^4 unknowns decides it.  The last has 2^5-th
    # powers for coefficients: its roots (t, 2) and (t/u^2, 2) need a basis
    # of 16, where the pairs at n = 7 asked for 2^14 and were refused
    code, out, _ = run_cli(capsys, "analyze", "--field", field, "--eq", eq, *extra)
    assert code == 0
    assert f"[k':k] = {degree}\n" in out


def test_analyze_refuses_a_basis_above_the_cap(capsys):
    # the chain bounds leave 5^5 <= [k':k] <= 5^6 open, and roots of
    # exponent 3 over GF(5)(t,u) need a basis of 5^6 > 4096
    code, out, err = run_cli(capsys, "analyze", "--field", "GF(5)(t,u)", "--eq",
                             "y^125 = x + u^5*x^5 + t/(t+u)*x^25 + (t/(t+u) + u^5/(t^2+1)^5)*x^125",
                             "--search-bound", "0")
    assert (code, out, err) == (2, "", "error: dense tower basis p^(r*N) = 15625 exceeds cap 4096\n")


# full analyze output, text and JSON, pinned byte for byte; together the
# inputs reach every certificate the text prints, and the oracle line
GOLDEN = json.loads(Path(__file__).with_name("golden_analyze.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(
    a for a in c["argv"][1:] if a not in ("--field", "--eq")))
def test_analyze_output_pinned(capsys, case):
    assert main(case["argv"]) == 0
    assert capsys.readouterr().out == case["stdout"]


def test_reused_parser_keeps_no_state(capsys):
    # main() reuses one parser per process; a freshly built parser is the oracle
    assert _make_parser() is _make_parser()
    fresh = _make_parser.__wrapped__()
    for case in GOLDEN:
        assert vars(_make_parser().parse_args(case["argv"])) == vars(fresh.parse_args(case["argv"]))

    def run_all(cases):
        for case in cases:
            assert main(case["argv"]) == 0
            assert capsys.readouterr().out == case["stdout"]

    run_all(GOLDEN)
    for argv, status in ((["analyze", "--field", "GF(2)(t)", "--bogus"], 2),
                         (["analyze", "--help"], 0)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == status
        capsys.readouterr()
    run_all(reversed(GOLDEN))


_CONIC = ["--field", "GF(2)(t)", "--eq", "y^2 = x + t*x^2"]
_TARGET = ["--field", "GF(2)(t)", "--eq", "y^4 = x + t*x^2"]
_DISPATCH_ARGVS = [case["argv"] for case in GOLDEN] + [
    [], ["-h"], ["--help"], ["analyze", "--help"], ["bogus"], ["--bogus", "analyze"],
    ["analyze", *_CONIC, "--bogus"],  # a leftover: the full parser words the error
    ["analyze", *_CONIC, "--bogus", "x", "--json"],
    ["analyze", *_CONIC, "--search-bound", "x"],
    ["analyze", *_CONIC, "--search", "1"],  # a prefix of --search-bound
    ["analyze", "--field", "GF(2)(t)", "--eq", "-t*x^2 + x"],  # read as --eq=-t*x^2 + x
    ["p1-complement", "--field", "GF(2)(t)", "--e", "1", "--c", "-t"],
    ["analyze"], ["analyze", "--field", "GF(2)(t)"], ["genus", "--eq", "y^2 = x"],
    ["hilbert", "--a", "1"], ["points", *_TARGET], ["p1-complement", "--field", "GF(2)(t)", "--e", "1"],
    ["hilbert", "--a", "1", "--delta", "5"], ["genus", *_TARGET, "--oracle"], ["points", *_TARGET, "--max-deg", "1"],
    ["paper-examples", "--bogus"],
    # int() takes ' 7', '+3', '5_000' and '٣' as argparse does, and refuses '²' (though '²'.isdigit());
    # argparse reads '-1' as a value and '-1_000', which int() takes, as a flag
    *(["analyze", *_CONIC, "--search-bound", v] for v in ("²", "٣", "5_000", " 7", "+3", "-1", "-1_000")),
    ["analyze", "--field=GF(2)(t)", "--eq", "y^2 = x + t*x^2"], ["analyze", *_CONIC, "--js"],
    ["analyze", *_CONIC, "--"], ["analyze", *_CONIC, "--json", "-h"],
    ["analyze", *_CONIC, "--eq", "y^2 = x + t^3*x^2"], ["analyze", *_CONIC, "--json", "--json"],
    ["analyze", "--field", "GF(2)(t)", "--eq", ""], ["analyze", *_CONIC, "--search-bound", ""],
    ["analyze", *_CONIC, "--pole-bound", "4"], ["analyze", *_CONIC, "--search-bound"],
    ["analyze", "--field", "GF(2)(t)", "--eq", "--json"],  # a flag where a value belongs
]


def _outcome_of(argv, capsys):
    """(exit code, stdout, stderr) of main(argv), argparse's exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dispatch_matches_the_full_parser(capsys, monkeypatch):
    # main reads a well-formed analyze argv itself and hands the rest to the
    # full parser; with the reader off, every argv goes to a fresh full
    # parser, as it always did
    direct = [_outcome_of(argv, capsys) for argv in _DISPATCH_ARGVS]
    monkeypatch.setattr(cli_mod, "_make_parser", _make_parser.__wrapped__)
    monkeypatch.setattr(cli_mod, "_read_analyze", lambda argv: None)
    full = [_outcome_of(argv, capsys) for argv in _DISPATCH_ARGVS]
    for argv, got, want in zip(_DISPATCH_ARGVS, direct, full):
        assert got == want, argv
    seen = {tuple(argv): outcome for argv, outcome in zip(_DISPATCH_ARGVS, direct)}
    code, out, err = seen[("analyze", *_CONIC, "--bogus")]
    assert (code, out) == (2, "")
    assert err.startswith("usage: unipic [-h]") and err.endswith("unipic: error: unrecognized arguments: --bogus\n")
    code, _, err = seen[("analyze", "--field", "GF(2)(t)")]
    assert code == 2
    assert err.endswith("unipic analyze: error: the following arguments are required: --eq\n")
    code, _, err = seen[("analyze", *_CONIC, "--search-bound", "²")]
    assert code == 2 and err.endswith("error: argument --search-bound: invalid int value: '²'\n")


def test_direct_reader_takes_what_argparse_builds():
    # the reader's tables are the analyze parser's own options; on the argvs
    # it reads it builds argparse's Namespace, and it reads every golden one
    sub, = (a.choices["analyze"] for a in _make_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = [a for a in sub._actions if a.dest != "help"]
    assert cli_mod._ANALYZE_FLAGS == {
        opt: (a.dest, None if a.nargs == 0 else a.type or str) for a in options for opt in a.option_strings}
    assert all(a.const is True for a in options if a.nargs == 0)  # store_true
    assert cli_mod._ANALYZE_DEFAULTS == {a.dest: a.default for a in options if not a.required}
    assert {a.dest for a in options if a.required} == {"field", "eq"}
    golden, read = [case["argv"] for case in GOLDEN], 0
    for argv in _DISPATCH_ARGVS:
        args = cli_mod._read_analyze(argv[1:]) if argv[:1] == ["analyze"] else None
        if args is not None:
            read += 1
            assert args == sub.parse_known_args(argv[1:])[0], argv
        elif argv in golden:
            pytest.fail(f"a golden argv went to argparse: {argv}")
    assert read > len(GOLDEN)


def test_paper_examples_failure_exit(monkeypatch, capsys):
    fake = [CatalogueResult("demo", False, "boom")]
    monkeypatch.setattr(catalogue_mod, "run_catalogue", lambda: fake)
    code, out, _ = run_cli(capsys, "paper-examples")
    assert code == 1
    assert "FAIL demo" in out
    assert "0/1 examples pass" in out


def test_catalogue_entries_pinned():
    results = run_catalogue()
    assert [r.name for r in results] == [
        "conic-pic-group",
        "two-variable-residue-p2",
        "two-variable-residue-p3",
        "plane-model-rewrite-p2",
        "plane-model-rewrite-p3",
        "level-chain-strict-inequality",
        "degree-p-boundary-p2",
        "degree-p-boundary-p3",
        "no-point-two-variable-torsor",
        "generic-fiber-trivial-pic",
        "projective-line-complement-family",
    ]
    assert all(r.passed for r in results)


def test_catalogue_entry_that_raises_is_a_failure(monkeypatch):
    def broken():
        raise ZeroDivisionError("boom")

    entries = [("broken", broken), ("fine", lambda: (True, "ok"))]
    monkeypatch.setattr(catalogue_mod, "_ENTRIES", entries)
    assert run_catalogue() == [
        CatalogueResult("broken", False, "error: ZeroDivisionError: boom"),
        CatalogueResult("fine", True, "ok"),
    ]


def test_output_digest_pinned(capsys):
    # byte-identical output on every golden call; a change that alters the
    # output on purpose updates this pin and says why
    path = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"
    spec = importlib.util.spec_from_file_location("output_digest", path)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    assert digest.main() == 0
    assert capsys.readouterr().out == (
        "dc9ac6ac1773baf14f7be129a903a99b19d2af2d5c10c76247465b8cb2025cdd  2767 calls\n")


@pytest.fixture(scope="module")
def digest_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"
    spec = importlib.util.spec_from_file_location("output_digest", path)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    return digest, digest.side(digest.ROOT)


def test_output_diff_of_a_tree_against_itself_is_empty(digest_script):
    digest, calls = digest_script
    assert len(calls) > 2000
    assert digest.compare(calls, digest.side(digest.ROOT)) == ([], [], [])


def test_output_diff_lists_the_calls_an_edit_changes(digest_script, tmp_path):
    # a copy whose one certificate string is renamed differs on exactly the
    # calls that print it, and on no other
    digest, calls = digest_script
    root = digest.ROOT
    shutil.copytree(root / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    for data in ("perfbench/golden.json", "tests/golden_analyze.json"):
        (tmp_path / data).parent.mkdir(exist_ok=True)
        shutil.copy(root / data, tmp_path / data)
    picard = tmp_path / "src" / "unipic" / "picard.py"
    text = picard.read_text()
    assert text.count('"zero-upper-bound"') == 1
    picard.write_text(text.replace('"zero-upper-bound"', '"zero-upper-bound*"'))
    printing = [argv for argv, (_, out, _) in calls.items() if "zero-upper-bound" in out]
    assert printing
    assert digest.compare(calls, digest.side(tmp_path)) == (printing, [], [])


def test_bench_pairs_verdicts():
    # synthetic pairs, ten per metric: one gain, one regression past its
    # bound, one whose parent spread is wider than its bound
    path = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    series = {  # name: (parent runs, change runs)
        "faster": ([1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00],
                   [0.80, 0.81, 0.79, 0.82, 0.78, 0.80, 0.81, 0.79, 0.80, 0.80]),
        "slower": ([1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00],
                   [1.30, 1.31, 1.29, 1.32, 1.28, 1.30, 1.31, 1.29, 1.30, 1.30]),
        "noisy": ([0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.0],
                  [0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.0, 1.0, 1.0]),
    }
    pairs = [{side: {"metrics": {name: runs[k][i] for name, runs in series.items()}}
              for k, side in enumerate(("parent", "change"))} for i in range(10)]
    metrics = [{"name": name, "better": "lower", "bound": 0.25, "unit": "ref"} for name in series]
    summary = bench.summarise(pairs, metrics)
    verdicts = {name: {v for v in ("gain", "worse", "unresolved") if s[v]} for name, s in summary.items()}
    assert verdicts == {"faster": {"gain"}, "slower": {"worse"}, "noisy": {"unresolved"}}
    assert summary["faster"]["won"] == 10 and summary["slower"]["won"] == 0
    # a higher-is-better metric flips every comparison
    flipped = bench.summarise(pairs, [{"name": "slower", "better": "higher", "bound": 0.25, "unit": "ref"}])
    assert flipped["slower"]["gain"] and not flipped["slower"]["worse"]
    # a share of counts repeats exactly for a seed, so it is judged pair by
    # pair: a spread over seeds that both sides share is neither unresolved
    # nor worse, and one pair worse past the bound is worse
    by_seed = [0.90, 0.93, 0.88, 0.95, 0.91, 0.86, 0.94, 0.89, 0.92, 0.87]
    exact = {"name": "exact_frac", "better": "higher", "bound": 0.001, "unit": "frac"}
    for change, want in ((by_seed, set()), (by_seed[:4] + [0.9085] + by_seed[5:], {"worse"})):
        runs = [{"parent": {"metrics": {"exact_frac": a}}, "change": {"metrics": {"exact_frac": b}}}
                for a, b in zip(by_seed, change)]
        s = bench.summarise(runs, [exact])["exact_frac"]
        assert s["parent_iqr"] > 0.001 * s["parent"]["median"]
        assert {v for v in ("gain", "worse", "unresolved") if s[v]} == want
    # each side's src/ line count comes from the drift records of its runs
    for i, pair in enumerate(pairs):
        pair["parent"]["drift"] = {"src_lines": 2962}
        pair["change"]["drift"] = {"src_lines": 2985 if i else 2990}
    assert bench.src_lines({"forms": pairs[1:], "oracle": pairs[1:]}) == {"parent": 2962, "change": 2985}
    assert bench.src_lines({"forms": pairs}) == {"parent": 2962, "change": [2985, 2990]}
    # each side's median raw set-up CPU seconds, also from the drift records
    for i, pair in enumerate(pairs):
        pair["parent"]["drift"]["setup_cpu_s"] = 0.040 + 0.001 * i
        pair["change"]["drift"]["setup_cpu_s"] = 0.030 + 0.002 * i
    assert bench.setup_cpu(pairs) == pytest.approx({"parent": 0.0445, "change": 0.039})
