"""Command line interface: parsing, rendering, JSON schema, exit codes."""

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import unipic.catalogue as catalogue_mod
import unipic.cli as cli_mod
from unipic import FieldDesc, Torsor, invariant_report, run_catalogue
from unipic.catalogue import CatalogueResult
from unipic.cli import (
    BadExponent,
    NotAdditive,
    NotPrime,
    ParseError,
    _make_parser,
    _parse_value,
    _to_json,
    main,
    parse_field_spec,
    parse_form_equation,
    report_to_dict,
    render_report_text,
)
from parse_reference import (
    parse_field_spec_reference,
    parse_form_equation_reference,
    parse_value_reference,
)

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


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2 ** 70, 2 ** 70)
    | st.text(max_size=6) | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é ☃ 𝄞", "\u2028\ud800", ""]),
    lambda v: st.lists(v, max_size=3) | st.lists(v, max_size=2).map(tuple)
    | st.dictionaries(st.text(max_size=4), v, max_size=3),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(value=_JSON_VALUES)
@example(value={"": [], "a": {}, "b": [[], {}, [{}]], "c": {"d": {}}})
@example(value={"t": True, "f": False, "n": None, "i": -3, "s": 'q"\\\n\té'})
def test_json_writer_matches_json_dumps(value):
    assert _to_json(value) == json.dumps(value, indent=2, sort_keys=True)


def test_json_writer_on_golden_reports(capsys, monkeypatch):
    # the dicts report_to_dict hands the writer on every pinned --json case
    reports = []

    def record(rep):
        reports.append(report_to_dict(rep))
        return reports[-1]

    monkeypatch.setattr(cli_mod, "report_to_dict", record)
    for case in GOLDEN:
        assert main(case["argv"]) == 0
    capsys.readouterr()
    assert len(reports) == sum("--json" in case["argv"] for case in GOLDEN) > 0
    for d in reports:
        assert _to_json(d) == json.dumps(d, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [
    1.5, {1, 2}, b"x", object(), {1: "a"}, [1, 2.0], {"a": {"b": frozenset()}},
])
def test_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        _to_json(value)


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


# a window of P = 2000 and a level n = 4: the oracle costs O(p^n + P)
@pytest.mark.parametrize("eq,extra,h1", [
    ("y^9 = x + t*x^3", ("--pole-bound", "2000"), 7),
    ("y^81 = x + t*x^3", (), 79),
])
def test_genus_oracle_large_window(capsys, eq, extra, h1):
    code, out, _ = run_cli(capsys, "genus", "--field", "GF(3)(t)",
                           "--eq", eq, "--oracle", *extra)
    assert code == 0
    assert f"genus = {h1}" in out
    assert f"cech h1 = {h1} (stabilized: true)" in out


def test_analyze_oracle_large_window(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--field", "GF(3)(t)",
                           "--eq", "y^9 = x + t*x^3", "--oracle", "--pole-bound", "2000")
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
    assert "m(X)   = <= 5 (bound)\n" in out


@pytest.mark.parametrize("command, flag, eq", [
    ("analyze", "--search-bound", "y^2 = u + x + t*x^2"),  # obstructed at t = oo
    ("analyze", "--search-bound", "y^2 = t + x + t*x^2"),
    ("points", "--max-deg", "y^2 = u + x + t*x^2"),
])
def test_negative_search_bound_is_refused(capsys, command, flag, eq):
    # the obstruction skips the search, so the bound is checked before it
    code, out, err = run_cli(capsys, command, "--field", "GF(2)(t,u)", "--eq", eq, flag, "-1")
    assert (code, out, err) == (2, "", "error: max_deg must be nonnegative\n")


def test_analyze_high_power_of_a_sum(capsys):
    # binary square-and-multiply formed dense powers (t+1)^(2^j) and was
    # killed at 100 s; by base-3 digits the power has 432 terms
    eq = "y^3 = x + (t+1)^100000*x^3"
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "analyze", "--field", "GF(3)(t)", "--eq", eq)
    assert time.perf_counter() - start < 2
    assert code == 0 and "[k':k] = 3\n" in out
    assert len(parse_form_equation(eq, FieldDesc(3, ("t",))).coeffs[1][1].num.terms) == 432


@pytest.mark.parametrize("raw, message", [
    ("abc", "UNIPIC_BASIS_CAP must be an integer, got 'abc'"),
    ("0", "UNIPIC_BASIS_CAP must be positive, got 0"),
])
def test_malformed_basis_cap_fails_every_subcommand(capsys, monkeypatch, raw, message):
    # refused up front, even where the input never builds a dense basis
    monkeypatch.setenv("UNIPIC_BASIS_CAP", raw)
    for argv in (("analyze", "--field", "GF(2)(t)", "--eq", "y^2 = x + t*x^2"),
                 ("hilbert", "--a", "2", "--delta", "3")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


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
    # parsing recurses once per parenthesis; running out of stack exits 2
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: parentheses nested too deeply (at position ")


def test_moderate_nesting_still_parses(capsys):
    plain = run_cli(capsys, "analyze", "--field", "GF(2)(t)", "--eq", "y^2 = x + t*x^2")
    nested = run_cli(capsys, "analyze", "--field", "GF(2)(t)",
                     "--eq", "y^2 = x + " + _nested_t(300) + "*x^2")
    assert nested == plain
    assert plain[0] == 0


@pytest.mark.parametrize("command", ["analyze", "genus"])
def test_rejected_pole_bound_prints_nothing(capsys, command):
    code, out, err = run_cli(capsys, command, "--field", "GF(2)(t)",
                             "--eq", "y^4 = x + t*x^2", "--oracle", "--pole-bound", "1")
    assert code == 2
    assert out == ""
    assert "error: pole_bound must be at least 2" in err


@pytest.mark.parametrize("command", ["analyze", "genus"])
@pytest.mark.parametrize("bound", ["1", "10"])
def test_pole_bound_needs_the_oracle(capsys, command, bound):
    # without --oracle the bound was ignored, while --oracle refused 1
    code, out, err = run_cli(capsys, command, "--field", "GF(2)(t)",
                             "--eq", "y^4 = x + t*x^2", "--pole-bound", bound)
    assert (code, out, err) == (2, "", "error: a pole bound needs the oracle\n")


def test_cech_not_stabilized_pinned(capsys):
    argv = ["analyze", "--field", "GF(2)(t)", "--eq", "y^2 = x + t*x^8",
            "--oracle", "--pole-bound", "2"]
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
])
def test_analyze_large_splitting_degree(capsys, field, eq, extra, degree):
    # the Frobenius chain bounds settle the first six without a dense basis
    # of 2^14, 5^4 or 7^4 unknowns; the fifth and sixth once ran past 100 s
    # on that basis.  The last is left open at 125 <= [k':k] <= 625, so the
    # dense basis of 5^4 unknowns decides it
    code, out, _ = run_cli(capsys, "analyze", "--field", field, "--eq", eq, *extra)
    assert code == 0
    assert f"[k':k] = {degree}\n" in out


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


def test_paper_examples_failure_exit(monkeypatch, capsys):
    fake = [CatalogueResult("demo", False, "boom")]
    monkeypatch.setattr(cli_mod, "run_catalogue", lambda: fake)
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
        "0fe6c16517dd39ce40e89b35888f57676983c73f790bff212b2e7bc3b8599bd7  2871 calls\n")
