"""The local obstruction: no point of degree prime to p, proved at t_j = 0 or oo."""

import contextlib
import io
import itertools
import json
import random

import pytest

import unipic.forms
from unipic import FieldDesc, MPoly, RatFunc, find_rational_point, make_form
from unipic.cli import main, parse_field_spec, parse_form_equation
from unipic.forms import _search, local_obstruction

from obstruction_reference import _order_and_lead, fraction_obstruction
from search_reference import _is_qth_power, brute_force_search
from test_forms import _golden_variants, _search_oracle_inputs


def _golden_torsors():
    """Every golden torsor variant, built, with its bound, argv and golden point flag."""
    out = []
    for v in _golden_variants():
        T = parse_form_equation(v["eq"], parse_field_spec(v["field"])).build()
        if T.b:
            argv = ["analyze", "--field", v["field"], "--eq", v["eq"],
                    "--search-bound", str(v["bound"])] + ["--oracle"] * v["oracle"]
            out.append((T, v["bound"], argv, v["expect"]["point"]))
    return out


GOLDEN = _golden_torsors()


def _laurent(rng, field, k=2, span=4):
    """A sum of k terms c t^a u^b, the exponents in [-span, span]: varied valuations at 0 and oo."""
    r = field.r
    num = MPoly.make(field, {tuple(rng.randint(0, 2 * span) for _ in range(r)): rng.randint(1, field.p - 1)
                             for _ in range(k)})
    den = MPoly.make(field, {(span,) * r: 1})
    return RatFunc(num, den)


def _random_form(rng, top):
    """A form over GF(p)(t[,u]), p in {2, 3, 5}, 1 <= n, m <= top, with Laurent coefficients."""
    p, r, n, m = rng.choice((2, 3, 5)), rng.choice((1, 2)), rng.randint(1, top), rng.randint(1, top)
    field = FieldDesc(p, ("t", "u")[:r])
    tau = [field.one()] + [_laurent(rng, field, rng.randint(1, 2)) if i == m or rng.random() < 0.5
                           else field.zero() for i in range(1, m + 1)]
    return make_form(n, tau)


def _seeded_torsors(seed, count):
    """Random torsors: a form of _random_form(rng, 3) and a random b."""
    rng = random.Random(seed)
    for _ in range(count):
        G = _random_form(rng, 3)
        yield G._replace(b=_laurent(rng, G.field, rng.randint(1, 2)))


def _planted_torsors(seed, count):
    """Torsors over GF(p)(t[,u]), p in {2, 3, 5}, 1 <= n, m <= 2, with a planted rational point.

    b = y0^q - tau(x0); y0 is 0 in a quarter of the draws, so that b ties
    with the dominant term of tau(x0) at a breakpoint of the envelope.
    """
    rng = random.Random(seed)
    for _ in range(count):
        G = _random_form(rng, 2)
        field = G.field
        x0 = _laurent(rng, field, rng.randint(1, 2))
        y0 = field.zero() if rng.random() < 0.25 else _laurent(rng, field, rng.randint(1, 2))
        b = y0.frobenius(G.n) - sum((c * x0.frobenius(i) for i, c in enumerate(G.coeffs)), field.zero())
        if b:
            yield G._replace(b=b), x0, y0


def _quadratic_point_torsors(seed, count):
    """Torsors over GF(p)(t[,u]), p in {3, 5}, with a point over L = k(s), s^2 = t.

    Take x = x0 + x1 s and y = y0 + y1 s in L and a_1, ..., a_(m-1) in k.
    As s^(p^i) = t^((p^i - 1)/2) s, the s-part of y^q - tau(x) is
    y1^q t^((q-1)/2) - sum_i a_i x1^(p^i) t^((p^i - 1)/2), which a_m makes 0;
    b is then the k-part y0^q - sum_i a_i x0^(p^i).  [L:k] = 2 is prime to p.
    """
    rng = random.Random(seed)
    while count:
        p, r, n, m = rng.choice((3, 5)), rng.choice((1, 2)), rng.randint(1, 2), rng.randint(1, 2)
        field = FieldDesc(p, ("t", "u")[:r])
        t, q = field.var("t"), p ** n
        x0, y0, y1 = (_laurent(rng, field, rng.randint(1, 2)) for _ in range(3))
        x1 = _laurent(rng, field, 1)  # a monomial: a_m costs no polynomial gcd
        a = [field.one()] + [_laurent(rng, field) if rng.random() < 0.5 else field.zero()
                             for _ in range(1, m)]
        s_part = y1 ** q * t ** ((q - 1) // 2) - sum(
            (c * x1.frobenius(i) * t ** ((p ** i - 1) // 2) for i, c in enumerate(a)), field.zero())
        a_m = s_part / (x1.frobenius(m) * t ** ((p ** m - 1) // 2))
        a.append(a_m)
        b = y0 ** q - sum((c * x0.frobenius(i) for i, c in enumerate(a)), field.zero())
        if a_m and b:
            count -= 1
            yield make_form(n, a, b)


def test_worked_case():
    # y^5 = u + x + t*x^5: the envelope at t = oo has its one breakpoint at
    # xi = 1/5, the segment of t*x^5 has valuation -1, and u is no fifth power
    field = parse_field_spec("GF(5)(t,u)")
    assert local_obstruction(parse_form_equation("y^5 = u + x + t*x^5", field).build()) == "t = oo"
    # a form always has the point x = 0
    assert local_obstruction(parse_form_equation("y^5 = x + t*x^5", field).build()) is None


def test_hull_matches_fraction_reference():
    # the integer convex hull against the pairwise Fraction sweep, on every
    # golden torsor and on a seeded corpus of Laurent coefficients; at t = 0,
    # the place always tried, b's lead test runs once q | v(b): for r = 1 on
    # a constant lead, and for r = 2 on a lead whose numerator and
    # denominator share a factor whose removal changes the exponent test
    seeded = list(_seeded_torsors(1717, 600))
    fired, classes = 0, set()
    for T in itertools.chain((T for T, *_ in GOLDEN), seeded):
        got = local_obstruction(T)
        assert got == fraction_obstruction(T), T
        fired += got is not None
        v, N, D = _order_and_lead(T.b, 0, False)
        q = T.field.p ** T.n
        if T.n and v % q == 0:
            raw = not any(x % q for f in (N, D) for e in f.terms for x in e)
            classes.add((T.field.r, raw == _is_qth_power(N, D, T.n)))
    assert fired and {T.field.p for T in seeded} == {2, 3, 5} and {T.field.r for T in seeded} == {1, 2}
    assert {(1, True), (2, False)} <= classes


def test_no_obstruction_where_a_point_is_found():
    # golden: where the obstruction fires, the golden report found no point
    # and the engine, which find_rational_point skips there, finds none; the
    # rest have no claim to check
    fired = [(T, bound, point) for T, bound, _, point in GOLDEN if local_obstruction(T)]
    assert fired and not any(point for *_, point in fired)
    assert all(_search(T, bound) is None for T, bound, _ in fired)
    # the seeded search corpus: hits found by the engine or the brute force
    for T, max_deg in _search_oracle_inputs():
        if local_obstruction(T):
            assert _search(T, max_deg) is None, T
            assert brute_force_search(T, max_deg) is None, T
    # planted rational points, with x0 on every side of the envelope
    for T, x0, y0 in _planted_torsors(1718, 900):
        assert local_obstruction(T) is None, (T, x0, y0)


def test_no_obstruction_with_a_point_of_degree_two():
    for T in _quadratic_point_torsors(1719, 150):
        assert local_obstruction(T) is None, T


def _analyze_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv + ["--json"]) == 0
    return json.loads(out.getvalue())


def test_output_unchanged_where_the_obstruction_fires(monkeypatch):
    # skipping the search is the whole effect: the report is the one a
    # search that finds nothing gives, m(X) | p^r included
    fired = [argv for T, _, argv, _ in GOLDEN if local_obstruction(T)]
    assert fired
    for argv in fired:
        with monkeypatch.context() as mp:
            mp.setattr(unipic.forms, "local_obstruction", lambda T: None)
            before = _analyze_json(argv)
        after = _analyze_json(argv)
        assert before == after, argv
        assert after["m_X"]["kind"] == "bound", argv


def test_obstruction_answers_before_the_engine(monkeypatch, capsys):
    # an obstructed torsor never reaches _search; a negative bound still
    # raises, and `points` prints the line a search that finds nothing prints
    field, eq = "GF(5)(t,u)", "y^5 = u + x + t*x^5"
    T = parse_form_equation(eq, parse_field_spec(field)).build()
    assert local_obstruction(T) == "t = oo"

    def engine(T, max_deg):
        raise AssertionError("the search engine ran on an obstructed torsor")

    monkeypatch.setattr(unipic.forms, "_search", engine)
    assert find_rational_point(T, 3) is None
    with pytest.raises(ValueError, match="max_deg must be nonnegative"):
        find_rational_point(T, -1)
    assert main(["points", "--field", field, "--eq", eq, "--max-deg", "2"]) == 0
    assert capsys.readouterr().out == "no point found (bound 2)\n"
