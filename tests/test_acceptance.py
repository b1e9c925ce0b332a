"""Acceptance gate: end-to-end checks with stated time budgets.

Each test records one PASS/FAIL line; the conftest terminal-summary hook
prints the collected lines after the run.
"""

import random
import time

import pytest

from unipic import (
    FieldDesc,
    MPoly,
    cech_h1_dim,
    equation_holds,
    find_rational_point,
    generic_fiber_torsor,
    genus_from_formula,
    hilbert_dim,
    invariant_report,
    is_regular_at_infinity,
    make_form,
    naive_completion,
    pic_p1_complement,
    plane_model_residual,
    rewrite_plane_model,
)
from unipic.cli import main as cli_main

from hilbert_reference import hilbert_count_reference

RESULTS = []


def record(name, budget, started, checks):
    elapsed = time.perf_counter() - started
    ok = all(checks) and elapsed < budget
    RESULTS.append((name, ok, elapsed, budget))
    assert all(checks), f"{name}: value checks failed"
    assert elapsed < budget, f"{name}: {elapsed:.2f}s exceeded {budget}s"


def field_for(p):
    return FieldDesc(p, ("t",))


def form_over(field, n, coeffs):
    m = max(coeffs)
    cs = [coeffs.get(i, field.zero()) for i in range(m + 1)]
    return make_form(n, cs)


def test_acceptance_1_conic_report():
    started = time.perf_counter()
    k = field_for(2)
    t = k.var("t")
    rep = invariant_report(form_over(k, 1, {0: k.one(), 1: t}))
    checks = [
        rep.n.kind == "exact" and rep.n.value == 1,
        rep.n_prime.kind == "exact" and rep.n_prime.value == 0,
        rep.r.kind == "exact" and rep.r.value == 1,
        rep.m_X.kind == "exact" and rep.m_X.value == 1,
        rep.splitting_degree == 2,
        rep.genus.kind == "exact" and rep.genus.value == 0,
        rep.pic_group == "Z/2Z",
    ]
    record("criterion-1 conic full report, Pic = Z/2Z", 1.0, started, checks)


def test_acceptance_2_genus_grid():
    started = time.perf_counter()
    checks = []
    for p in (2, 3):
        k = field_for(p)
        t = k.var("t")
        for n in (1, 2):
            for m in (1, 2):
                C = naive_completion(form_over(k, n, {0: k.one(), m: t}))
                lo, hi = p ** min(n, m), p ** max(n, m)
                expected = (lo - 1) * (hi - 2) // 2
                dim, stable = cech_h1_dim(C)
                checks.append(genus_from_formula(C) == expected)
                checks.append(stable and dim == expected)
    record("criterion-2 genus grid formula = Cech on 8 cells", 60.0,
           started, checks)


def test_acceptance_3_naive_strictly_singular():
    started = time.perf_counter()
    k = field_for(2)
    t = k.var("t")
    # y^2 = x + t x^2 + t^2 x^4 presents the same form as y^2 = x + t x^2
    # via w = y + t x^2; check the substitution identity exactly
    plane = FieldDesc(2, ("t", "x", "y"))
    tp, xp, yp = (plane.var(v) for v in ("t", "x", "y"))
    w = yp + tp * xp * xp
    lhs = w * w
    rhs = yp * yp + tp * tp * xp ** 4
    checks = [lhs == rhs]

    fat = form_over(k, 1, {0: k.one(), 1: t, 2: t * t})
    slim = form_over(k, 1, {0: k.one(), 1: t})
    naive_g, stable = cech_h1_dim(naive_completion(fat))
    regular_g = genus_from_formula(naive_completion(slim))
    checks += [
        stable,
        not is_regular_at_infinity(naive_completion(fat)).is_field,
        is_regular_at_infinity(naive_completion(slim)).is_field,
        naive_g == 1,
        regular_g == 0,
        naive_g > regular_g,
    ]
    record("criterion-3 naive completion genus strictly exceeds regular model",
           30.0, started, checks)


def test_acceptance_4_hilbert_formula():
    started = time.perf_counter()
    checks = []
    for a in range(1, 10):
        for delta in range(0, 11):
            checks.append(hilbert_dim(a, delta)
                          == hilbert_count_reference(a, delta))
    assert len(checks) == 99
    record("criterion-4 hilbert formula = count on 99 cells", 5.0,
           started, checks)


def test_acceptance_5_plane_model_rewrite():
    started = time.perf_counter()
    checks = []
    for p in (2, 3):
        k = field_for(p)
        t = k.var("t")
        ti = k.one() / t
        g = form_over(k, 3, {0: k.one(), 1: t, 2: t ** (p * p)})
        pm = rewrite_plane_model(g, t, 1)
        checks += [
            dict(pm.wcoeffs) == {0: ti, 1: t * ti.frobenius(1), 2: k.one()},
            dict(pm.ycoeffs) == {1: ti, 2: t * ti.frobenius(1)},
            plane_model_residual(pm) == {},
        ]
    k2 = field_for(2)
    t2 = k2.var("t")
    rep = invariant_report(form_over(k2, 3, {0: k2.one(), 1: t2, 2: t2 ** 4}))
    checks += [
        rep.n.kind == "exact" and rep.n.value == 3,
        rep.n_prime.kind == "exact" and rep.n_prime.value == 2,
        rep.r.kind == "exact" and rep.r.value == 2,
        rep.n.value > max(rep.n_prime.value, rep.r.value),
    ]
    record("criterion-5 plane model rewrite and strict level chain", 5.0,
           started, checks)


def test_acceptance_6_trivial_picard_searches():
    started = time.perf_counter()
    k2 = FieldDesc(2, ("t", "u"))
    t, u = k2.var("t"), k2.var("u")
    T = form_over(k2, 1, {0: k2.one(), 1: t})._replace(b=u)
    checks = [find_rational_point(T, 3) is None]

    k = field_for(2)
    gf = generic_fiber_torsor(form_over(k, 1, {0: k.one(), 1: k.var("t")}))
    rep = invariant_report(gf, search_bound=3)
    checks += [
        "pic-trivial-by-construction" in rep.flags,
        rep.pic_group == "0",
        rep.point is None,
    ]
    record("criterion-6 no small points, generic fiber Pic trivial", 300.0,
           started, checks)


def test_acceptance_7_p1_complement_family():
    started = time.perf_counter()
    k = field_for(2)
    t = k.var("t")
    checks = []
    for e in (1, 2, 3):
        data = pic_p1_complement(e, t)
        checks += [
            data.pic_structure == f"Z/{2 ** e}Z",
            data.pic_order == 2 ** e,
            data.pic_order <= 2 ** data.n.value,
        ]
    record("criterion-7 projective line complement gives Z/p^e", 1.0,
           started, checks)


def test_acceptance_8_randomized_invariant_relations():
    started = time.perf_counter()
    rng = random.Random(20260823)
    checks = []

    def monomial_fraction(field):
        c = field.const(rng.randint(1, field.p - 1))
        e = rng.randint(-2, 2)
        t = field.var("t")
        return c * t ** e if e >= 0 else c / t ** (-e)

    for _ in range(50):
        p = rng.choice((2, 3))
        field = field_for(p)
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        coeffs = {0: field.one(), m: monomial_fraction(field)}
        for i in range(1, m):
            if rng.random() < 0.5:
                coeffs[i] = monomial_fraction(field)
        X = form_over(field, n, coeffs)
        if rng.random() < 0.5:
            X = X._replace(b=monomial_fraction(field))
        rep = invariant_report(X)
        if rep.n.kind == rep.n_prime.kind == rep.r.kind == "exact":
            checks.append(rep.n.value >= max(rep.n_prime.value, rep.r.value))
        if rep.r.kind == "exact" and rep.m_X.kind == "exact":
            checks.append((p ** rep.r.value) % rep.m_X.value == 0)
        if rep.point is not None:
            checks.append(equation_holds(X, *rep.point))
    assert checks, "no relations were exercised"
    record("criterion-8 randomized level and torsion relations", 120.0,
           started, checks)


def test_acceptance_9_paper_examples_cli(capsys):
    started = time.perf_counter()
    code = cli_main(["paper-examples"])
    out = capsys.readouterr().out
    checks = [
        code == 0,
        "11/11 examples pass" in out,
        "FAIL" not in out,
    ]
    record("criterion-9 worked-example catalogue passes via CLI", 600.0,
           started, checks)
