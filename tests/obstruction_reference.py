"""Reference for the local obstruction `unipic.forms.local_obstruction`.

`fraction_obstruction` decides the same question by a pairwise sweep in
`Fraction` arithmetic and shares no code with the engine beyond
`_unpack`: it intersects every pair of lines, keeps the intersections
where the least value is reached at least twice, and samples each open
segment between them to find its one dominant term.  Valuations and
leading coefficients are read off the terms here, and the q-th-power test
is the partial-derivative test of `tests/search_reference.py`, so the two
agree only if the convex-hull pass, its integer breakpoint test and the
Frobenius ladder of the engine are sound.
"""

from fractions import Fraction
from itertools import combinations

from unipic import MPoly
from unipic.forms import _unpack

from search_reference import _is_qth_power


def _order_and_lead(f, j, inf):
    """v(f) at t_j = 0 (or oo) and the two parts of its leading coefficient."""
    def end(g):
        d = [e[j] for e in g.terms]
        d = max(d) if inf else min(d)
        return d, MPoly(g.field, {e[:j] + (0,) + e[j + 1:]: c
                                  for e, c in g.terms.items() if e[j] == d})
    (dn, N), (dd, D) = end(f.num), end(f.den)
    return (dd - dn if inf else dn - dd), N, D


def fraction_obstruction(T):
    """The first place t_j = 0, then t_j = oo, in variable order, that obstructs, or None."""
    field, n, coeffs, b = _unpack(T)
    if not b or n == 0:
        return None
    p, q = field.p, field.p ** n
    for j, name in enumerate(field.vars):
        for inf in (False, True):
            terms = {-1: b, **{i: c for i, c in enumerate(coeffs) if c}}
            data = {i: _order_and_lead(f, j, inf) for i, f in terms.items()}
            slope = {i: 0 if i < 0 else p ** i for i in terms}

            def value(i, xi):
                return data[i][0] + slope[i] * xi

            def tie_possible(i):
                v, N, D = data[i]
                if 0 <= i < n:
                    return v % p ** i == 0
                return v % q == 0 and _is_qth_power(N, D, n)

            if tie_possible(-1):  # x = 0 is not ruled out
                continue
            xs = sorted({Fraction(data[k][0] - data[i][0], slope[i] - slope[k])
                         for i, k in combinations(terms, 2)})
            low = [min(value(i, xi) for i in terms) for xi in xs]
            if any(sum(value(i, xi) == v for i in terms) > 1 and xi.denominator % p
                   for xi, v in zip(xs, low)):
                continue
            samples = [xs[0] - 1, *((a + c) / 2 for a, c in zip(xs, xs[1:])), xs[-1] + 1]
            if not any(tie_possible(min(terms, key=lambda i: value(i, xi))) for xi in samples):
                return f"{name} = {'oo' if inf else 0}"
    return None
