"""Row-by-row Cech H^1 window: the reference for `unipic.wproj.cech_h1_dim`.

It rebuilds f^q with q products for every boundary row and sends every
row, unit rows included, through the elimination.  The sums that
`unipic.wproj._unit_count` replaced by their closed forms are kept in
`unit_count_reference`.  It imports no library module: the elimination
is `tower_reference.RowSpace`, the arithmetic that of the curve's field,
and none of the count of `unipic.wproj` is reused.  With P = 2 * C.degree,
`cech_h1_dim(C)` should equal (h1_dim_window(C, P),
h1_dim_window(C, P) == h1_dim_window(C, P - 1)).
"""

from tower_reference import RowSpace


def _poly_pow_dict(base, q, field):
    out = {0: field.one()}
    for _ in range(q):
        nxt = {}
        for e1, c1 in out.items():
            for e2, c2 in base.items():
                cur = nxt.get(e1 + e2, field.zero()) + c1 * c2
                if cur:
                    nxt[e1 + e2] = cur
                elif e1 + e2 in nxt:
                    del nxt[e1 + e2]
        out = nxt
    return out


def _unit_column(e, j, a, low):
    """Whether x^e y^j is a unit row's column: e >= 0, or a j <= -e (n <= m) or j <= -a e (n > m)."""
    return e >= 0 or (a * j <= -e if low else j <= -a * e)


def unit_count_reference(N, pn, a, low):
    """The number of unit columns of window N as the sum over j (n <= m) or over l (n > m)."""
    if low:
        return (N + 1) * pn + sum(max(0, N + 1 - max(a * j, 1)) for j in range(pn))
    return (N + 1) * pn + sum(min(a * l + 1, pn) for l in range(1, N + 1))


def _explicit_unit_columns(N, pn, a, low):
    """The unit columns (e, j) of window N, read off the unit rows that `window_rows` yields."""
    units = {(e, j) for e in range(0, N + 1) for j in range(pn)}
    if low:
        units.update((e, j) for j in range(pn) for e in range(-N, min(-a * j, 0) + 1))
    else:
        units.update((-l, rho) for l in range(N + 1) for rho in range(min(a * l + 1, pn)))
    return units


def window_rows(C, N):
    """The rows of the window [-N, N] as (q, row), in insertion order.

    Unit rows carry q = 0.  For n > m the boundary row of y^i z^s / x^l
    with i = q p^n + rho and q >= 1 holds the coefficients of f^q shifted
    by -l, at the columns of y^rho.
    """
    X = C.source
    field, n, m, coeffs, b = X.field, X.n, X.m, X.coeffs, X.b
    p = field.p
    pn = p ** n

    def col(e, j):
        return (e + N) * pn + j

    one = field.one()
    for e in range(0, N + 1):
        for j in range(pn):
            yield 0, {col(e, j): one}
    if n <= m:
        a = p ** (m - n)
        for j in range(pn):
            for e in range(-N, min(-a * j, 0) + 1):
                yield 0, {col(e, j): one}
    else:
        a = p ** (n - m)
        fdict = {p ** i: c for i, c in enumerate(coeffs) if c}
        if b:
            fdict[0] = fdict.get(0, field.zero()) + b
        for l in range(0, N + 1):
            for i in range(0, a * l + 1):
                q, rho = divmod(i, pn)
                if q == 0:
                    yield 0, {col(-l, rho): one}
                    continue
                poly = _poly_pow_dict(fdict, q, field)
                yield q, {col(e - l, rho): c for e, c in poly.items() if -N <= e - l <= N}


def h1_dim_window(C, N):
    """Cech H1 of the completion truncated to x-exponents in [-N, N]."""
    space = RowSpace()
    for _, row in window_rows(C, N):
        space.insert(row)
    return (2 * N + 1) * C.field.p ** C.source.n - space.rank
