"""Row-by-row Cech H^1 window: the reference for `unipic.wproj.cech_h1_dim`.

It rebuilds f^q with q products for every boundary row and sends every
row, unit rows included, through the elimination.  It shares only
`RowSpace` with the library code.  `cech_h1_dim(C, P)` should equal
(h1_dim_window(C, P), h1_dim_window(C, P) == h1_dim_window(C, P - 1)).
"""

from unipic.forms import _unpack
from unipic.linalg import RowSpace


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


def h1_dim_window(C, N):
    """Cech H1 of the completion truncated to x-exponents in [-N, N]."""
    field, n, coeffs, b = _unpack(C.source)
    p = field.p
    m = len(coeffs) - 1
    pn = p ** n
    ncols = (2 * N + 1) * pn

    def col(e, j):
        return (e + N) * pn + j

    space = RowSpace()
    one = field.one()
    for e in range(0, N + 1):
        for j in range(pn):
            space.insert({col(e, j): one})
    if n <= m:
        a = p ** (m - n)
        for j in range(pn):
            for e in range(-N, min(-a * j, 0) + 1):
                space.insert({col(e, j): one})
    else:
        a = p ** (n - m)
        fdict = {p ** i: c for i, c in enumerate(coeffs) if c}
        if b:
            fdict[0] = fdict.get(0, field.zero()) + b
        for l in range(0, N + 1):
            for i in range(0, a * l + 1):
                q, rho = divmod(i, pn)
                if q == 0:
                    space.insert({col(-l, rho): one})
                    continue
                poly = _poly_pow_dict(fdict, q, field)
                row = {}
                for e, c in poly.items():
                    if -N <= e - l <= N:
                        row[col(e - l, rho)] = c
                space.insert(row)
    return ncols - space.rank

