"""The auxiliary-field root tower, kept for the tests as the oracle.

This is the dense path of `unipic.field` as it stood before it was read
through Frobenius: elements of k^(1/p^N) live over an auxiliary field
F_p(u_1, ..., u_r) with u_j^(p^N) = t_j, and coordinates over k clear each
denominator with a (p^N - 1)-th power.  `dense_degree_reference` is the old
`_dense_degree`, the oracle for both the chain bounds of
`compositum_degree` and the Frobenius-side `unipic.field._dense_degree`.
`subfield_membership(x, gens)` decides x in k(gens) on the same basis.

`RowSpace` is exact row reduction over k with `RatFunc` entries, each
pivot row normalized.  `degree_bounds_reference` is the Frobenius chain
bounds of `unipic.field._degree_bounds` as they stood with the Jacobian
echeloned in a `RowSpace` on rows built by `ratfunc_partial`, and
`dense_degree_rowspace_reference` is `unipic.field._dense_degree` as it
stood with its span in a `RowSpace`: the oracles for the fraction-free
elimination `unipic.field._reduce` that replaced both.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

from unipic.field import BASIS_CAP, BasisTooLarge, FieldDesc, MPoly, RatFunc, ZeroInput, _coords as _frobenius_coords


class RowSpace:
    """Growing echelon basis of a subspace over k, one normalized row per pivot column.

    Rows map column indices to nonzero entries of any field-like type
    (+, -, *, / and truthiness); pivot rows are normalized on insertion,
    so a reduction takes one multiply per eliminated column.
    """

    def __init__(self):
        self.pivots: dict[int, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce(self, row: dict) -> tuple[Optional[int], dict]:
        work = {c: v for c, v in row.items() if v}
        while work:
            lead = min(work)
            piv = self.pivots.get(lead)
            if piv is None:
                return lead, work
            c = work.pop(lead)
            for col, val in piv.items():
                if col == lead:
                    continue
                cur = work.get(col)
                nxt = (cur - c * val) if cur is not None else -(c * val)
                if nxt:
                    work[col] = nxt
                elif col in work:
                    del work[col]
        return None, {}

    def insert(self, row: dict) -> bool:
        """Add a row; True if it enlarged the span."""
        lead, red = self._reduce(row)
        if lead is None:
            return False
        c = red[lead]
        norm = {col: val / c for col, val in red.items()}
        self.pivots[lead] = norm
        return True

    def reduces_to_zero(self, row: dict) -> bool:
        lead, _ = self._reduce(row)
        return lead is None


class LevelMismatch(ValueError):
    """Root-tower elements at different levels were combined."""


def tower_field(base: FieldDesc, level: int) -> FieldDesc:
    """Auxiliary field F_p(u_1, ..., u_r) with u_j standing for t_j^(1/p^level)."""
    return FieldDesc(base.p, tuple(f"{v}#{level}" for v in base.vars))


@dataclass(frozen=True)
class RootTowerElem:
    """An element of k^(1/p^level), stored over the auxiliary root field."""

    base: FieldDesc
    level: int
    value: RatFunc

    def __post_init__(self) -> None:
        if self.value.field != tower_field(self.base, self.level):
            raise LevelMismatch("value not over the auxiliary field of this level")

    def power(self, e: int) -> "RootTowerElem":
        """Raise to the p^e-th power."""
        return RootTowerElem(self.base, self.level, self.value.frobenius(e))

    def in_base(self) -> Optional[RatFunc]:
        """Rewrite as an element of k when all root exponents cancel."""
        q = self.base.p ** self.level

        def down(f: MPoly) -> Optional[MPoly]:
            out = {}
            for e, c in f.terms.items():
                if any(x % q for x in e):
                    return None
                out[tuple(x // q for x in e)] = c
            return MPoly(self.base, out)

        rn = down(self.value.num)
        if rn is None:
            return None
        rd = down(self.value.den)
        if rd is None:
            return None
        return RatFunc(rn, rd)


def tower_root(a: RatFunc, n: int, level: int) -> RootTowerElem:
    """a^(1/p^n) as a level-`level` tower element (requires level >= n)."""
    if not a:
        raise ZeroInput("cannot take roots of zero")
    if level < n:
        raise LevelMismatch(f"level {level} cannot hold a p^{n}-th root")
    base = a.field
    aux = tower_field(base, level)
    scale = base.p ** (level - n)
    images = [(j, scale) for j in range(base.r)]
    return RootTowerElem(base, level, a.embed(aux, images))


def _coords(x: RootTowerElem) -> dict[int, RatFunc]:
    """Coordinates of x in the k-basis {u^e : 0 <= e_j < p^level}, e read in base p^level.

    Inverses are cleared via 1/h = h^(p^N - 1) / h^(p^N); the denominator
    is then a p^N-th power of polynomials, i.e. an element of k.
    """
    base = x.base
    q = base.p ** x.level
    num, den = x.value.num, x.value.den
    if not den.is_one():
        num = num * den ** (q - 1)
        den = den.scale_exponents(q)
    dk = RatFunc.from_poly(MPoly(base, {tuple(d // q for d in e): c for e, c in den.terms.items()}))
    coords: dict[int, dict] = {}
    for e, c in num.terms.items():
        idx = 0
        for d in e:
            idx = idx * q + d % q
        coords.setdefault(idx, {})[tuple(d // q for d in e)] = c
    return {idx: RatFunc.from_poly(MPoly(base, terms)) / dk for idx, terms in coords.items()}



def _span_space(
    base: FieldDesc, level: int, ladder: Sequence[tuple[RootTowerElem, int]]
) -> RowSpace:
    """Echelon basis of k(ladder) in tower coordinates.

    It is spanned by the products of generators with exponents below each
    one's ladder level.
    """
    aux_one = RatFunc.from_poly(MPoly.one(tower_field(base, level)))
    products = [aux_one]
    for g, e in ladder:
        powers = [aux_one]
        for _ in range(base.p ** e - 1):
            powers.append(powers[-1] * g.value)
        products = [acc * pw for acc in products for pw in powers]
    space = RowSpace()
    for prod in products:
        space.insert(_coords(RootTowerElem(base, level, prod)))
    return space



def _check_basis(base: FieldDesc, level: int, cap: int) -> None:
    """Refuse a dense tower basis of size p^(r*level) above cap."""
    size = base.p ** (base.r * level)
    if size > cap:
        raise BasisTooLarge(f"dense tower basis p^(r*N) = {size} exceeds cap {cap}")


def dense_degree_reference(pairs: Sequence[tuple[RatFunc, int]], cap: int) -> int:
    """[k' : k] by linear algebra in the dense tower basis of size p^(r*N).

    Generators are adjoined one at a time; each contributes p^e where e is
    its inseparability exponent over the field built so far.
    """
    base = pairs[0][0].field
    level = max(n for _, n in pairs)
    if level == 0:
        return 1
    _check_basis(base, level, cap)
    ladder: list[tuple[RootTowerElem, int]] = []
    degree = 1
    space = _span_space(base, level, ladder)
    for a, n in pairs:
        x = tower_root(a, n, level)
        # e = n always stops the loop: x^(p^n) = a lies in k
        for e in range(n + 1):
            xe = x.power(e)
            if xe.in_base() is not None or space.reduces_to_zero(_coords(xe)):
                break
        if e:
            ladder.append((x, e))
            degree *= base.p ** e
            space = _span_space(base, level, ladder)
    return degree


def _exponent_over(x: RootTowerElem) -> int:
    """Smallest e with x^(p^e) in k."""
    for e in range(x.level + 1):
        if x.power(e).in_base() is not None:
            return e
    raise AssertionError("tower element must descend at its own level")


def subfield_membership(x: RootTowerElem, gens: Sequence[RootTowerElem]) -> bool:
    """Decide x in k(gens) by exact linear algebra over k in the tower basis."""
    level = x.level
    for g in gens:
        if g.level != level or g.base != x.base:
            raise LevelMismatch("all elements must share base field and level")
    _check_basis(x.base, level, BASIS_CAP)
    ladder: list[tuple[RootTowerElem, int]] = []
    for g in gens:
        if not g.value:
            raise ZeroInput("zero generator")
        e = _exponent_over(g)
        if e:
            ladder.append((g, e))
    return _span_space(x.base, level, ladder).reduces_to_zero(_coords(x))


def ratfunc_partial(f: RatFunc, name: str) -> RatFunc:
    """The partial derivative of f in the variable `name`, reduced."""
    v = f.field.var_index(name)
    n = f.num.partial(v) * f.den - f.num * f.den.partial(v)
    return RatFunc(n, f.den * f.den)


def degree_bounds_reference(roots: Sequence[tuple[RatFunc, int]]) -> tuple[int, int]:
    """(lo, hi) of `unipic.field._degree_bounds`, the Jacobian ranks taken
    by `RowSpace` over k on rows of reduced partial derivatives."""
    base = roots[0][0].field
    p, r = base.p, base.r
    roots = sorted(roots, key=lambda root: -root[1])
    e = roots[0][1]
    sizes = [sum(1 for _, ei in roots if ei >= j) for j in range(1, e + 1)]
    eps = [max((ei for b, ei in roots if b.num.degree_in(v) > 0 or b.den.degree_in(v) > 0),
               default=0) for v in range(r)]
    top = min(sum(min(r, s) for s in sizes), sum(eps))
    if top == e:
        return p ** e, p ** e
    space, ranks, done = RowSpace(), [], 0
    for size in reversed(sizes):  # S_e in ... in S_1, so one echelon pass gives every rank
        for b, _ in roots[done:size]:
            space.insert({v: ratfunc_partial(b, name) for v, name in enumerate(base.vars)})
        done = size
        ranks.append(space.rank)
    return p ** sum(ranks), p ** min(top, ranks[-1] + sum(min(r, s) for s in sizes[1:]))


def dense_degree_rowspace_reference(roots: Sequence[tuple[RatFunc, int]]) -> int:
    """[k' : k] for the roots (b_i, e_i) of `unipic.field._dense_degree`, on
    the same basis of k over k^q and the same products, with the span in
    one `RowSpace` over `RatFunc` coordinates."""
    base = roots[0][0].field
    level = max(ei for _, ei in roots)
    _check_basis(base, level, BASIS_CAP)
    q = base.p ** level

    def coords(f: MPoly) -> dict[int, RatFunc]:
        return {i: RatFunc.from_poly(MPoly(base, t)) for i, t in _frobenius_coords(f, q).items()}

    products = [MPoly.one(base)]
    space = RowSpace()
    space.insert(coords(products[0]))
    for b, ei in roots:
        num, den = b.num, b.den
        if sum(den.leading()[0]) > sum(num.leading()[0]):
            num, den = den, num
        x = (num * den ** (base.p ** ei - 1)).scale_exponents(q // base.p ** ei)
        for e in range(ei + 1):
            if space.reduces_to_zero(coords(x.frobenius(e))):
                break
        for acc in products[:]:
            for _ in range(base.p ** e - 1):
                acc = acc * x
                products.append(acc)
                space.insert(coords(acc))
    return len(products)
