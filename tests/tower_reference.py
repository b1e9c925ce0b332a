"""Subfield membership in the dense root tower, kept for the tests.

`subfield_membership(x, gens)` decides x in k(gens) by exact linear
algebra over k in the tower basis of size p^(r*N), with the same span
and coordinates as `unipic.field._dense_degree`, the oracle for the
p-basis rules of `compositum_degree`.
"""

from typing import Optional, Sequence

from unipic.field import (
    LevelMismatch,
    RootTowerElem,
    ZeroInput,
    _check_basis,
    _coords,
    _span_space,
    basis_cap,
)


def _exponent_over(x: RootTowerElem) -> int:
    """Smallest e with x^(p^e) in k."""
    for e in range(x.level + 1):
        if x.power(e).in_base() is not None:
            return e
    raise AssertionError("tower element must descend at its own level")


def subfield_membership(
    x: RootTowerElem, gens: Sequence[RootTowerElem], cap: Optional[int] = None
) -> bool:
    """Decide x in k(gens) by exact linear algebra over k in the tower basis."""
    if cap is None:
        cap = basis_cap()
    level = x.level
    for g in gens:
        if g.level != level or g.base != x.base:
            raise LevelMismatch("all elements must share base field and level")
    _check_basis(x.base, level, cap)
    ladder: list[tuple[RootTowerElem, int]] = []
    for g in gens:
        if not g.value:
            raise ZeroInput("zero generator")
        e = _exponent_over(g)
        if e:
            ladder.append((g, e))
    return _span_space(x.base, level, ladder).reduces_to_zero(_coords(x))
