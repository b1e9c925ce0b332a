"""Exact row reduction over a field, for sparse rows indexed by integers.

Entries are any field-like objects supporting +, -, *, /, truthiness and
an `inverse` through division; rows are dicts mapping column index to a
nonzero entry.  Pivot rows are normalized after each insertion so later
reductions need a single multiply per eliminated column.  It serves only
the dense tower basis of `unipic.field` and the test references: the
Jacobian ranks are echeloned fraction-free, and Cech H^1 needs none.
"""

from __future__ import annotations

from typing import Optional


class RowSpace:
    """Growing echelon basis of a subspace, one normalized row per pivot column."""

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
