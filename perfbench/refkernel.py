"""The fixed reference kernel that defines one ref of time.

Pure Python and independent of unipic: tuple keys, small-integer
arithmetic and updates of a preallocated 64-entry dict, the kinds of
bytecode that dominate unipic's sparse polynomial arithmetic.  A call
allocates nothing that outlives it.  Timing the kernel between reports
shows how fast the machine runs Python right now; dividing a report's
time by it cancels most of that drift (see README.md for what is left).
"""

from __future__ import annotations

ROUNDS = 4000
_KEYS = [(i, j) for i in range(8) for j in range(8)]
_TABLE = dict.fromkeys(_KEYS, 0)


def kernel() -> int:
    acc = 0
    table, keys = _TABLE, _KEYS
    for i in range(ROUNDS):
        k = keys[(acc + i) & 63]
        v = table[k] + i
        table[k] = v & 0xFFFF
        acc = (acc + v + (k[1], k[0] + 1)[0]) & 0xFFFFF
    return acc
