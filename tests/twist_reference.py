"""The p = 2 rationality chain through renamed twist fields, as a test oracle.

`unipic.forms.rationality_level` lowers n inside k at each twist step.
This module walks the chain the earlier way: each step base-changes to
K^(1/p) under fresh variable names (t~1, t~2, ...), re-reads every
coefficient through t -> u^p, and lets the next reduction take the p-th
roots back out.  It shares no code with `unipic.forms` beyond `NValue`.
"""

from unipic import FieldDesc, NValue, power_level


def _reduce_presentation(p, n, a):
    """Absorb a top p^n-th-power coefficient with m >= n, or take p-th roots of all, until neither fires."""
    while True:
        a = {i: c for i, c in a.items() if c}
        if not a or n == 0:
            return n, a
        m = max(a)
        if m >= n and power_level(-a[m], n)[0] == n:
            del a[m]
            continue
        roots = {i: c.pth_root() for i, c in a.items()}
        if all(rc is not None for rc in roots.values()):
            a = roots
            n -= 1
            continue
        return n, a


def _twist_once(K, level, a):
    """Base change to K^(1/p): fresh names for p-th roots of the generators, t -> u^p."""
    stem = [v.split("~")[0] for v in K.vars]
    newK = FieldDesc(K.p, tuple(f"{v}~{level}" for v in stem))
    images = [(i, K.p) for i in range(K.r)]
    return newK, {i: c.embed(newK, images) for i, c in a.items()}


def twist_chain_reference(G):
    """The rationality level of a p = 2 form, and the chain it walked.

    Returns the NValue and the list of (field, n, a) reduced presentations
    that were neither trivial nor the conic, so the walk went past them.
    """
    K, n = G.field, G.n
    a = dict(G.twist_coeffs())
    passed = []
    j = 0
    while True:
        n, a = _reduce_presentation(K.p, n, a)
        if not a or n == 0:
            return NValue("exact", j, "split" if j == 0 else "twist-chain"), passed
        if n == 1 and max(a) == 1:
            return NValue("exact", j, "conic" if j == 0 else "twist-chain"), passed
        if j >= G.n:
            return NValue("upper_bound", G.n), passed
        passed.append((K, n, a))
        j += 1
        K, a = _twist_once(K, j, a)
