#!/usr/bin/env python3
"""Build golden.json: the variants of every corpus slot and their invariants.

    python3 perfbench/make_golden.py

It rebuilds every workload into a new table, so the whole table always
comes from one version of unipic.

For each slot the generator in corpus.py yields attempts in a fixed order.
An attempt is usable when its report exits 0, passes the invariant checks
against itself, satisfies the slot's hit or miss condition, and finishes
within CAP_S CPU seconds.  Usable attempts that agree on which values
are exact form groups; in the largest group, the VARIANTS_PER_SLOT whose
work lies closest together become the slot's variants.  Work is the
number of Python and C function calls of the report, counted with
sys.setprofile: unlike a time it is the same on every machine and every
run.  Attempts go on past the first POOL usable ones until the work of
the chosen variants lies within a factor TIGHT, or MAX_ATTEMPTS run out.
So the seed's choice of variant barely moves the work of a pass and does
not move exact_frac.  The expected invariants are the outputs of the
unipic in src/ at the time of the build.
"""

from __future__ import annotations

import json
import signal
import sys
from collections import defaultdict
from typing import Optional

import check
import corpus
import run

CAP_S = 3.0
POOL = 12
TIGHT = 1.1
MAX_ATTEMPTS = 40


class Overtime(BaseException):
    """Raised from the interval timer; not an Exception, so call() lets it through."""


def _alarm(signum, frame):
    raise Overtime()


def work(cli, case) -> int:
    """Python and C function calls of one report: a deterministic stand-in for its time."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += 1

    sys.setprofile(count)
    try:
        run.call(cli, case)
    finally:
        sys.setprofile(None)
    return calls


def build_slot(cli, slot) -> list[dict]:
    kept, seen = [], set()
    attempts = slot.attempts()
    for _ in range(MAX_ATTEMPTS):
        case = next(attempts)
        if (case.field, case.eq) in seen:
            continue
        seen.add((case.field, case.eq))
        signal.setitimer(signal.ITIMER_VIRTUAL, CAP_S)
        try:
            _, rc, text = run.call(cli, case)
        except Overtime:
            continue
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        if rc != 0:
            continue
        doc = json.loads(text)
        expect = check.expectation(doc)
        if check.problems(case, doc, expect, cli):
            continue
        if slot.want is not None and expect["point"] != (slot.want == "hit"):
            continue
        cost = work(cli, case)
        kept.append((cost, {"field": case.field, "eq": case.eq, "bound": case.bound,
                            "oracle": case.oracle, "expect": expect}))
        best = choose(kept)
        if len(kept) >= POOL and best is not None and best[0] <= TIGHT:
            break
    best = choose(kept)
    if best is None:
        raise SystemExit(f"slot {slot.name}: fewer than {corpus.VARIANTS_PER_SLOT} usable variants alike")
    return best[1]


def choose(kept: list) -> Optional[tuple[float, list]]:
    """The tightest VARIANTS_PER_SLOT costs among variants alike, and their spread.

    Variants alike agree on which values are exact, so the seed cannot
    move exact_frac; the spread is the ratio of the largest cost to the
    smallest.
    """
    groups = defaultdict(list)
    for cost, variant in kept:
        groups[tuple(variant["expect"][k][1] for k in check.LEVELS)].append((cost, variant))
    group = sorted(max(groups.values(), key=len, default=[]), key=lambda item: item[0])
    v = corpus.VARIANTS_PER_SLOT
    if len(group) < v:
        return None
    lo = min(range(len(group) - v + 1), key=lambda i: group[i + v - 1][0] / group[i][0])
    return group[lo + v - 1][0] / group[lo][0], [variant for _, variant in group[lo:lo + v]]


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    cli = run.import_cli()
    signal.signal(signal.SIGVTALRM, _alarm)
    golden = {"workloads": {
        workload: [{"slot": slot.name, "class": slot.cls, "variants": build_slot(cli, slot)}
                   for slot in corpus.slots(workload)]
        for workload in corpus.WORKLOADS}}
    partial = corpus.GOLDEN.with_suffix(".partial")
    partial.write_text(dumps(golden))
    partial.replace(corpus.GOLDEN)
    return 0


def dumps(golden: dict) -> str:
    """JSON with one line per variant, so a rebuild diffs line by line."""
    def one(value) -> str:
        return json.dumps(value, sort_keys=True)

    workloads = []
    for workload, rows in sorted(golden["workloads"].items()):
        slots = []
        for row in rows:
            variants = ",\n".join(one(v) for v in row["variants"])
            slots.append(f'{{"class": {one(row["class"])}, "slot": {one(row["slot"])}, '
                         f'"variants": [\n{variants}]}}')
        workloads.append(f"{one(workload)}: [\n" + ",\n".join(slots) + "]")
    return '{"workloads": {\n' + ",\n".join(workloads) + "}}\n"


if __name__ == "__main__":
    sys.exit(main())
