"""Tests of the benchmark itself: determinism, class mix, counters, layer shares.

    python3 -m pytest perfbench/tests -q
"""

import ast
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import make_golden  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

sys.path.insert(0, str(run.SRC))
GOLDEN = corpus.load_golden()
# the heavy layers of each workload, as shares of invariant_report time
HEAVY = {"forms": "share.tower_rationality", "torsors": "share.search", "oracle": "share.cech"}


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def _inputs(workload, seed):
    return json.dumps([case.argv() for case, _ in corpus.select(GOLDEN, workload, seed)])


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert _inputs(workload, 3) == _inputs(workload, 3)
    assert _inputs(workload, 3) != _inputs(workload, 4)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_second_seed_keeps_class_mix(workload):
    def mix(seed):
        return Counter(case.cls for case, _ in corpus.select(GOLDEN, workload, seed))

    assert mix(1) == mix(2)
    assert sum(mix(1).values()) >= 100  # p90 leaves at least 10 samples above it


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_golden_variants_come_from_the_generator(workload):
    slots = corpus.slots(workload)
    rows = GOLDEN["workloads"][workload]
    assert [(s.name, s.cls) for s in slots] == [(r["slot"], r["class"]) for r in rows]
    for slot, row in zip(slots, rows):
        attempts = slot.attempts()
        made = {(c.field, c.eq) for c in (next(attempts) for _ in range(make_golden.MAX_ATTEMPTS))}
        assert {(v["field"], v["eq"]) for v in row["variants"]} <= made


def test_reference_kernel_imports_nothing_from_unipic():
    tree = ast.parse((BENCH / "refkernel.py").read_text())
    imported = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imported == ["__future__"]


def _traced_pass(cli, cases):
    tracer = spans.Tracer()
    tracer.install()
    try:
        return run.run_pass(cli, cases, tracer)
    finally:
        tracer.uninstall()


def _counts(cli, cases, pas):
    docs, found = run.judge(cli, cases, pas["docs"])
    fail_frac = sum(1 for bad in found if bad) / len(found)
    e2e = run.end_to_end(cases, [pas], docs, fail_frac, 0.0)
    layer = run.layer_metrics(cases, [pas], [pas], fail_frac)
    names = ("field.tower_basis", "forms.search_candidates", "wproj.cech_cols",
             "picard.repeat_calls", "forms.search_hit_frac", "wproj.cech_stable_frac")
    return {"exact_frac": e2e["exact_frac"], "fail_frac": fail_frac, **{k: layer[k] for k in names}}


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_two_runs_give_identical_counts(cli, workload):
    cases = corpus.select(GOLDEN, workload, 5)[:40]
    first = _counts(cli, cases, _traced_pass(cli, cases))
    second = _counts(cli, cases, _traced_pass(cli, cases))
    assert first == second
    assert first["fail_frac"] == 0


def test_tracing_leaves_no_wrapper_behind(cli):
    cases = corpus.select(GOLDEN, "forms", 0)[:3]
    _traced_pass(cli, cases)
    for modname, fname in spans.LAYERS:
        assert not hasattr(getattr(sys.modules[modname], fname), "__wrapped__")
    assert sys.modules["unipic.cli"].json is json


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_heavy_layer_dominates_its_workload_only(cli, workload):
    """Towers and rationality on forms, search on torsors, Cech on oracle."""
    pas = _traced_pass(cli, corpus.select(GOLDEN, workload, 0))
    total = sum(s["picard.report_ref"] for s in pas["layer"])
    share = {m: sum(s[m] for s in pas["layer"]) / total for m in HEAVY.values()}
    assert share[HEAVY[workload]] > 0.5, share
    for other, metric in HEAVY.items():
        if other != workload:
            assert share[metric] < 0.25, share


def test_a_raising_counter_is_a_harness_error_not_a_failed_call():
    tracer = spans.Tracer()

    def broken(args, kwargs, result):
        raise ValueError("witness not in the enumeration")

    wrapped = tracer._wrap("find_rational_point", lambda x: x + 1, broken)
    assert wrapped(1) == 2
    assert [s.work for s in tracer.spans] == [-1]
    assert tracer.errors == ["find_rational_point counter: ValueError('witness not in the enumeration')"]
    assert spans.summarise(tracer.reset())["search_candidates"] == 0


def test_settle_keeps_no_output_text(cli):
    cases = corpus.select(GOLDEN, "forms", 0)[:3]
    pas = run.run_pass(cli, cases)
    docs, failed = run.settle(cli, cases, pas)
    assert failed == 0 and len(docs) == 3
    assert "docs" not in pas
