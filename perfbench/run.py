#!/usr/bin/env python3
"""Closed-loop benchmark of `unipic analyze --json` over seeded corpora.

One client in one process calls `unipic.cli.main` on every input of the
workload's corpus, one call after another, and repeats whole passes over
the corpus until `--seconds` have gone by.  Every pass does the same
work, so count metrics repeat exactly.  Times are CPU seconds of this
thread divided by the local median of a reference kernel run between the
calls (see refkernel.py), reported in "ref" units.

    python3 perfbench/run.py --workload forms --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes and prints the per-layer metrics.  The last line of
standard output is the result JSON; the line before it is the drift
record.  Exit status 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import check
import corpus
import refkernel
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 5
# seconds per ref in setup_s: the contract wants set-up time in seconds,
# and the kernel took 1.0-1.9 ms on the 2-vCPU machine it was built on
REF_NOMINAL_S = 1e-3
REF_WINDOW = 3  # kernel samples taken on each side of a call
clock = spans.clock


def import_cli():
    """A fresh import of unipic.cli from this checkout's src/."""
    for name in [k for k in sys.modules if k == "unipic" or k.startswith("unipic.")]:
        del sys.modules[name]
    cli = importlib.import_module("unipic.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"unipic was imported from {cli.__file__}, not {SRC}")
    return cli


def call(cli, case) -> tuple[float, int, str]:
    """One analyze call: (CPU seconds, exit code or -1 if it raised, output).

    The output is stdout on success and stderr or the exception otherwise.
    """
    out, err = io.StringIO(), io.StringIO()
    argv = case.argv()
    start = clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # a raising report counts as a failed call
        rc = -1
        err.write(repr(exc))
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) and exc.code else -1
    seconds = clock() - start
    return seconds, rc, out.getvalue() if rc == 0 else err.getvalue()


def run_pass(cli, cases: list, tracer=None) -> dict:
    """Every case once, with a kernel sample before each call and one after.

    Times are kept as packed doubles, about 3 KB a pass, so the harness's
    own memory barely grows with the number of passes.  The outputs under
    "docs" are for settle(), which drops them.
    """
    gc.collect()
    times, kernel, docs, layer = array.array("d"), array.array("d"), [], []
    for case, _ in cases:
        kernel.append(ref_sample())
        dt, rc, text = call(cli, case)
        times.append(dt)
        docs.append((rc, text))
        if tracer is not None:
            layer.append(spans.summarise(tracer.reset()))
    kernel.append(ref_sample())
    refs = array.array("d", (statistics.median(kernel[max(0, i - REF_WINDOW + 1): i + REF_WINDOW + 1])
                             for i in range(len(cases))))
    return {"seconds": times, "refs": refs, "kernel": kernel, "docs": docs, "layer": layer}


def settle(cli, cases: list, pas: dict) -> tuple[list, int]:
    """Judge a pass as soon as it ends and drop its output text.

    Returns the parsed documents and the number of failed calls, and
    lists each failed check on standard error.
    """
    docs, found = judge(cli, cases, pas.pop("docs"))
    for (case, _), bad in zip(cases, found):
        for msg in bad:
            print(f"FAIL {case.slot}: {case.field} {case.eq}: {msg}", file=sys.stderr)
    return docs, sum(1 for bad in found if bad)


def judge(cli, cases: list, docs: list) -> tuple[list, list]:
    """Parsed documents and, per case, the list of problems found."""
    parsed, found = [], []
    for (case, expect), (rc, text) in zip(cases, docs):
        doc = None
        if rc == 0:
            with contextlib.suppress(ValueError):
                doc = json.loads(text)
        bad = [f"exit code {rc}: {text.strip()[-300:]}"] if rc != 0 else []
        try:
            bad += check.problems(case, doc, expect, cli)
        except (KeyError, TypeError, ValueError) as exc:
            bad.append(f"malformed report: {exc!r}")
        parsed.append(doc)
        found.append(bad)
    return parsed, found


def nearest_rank(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


def setup(workload: str, seed: int):
    """Import, corpus selection and one warm-up report, SETUP_REPS times.

    Each repetition is divided by the mean of the kernel samples taken
    just before and after it, like a call.  Returns the client, the cases,
    and the medians of set-up time in ref and in raw CPU seconds.  The
    ref figure, at REF_NOMINAL_S per ref, becomes setup_s, so set-up time
    too stays put when the machine's speed changes; raw CPU seconds of
    set-up differed by half between otherwise equal runs, and go to the
    drift record only.
    """
    samples, kernel = [], [ref_sample()]
    for _ in range(SETUP_REPS):
        start = clock()
        cli = import_cli()
        golden = corpus.load_golden()
        cases = corpus.select(golden, workload, seed)
        warm = golden["workloads"][workload][0]
        call(cli, corpus.Case(warm["slot"], warm["class"], **{
            k: warm["variants"][0][k] for k in ("field", "eq", "bound", "oracle")}))
        samples.append(clock() - start)
        kernel.append(ref_sample())
    # the harness's own objects stay out of the collections timed later
    gc.collect()
    gc.freeze()
    refs = [(a + b) / 2 for a, b in zip(kernel, kernel[1:])]
    setup_ref = statistics.median(s / r for s, r in zip(samples, refs))
    return cli, cases, setup_ref, statistics.median(samples)


def ref_sample() -> float:
    start = clock()
    refkernel.kernel()
    return clock() - start


def src_lines() -> int:
    return sum(len(f.read_text().splitlines()) for f in sorted((SRC / "unipic").glob("*.py")))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "unipic" / "cli.py").is_file() or not corpus.GOLDEN.is_file():
        print(f"error: needs {SRC / 'unipic'} and {corpus.GOLDEN}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    cli, cases, setup_ref, setup_cpu_s = setup(args.workload, args.seed)
    tracer = spans.Tracer()
    plain, traced = [], []
    first_docs, failed = None, 0
    deadline = time.monotonic() + args.seconds
    while not plain or time.monotonic() < deadline:
        plain.append(run_pass(cli, cases))
        docs, bad = settle(cli, cases, plain[-1])
        first_docs, failed = first_docs or docs, failed + bad
        if args.trace:
            tracer.install()
            try:
                traced.append(run_pass(cli, cases, tracer))
            finally:
                tracer.uninstall()
            failed += settle(cli, cases, traced[-1])[1]
    attempted = len(cases) * (len(plain) + len(traced))
    for msg in tracer.errors:
        print(f"HARNESS {msg}", file=sys.stderr)

    kernel = [k for pas in plain + traced for k in pas["kernel"]]
    ref_s = statistics.median(kernel)
    q = statistics.quantiles(kernel, n=4)
    ref_spread = (q[2] - q[0]) / ref_s
    print(json.dumps({"drift": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine.ref_s": ref_s, "machine.ref_spread": ref_spread,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "src_lines": src_lines(), "cases": len(cases),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "setup_ref": setup_ref, "setup_cpu_s": setup_cpu_s,
        "harness_errors": len(tracer.errors),
    }}))

    if args.trace:
        metrics = layer_metrics(cases, plain, traced, failed / attempted)
        metrics["machine.ref_s"] = (ref_s, "s")
        metrics["machine.ref_spread"] = (ref_spread, "frac")
    else:
        metrics = end_to_end(cases, plain, first_docs, failed / attempted, setup_ref * REF_NOMINAL_S)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def corpus_ref(pas: dict) -> float:
    return sum(t / r for t, r in zip(pas["seconds"], pas["refs"]))


def end_to_end(cases, plain, docs, fail_frac, setup_s) -> dict:
    # per input, the median over passes, so a pass the machine slowed
    # part-way through is outvoted input by input
    per_case = [statistics.median(p["seconds"][i] / p["refs"][i] for p in plain)
                for i in range(len(cases))]
    exact = sum(1 for d in docs if d for k in check.LEVELS if d[k]["kind"] == "exact")
    return {
        "setup_s": (setup_s, "s"),
        "corpus_ref": (sum(per_case), "ref"),
        "report_ref.p50": (statistics.median(per_case), "ref"),
        "report_ref.p90": (nearest_rank(per_case, 0.9), "ref"),
        "exact_frac": (exact / (len(check.LEVELS) * len(cases)), "frac"),
        "ok_frac": (1.0 - fail_frac, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def layer_metrics(cases, plain, traced, fail_frac) -> dict:
    def per_pass(metric: str) -> float:
        return statistics.median(
            sum(s[metric] / r for s, r in zip(p["layer"], p["refs"])) for p in traced)

    def share(metric: str) -> float:
        return statistics.median(
            sum(s[metric] for s in p["layer"]) / sum(s["picard.report_ref"] for s in p["layer"])
            for p in traced)

    counts = {k: sum(s[k] for s in traced[0]["layer"]) for k in traced[0]["layer"][0]}
    out = {metric: (per_pass(metric), "ref") for metric in spans.GROUPS}
    out.update({metric: (share(metric), "frac") for metric in spans.SHARES})
    out.update({
        "picard.repeat_calls": (counts["repeat_calls"] / len(cases), "count"),
        "field.tower_basis": (counts["tower_basis"], "count"),
        "forms.search_candidates": (counts["search_candidates"], "count"),
        "forms.search_hit_frac": (counts["search_hits"] / max(counts["searches"], 1), "frac"),
        "wproj.cech_cols": (counts["cech_cols"], "count"),
        "wproj.cech_stable_frac": (counts["cech_stable"] / max(counts["cech_calls"], 1), "frac"),
        "fail_frac": (fail_frac, "frac"),
        "trace.overhead": (statistics.median(corpus_ref(p) for p in traced)
                           / statistics.median(corpus_ref(p) for p in plain), "ratio"),
    })
    return out


if __name__ == "__main__":
    sys.exit(main())
