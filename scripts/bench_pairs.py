#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarised per metric.

    python3 scripts/bench_pairs.py --parent REV [--seeds 1001 1002 ...]
        [--out BENCH_<n>.json]

The parent side is the committed tree of REV, unpacked by `git archive`
into a temporary directory; the change side is this working tree,
uncommitted edits included.  Each side runs the benchmark command of its
own BENCHMARK.json, untraced, on every workload of this tree's
BENCHMARK.json and for the run length it fixes.  Pair i runs seed
seeds[i] on both sides, the parent first when i is even and the change
first when it is odd, so a drift in the machine's speed falls on both
sides alike.

For each workload and end-to-end metric of BENCHMARK.json it prints both
sides' median and quartiles, the parent's interquartile range, the change
of the median, the pairs the change won (ties count for neither), and
which of three verdicts hold:

- gain: the change wins at least nine tenths of the pairs and the medians
  differ by more than the parent's interquartile range;
- worse: the change's median is worse than the parent's by more than the
  metric's `bound` in BENCHMARK.json, a share of the parent's median;
- unresolved: the parent's interquartile range exceeds that bound, so an
  unchanged median does not show the metric unchanged; it does not hold
  when every run of the change is better than every run of the parent.
A metric whose unit is `frac` (`exact_frac`, `ok_frac`) is a share of
counts, which repeat exactly for a given seed and tree, so it is judged
pair by pair: worse when some pair's change is worse than that pair's
parent by more than the bound, a share of the parent's value, and never
unresolved, as a spread over seeds is no noise.
Above the table it prints each side's line count of src/unipic, read off
the drift records of its runs.  Below each workload's setup_s it prints
each side's median `setup_cpu_s` from the drift records: raw set-up CPU
seconds, which, unlike setup_s, are not divided by the reference kernel's
samples, so a move in the set-up itself shows apart from the kernel's.
`--out` writes every run, with its drift record, the line counts, each
side's median setup_cpu_s and the summary as JSON.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, dest: Path) -> str:
    """Unpack the committed tree of rev into dest; returns its full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return sha


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in tree: its drift record and metric values."""
    command = json.loads((tree / "BENCHMARK.json").read_text())["command"]
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    drift, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return {"drift": drift["drift"], "failed": result["failed"], "attempted": result["attempted"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def spread(values: list) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarise(pairs: list, metrics: list) -> dict:
    """Per metric of `metrics` (BENCHMARK.json `end_to_end` entries), both
    sides' spread over `pairs` and the gain, worse and unresolved verdicts;
    a `frac` metric is judged pair by pair."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        won = sum(1 for a, b in zip(parent, change) if (b < a if lower else b > a))
        (pq1, pmed, pq3), (cq1, cmed, cq3) = spread(parent), spread(change)
        better = cmed < pmed if lower else cmed > pmed
        bound = m["bound"] * abs(pmed)
        apart = max(change) < min(parent) if lower else min(change) > max(parent)
        paired = m["unit"] == "frac"  # a share of counts: it repeats exactly for a seed and tree
        if paired:
            worse = any((b - a if lower else a - b) > m["bound"] * abs(a) for a, b in zip(parent, change))
        else:
            worse = (cmed - pmed if lower else pmed - cmed) > bound
        out[name] = {
            "parent": {"median": pmed, "q1": pq1, "q3": pq3},
            "change": {"median": cmed, "q1": cq1, "q3": cq3},
            "parent_iqr": pq3 - pq1,
            "median_change": (cmed - pmed) / pmed if pmed else None,
            "won": won, "pairs": len(pairs),
            "gain": better and won >= 0.9 * len(pairs) and abs(cmed - pmed) > pq3 - pq1,
            "worse": worse,
            "unresolved": not paired and pq3 - pq1 > bound and not apart,
        }
    return out


def src_lines(runs: dict) -> dict:
    """Each side's src/ line count from the drift records of its runs in
    `runs` (workload -> pairs); a side whose runs disagree gets every count."""
    out = {}
    for side in ("parent", "change"):
        counts = sorted({pair[side]["drift"]["src_lines"] for pairs in runs.values() for pair in pairs})
        out[side] = counts[0] if len(counts) == 1 else counts
    return out


def setup_cpu(pairs: list) -> dict:
    """Each side's median raw set-up CPU seconds over `pairs`, from the drift records."""
    return {side: statistics.median(pair[side]["drift"]["setup_cpu_s"] for pair in pairs)
            for side in ("parent", "change")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1001, 1011)),
                    help="one pair per seed (default 1001-1010)")
    ap.add_argument("--out", type=Path, help="write every run and the summary here as JSON")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        sha = export(args.parent, Path(tmp))
        sides = {"parent": Path(tmp), "change": ROOT}
        runs = {w: [] for w in workloads}
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for w in workloads:
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run(sides[side], w, seed, seconds)
                runs[w].append(pair)
                corpus = {side: round(pair[side]["metrics"]["corpus_ref"], 2) for side in order}
                print(f"pair {i + 1}/{len(args.seeds)} {w} seed {seed}: corpus_ref {corpus}",
                      file=sys.stderr, flush=True)
    report = {"parent": sha, "change": "working tree", "seconds": seconds, "seeds": args.seeds,
              "bounds": {m["name"]: m["bound"] for m in bench["end_to_end"]},
              "src_lines": src_lines(runs), "workloads": {}}
    print(f"src/ lines: parent {report['src_lines']['parent']}, change {report['src_lines']['change']}")
    print(f"{'workload':9} {'metric':15} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
          f"{'change':>8} {'won':>6}  verdicts")
    for w in workloads:
        summary = summarise(runs[w], bench["end_to_end"])
        cpu = setup_cpu(runs[w])
        report["workloads"][w] = {"summary": summary, "setup_cpu_s": cpu, "pairs": runs[w]}
        for name, s in summary.items():
            side = {k: f"{s[k]['median']:.4g} [{s[k]['q1']:.4g}, {s[k]['q3']:.4g}]" for k in ("parent", "change")}
            rel = "n/a" if s["median_change"] is None else f"{100 * s['median_change']:+.1f}%"
            verdicts = ", ".join(v for v in ("gain", "worse", "unresolved") if s[v]) or "-"
            print(f"{w:9} {name:15} {side['parent']:>30} {side['change']:>30} {rel:>8} "
                  f"{s['won']:>2}/{s['pairs']:<3}  {verdicts}")
            if name == "setup_s":
                print(f"{w:9} {'setup_cpu_s':15} {cpu['parent']:>30.4g} {cpu['change']:>30.4g} "
                      f"{100 * (cpu['change'] / cpu['parent'] - 1):>+7.1f}%  median raw CPU s, drift record")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
