#!/usr/bin/env python3
"""Print one sha256 over what the command line prints on a fixed input set.

The calls are `analyze`, as text and with `--json`, on every variant of
perfbench/golden.json (with `--oracle` where the variant sets it), every
argv of tests/golden_analyze.json, `paper-examples`, `genus --oracle` on
every golden variant, `points --max-deg <bound>` on every `torsors`
variant, and a fixed grid of `hilbert` and `p1-complement` argvs with one
argv of each that exits 2, each distinct argv once.  Each runs in process
through `unipic.cli.main` from the src/ next to this script, and its argv,
exit code, stdout and stderr enter the hash.  Two checkouts that print
the same digest give byte-identical output on every call.

`--diff REV` lists where the output changed instead.  It unpacks the
committed tree of REV as scripts/bench_pairs.py does, runs each side's own
call list on its own src/ in its own subprocess, and matches the calls by
argv.  It prints each call whose output differs, with a short unified
diff, then the calls found on one side only.  Standard library only.

    python scripts/output_digest.py               # prints the digest and the call count
    python scripts/output_digest.py --diff REV    # lists the calls that print otherwise at REV
"""

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

from bench_pairs import export  # noqa: E402

# a side's calls, run in a fresh interpreter on that side's src/: one JSON line each
_CHILD = """import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from output_digest import calls
for call in calls(Path(sys.argv[2])):
    print(json.dumps(call))
"""


# the subcommands that read no equation: a fixed grid, whose last argv exits 2
_HILBERT = [["--a", str(a), "--delta", str(d)] for a in (1, 2, 3, 4, 9) for d in (0, 1, 2, 7)] + [
    ["--a", "0", "--delta", "1"]]
_P1 = [["--field", f, "--e", str(e), "--c", c]
       for f, cs in (("GF(2)(t)", ("t", "t + 1", "1/t")), ("GF(3)(t)", ("t", "-t", "t^2 + 1")),
                     ("GF(5)(t,u)", ("t", "u/(t + 1)", "t*u + 2")))
       for c in cs for e in (1, 2, 3)] + [["--field", "GF(3)(t)", "--e", "1", "--c", "t^3"]]


def argvs(root: Path) -> list[list[str]]:
    """root's calls in order, each once: workloads of golden.json share variants."""
    golden = json.loads((root / "perfbench" / "golden.json").read_text())
    out, later = [], []
    for workload, slots in golden["workloads"].items():
        for slot in slots:
            for v in slot["variants"]:
                target = ["--field", v["field"], "--eq", v["eq"]]
                argv = ["analyze", *target, "--search-bound", str(v["bound"])] + ["--oracle"] * v["oracle"]
                out += [argv, argv + ["--json"]]
                later.append(["genus", *target, "--oracle"])
                if workload == "torsors":
                    later.append(["points", *target, "--max-deg", str(v["bound"])])
    out += [case["argv"] for case in json.loads((root / "tests" / "golden_analyze.json").read_text())]
    out += [["paper-examples"], *later]
    out += [["hilbert", *a] for a in _HILBERT] + [["p1-complement", *a] for a in _P1]
    return [list(a) for a in dict.fromkeys(map(tuple, out))]


def calls(root: Path = ROOT):
    """(argv, exit code, stdout, stderr) of each call of root's list, run in
    this process through the `unipic.cli.main` of root's src/."""
    sys.path.insert(0, str(root / "src"))
    from unipic import cli

    for argv in argvs(root):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                rc = exc.code
        yield argv, rc, out.getvalue(), err.getvalue()


def side(tree: Path) -> dict:
    """tree's calls, run in a subprocess: argv tuple -> (exit code, stdout, stderr)."""
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(ROOT / "scripts"), str(tree)],
                          check=True, capture_output=True, text=True)
    return {tuple(argv): tuple(rest) for argv, *rest in map(json.loads, proc.stdout.splitlines())}


def compare(old: dict, new: dict) -> tuple[list, list, list]:
    """The argvs whose output differs, those only in old and those only in new."""
    return ([a for a in new if a in old and old[a] != new[a]],
            [a for a in old if a not in new], [a for a in new if a not in old])


def _lines(rc, out: str, err: str) -> list[str]:
    return out.splitlines() + [f"stderr: {line}" for line in err.splitlines()] + [f"exit {rc}"]


def main(argv=()) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--diff", metavar="REV", help="list the calls whose output differs at git revision REV")
    args = ap.parse_args(argv)
    if args.diff is None:
        total, count = hashlib.sha256(), 0
        for call in calls():
            total.update(json.dumps(call).encode() + b"\n")
            count += 1
        print(f"{total.hexdigest()}  {count} calls")
        return 0
    with tempfile.TemporaryDirectory(prefix="digest-") as tmp:
        export(args.diff, Path(tmp))
        old = side(Path(tmp))
    new = side(ROOT)
    differ, only_old, only_new = compare(old, new)
    for a in differ:
        print(f"differs: {shlex.join(a)}")
        for line in difflib.unified_diff(_lines(*old[a]), _lines(*new[a]), args.diff, "working tree",
                                         n=1, lineterm=""):
            print(f"  {line}")
    for where, only in ((args.diff, only_old), ("working tree", only_new)):
        for a in only:
            print(f"only in {where}: {shlex.join(a)}")
    print(f"{len(differ)} of {len(old.keys() & new.keys())} distinct common calls differ, "
          f"{len(only_old)} only in {args.diff}, {len(only_new)} only in working tree")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
