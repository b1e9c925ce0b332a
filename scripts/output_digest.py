#!/usr/bin/env python3
"""Print one sha256 over what the command line prints on a fixed input set.

The calls are `analyze`, as text and with `--json`, on every variant of
perfbench/golden.json (with `--oracle` where the variant sets it), every
argv of tests/golden_analyze.json, and `paper-examples`.  Each runs in
process through `unipic.cli.main` from the src/ next to this script, and
its argv, exit code, stdout and stderr enter the hash.  Two checkouts that
print the same digest give byte-identical output on every call.

    python scripts/output_digest.py    # prints the digest and the call count
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from unipic import cli  # noqa: E402


def argvs():
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    for slots in golden["workloads"].values():
        for slot in slots:
            for v in slot["variants"]:
                argv = ["analyze", "--field", v["field"], "--eq", v["eq"],
                        "--search-bound", str(v["bound"])] + ["--oracle"] * v["oracle"]
                yield argv
                yield argv + ["--json"]
    for case in json.loads((ROOT / "tests" / "golden_analyze.json").read_text()):
        yield case["argv"]
    yield ["paper-examples"]


def run(argv: list[str]) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def main() -> int:
    total, count = hashlib.sha256(), 0
    for argv in argvs():
        total.update(json.dumps([argv, *run(argv)]).encode() + b"\n")
        count += 1
    print(f"{total.hexdigest()}  {count} calls")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
