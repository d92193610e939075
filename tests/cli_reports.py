"""The frozen stdout --json reports of the CLI on the built-in examples.

Every command runs in-process through ``cli.main`` inside a temporary
directory, on documents written there by ``examples --write`` under bare file
names, so the ``inputs`` digests in the reports do not depend on where the
run happens.  Rewrite the golden file (only when a report is meant to change)
from the repository root with

    PYTHONPATH=src python tests/cli_reports.py > tests/golden/cli_reports.txt
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

from mcdeform.cli import main


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def commands(listing: dict[str, dict]) -> list[list[str]]:
    """The report commands over the example names of `examples --list`."""
    kinds = {name: entry["kind"] for name, entry in listing.items()}
    dglas = [n for n, k in kinds.items() if k == "dgla"]
    pairs = [n for n, k in kinds.items() if k == "pair"]
    others = [n for n, k in kinds.items() if k not in ("dgla", "pair")]
    argvs = [["examples", "--write", n] for n in kinds]
    for n in dglas:
        argvs += [["validate", f"{n}.json"], ["cohomology", f"{n}.json"],
                  ["tangent", "--dgla", f"{n}.json"]]
    for n in pairs:
        argvs += [["validate", f"{n}.json"], ["pair-cone", f"{n}.json"],
                  ["tangent", "--pair", f"{n}.json"],
                  ["h-trunc", "--pair", f"{n}.json", "--trunc", "1", "--trunc-to", "2"]]
    argvs += [["validate", f"{n}.json"] for n in others]
    argvs.append(["cone", "morphism_inj_acyclic.json"])
    for cmd in ("obstruction", "lift"):
        argvs += [[cmd, "--dgla", "obstructed.json", "--tower", "3",
                   "--element", "xt_obstructed.json"],
                  [cmd, "--pair", "pair_idid_obstructed.json", "--tower", "3",
                   "--element", "triple_idid_obstructed.json"]]
    argvs += [
        ["mc-check", "--pair", "pair_idid_obstructed.json", "--artin", "artin_kt2.json",
         "--element", "triple_idid_obstructed.json"],
        ["mc-residual", "--dgla", "obstructed.json", "--artin", "artin_kt2.json",
         "--element", "xt_obstructed.json"],
        ["h-embed", "--pair", "pair_idid_heis.json", "--element", "hpair_heis.json"],
    ]
    return [argv + ["--json"] for argv in argvs]


def reports() -> list[str]:
    """One block per command: the command line, its exit status, its stdout."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            listing = json.loads(run(["examples", "--list", "--json"])[1])
            listing = listing["result"]["examples"]
            for name in listing:
                code, _out = run(["examples", "--write", name, "--out", f"{name}.json"])
                assert code == 0, name
            blocks = []
            for argv in commands(listing):
                code, out = run(argv)
                blocks.append(f"$ mcdeform {' '.join(argv)}\nexit {code}\n{out}")
            return blocks
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    sys.stdout.write("".join(reports()))
