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

from mcdeform import library as lib
from mcdeform.artin import artin_from_labels, tensor_dgla
from mcdeform.cli import main
from mcdeform.documents import (
    canonical_json,
    digest,
    serialize_artin,
    serialize_dgla,
    serialize_element,
    serialize_pair,
    serialize_triple,
)
from mcdeform.maurer_cartan import mc_triple, pair_setting


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def series_documents() -> dict[str, dict]:
    """Gauge parameters and MC elements over heis ⊗ m of K[t]/t³, in the basis
    t, t² and in the basis a = t, b = t − t², where m² = ⟨a − b⟩ holds no basis
    vector.  y_kt3 = e^{a_kt3} * x_kt3 and y_skew = e^{b_skew} * x_skew; no
    gauge takes u_kt3 to w_kt3, which differ at level 2."""
    L = lib.heis()
    skew = artin_from_labels(("a", "b"), {pair: {"a": 1, "b": -1} for pair in
                                          (("a", "a"), ("a", "b"), ("b", "b"))})
    docs = {"artin_skew": serialize_artin(skew)}
    elements = [
        (lib.artin_kt(3), {"a_kt3": ({"a@t": 1}, 0), "b_kt3": ({"a@t^2": 1}, 0),
                          "x_kt3": ({"x@t": 1}, 1), "y_kt3": ({"x@t": 1, "y@t^2": 1}, 1),
                          "u_kt3": ({"x@t^2": 1}, 1), "w_kt3": ({"x@t^2": 1, "y@t^2": 1}, 1)}),
        (skew, {"b_skew": ({"a@a": -1, "a@b": -2}, 0),
               "x_skew": ({"x@a": 2, "y@a": -2, "y@b": 4}, 1),
               "y_skew": ({"x@a": 2, "y@a": -8, "y@b": 10}, 1)}),
    ]
    for A, named in elements:
        T = tensor_dgla(L, A)
        owners = digest(serialize_dgla(L)), digest(serialize_artin(A))
        for name, (coords, degree) in named.items():
            docs[name] = serialize_element(T.element_from_labels(coords, degree), *owners,
                                           degree)
    return docs


def lift_documents() -> dict[str, dict]:
    """Inputs of `obstruction` and `lift` along K[t]/t³ → K[t]/t² that lift:
    x⊗t + y⊗t over heis, whose cocycle vanishes, and the triple
    (x⊗t, x⊗t, a⊗t) over the pair (id, id) of heis, whose cocycle
    (0, 0, y⊗t²) is a nonzero boundary of the cone."""
    A = lib.artin_kt(2)
    L = lib.heis()
    T = tensor_dgla(L, A)
    docs = {"xy_heis": serialize_element(T.element_from_labels({"x@t": 1, "y@t": 1}, 1),
                                         digest(serialize_dgla(L)), digest(serialize_artin(A)),
                                         1)}
    h, g = lib.pair_idid_heis()
    s = pair_setting(h, g, A)
    t = mc_triple(s, s.tL.element_from_labels({"x@t": 1}, 1),
                  s.tN.element_from_labels({"x@t": 1}, 1),
                  s.tM.element_from_labels({"a@t": 1}, 0))
    docs["triple_idid_heis"] = serialize_triple(t.x, t.y, t.p, digest(serialize_pair(h, g)),
                                                digest(serialize_artin(A)))
    return docs


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
    kt3 = ["--dgla", "heis.json", "--artin", "artin_kt3.json"]
    skew = ["--dgla", "heis.json", "--artin", "artin_skew.json"]
    argvs += [
        ["gauge-apply", *kt3, "--param", "a_kt3.json", "--element", "x_kt3.json"],
        ["bch", *kt3, "--a", "a_kt3.json", "--b", "b_kt3.json"],
        ["gauge-equiv", *kt3, "--x", "x_kt3.json", "--y", "y_kt3.json"],
        ["gauge-equiv", *kt3, "--x", "u_kt3.json", "--y", "w_kt3.json"],
        ["gauge-equiv", *skew, "--x", "x_skew.json", "--y", "y_skew.json"],
    ]
    for cmd in ("obstruction", "lift"):
        argvs += [[cmd, "--dgla", "heis.json", "--tower", "3", "--element", "xy_heis.json"],
                  [cmd, "--pair", "pair_idid_heis.json", "--tower", "3",
                   "--element", "triple_idid_heis.json"]]
    return [argv + ["--json"] for argv in argvs]


def reports(keep=lambda argv: True) -> list[str]:
    """One block per command (of those keep accepts): the command line, its exit
    status, its stdout."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            listing = json.loads(run(["examples", "--list", "--json"])[1])
            listing = listing["result"]["examples"]
            for name in listing:
                code, _out = run(["examples", "--write", name, "--out", f"{name}.json"])
                assert code == 0, name
            for name, doc in {**series_documents(), **lift_documents()}.items():
                with open(f"{name}.json", "w", encoding="utf-8") as fh:
                    fh.write(canonical_json(doc))
            blocks = []
            for argv in filter(keep, commands(listing)):
                code, out = run(argv)
                blocks.append(f"$ mcdeform {' '.join(argv)}\nexit {code}\n{out}")
            return blocks
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    sys.stdout.write("".join(reports()))
