import os

import cli_reports
from mcdeform import cli, graded, maurer_cartan, path_object

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli_reports.txt")


def golden() -> tuple[str, list[str]]:
    """The golden file, and its blocks one per command."""
    with open(GOLDEN, encoding="utf-8") as fh:
        want = fh.read()
    return want, ["$ mcdeform " + b for b in want.split("$ mcdeform ")[1:]]


def test_cli_reports_are_byte_identical_to_golden():
    want, want_blocks = golden()
    got = cli_reports.reports()
    # compare command by command first, so a failure names the report that moved
    assert len(got) == len(want_blocks)
    for g, w in zip(got, want_blocks):
        assert g == w, g.splitlines()[0]
    assert "".join(got) == want


DIMENSION_COMMANDS = ("cone", "pair-cone", "tangent", "h-trunc")


def test_dimension_reports_build_no_cohomology_basis(monkeypatch):
    # cone, pair-cone, tangent and h-trunc report dimensions only: with every
    # route to a cohomology basis refused they still print their golden reports
    def refuse(*_args, **_kwargs):
        raise AssertionError("a dimension-only command built a cohomology basis")
    for module in (cli, graded, maurer_cartan, path_object):
        monkeypatch.setattr(module, "compute_cohomology", refuse)
    monkeypatch.setattr(path_object, "truncated_H_cohomology", refuse)
    got = cli_reports.reports(lambda argv: argv[0] in DIMENSION_COMMANDS)
    want = [b for b in golden()[1] if b.split()[2] in DIMENSION_COMMANDS]
    assert {b.split()[2] for b in want} == set(DIMENSION_COMMANDS)
    assert got == want
