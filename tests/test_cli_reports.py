import os

import cli_reports

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli_reports.txt")


def test_cli_reports_are_byte_identical_to_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        want = fh.read()
    got = cli_reports.reports()
    # compare command by command first, so a failure names the report that moved
    want_blocks = ["$ mcdeform " + b for b in want.split("$ mcdeform ")[1:]]
    assert len(got) == len(want_blocks)
    for g, w in zip(got, want_blocks):
        assert g == w, g.splitlines()[0]
    assert "".join(got) == want
