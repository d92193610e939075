"""One cold `mcdeform` command, optionally traced.

    python3 perfbench/cli_child.py <spans.json | -> <mcdeform arguments...>

With `-` this is the `mcdeform` console script: import the CLI and call
`main(argv)`.  With a path, the benchmark's wrappers are installed first
and the per-span-name totals are written to that path at exit.  Either
way the child times the host-speed reference unit once the CLI is
imported and again once the command has returned, and writes
`hostspeed <mean unit seconds> <seconds spent sampling>` as the last line
of its standard error.  PYTHONPATH must point at the checkout's `src`.
"""

import json
import os
import sys
import time


class HostSampler:
    def __init__(self):
        self.units: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import hostspeed

        self.units.append(hostspeed.unit_time())
        self.spent += time.perf_counter() - t0

    def report(self) -> None:
        mean = sum(self.units) / len(self.units)
        print(f"hostspeed {mean!r} {self.spent!r}", file=sys.stderr)


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    host = HostSampler()
    try:
        if out == "-":
            from mcdeform.cli import main as cli_main
            host.sample()
            return cli_main(argv)
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing
        from mcdeform import cli

        host.sample()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            return cli.main(argv)
        finally:
            tracer.uninstall()
            with open(out, "w", encoding="utf-8") as fh:
                json.dump(tracer.snapshot(), fh)
    finally:
        host.sample()
        host.report()


if __name__ == "__main__":
    sys.exit(main())
