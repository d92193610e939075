"""The mcdeform benchmark.

    python3 perfbench/run.py --workload <cli_cold|api_cohomology|api_series>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --manifest [--seed <n>]

Run from a checkout of the repository: the library is imported from its
`src/`.  One process, one client, no extra threads: each workload is a
closed loop in which the next op starts when the previous one returns.

--trace 0 sets the workload up several times (the median is `setup_s`),
then runs its op cycle over and over for --seconds, checks every result
against an independent oracle, and prints the end-to-end metrics: times
are scaled to a reference host speed (hostspeed.py), and the latency
quantiles and throughput are taken over the cycle's ops, each op at the
median of its own latencies in the run.
--trace 1 runs the cycle untraced and traced, pass after pass for
--seconds, requires the two to give identical results, and prints the
per-layer metrics of one pass.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import hostspeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUPS = 5          # set-up repetitions per run; setup_s is their median
IMPORT_REPS = 5     # cold interpreter starts per side for cli.import_ms

CAL_EVERY = 0.1     # seconds between host-speed samples in the timed loop
CAL_BURST = 7       # host-speed samples before and after each set-up


class Checker:
    """Counts failed ops: the oracle judges the first result of each op id,
    and every later result of that op must be identical to the first."""

    def __init__(self):
        self.first: dict[str, tuple[str, bool]] = {}
        self.attempted = 0
        self.failed = 0

    def record(self, op, result, error) -> bool:
        self.attempted += 1
        ok = error is None and self._judge(op, result)
        if not ok:
            self.failed += 1
        return ok

    def _judge(self, op, result) -> bool:
        try:
            fp = op.fingerprint(result)
            if op.id not in self.first:
                self.first[op.id] = (fp, bool(op.check(result)))
                return self.first[op.id][1]
        except Exception:  # a malformed result is a failed op, not a crash
            return False
        fp0, good = self.first[op.id]
        return good and fp == fp0


def run_op(op):
    gc.collect()    # every op starts from the same collector state
    t0 = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception as e:  # the op failed; the loop goes on and counts it
        result, error = None, e
    return result, error, time.perf_counter() - t0


def closed_loop(wl, ops, seconds: float):
    """Whole cycles of ops until `seconds` have passed, with host-speed
    samples; (records, scales), where scales[i] is hostspeed.scale of the
    last sample taken before op i starts and the first one taken after.
    In-process workloads sample between ops, once CAL_EVERY seconds have
    passed since the last sample; a cold CLI child samples in its own
    process after its command (`wl.child_sample`), and the time that took
    is not part of the op."""
    records, samples, before = [], [], []   # before[i]: samples taken before op i
    start = next_cal = time.perf_counter()
    while True:
        for op in ops:
            if not wl.children_sample and time.perf_counter() >= next_cal:
                samples.append(hostspeed.unit_time())
                next_cal = time.perf_counter() + CAL_EVERY
            before.append(len(samples))
            result, error, lat = run_op(op)
            if wl.children_sample and wl.child_sample is not None:
                unit, spent = wl.child_sample
                samples.append(unit)
                lat -= spent
            records.append((op, result, error, lat))
        if time.perf_counter() - start >= seconds:
            break
    if not wl.children_sample:
        samples.append(hostspeed.unit_time())
    if not samples:     # no child lived to sample: leave times unscaled
        return records, [1.0] * len(records)
    return records, [hostspeed.scale(samples[max(0, b - 1):b + 1]) for b in before]


def cycle_latencies(ops, records, lat):
    """The cycle's ops, each with the median of its own (scaled) latencies:
    one slow or fast execution does not move the quantiles taken over it."""
    by_id: dict[str, list[float]] = {}
    for (op, *_), t in zip(records, lat):
        by_id.setdefault(op.id, []).append(t)
    return [statistics.median(by_id[op.id]) for op in ops]


def cycle_figures(cycle):
    """(ops per second, median, 90th percentile) of the cycle's latencies."""
    return len(cycle) / sum(cycle), statistics.median(cycle), statistics.quantiles(cycle, n=10)[8]


def one_pass(ops):
    start = time.perf_counter()
    records = [(op, *run_op(op)) for op in ops]
    return records, time.perf_counter() - start


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def import_ms() -> float:
    """Cold `import mcdeform.cli` minus a bare interpreter start (medians)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    bare, full = [], []
    for _ in range(IMPORT_REPS):
        for code, acc in (("pass", bare), ("import mcdeform.cli", full)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
            acc.append(time.perf_counter() - t0)
    return (statistics.median(full) - statistics.median(bare)) * 1000.0


def spec() -> dict:
    """BENCHMARK.json: the workloads and the metrics every run reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(wl, seed: int, seconds: float, scale: str = "full") -> dict:
    setup_times, raw_setup = [], []
    for _ in range(SETUPS):
        gc.collect()
        before = [hostspeed.unit_time() for _ in range(CAL_BURST)]
        t0 = time.perf_counter()
        ops = wl.setup(seed, scale)
        t = time.perf_counter() - t0
        raw_setup.append(t)
        after = [hostspeed.unit_time() for _ in range(CAL_BURST)]
        setup_times.append(t * hostspeed.scale(before + after))
    records, scales = closed_loop(wl, ops, seconds)
    checker = Checker()
    for op, result, error, _lat in records:
        checker.record(op, result, error)
    raw = [r[3] for r in records]
    lat = [t * k for t, k in zip(raw, scales)]
    ops_per_s, p50, p90 = cycle_figures(cycle_latencies(ops, records, lat))
    beyond = sum(1 for x in lat if x > p90)
    print(f"# {wl.name}: {len(records)} ops in {sum(raw):.2f} s of op time over "
          f"{len(ops)}-op cycles, {beyond} beyond p90; host scale median "
          f"{statistics.median(scales):.3f} (min {min(scales):.3f}, max {max(scales):.3f})")
    raw_figures = cycle_figures(cycle_latencies(ops, records, raw))
    print("# unscaled: ops_per_s {:.4g}, op_p50_ms {:.4g}, op_p90_ms {:.4g}".format(
        raw_figures[0], raw_figures[1] * 1000, raw_figures[2] * 1000)
        + f", setups {[round(t, 3) for t in raw_setup]}")
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            "ops_per_s": metric(ops_per_s, "ops/s"),
            "op_p50_ms": metric(p50 * 1000.0, "ms"),
            "op_p90_ms": metric(p90 * 1000.0, "ms"),
            "setup_s": metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": metric(peak_rss_mb(children=wl.name == "cli_cold"), "MiB"),
            "ok_frac": metric((checker.attempted - checker.failed) / checker.attempted,
                              "ratio"),
        },
    }


def traced_pass(wl, ops, tracing):
    """One pass over the cycle with the wrappers in; (records, wall, span totals)."""
    if wl.name == "cli_cold":
        with tempfile.TemporaryDirectory(dir=wl.workdir) as spans_dir:
            wl.trace_dir = spans_dir
            try:
                records, wall = one_pass(ops)
            finally:
                wl.trace_dir = None
            snaps = []
            for f in sorted(os.listdir(spans_dir)):
                with open(os.path.join(spans_dir, f), encoding="utf-8") as fh:
                    snaps.append(json.load(fh))
        return records, wall, tracing.merge(snaps)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        records, wall = one_pass(ops)
    finally:
        tracer.uninstall()
    return records, wall, tracer.snapshot()


def run_traced(wl, seed: int, seconds: float = 0.0, scale: str = "full") -> dict:
    """Pairs of untraced and traced passes over the cycle for `seconds` (at
    least one pair); layer metrics are per pass."""
    import tracing

    ops = wl.setup(seed, scale)
    checker = Checker()
    mismatches = passes = 0
    wall_plain = wall_traced = 0.0
    snaps, bytes_out = [], 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        plain, wall = one_pass(ops)
        wall_plain += wall
        traced, wall, snap = traced_pass(wl, ops, tracing)
        wall_traced += wall
        snaps.append(snap)
        passes += 1
        for (op, r0, e0, _l0), (_op, r1, e1, _l1) in zip(plain, traced):
            checker.record(op, r0, e0)
            checker.record(op, r1, e1)
            if e0 is None and e1 is None and op.fingerprint(r0) != op.fingerprint(r1):
                mismatches += 1
            if wl.name == "cli_cold" and e1 is None:
                bytes_out += len(r1[1])
    values = tracing.layer_metrics(tracing.merge(snaps, passes), wall_traced / passes)
    values["documents.bytes_out"] = bytes_out / passes
    values["cli.import_ms"] = import_ms()
    values["trace.overhead_frac"] = wall_traced / wall_plain - 1.0
    print(f"# {wl.name} traced: {passes} x {len(ops)} ops, untraced {wall_plain:.2f} s, "
          f"traced {wall_traced:.2f} s, {mismatches} traced/untraced mismatches")
    metrics = {m["name"]: metric(values[m["name"]], m["unit"]) for m in spec()["per_layer"]}
    return {"correct": checker.failed == 0 and mismatches == 0,
            "attempted": checker.attempted, "failed": checker.failed + mismatches,
            "metrics": metrics}


def manifest(seed: int) -> dict:
    import workloads

    why = {w["name"]: w["why"] for w in spec()["workloads"]}
    out = {}
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, ROOT)
        try:
            ops = wl.setup(seed)
        finally:
            wl.close()
        mix: dict[str, int] = {}
        for op in ops:
            mix[op.id] = mix.get(op.id, 0) + 1
        out[name] = {"why": why[name], "ops_per_cycle": len(ops), "op_mix": mix,
                     "seed": seed, **wl.manifest(seed)}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--manifest", action="store_true",
                   help="print the input manifest of every workload and exit")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mcdeform", "cli.py")):
        print(f"error: no mcdeform sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__))]
    import workloads

    if args.manifest:
        print(json.dumps(manifest(args.seed), indent=2, sort_keys=True))
        return 0
    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.make(args.workload, ROOT)
    try:
        measure = run_traced if args.trace else run_untraced
        result = measure(wl, args.seed, args.seconds)
    finally:
        wl.close()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
