"""supplykg benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload build --seed 7 --seconds 28 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the workload's inputs are set up three times (the
median is ``setup_s``), then timed passes run until ``--seconds`` have
gone by. Each operation's metric is its mean over the passes, scaled by
a calibration loop timed around every operation to a reference speed of
the machine (see NOTES.md). With ``--trace 1`` one set-up is followed by one
untraced pass and two traced passes; the per-layer metrics come from the
first traced pass, the second must repeat every count exactly, and
``--seconds`` is not used. The metric names and units are read from
BENCHMARK.json.

Human-readable lines come first; the last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}``. Work
files go under ``bench/_work`` and are removed at exit; span files of
traced runs are kept in ``bench/_out``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
SETUPS = 3

# Every timing is scaled by REFERENCE_LOOP_S over the run's mean time of
# workloads.calibration_loop, which is timed before each set-up and each
# timed operation: seconds at the speed at which the loop takes
# REFERENCE_LOOP_S, about its fastest time on the machine of NOTES.md.
REFERENCE_LOOP_S = 0.001

# Counts that must repeat exactly between two traced passes of one seed.
COUNT_SUFFIXES = (".calls", ".rows", ".new", ".inserted", ".placed", ".lines", ".bytes", ".violations")


def is_count(name: str) -> bool:
    return name.endswith(COUNT_SUFFIXES) or name.startswith("fulfillment.orders.")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _print_failures(ops) -> None:
    for problem in ops.problems:
        print(f"FAILED {problem}", file=sys.stderr)


def measure(cls, seed: int, seconds: float, workdir: Path) -> tuple[dict, object]:
    from workloads import OPERATIONS, Ops

    ops = Ops()
    setup_times, digests = [], []
    for _ in range(SETUPS):
        ops.calibrate()
        workload = cls(seed, workdir)
        start = perf_counter()
        digests.append(workload.setup(ops))
        setup_times.append(perf_counter() - start)
    if None in digests:
        return {}, ops
    if len(set(digests)) != 1:
        ops.fail("setup", "the same seed gave different final graphs")
    # A CLI process would not hold the set-up's objects: keep the collector
    # from scanning them during the timed passes.
    gc.collect()
    gc.freeze()

    passes = 0
    start = perf_counter()
    while True:
        workload.run_pass(ops)
        passes += 1
        if perf_counter() - start >= seconds:
            break

    loops = ops.loops
    scale = REFERENCE_LOOP_S / statistics.fmean(loops)
    values = {"setup_s": scale * statistics.median(setup_times), "peak_rss_mb": _peak_rss_mb()}
    for metric in ("op1_s", "op2_s", "op3_s"):
        if ops.samples[metric]:
            values[metric] = scale * statistics.fmean(ops.samples[metric])

    print(f"{cls.name}, seed {seed}: {passes} passes in {perf_counter() - start:.1f} s; timings are the mean"
          f" pass x {scale:.4f}, from {len(loops)} calibration loops of mean {1000 * statistics.fmean(loops):.4f} ms"
          f" (fastest {1000 * min(loops):.4f}, median {1000 * statistics.median(loops):.4f}); unscaled seconds in brackets")
    labels = dict(zip(("op1_s", "op2_s", "op3_s"), OPERATIONS[cls.name]))
    labels["setup_s"] = f"median of {SETUPS} set-ups"
    samples = dict(ops.samples, setup_s=setup_times)
    for name, unit in END_TO_END:
        if name in values:
            each = " ".join(f"{x:.3f}" for x in samples.get(name, ()))
            print(f"  {name:<14} {values[name]:>10.4f} {unit:<4} {labels.get(name, '')} [{each}]")
    if ops.latencies_ms:
        lat = ops.latencies_ms
        print(f"  query_s        {sum(lat) / 1000 / passes:>10.4f} s    query mix, per pass")
        print(f"  query_p50_ms   {_percentile(lat, 50):>10.4f} ms   over {len(lat)} queries")
        print(f"  query_p90_ms   {_percentile(lat, 90):>10.4f} ms   over {len(lat)} queries")
    totals = getattr(workload, "totals", {})
    print("  orders: " + ", ".join(f"{k} {v}" for k, v in totals.items()))
    return values, ops


def measure_traced(cls, seed: int, workdir: Path) -> tuple[dict, object]:
    from layers import Tracer
    from workloads import Ops

    ops = Ops()
    workload = cls(seed, workdir)
    if workload.setup(ops) is None:
        return {}, ops
    gc.collect()
    gc.freeze()

    def timed_pass() -> float:
        """One pass's wall time in units of the calibration loops timed in
        it, so that the overhead ratio does not follow the machine's speed."""
        n = len(ops.loops)
        start = perf_counter()
        workload.run_pass(ops)
        return (perf_counter() - start) / statistics.fmean(ops.loops[n:])

    untraced = timed_pass()
    tracers, walls = [], []
    for _ in range(2):
        tracer = Tracer()
        ops.tracer = tracer
        tracer.install()
        try:
            walls.append(timed_pass())
        finally:
            tracer.uninstall()
            ops.tracer = None
        tracers.append(tracer)

    first, second = (t.stats for t in tracers)
    differing = sorted(n for n in set(first) | set(second) if is_count(n) and first.get(n, 0) != second.get(n, 0))
    if differing:
        ops.fail("trace", "counts differ between two traced passes: " + ", ".join(differing[:10]))

    values = {name: float(first.get(name, 0)) for name, _ in PER_LAYER}
    values["trace.overhead_ratio"] = walls[0] / untraced
    out = BENCH / "_out"
    out.mkdir(exist_ok=True)
    spans_file = out / f"spans-{cls.name}-seed{seed}.jsonl"
    tracers[0].write_spans(str(spans_file))
    print(f"{cls.name}, seed {seed}: untraced pass {untraced:.0f} calibration loops, traced passes "
          + ", ".join(f"{w:.0f}" for w in walls) + f"; {len(tracers[0].spans)} spans in {spans_file.relative_to(ROOT)}")
    for name, unit in PER_LAYER:
        if values[name]:
            shown = f"{values[name]:.0f}" if is_count(name) else f"{values[name]:.4f}"
            print(f"  {name:<40} {shown:>14} {unit}")
    return values, ops


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("build", "ingest", "analytics"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "supplykg" / "cli.py").is_file() or not (ROOT / "scenarios" / "automotive_sweep.cfg").is_file():
        print(f"error: no supplykg source tree at {ROOT}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    work = BENCH / "_work"
    work.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work))
    try:
        cls = WORKLOADS[args.workload]
        if args.trace:
            values, ops = measure_traced(cls, args.seed, workdir)
            names = PER_LAYER
        else:
            values, ops = measure(cls, args.seed, args.seconds, workdir)
            names = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass  # another run still uses it

    _print_failures(ops)
    if not values:
        print("error: set-up failed, nothing was measured", file=sys.stderr)
        return 1
    missing = [n for n, _ in names if n not in values]
    if missing:
        ops.fail("metrics", "no sample for " + ", ".join(missing))
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in names if n in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
