"""Test that the reference speed of ``reference.py`` lets a change to attrfuse's cost through.

Run from the root of a checkout:

    python3 perfbench/check_reference.py --workload calibrate --seed 1 --seconds 20

Each round runs the workload's next op three ways, back to back, each
followed by its reference passes, as in the benchmark loop:

- ``base``: the op as the benchmark runs it;
- ``delay``: the op followed by a fixed amount of pure-Python work (integer
  arithmetic, none of the numpy or JSON calls of the reference loop), about
  half the median op; the same work is also timed alone in every round;
- ``memory``: the op followed by work that leaves memory live and evicts the
  CPU caches. It keeps ``LIVE_PER_ROUND`` more small tuples alive each round,
  up to ``LIVE_CAP``, and writes and sums a fresh ``EVICT_MB`` buffer.

The three variants of a round run within a few milliseconds of one another,
so the machine's drift hits them alike. Each op's latency is divided by the
local slowdown of the reference passes just before and after it, as the
benchmark does.
The reference is independent of attrfuse if the passes after ``memory`` ops
take as long as those after ``base`` ops, if ``memory`` is as much slower
than ``base`` at reference speed as it is raw, and if ``delay`` moves
``op_p50_ms`` and ``obs_per_s`` as much as adding the work's own time to
each ``base`` op does. The script prints these figures, and the correlation of the
reference time with the process's resident memory and garbage-collector
counters.
"""
from __future__ import annotations

import argparse
import gc
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import run

LIVE_PER_ROUND = 20_000
LIVE_CAP = 400_000
EVICT_MB = 32
VARIANTS = ("base", "delay", "memory")


def busy(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def rss_mb() -> float:
    """Current resident memory of this process."""
    pages = int(Path("/proc/self/statm").read_text().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def pearson(xs: list[float], ys: list[float]) -> float:
    try:
        return statistics.correlation(xs, ys)
    except statistics.StatisticsError:  # a constant series
        return 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)

    run.cap_threads()
    sys.path[:0] = [str(run.ROOT / "src"), str(run.BENCH_DIR)]
    import numpy as np
    import shim

    shim.apply()
    import reference
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](run.ROOT, args.seed)
    run.WORK_DIR.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix="check-", dir=run.WORK_DIR))
    live: list[tuple] = []
    lat = {v: [] for v in VARIANTS}
    ref = {v: [] for v in VARIANTS}  # the passes after each variant's ops
    at = {v: [] for v in VARIANTS}  # where each variant's ops sit in the whole sequence
    ref_times = [reference.run_once()]  # one before the first op, then one after each op, as in the benchmark
    delay_alone: list[float] = []
    items = 0
    probes = []  # (reference time, rss, gc gen-0 count, gen-2 collections) per pass
    try:
        wl.setup(Path(tempfile.mkdtemp(dir=base)))
        first = []
        for index in range(5):
            t0 = time.perf_counter()
            wl.run_op(index)
            first.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        busy(100_000)
        n_busy = max(1000, int(100_000 * 0.5 * statistics.median(first) / (time.perf_counter() - t0)))

        extra = {
            "base": lambda: None,
            "delay": lambda: busy(n_busy),
            "memory": lambda: (
                live.extend((float(i), i) for i in range(LIVE_PER_ROUND)) if len(live) < LIVE_CAP else None,
                float(np.ones(EVICT_MB * 2**17).sum()),
            ),
        }
        start = time.perf_counter()
        index = 0
        while index < 10 or time.perf_counter() - start < args.seconds:
            for variant in VARIANTS:
                t0 = time.perf_counter()
                done, _ = wl.run_op(index)
                extra[variant]()
                lat[variant].append(time.perf_counter() - t0)
                r = reference.after_op(lat[variant][-1])
                ref[variant].append(r)
                at[variant].append(len(ref_times) - 1)
                ref_times.append(r)
                probes.append((r, rss_mb(), gc.get_count()[0], gc.get_stats()[2]["collections"]))
            t0 = time.perf_counter()
            busy(n_busy)
            delay_alone.append(time.perf_counter() - t0)
            items += done
            index += 1
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            run.WORK_DIR.rmdir()
        except OSError:
            pass

    slowdowns = reference.local_slowdowns(ref_times)
    norm = {v: [x / slowdowns[k] for x, k in zip(lat[v], at[v])] for v in VARIANTS}
    delay_norm = [x / slowdowns[k] for x, k in zip(delay_alone, at["base"])]
    med = statistics.median
    print(f"# {args.workload} seed={args.seed}: {index} rounds, delay work {n_busy} iterations")
    print(f"{'variant':<8} {'ref after (ms)':>15} {'p50 raw (ms)':>13} {'p50 at ref speed (ms)':>22}")
    for v in VARIANTS:
        print(f"{v:<8} {med(ref[v]) * 1e3:>15.4f} {med(lat[v]) * 1e3:>13.4f} {med(norm[v]) * 1e3:>22.4f}")
    expected = [b + d for b, d in zip(norm["base"], delay_norm)]
    print(f"delay: op_p50_ms {med(norm['delay']) * 1e3:.4f}, expected {med(expected) * 1e3:.4f}; "
          f"obs_per_s {items / sum(norm['delay']):.6g}, expected {items / sum(expected):.6g} "
          f"(base ops plus the work timed alone, at reference speed)")
    for name, value in (("op_p50_ms", med), ("obs_per_s", lambda xs: 1 / sum(xs))):
        raw = value(lat["memory"]) / value(lat["base"])
        at_ref = value(norm["memory"]) / value(norm["base"])
        print(f"memory: {name} x{raw:.4f} of base raw, x{at_ref:.4f} at reference speed")
    paired = med(m / b for b, m in zip(ref["base"], ref["memory"]))
    print(f"reference after memory ops / after base ops, paired by round: {paired:.4f} (1 = independent)")
    times = [p[0] for p in probes]
    for j, name in enumerate(("resident memory", "gc gen-0 count", "gc gen-2 collections"), start=1):
        print(f"correlation of reference time with {name}: {pearson(times, [p[j] for p in probes]):+.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
