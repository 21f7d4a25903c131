"""Closed-loop benchmark of attrfuse: one client in one process, each op starting after the previous one ends.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fuse_stream --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation. Every
time is reported at a fixed reference speed (see ``reference.py``); the raw
wall-clock values are printed beside them.
``--trace 1`` runs every op twice, once plain and once with each public
attrfuse function wrapped (see ``tracer.py``), and reports per-layer metrics
plus the tracing overhead. The last line of standard output is one JSON
object; the lines before it print every metric by name with its unit and
sample count, and the same detail is written under ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
REQUIRED = ("src/attrfuse/__init__.py", "scenarios/exp3.json", "catalogs/table1.json")

# One set-up before the loop, the rest spread evenly over it, so their median
# samples the machine over the whole run rather than over its first seconds.
SETUP_REPEATS = 7
SETUP_REF_PASSES = 5  # reference passes before and after each set-up
TAIL_MIN_ABOVE = 10
# Stops at p90: higher rungs spread more from run to run on a shared machine.
TAIL_LADDER = (90, 75, 50)

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = ['src', 'perfbench']\n"
    "t0 = time.perf_counter()\n"
    "import shim\n"
    "shim.apply()\n"
    "import attrfuse, attrfuse.cli\n"
    "print(time.perf_counter() - t0)\n"
)


def cap_threads() -> dict[str, int]:
    """Cap BLAS and OpenMP thread counts at the number of usable CPUs, before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    settings = {}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            value = int(os.environ.get(var, nproc))
        except ValueError:
            value = nproc
        settings[var] = max(1, min(value, nproc))
        os.environ[var] = str(settings[var])
    return settings


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_rev() -> str:
    """The checked-out commit; "unknown" outside a git repository or without git."""
    if not (ROOT / ".git").exists():  # keep git from finding a repository above the checkout
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def probe_import() -> float:
    """Import time of numpy plus attrfuse, in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def set_up(wl, base: Path) -> tuple[dict, Path]:
    """Import probe plus the workload's set-up into a fresh directory, between reference bursts.

    Returns the timing record and the directory.
    """
    import reference

    ref_times = [reference.run_once() for _ in range(SETUP_REF_PASSES)]
    import_s = probe_import()
    workdir = Path(tempfile.mkdtemp(dir=base))
    t0 = time.perf_counter()
    wl.setup(workdir)
    setup_s = time.perf_counter() - t0
    ref_times += [reference.run_once() for _ in range(SETUP_REF_PASSES)]
    return {"import_s": import_s, "setup_s": setup_s, "slowdown": reference.slowdown(ref_times)}, workdir


def tail(latencies: list[float]) -> tuple[int, float]:
    """(percentile, value) at the highest ladder percentile with at least ten samples above it."""
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    for p in TAIL_LADDER:
        if sum(1 for x in latencies if x > cuts[p - 1]) >= TAIL_MIN_ABOVE:
            return p, cuts[p - 1]
    return 50, cuts[49]


class Run:
    """The closed loop over one workload, its checks and its counters."""

    def __init__(self, workload, seconds: float, tracer=None, spare=None):
        self.wl = workload
        self.seconds = seconds
        self.tracer = tracer
        self.spare = spare  # makes one more set-up record, or None to make none
        self.setups: list[dict] = []
        self.latencies: list[float] = []
        self.ref_times: list[float] = []
        self.traced_latencies: list[float] = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first_output: bytes | None = None
        self.count_snapshot = None

    def _fail(self, index: int, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"op {index}: {message}")

    def _timed(self, index: int):
        t0 = time.perf_counter()
        try:
            items, output = self.wl.run_op(index)
        except (Exception, SystemExit) as exc:  # the CLI exits on bad input; a failing op is counted
            return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - t0, (items, output), None

    def step(self, index: int) -> None:
        self.attempted += 1
        latency, done, error = self._timed(index)
        self.latencies.append(latency)
        if self.tracer is not None:
            self.tracer.op_id = index
            self.tracer.active = True
            traced_latency, traced, traced_error = self._timed(index)
            self.tracer.active = False
            self.traced_latencies.append(traced_latency)
            if index + 1 == self.wl.min_ops:
                self.count_snapshot = self.tracer.snapshot()
            error = error or traced_error
            if error is None and self.wl.output_bytes(done[1]) != self.wl.output_bytes(traced[1]):
                error = "traced output differs from the untraced output"
        if error is not None:
            self._fail(index, error)
            return
        items, output = done
        if index == 0:
            self.first_output = self.wl.output_bytes(output)
        problems = self.wl.check_op(index, output)
        if problems:
            self._fail(index, "; ".join(problems))
            return
        self.items += items

    def loop(self) -> None:
        """Ops until ``seconds`` have passed, not counting the spare set-ups made between them."""
        import reference

        self.ref_times.append(reference.run_once())
        start = time.perf_counter()
        index = 0
        while index < self.wl.min_ops or time.perf_counter() - start < self.seconds:
            if self.spare is not None and len(self.setups) < SETUP_REPEATS:
                if time.perf_counter() - start >= len(self.setups) * self.seconds / SETUP_REPEATS:
                    t0 = time.perf_counter()
                    self.setups.append(self.spare())
                    start += time.perf_counter() - t0
            self.step(index)
            self.ref_times.append(reference.after_op(self.latencies[-1]))
            index += 1
        while self.spare is not None and len(self.setups) < SETUP_REPEATS:
            self.setups.append(self.spare())

    def finish(self) -> None:
        """Run-level checks: pooled predicates, and a byte-identical rerun of op 0."""
        for problem in self.wl.finish():
            self._fail(-1, problem)
        _, done, error = self._timed(0)
        if error is not None or self.first_output is None or self.wl.output_bytes(done[1]) != self.first_output:
            self._fail(0, f"rerun of op 0 is not byte-identical ({error or 'output differs'})")
        self.failed = min(self.failed, self.attempted)


def end_to_end(run: Run, peak_rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics at reference speed, with their sample counts and raw values."""
    import reference

    raw_ms = [x * 1e3 for x in run.latencies]
    lat_ms = [x / f for x, f in zip(raw_ms, reference.local_slowdowns(run.ref_times))]
    pct, tail_ms = tail(lat_ms)
    setup_s = statistics.median((r["import_s"] + r["setup_s"]) / r["slowdown"] for r in run.setups)
    setup_raw_s = statistics.median(r["import_s"] + r["setup_s"] for r in run.setups)
    busy_s = sum(lat_ms) / 1e3
    raw_busy_s = sum(run.latencies)
    metrics = {
        "obs_per_s": {"value": run.items / busy_s, "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
        "op_tail_ms": {"value": tail_ms, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    n = len(lat_ms)
    samples = {
        "obs_per_s": f"{run.items} {run.wl.counts} over {busy_s:.3f} s of {n} ops; raw {run.items / raw_busy_s:.6g}",
        "op_p50_ms": f"{n} ops; raw {statistics.median(raw_ms):.6g}",
        "op_tail_ms": f"p{pct} of {n} ops, {sum(1 for x in lat_ms if x > tail_ms)} above; raw {tail(raw_ms)[1]:.6g}",
        "setup_s": f"median of {len(run.setups)} import probes + set-ups; raw {setup_raw_s:.6g}",
        "peak_rss_mb": "1 process",
    }
    return metrics, samples


def per_layer(run: Run, tracer) -> tuple[dict, dict]:
    import reference
    from tracer import RATIOS, TRACED_NAMES

    calls_n, hits_n, base_n = run.count_snapshot
    slowdown = reference.slowdown(run.ref_times)
    traced_busy = sum(run.traced_latencies)
    metrics, samples = {}, {}
    for name in TRACED_NAMES:
        calls = tracer.calls[name]
        self_s = tracer.self_s[name]
        metrics[f"{name}.calls_per_op"] = {"value": calls_n[name] / run.wl.min_ops, "unit": "calls/op"}
        metrics[f"{name}.self_us_per_call"] = {
            "value": self_s / slowdown / calls * 1e6 if calls else 0.0,
            "unit": "us",
        }
        metrics[f"{name}.self_share"] = {"value": self_s / traced_busy, "unit": "ratio"}
        samples[f"{name}.calls_per_op"] = f"first {run.wl.min_ops} ops"
        samples[f"{name}.self_us_per_call"] = f"{calls} calls, at reference speed"
        samples[f"{name}.self_share"] = f"of {traced_busy:.3f} s traced over {len(run.traced_latencies)} ops"
    for ratio in RATIOS:
        value = hits_n[ratio] / base_n[ratio] if base_n[ratio] else 0.0
        metrics[ratio] = {"value": value, "unit": "ratio"}
        samples[ratio] = f"{hits_n[ratio]}/{base_n[ratio]} calls in the first {run.wl.min_ops} ops"
    plain = sum(run.latencies)
    metrics["trace.overhead_ratio"] = {"value": traced_busy / plain - 1.0, "unit": "ratio"}
    samples["trace.overhead_ratio"] = (
        f"traced {traced_busy:.3f} s vs plain {plain:.3f} s for the same {len(run.latencies)} ops "
        "(= plain obs_per_s / traced obs_per_s - 1)"
    )
    return metrics, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not an attrfuse checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    threads = cap_threads()
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import numpy as np
    import shim

    shim_applied = shim.apply()
    import attrfuse
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    make = WORKLOADS[args.workload]
    wl = make(ROOT, args.seed)

    WORK_DIR.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        first, _ = set_up(wl, base)
        tracer = spare = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        else:

            def spare() -> dict:
                """The same set-up again, for a fresh workload object, discarded after timing."""
                record, workdir = set_up(make(ROOT, args.seed), base)
                shutil.rmtree(workdir)
                return record

        run = Run(wl, args.seconds, tracer, spare)
        run.setups.append(first)
        run.loop()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
        run.finish()
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    if args.trace:
        metrics, samples = per_layer(run, tracer)
    else:
        metrics, samples = end_to_end(run, peak_rss_mb)
    environment = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "attrfuse": attrfuse.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "threads": threads,
        "git_rev": git_rev(),
        "trapz_shim_applied": shim_applied,
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client, 1 process",
        "environment": environment,
        "setups": run.setups,
        "samples": samples,
        "errors": run.errors,
        "absent": tracer.absent if tracer is not None else [],
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=2) + "\n")
    if tracer is not None:
        tracer.write_spans(OUT_DIR / f"{stem}-spans.jsonl")

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: " + json.dumps(environment))
    for name, metric in metrics.items():
        print(f"{name:<58} {metric['value']:>16.6g} {metric['unit']:<9} ({samples[name]})")
    ratio = run.failed / run.attempted
    print(f"{'ops_failed_ratio':<58} {ratio:>16.6g} {'ratio':<9} ({run.failed}/{run.attempted} ops; the result's failed/attempted)")
    for error in run.errors:
        print(f"# check failed: {error}")
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
