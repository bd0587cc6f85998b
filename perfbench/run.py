"""Benchmark of the reidemeister package: batched sweeps, the element
kernel and per-object CLI queries.

    python3 perfbench/run.py --workload sweep-n4 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run reports the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced pass and the
tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"  # traces and scratch files, ignored by git

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Seed kept back for checking a claimed gain; no change is tuned on it.
HOLDOUT_SEED = 90210
SETUP_PROBES = 15  # fresh processes per run; setup_s is their median
MAX_REPEATS = 5  # back-to-back runs of one input per visit
REF_EVERY_S = 0.25  # least time between two samples of the speed reference
# sha256 of the file `atlas --max-order 100 --witnesses` wrote when this
# benchmark was added; the atlas output must stay byte-identical
ATLAS_SHA256 = "47b0713c715d59257d62f4df508f5c8f0a316d939578030644dea530e6400ff5"


def pin_threads() -> dict[str, str]:
    """Pin BLAS/OpenMP pools to one thread; must run before numpy is imported.

    The benchmark is one caller with no concurrency.  A pool of nproc
    threads adds about 0.1 s of start-up and exit to every process and
    ties the timings to the load on the other cores."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("REIDEMEISTER_BUDGET", None)  # always the default budget
    return {var: os.environ[var] for var in THREAD_VARS}


def metadata(args, threads: dict[str, str]) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    revision = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        revision = ref
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "workload": args.workload, "seed": args.seed, "holdout_seed": HOLDOUT_SEED,
        "seconds": args.seconds, "trace": args.trace, "nproc": NPROC, "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "revision": revision, "src_lines": src_lines, "threads": threads,
    }


def measure_setup(warmup: str) -> tuple[list[float], list[float]]:
    """Time from spawning a fresh process until it has imported the
    package and run the workload's warm-up operation: the set-up a user
    pays on every run.  The child signals readiness on its stdout, so
    the time does not include its exit.  Returns the raw times and the
    times scaled to nominal speed by the reference kernel timed right
    before and after each probe."""
    from speed import Speed

    speed = Speed()
    before = speed.sample()
    scaled = []
    code = (
        f"import sys, os, io, contextlib; sys.path.insert(0, {str(SRC)!r})\n"
        "from reidemeister import cli, _sweep\n"
        "from reidemeister.endo import PGroupType\n"
        "from reidemeister.oracle import DEFAULT_BUDGET\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {warmup}\n"
        "os.write(1, b'!')\n"
    )
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, cwd=ROOT) as proc:
            ready, _, _ = select.select([proc.stdout], [], [], 120)
            if not ready or proc.stdout.read(1) != b"!":
                proc.kill()
                raise RuntimeError("set-up probe failed")
            times.append(time.perf_counter() - start)
            if proc.wait(timeout=120) != 0:
                raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        after = speed.sample()
        scaled.append(times[-1] * speed.scale(before, after))
        before = after
    return times, scaled


def atlas_check(run_cli) -> str | None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"atlas-{os.getpid()}.json"
    try:
        code, _, err = run_cli(["atlas", "--max-order", "100", "--witnesses", "--out", str(path)])
        if code != 0:
            return f"atlas exit {code}: {err.strip()}"
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
    except Exception as exc:  # a crash is a failed check
        return f"atlas: {type(exc).__name__}: {exc}"
    finally:
        path.unlink(missing_ok=True)
    return None if digest == ATLAS_SHA256 else f"atlas digest {digest} differs from the recorded one"


class Tally:
    """Timings and failures of the operations run so far."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}  # raw seconds
        self.scaled: dict[str, list[float]] = {}  # seconds at nominal speed
        self.items: dict[str, int] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        self.failures.append(message)
        if len(self.failures) <= 5:
            print(f"FAILED {message}", file=sys.stderr)

    def merge(self, other: Tally) -> None:
        self.attempted += other.attempted
        self.failures += other.failures

    def busy_s(self) -> float:
        return sum(sum(v) for v in self.samples.values())

    def best_times(self, scaled: bool = False) -> list[float]:
        """Per input, its fastest repeat.  Caches are cleared before every
        operation, so repeats do the same work and differ only by the
        noise of a shared machine, which only ever adds time."""
        return [min(v) for v in (self.scaled if scaled else self.samples).values()]

    def work_per_s(self, scaled: bool = False) -> float:
        """Work items per second over one pass of the inputs."""
        return sum(self.items.values()) / sum(self.best_times(scaled))


def run_ops(ops, stop, tracer=None, repeat_s: float = 0.0, speed=None) -> Tally:
    """Closed loop, one caller: run each op, time it, then check it.

    Each visit repeats the op until it has taken repeat_s in all, at
    most MAX_REPEATS times, so that cheap inputs get several samples.
    With a speed reference, its kernel is timed between visits, at most
    every REF_EVERY_S, and the times of the visits between two kernel
    samples are also kept scaled to nominal speed by those samples."""
    from workloads import clear_caches

    tally = Tally()
    start = time.perf_counter()
    if speed is not None:
        before, last_ref = speed.sample(), time.perf_counter()
    pending: list[tuple[str, list[float]]] = []  # visits since the last kernel sample
    for k, op in enumerate(ops):
        visit = 0.0
        times = []
        for _ in range(MAX_REPEATS):
            tally.attempted += 1
            clear_caches()
            try:
                if tracer is None:
                    t0 = time.perf_counter()
                    result = op.run()
                    dt = time.perf_counter() - t0
                else:
                    with tracer.operation(k):
                        tracer.active = True
                        try:
                            t0 = time.perf_counter()
                            result = op.run()
                            dt = time.perf_counter() - t0
                        finally:
                            tracer.active = False
                error = op.check(result)
            except Exception as exc:  # a crashing operation is a failed one
                error = f"{type(exc).__name__}: {exc}"
            if error is not None:
                tally.fail(f"{op.label}: {error}")
                break
            times.append(dt)
            tally.items[op.label] = op.items
            visit += dt
            if visit >= repeat_s:
                break
        tally.samples.setdefault(op.label, []).extend(times)
        done = stop(k + 1, time.perf_counter() - start)
        if speed is not None:
            pending.append((op.label, times))
            if done or time.perf_counter() - last_ref >= REF_EVERY_S:
                after, last_ref = speed.sample(), time.perf_counter()
                scale = speed.scale(before, after)
                for label, visit_times in pending:
                    tally.scaled.setdefault(label, []).extend(dt * scale for dt in visit_times)
                pending.clear()
                before = after
        if done:
            break
    return tally


def never(count: int, elapsed: float) -> bool:
    return False


def timed_run(ops: list, args, repeat_s: float) -> tuple[Tally, dict]:
    """Cycle over the inputs until --seconds have passed and every input
    ran at least once.  work_per_s is scaled to nominal machine speed
    (see speed.py); the raw figure is printed."""
    from speed import NOMINAL_S, Speed

    def stop(count: int, elapsed: float) -> bool:
        return count >= len(ops) and elapsed >= args.seconds

    speed = Speed()
    tally = run_ops(itertools.chain.from_iterable(itertools.repeat(ops)), stop,
                    repeat_s=repeat_s, speed=speed)
    best = tally.best_times()
    if len(best) < 2:
        return tally, {}
    # Latency quantiles are printed for people but are not gated: on a
    # busy shared machine they spread wider than any allowed bound.
    p99 = statistics.quantiles(best, n=100, method="inclusive")[98]
    print(f"# op_p50_ms {statistics.median(best) * 1e3:.6g} ms, op_p99_ms {p99 * 1e3:.6g} ms "
          f"over {len(best)} inputs (not gated)")
    ref = speed.samples
    print(f"# raw work_per_s {tally.work_per_s():.6g} 1/s; reference kernel "
          f"{min(ref) * 1e3:.3f} ms fastest, {statistics.median(ref) * 1e3:.3f} ms median "
          f"over {len(ref)} samples, nominal {NOMINAL_S * 1e3:.3f} ms")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return tally, {"work_per_s": (tally.work_per_s(scaled=True), "1/s"), "peak_rss_mb": (rss_mb, "MB")}


def traced_run(ops: list, args) -> tuple[Tally, dict]:
    """One untraced and one traced pass over the same inputs."""
    from spans import OP, TRACED, Tracer, span_names

    plain = run_ops(ops, never)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_ops(ops, never, tracer)
    finally:
        tracer.uninstall()
    tally = Tally()
    tally.merge(plain)
    tally.merge(traced)
    if not traced.samples or not plain.samples:
        return tally, {}

    summary = tracer.summary()
    zero = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
    metrics: dict[str, tuple[float, str]] = {}
    for name in span_names():
        row = summary.get(name, zero)
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
    op_s = summary.get(OP, zero)["incl_s"]
    engine_s, lattice_s = tracer.sweep_engine_split()
    reports = tracer.reports
    cells = [r for r in reports if hasattr(r, "auto_count")]  # sweep_cell reports
    endos = sum(r.endo_count for r in cells)
    oracle_s = sum(summary.get(n, zero)["incl_s"]
                   for n in ("oracle.brute_fixed_points", "oracle.twisted_class_count"))
    metrics.update({
        "sweep.autos_ratio": (sum(r.auto_count for r in cells) / endos if endos else 0.0, "ratio"),
        "sweep.samples_checked": (sum(getattr(r, "samples_checked", 0) for r in reports), "count"),
        "sweep.lattice_share": (lattice_s / engine_s if engine_s else 0.0, "ratio"),
        "share.oracle_reference": (oracle_s / op_s, "ratio"),
        "share.element_kernel": (summary.get("sweep.triple_check", zero)["self_s"] / op_s, "ratio"),
        "trace.overhead_ratio": (traced.busy_s() / plain.busy_s() - 1.0, "ratio"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-{args.seed}.jsonl.gz"
    tracer.write(path)
    print(f"# traced {len(TRACED)} functions, {len(tracer.spans)} spans written to "
          f"{path.relative_to(ROOT)}; absent: {', '.join(tracer.absent) or 'none'}")
    print(f"# untraced pass {plain.busy_s():.3f} s, traced pass {traced.busy_s():.3f} s")
    return tally, metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="sweep-n4, sweep-n3, triple or queries")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "reidemeister" / "__init__.py").is_file():
        print(f"no package source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    threads = pin_threads()
    sys.path.insert(0, str(SRC))
    import workloads  # imports numpy, so only after pin_threads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    workload = workloads.WORKLOADS[args.workload]
    setup, setup_scaled = ([], []) if args.trace else measure_setup(workload.warmup)
    meta = metadata(args, threads)
    print("# meta " + json.dumps(meta, sort_keys=True))

    with contextlib.redirect_stdout(io.StringIO()):
        exec(workload.warmup, vars(workloads))
    ops = workload.ops(args.seed)
    pre = Tally()
    pre.attempted = 1
    error = atlas_check(workloads.run_cli)
    if error:
        pre.fail(error)

    if args.trace:
        tally, metrics = traced_run(ops, args)
    else:
        tally, metrics = timed_run(ops, args, workload.repeat_s)
    if not metrics:
        print("too few operations succeeded to report metrics", file=sys.stderr)
        return 1
    if not args.trace:
        metrics = {"setup_s": (statistics.median(setup_scaled), "s"), **metrics}
        runs = sum(len(v) for v in tally.samples.values())
        print(f"# {runs} timed operations over {len(ops)} inputs, each input timed by its "
              f"fastest repeat; work_per_s counts {workload.unit}, op_* time one {workload.op_name}")
        print(f"# setup_s is the median of {len(setup)} fresh processes scaled to nominal speed; "
              f"raw median {statistics.median(setup):.4f} s: " + " ".join(f"{t:.4f}" for t in setup))

    pre.merge(tally)
    attempted, failed = pre.attempted, len(pre.failures)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed}/{attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
