"""Benchmark for tnslab: one workload per process, one client in a closed loop.

Run from the repository root:

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload als_energy --seed 1 --trace 1
    python3 bench/run.py --smoke          # every workload, one job each

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics ``setup_s``, ``jobs_per_s``, ``job_p50_s`` and
``peak_rss_mb``; with ``--trace 1`` it holds the per-layer metrics of
``tracer.py`` instead.  Both also print ``correct``, ``attempted`` and
``failed``.  A copy of the result goes to ``bench/out/``.

The library is imported from ``src/`` next to this directory; without it the
benchmark exits with an error and prints no result.
"""
from __future__ import annotations

import os

# One BLAS thread, set before numpy loads OpenBLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402,F401
import scipy.linalg  # noqa: E402,F401

import tracer  # noqa: E402
import workloads  # noqa: E402

SMOKE_TIMEOUT_S = 300


def import_tnslab():
    """A fresh import of the package from src/, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "tnslab" or n.startswith("tnslab.")]:
        del sys.modules[name]
    return importlib.import_module("tnslab")


class Run:
    """One process's jobs: seeds, status counts and failure log."""

    def __init__(self, wl, seed: int):
        self.wl = wl
        self.seed = seed
        self.statuses: list[str] = []

    def attempt(self, tl, ctx, index: int, trace: tracer.Tracer | None = None) -> float:
        """Run job `index` and check it; returns the job's wall time."""
        rng = np.random.default_rng([self.seed, index])
        if trace is not None:
            trace.active = True
        start = time.perf_counter()
        try:
            out = self.wl.job(tl, ctx, rng)
        except Exception:
            spent = time.perf_counter() - start
            self._log(index, "raised", traceback.format_exc())
            self.statuses.append("error")
            return spent
        finally:
            if trace is not None:
                trace.active = False
        spent = time.perf_counter() - start
        try:
            fails = self.wl.check(tl, ctx, out)
        except Exception:
            fails = ["check raised:\n" + traceback.format_exc()]
        if fails:
            self._log(index, "failed its checks", "\n".join(fails))
            self.statuses.append("wrong")
        else:
            self.statuses.append("ok")
        return spent

    def _log(self, index: int, what: str, detail: str) -> None:
        print(f"{self.wl.name} job {index} (seed {self.seed}) {what}:\n{detail}", file=sys.stderr)

    def result(self, setup_fails: list, metrics: dict) -> dict:
        attempted = len(self.statuses)
        failed = sum(s != "ok" for s in self.statuses)
        if setup_fails:
            # every job used the inputs that failed their check
            print(f"{self.wl.name} set-up failed its checks:\n" + "\n".join(setup_fails),
                  file=sys.stderr)
            failed = attempted
        correct = not setup_fails and "wrong" not in self.statuses
        return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _setup(wl, seed: int, repeats: int):
    """Import and build inputs `repeats` times; returns (tl, ctx, seconds each)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        tl = import_tnslab()
        ctx = wl.setup(tl, seed)
        times.append(time.perf_counter() - start)
    if Path(tl.__file__).resolve().parent != SRC / "tnslab":
        raise SystemExit(f"tnslab was imported from {tl.__file__}, not from {SRC}")
    return tl, ctx, times


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_plain(wl, seed: int, seconds: float, smoke: bool) -> dict:
    run = Run(wl, seed)
    tl, ctx, setup_times = _setup(wl, seed, 1 if smoke else wl.setup_repeats)
    setup_fails = wl.verify_setup(tl, ctx)
    if not smoke:
        run.attempt(tl, ctx, 0)  # warm-up, untimed
    times = [run.attempt(tl, ctx, 1)]
    while not smoke and sum(times) < seconds:
        times.append(run.attempt(tl, ctx, len(times) + 1))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "jobs_per_s": _metric(len(times) / sum(times), "1/s"),
        "job_p50_s": _metric(statistics.median(times), "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }
    return run.result(setup_fails, metrics)


def run_traced(wl, seed: int) -> tuple[dict, dict]:
    """Untraced jobs 1..K, one job under tracemalloc, then the same K jobs traced."""
    run = Run(wl, seed)
    tl, ctx, _ = _setup(wl, seed, 1)
    setup_fails = wl.verify_setup(tl, ctx)
    run.attempt(tl, ctx, 0)  # warm-up
    jobs = range(1, wl.trace_jobs + 1)
    plain = [run.attempt(tl, ctx, i) for i in jobs]
    tracemalloc.start()
    run.attempt(tl, ctx, 1)
    peak_alloc = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    trace = tracer.Tracer()
    trace.install()
    try:
        traced = [run.attempt(tl, ctx, i, trace) for i in jobs]
    finally:
        trace.uninstall()
    values = trace.metrics(len(traced))
    values["trace.peak_alloc_mb"] = peak_alloc / 1e6
    values["trace.slowdown"] = statistics.median(traced) / statistics.median(plain)
    metrics = {name: _metric(values[name], tracer.unit(name)) for name in tracer.metric_names()}
    detail = {
        "jobs": len(traced),
        "sweeps": trace.sweeps,
        "calls": dict(trace.calls),
        "self_s": dict(trace.self_s),
        "bytes": dict(trace.bytes),
        "plain_job_s": plain,
        "traced_job_s": traced,
    }
    return run.result(setup_fails, metrics), detail


def smoke(seed: int) -> int:
    """Every workload once, each in its own process; nonzero if any fails."""
    bad = 0
    for name in workloads.NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--smoke"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SMOKE_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        ok = result is not None and result["correct"] and result["failed"] == 0
        bad += not ok
        print(f"{name}: {'ok' if ok else 'FAILED'} in {time.perf_counter() - start:.1f} s")
        if not ok:
            sys.stderr.write(proc.stderr)
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one job with every check; without --workload, run every workload")
    args = p.parse_args(argv)
    if not (SRC / "tnslab" / "__init__.py").is_file():
        print(f"no tnslab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        if not args.smoke:
            p.error("--workload is required")
        return smoke(args.seed)

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"cli-scratch-{os.getpid()}"
    wl = workloads.make(args.workload, str(scratch))
    stem = OUT / f"{args.workload}-seed{args.seed}"
    try:
        if args.trace and not args.smoke:
            result, detail = run_traced(wl, args.seed)
            stem.with_name(stem.name + "-spans.json").write_text(json.dumps(detail, indent=1))
        else:
            result = run_plain(wl, args.seed, args.seconds, args.smoke)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    line = json.dumps(result)
    stem.with_name(stem.name + f"-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
