"""Per-layer counts and self times, recorded from the benchmark's side.

The traced run replaces every binding of each function in ``LAYERS`` across
the loaded ``tnslab`` modules with a wrapper, so a call through any module's
name is seen: ``optimize``'s own ``eval_pbc`` as well as ``mps_pbc``'s.
``DenseTensor`` is a class, so its ``__init__`` is wrapped instead of its
bindings; that times construction, including the finiteness scan.

A function's self time is its wall time minus the time spent in wrapped
functions it calls.  ``check_capacity`` is only counted, so its time stays
with its caller.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = {
    "tensors": ("contract", "svd", "matrix_rank", "reduced_rq", "reduced_qr",
                "DenseTensor", "check_capacity"),
    "mps_obc": ("from_state_obc", "right_canonicalize", "eval_obc", "schmidt"),
    "mps_pbc": ("eval_pbc", "span_dimensions", "ti_canonical_blocks"),
    "ttns": ("from_state_ttns", "orthonormalize_ttns", "eval_ttns"),
    "peps": ("eval_peps",),
    "mera": ("random_mera", "eval_mera"),
    "zoo": ("w_state", "psi_w"),
    "geometry": ("stabilizer_lie_dim", "jacobian_rank"),
    "optimize": ("run_experiment", "objective_value"),
    "serialize": ("save_state", "load_state"),
    "cli": ("main",),
}
COUNT_ONLY = {"tensors.check_capacity"}
PER_SWEEP = ("optimize.objective_value", "mps_pbc.eval_pbc", "mps_obc.eval_obc")
MB = ("serialize.save_state", "serialize.load_state")


def metric_names() -> list[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names = []
    for module, funcs in LAYERS.items():
        for fn in funcs:
            key = f"{module}.{fn}"
            names.append(f"{key}.calls")
            if key not in COUNT_ONLY:
                names.append(f"{key}.self_s")
        names.append(f"{module}.self_s")
    names += [f"{key}.per_sweep" for key in PER_SWEEP]
    names += [f"{key}.mb" for key in MB]
    names += ["trace.peak_alloc_mb", "trace.slowdown"]
    return names


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("mb"):
        return "MB"
    if name == "trace.slowdown":
        return "ratio"
    return "count"


class Tracer:
    """Counts and self times for the wrapped functions while ``active``."""

    def __init__(self):
        self.active = False
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.bytes: Counter = Counter()
        self.sweeps = 0
        self._child: list[float] = []
        self._restore: list = []

    def _timed(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.calls[key] += 1
            if key == "serialize.load_state":
                self.bytes[key] += os.path.getsize(args[0])
            self._child.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                self.self_s[key] += spent - self._child.pop()
                if self._child:
                    self._child[-1] += spent
            if key == "serialize.save_state":
                self.bytes[key] += os.path.getsize(args[1])
            elif key == "optimize.run_experiment":
                self.sweeps += len(result.records) - 1
            return result

        return wrapper

    def _counted(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every binding of every traced function in loaded tnslab modules."""
        homes = {module: importlib.import_module(f"tnslab.{module}") for module in LAYERS}
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "tnslab" or name.startswith("tnslab."))]
        for module, funcs in LAYERS.items():
            home = homes[module]
            for fn in funcs:
                key = f"{module}.{fn}"
                orig = getattr(home, fn)
                if isinstance(orig, type):
                    init = orig.__init__
                    orig.__init__ = self._timed(key, init)
                    self._restore.append((orig, "__init__", init))
                    continue
                wrapper = (self._counted if key in COUNT_ONLY else self._timed)(key, orig)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def metrics(self, jobs: int) -> dict:
        """Per-job counts and self times, plus per-sweep and MB ratios."""
        out = {}
        for module, funcs in LAYERS.items():
            total = 0.0
            for fn in funcs:
                key = f"{module}.{fn}"
                out[f"{key}.calls"] = self.calls[key] / jobs
                if key not in COUNT_ONLY:
                    out[f"{key}.self_s"] = self.self_s[key] / jobs
                    total += self.self_s[key]
            out[f"{module}.self_s"] = total / jobs
        for key in PER_SWEEP:
            out[f"{key}.per_sweep"] = self.calls[key] / self.sweeps if self.sweeps else 0.0
        for key in MB:
            out[f"{key}.mb"] = self.bytes[key] / 1e6 / jobs
        return out
