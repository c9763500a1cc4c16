"""Reference figures for bench/README.md: the machine, the library versions,
the size of each src/ module, and the single-call baselines listed in
ROADMAP.md, each the median of five repeats with one BLAS thread.

    python3 bench/baseline.py
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tnslab as tl  # noqa: E402

REPEATS = 5


def _median_s(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> None:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"python {platform.python_version()}, numpy {np.__version__}, "
          f"scipy {scipy.__version__}, {blas['name']} {blas['version']}")
    print(f"cores {os.cpu_count()}, BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}")
    print("\nsrc/ lines per module")
    total = 0
    for path in sorted((SRC / "tnslab").glob("*.py")):
        lines = len(path.read_text().splitlines())
        total += lines
        print(f"  {path.stem:12s} {lines:5d}")
    print(f"  {'total':12s} {total:5d}\n")

    n = 18
    rng = np.random.default_rng(0)
    psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    psi /= np.linalg.norm(psi)
    mps = tl.from_state_obc(psi, [2] * n)
    rows = [
        (f"from_state_obc, n={n}, random state", _median_s(lambda: tl.from_state_obc(psi, [2] * n))),
        (f"right_canonicalize, n={n}", _median_s(lambda: tl.right_canonicalize(mps))),
    ]
    state = tl.DenseTensor(psi.reshape((2,) * n))
    (HERE / "out").mkdir(exist_ok=True)
    path = HERE / "out" / "baseline-state.json"
    rows.append((f"JSON save, 2^{n} dense state", _median_s(lambda: tl.save_state(state, path))))
    mb = path.stat().st_size / 1e6
    rows.append((f"JSON load, same file ({mb:.1f} MB)", _median_s(lambda: tl.load_state(path))))
    path.unlink()
    theta = math.atan(1.0 / 3.0)
    for k in (6, 7):
        rows.append((f"blbq_hamiltonian, n={k}",
                     _median_s(lambda: tl.blbq_hamiltonian(k, theta, pbc=True))))
    print(f"| operation | median of {REPEATS}, s |\n|---|---|")
    for label, sec in rows:
        print(f"| {label} | {sec:.3f} |")


if __name__ == "__main__":
    main()
