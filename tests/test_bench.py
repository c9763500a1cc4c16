"""The benchmark's own output checks, one smoke job per listed workload.

`als_energy` is left out: its set-up builds a dense spin-chain Hamiltonian
and takes about 12 s.
"""
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["certify", "als_distance", "cli_io"])
def test_benchmark_smoke_job_passes_its_checks(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0, result


def test_every_traced_layer_names_a_library_function():
    # a renamed or deleted function would break `bench/run.py --trace 1`,
    # which the smoke jobs above do not run
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{fn}"
        for module, fns in tracer.LAYERS.items()
        for fn in fns
        if not hasattr(importlib.import_module(f"tnslab.{module}"), fn)
    ]
    assert tracer.LAYERS and not missing
