"""The benchmark's own output checks, one smoke job per listed workload.

`als_energy` is left out: its set-up builds a dense spin-chain Hamiltonian
and takes about 12 s.
"""
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
