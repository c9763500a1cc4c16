"""End-to-end command-line tests driven through main(argv)."""
import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from tnslab.cli import main
from tnslab.mps_obc import right_canonicalize
from tnslab.serialize import load_state, save_state
from tnslab.zoo import w_obc_mps

from helpers import w_max_entry_formula, w_overlap_formula


def _read_csv(path):
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0].startswith("# ")
    rows = list(csv.reader(lines[1:]))
    return rows[0], rows[1:]


def test_construct_w_writes_amplitudes(tmp_path, capsys):
    out = tmp_path / "w.json"
    assert main(["construct", "--family", "w", "--n", "4", "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == str(out)
    obj = json.loads(out.read_text())
    assert obj["kind"] == "dense_state"
    data = obj["tensor"]["data"]
    nonzero = [z for z in data if z != [0.0, 0.0]]
    assert len(nonzero) == 4
    assert all(z == [0.5, 0.0] for z in nonzero)


def test_construct_default_filename(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["construct", "--family", "w", "--n", "3"]) == 0
    assert (tmp_path / "w_n3.json").exists()


@pytest.mark.parametrize(
    "args,checks",
    [
        (["--family", "w", "--n", "4"], "wellformed,norm"),
        (["--family", "psi_w", "--n", "4", "--eps", "0.5"], "norm"),
        (["--family", "psi_w_ti", "--n", "4", "--eps", "0.5"], "wellformed,ti"),
        (["--family", "aklt", "--n", "4"], "wellformed,ti"),
        (["--family", "mera", "--n", "8", "--m", "2", "--seed", "1"], "isometry,norm"),
        (["--family", "w_obc", "--n", "5"], "norm"),
        (["--family", "two_domain", "--n", "3", "--m", "2"], "wellformed"),
    ],
)
def test_construct_certify_round_trip(tmp_path, args, checks):
    out = tmp_path / "state.json"
    assert main(["construct", *args, "--out", str(out)]) == 0
    report = tmp_path / "report.csv"
    code = main(
        ["certify", "--input", str(out), "--checks", checks, "--out", str(report)]
    )
    assert code == 0
    header, rows = _read_csv(report)
    assert header == ["check", "value", "passed"]
    assert [r[2] for r in rows] == ["true"] * len(rows)


def test_certify_canonical_state(tmp_path):
    path = tmp_path / "canon.json"
    save_state(right_canonicalize(w_obc_mps(5)), path)
    report = tmp_path / "report.csv"
    code = main(
        ["certify", "--input", str(path), "--checks", "canonical,norm", "--out", str(report)]
    )
    assert code == 0


def test_certify_failures_exit_two(tmp_path):
    out = tmp_path / "tau.json"
    main(["construct", "--family", "two_domain", "--n", "3", "--m", "2", "--out", str(out)])
    report = tmp_path / "r.csv"
    code = main(["certify", "--input", str(out), "--checks", "norm", "--out", str(report)])
    assert code == 2
    _, rows = _read_csv(report)
    assert rows[0][2] == "false"
    assert abs(float(rows[0][1]) - math.sqrt(6.0)) < 1e-12

    # per-site tensors differ on the closing site, so the ti check fails
    ring = tmp_path / "ring.json"
    main(
        [
            "construct", "--family", "psi_tau", "--n", "3", "--m", "2",
            "--eps", "0.5", "--out", str(ring),
        ]
    )
    assert main(["certify", "--input", str(ring), "--checks", "ti"]) == 2


@pytest.mark.parametrize("data", [[1.0, 2.0], [["a", 0], [1, 0]]])
def test_certify_malformed_tensor_data_exits_two(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    obj = {"kind": "dense_state", "tensor": {"shape": [2], "data": data}}
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["certify", "--input", str(path), "--checks", "wellformed"]) == 2
    assert "[re, im] number pairs" in capsys.readouterr().err


@pytest.mark.parametrize("obj", [{"kind": "dense_state", "tensor": 5}, [1, 2]])
def test_certify_non_object_json_exits_two(tmp_path, obj):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["certify", "--input", str(path), "--checks", "wellformed"]) == 2


def test_certify_unknown_check_is_a_validation_error(tmp_path):
    out = tmp_path / "w.json"
    main(["construct", "--family", "w", "--n", "3", "--out", str(out)])
    assert main(["certify", "--input", str(out), "--checks", "unitary"]) == 2


def test_schmidt_profile_of_w4(tmp_path):
    state = tmp_path / "w.json"
    main(["construct", "--family", "w", "--n", "4", "--out", str(state)])
    report = tmp_path / "schmidt.csv"
    assert main(["schmidt", "--input", str(state), "--out", str(report)]) == 0
    header, rows = _read_csv(report)
    assert header == ["cut", "rank", "coefficients"]
    assert [int(r[0]) for r in rows] == [1, 2, 3]
    assert [int(r[1]) for r in rows] == [2, 2, 2]
    cut1 = json.loads(rows[0][2])
    assert abs(cut1[0] - math.sqrt(3.0 / 4.0)) < 1e-12
    assert abs(cut1[1] - math.sqrt(1.0 / 4.0)) < 1e-12


def test_schmidt_single_cut_flag(tmp_path):
    state = tmp_path / "w.json"
    main(["construct", "--family", "w", "--n", "4", "--out", str(state)])
    report = tmp_path / "schmidt.csv"
    assert main(
        ["schmidt", "--input", str(state), "--cut", "2", "--out", str(report)]
    ) == 0
    _, rows = _read_csv(report)
    assert len(rows) == 1 and int(rows[0][0]) == 2


def test_injectivity_reference_rows(tmp_path):
    report = tmp_path / "inj.csv"
    assert main(["injectivity", "--family", "aklt", "--out", str(report)]) == 0
    header, rows = _read_csv(report)
    assert header == ["d", "m", "wielandt_bound", "injectivity_length", "primitive"]
    assert rows[0] == ["3", "2", "56", "2", "true"]

    assert main(
        [
            "injectivity", "--family", "psi_w_ti", "--n", "4",
            "--eps", "0.5", "--out", str(report),
        ]
    ) == 0
    _, rows = _read_csv(report)
    assert rows[0] == ["2", "2", "56", "-1", ""]


def test_geometry_row(tmp_path):
    report = tmp_path / "geom.csv"
    code = main(
        ["geometry", "--state", "tau", "--n", "3", "--m", "2", "--out", str(report)]
    )
    assert code == 0
    header, rows = _read_csv(report)
    assert header == ["state", "N", "m", "predicted", "measured", "match"]
    assert rows[0] == ["tau", "3", "2", "10", "10", "true"]


def test_sweep_decade_grid_matches_closed_forms(tmp_path):
    report = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep", "--family", "psi_w", "--n", "5",
            "--eps", "1e-1..1e-4", "--out", str(report),
        ]
    )
    assert code == 0
    header, rows = _read_csv(report)
    assert header == ["eps", "overlap", "max_abs_entry"]
    eps_col = [float(r[0]) for r in rows]
    assert eps_col == [1e-4, 1e-3, 1e-2, 1e-1]
    for eps, overlap, entry in ((float(a), float(b), float(c)) for a, b, c in rows):
        assert abs(overlap - w_overlap_formula(5, eps)) < 1e-12
        assert abs(entry - w_max_entry_formula(5, eps)) < 1e-10


def test_sweep_comma_grid_is_sorted(tmp_path):
    report = tmp_path / "sweep.csv"
    main(
        [
            "sweep", "--family", "psi_w", "--n", "3",
            "--eps", "0.5,0.01,0.1", "--out", str(report),
        ]
    )
    _, rows = _read_csv(report)
    assert [float(r[0]) for r in rows] == [0.01, 0.1, 0.5]


def test_optimize_distance_trace(tmp_path, capsys):
    report = tmp_path / "trace.csv"
    code = main(
        [
            "optimize", "--set", "obc", "--n", "4", "--m", "2",
            "--budget", "50", "--seed", "3", "--out", str(report),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out.strip()
    header, rows = _read_csv(report)
    assert header == [
        "iteration",
        "f",
        "f_reg",
        "overlap",
        "max_abs_entry",
        "frobenius_norms",
        "transfer_product_norm",
        "flag",
    ]
    assert [int(r[0]) for r in rows] == list(range(len(rows)))
    fregs = [float(r[2]) for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(fregs, fregs[1:]))
    norms = json.loads(rows[0][5])
    assert len(norms) == 4
    assert printed in ("converged", "iteration_cap")
    assert printed in rows[-1][7]


def test_optimize_energy_small_run(tmp_path, capsys):
    report = tmp_path / "trace.csv"
    code = main(
        [
            "optimize", "--objective", "energy", "--set", "pbc", "--n", "3",
            "--m", "2", "--theta", "0.0", "--budget", "10", "--out", str(report),
        ]
    )
    assert code == 0
    _, rows = _read_csv(report)
    assert rows, "expected at least the initial record"
    # overlap is undefined for energy runs
    assert rows[0][3] == "nan"
    capsys.readouterr()


def test_optimize_regularized_run(tmp_path, capsys):
    report = tmp_path / "trace.csv"
    code = main(
        [
            "optimize", "--set", "ti", "--n", "5", "--m", "2",
            "--reg", "tensor_norm", "--lambda", "1e-3",
            "--budget", "40", "--init", "psi_w_ti", "--eps", "0.5",
            "--out", str(report),
        ]
    )
    assert code == 0
    _, rows = _read_csv(report)
    fregs = [float(r[2]) for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(fregs, fregs[1:]))
    capsys.readouterr()


@pytest.mark.parametrize("seed", [0, 3, 8])
def test_optimize_rejects_overflowing_trials(tmp_path, capsys, seed):
    # these starts make line-search trials whose ring state overflows; each
    # such trial must be rejected rather than abort the run
    report = tmp_path / "trace.csv"
    code = main(
        [
            "optimize", "--objective", "distance", "--set", "ti", "--n", "11",
            "--m", "2", "--reg", "tensor_norm", "--lambda", "1e-3",
            "--budget", "20", "--seed", str(seed), "--out", str(report),
        ]
    )
    assert code == 0
    _, rows = _read_csv(report)
    fregs = [float(r[2]) for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(fregs, fregs[1:]))
    capsys.readouterr()


def test_usage_errors_exit_64(tmp_path, capsys):
    assert main(["transmogrify"]) == 64
    assert main(["construct"]) == 64
    assert main(["construct", "--family", "nope", "--n", "3"]) == 64
    assert main(["optimize", "--set", "diagonal", "--n", "3", "--m", "2"]) == 64
    cfg = tmp_path / "c.json"
    cfg.write_text("{}", encoding="utf-8")
    assert main(["--config", str(cfg)]) == 64
    capsys.readouterr()


def test_validation_errors_exit_2(tmp_path, capsys):
    assert main(["certify", "--input", str(tmp_path / "missing.json")]) == 2
    assert main(["construct", "--family", "psi_w", "--n", "4", "--eps", "0"]) == 2
    assert main(["sweep", "--family", "aklt", "--n", "3", "--eps", "0.1"]) == 2
    capsys.readouterr()


def test_capacity_exit_3(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("TNS_CAPACITY_CAP", "1000")
    assert main(["construct", "--family", "w", "--n", "12"]) == 3
    capsys.readouterr()


def test_config_file_supplies_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out_cfg = tmp_path / "from_cfg.json"
    cfg.write_text(
        json.dumps({"family": "w", "n": 4, "out": str(out_cfg)}), encoding="utf-8"
    )
    assert main(["construct", "--config", str(cfg)]) == 0
    assert out_cfg.exists()
    state = load_state(out_cfg)
    assert state.array.size == 16

    # explicit flags win over the config file
    out_flag = tmp_path / "from_flag.json"
    assert main(
        ["construct", "--config", str(cfg), "--n", "3", "--out", str(out_flag)]
    ) == 0
    assert load_state(out_flag).array.size == 8
    capsys.readouterr()


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "w", "n": 4, "bond": 3}), encoding="utf-8")
    assert main(["construct", "--config", str(cfg)]) == 2
    capsys.readouterr()


def test_reports_are_deterministic_after_the_timestamp(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["sweep", "--family", "psi_w", "--n", "5", "--eps", "1e-1..1e-3"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    tail_a = a.read_bytes().split(b"\n", 1)[1]
    tail_b = b.read_bytes().split(b"\n", 1)[1]
    assert tail_a == tail_b
    # floats carry full round-trip precision
    _, rows = _read_csv(a)
    for r in rows:
        assert repr(float(r[1])) == r[1]


def test_module_entry_point_runs(tmp_path):
    report = tmp_path / "geom.csv"
    proc = subprocess.run(
        [
            sys.executable, "-m", "tnslab.cli", "geometry",
            "--state", "mu", "--n", "3", "--m", "2", "--out", str(report),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert report.exists()
