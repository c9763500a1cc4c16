"""End-to-end command-line tests driven through main(argv)."""
import csv
import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tnslab import cli
from tnslab.cli import main
from tnslab.mps_obc import right_canonicalize
from tnslab.mps_pbc import MpsPbc
from tnslab.serialize import load_state, save_state
from tnslab.zoo import aklt_tensor, psi_w_timps_tensor, w_obc_mps

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


@pytest.mark.parametrize(
    "check,family,message",
    [
        ("canonical", ["aklt", "--n", "4"], "applies to mps_obc inputs"),
        ("ti", ["w", "--n", "3"], "applies to mps_pbc inputs"),
        ("ti", ["w_obc", "--n", "5"], "applies to mps_pbc inputs"),
        ("isometry", ["w_obc", "--n", "5"], "applies to mera inputs"),
    ],
)
def test_certify_refuses_a_check_that_does_not_apply(tmp_path, capsys, check, family, message):
    # an open chain is a ring too, but 'ti' still refuses it
    out = tmp_path / "state.json"
    assert main(["construct", "--family", *family, "--out", str(out)]) == 0
    report = tmp_path / "report.csv"
    assert main(["certify", "--input", str(out), "--checks", check, "--out", str(report)]) == 2
    assert message in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("shapes", [[(1, 2, 2), (2, 2, 2)], [(2, 2, 3), (2, 3, 2)]])
def test_certify_ti_fails_on_sites_of_different_shapes(tmp_path, shapes):
    # unequal shapes are a failed check, not a numpy broadcast
    path = tmp_path / "ring.json"
    save_state(MpsPbc([np.ones(s) for s in shapes]), path)
    report = tmp_path / "report.csv"
    assert main(["certify", "--input", str(path), "--checks", "ti", "--out", str(report)]) == 2
    _, rows = _read_csv(report)
    assert rows == [["ti", "inf", "false"]]


@pytest.mark.parametrize("data", [[1.0, 2.0], [["a", 0], [1, 0]], [[True, 0], [1, 0]]])
def test_certify_malformed_tensor_data_exits_two(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    obj = {"kind": "dense_state", "tensor": {"shape": [2], "data": data}}
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["certify", "--input", str(path), "--checks", "wellformed"]) == 2
    assert "[re, im] number pairs" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["false", 1])
def test_certify_non_boolean_ti_flag_exits_two(tmp_path, capsys, flag):
    ring = tmp_path / "ring.json"
    main(
        [
            "construct", "--family", "psi_tau", "--n", "3", "--m", "2",
            "--eps", "0.5", "--out", str(ring),
        ]
    )
    obj = json.loads(ring.read_text(encoding="utf-8"))
    obj["translation_invariant"] = flag
    ring.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["certify", "--input", str(ring), "--checks", "wellformed"]) == 2
    assert "must be true or false" in capsys.readouterr().err


@pytest.mark.parametrize("obj", [{"kind": "dense_state", "tensor": 5}, [1, 2]])
def test_certify_non_object_json_exits_two(tmp_path, obj):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["certify", "--input", str(path), "--checks", "wellformed"]) == 2


@pytest.mark.parametrize(
    "obj",
    [
        {"kind": "dense_state", "tensor": {"shape": 5, "data": []}},
        {"kind": "mps_obc", "tensors": 5},
        {"kind": "ttns", "network": [1], "tensors": []},
    ],
)
def test_certify_nested_fields_of_the_wrong_type_exit_two(tmp_path, capsys, obj):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["certify", "--input", str(path), "--checks", "wellformed"]) == 2
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("shape", [[2.7], [True, 2]])
def test_certify_non_integral_shape_exits_two(tmp_path, capsys, shape):
    path = tmp_path / "bad.json"
    obj = {"kind": "dense_state", "tensor": {"shape": shape, "data": [[1.0, 0.0], [0.0, 0.0]]}}
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["certify", "--input", str(path), "--checks", "wellformed,norm"]) == 2
    assert "must hold integers" in capsys.readouterr().err


def test_certify_integer_too_large_for_a_float_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    big = "1" + "0" * 400
    path.write_text(
        '{"kind": "dense_state", "tensor": {"shape": [2], "data": [[%s, 0], [0, 0]]}}' % big,
        encoding="utf-8",
    )
    assert main(["certify", "--input", str(path), "--checks", "wellformed"]) == 2
    assert "[re, im] number pairs" in capsys.readouterr().err


def test_certify_unknown_check_is_a_validation_error(tmp_path):
    out = tmp_path / "w.json"
    main(["construct", "--family", "w", "--n", "3", "--out", str(out)])
    assert main(["certify", "--input", str(out), "--checks", "unitary"]) == 2


@pytest.mark.parametrize("checks", [",", " , ", ""])
def test_certify_a_check_list_that_names_no_check_exits_two(tmp_path, capsys, checks):
    out = tmp_path / "w.json"
    main(["construct", "--family", "w", "--n", "3", "--out", str(out)])
    report = tmp_path / "report.csv"
    assert main(["certify", "--input", str(out), "--checks", checks, "--out", str(report)]) == 2
    assert "names no check" in capsys.readouterr().err
    assert not report.exists()


def test_certify_an_empty_check_list_from_a_config_exits_two(tmp_path, capsys):
    out = tmp_path / "w.json"
    main(["construct", "--family", "w", "--n", "3", "--out", str(out)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"checks": ""}), encoding="utf-8")
    assert main(["certify", "--input", str(out), "--config", str(cfg)]) == 2
    assert "names no check" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "construct, extra",
    [
        (["--family", "psi_w", "--n", "10", "--eps", "0.05"], []),
        (["--family", "two_domain", "--n", "4", "--m", "2"], ["--d", "4"]),
        (["--family", "mera", "--n", "8", "--m", "2", "--seed", "3"], []),
    ],
)
def test_schmidt_profile_rows_match_single_cut_rows(tmp_path, construct, extra):
    state = tmp_path / "state.json"
    assert main(["construct", *construct, "--out", str(state)]) == 0
    report = tmp_path / "all.csv"
    assert main(["schmidt", "--input", str(state), *extra, "--out", str(report)]) == 0
    _, rows = _read_csv(report)
    assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
    for cut, rank, coeffs in rows:
        one = tmp_path / f"cut{cut}.csv"
        argv = ["schmidt", "--input", str(state), *extra, "--cut", cut, "--out", str(one)]
        assert main(argv) == 0
        (want,) = _read_csv(one)[1]
        assert want[:2] == [cut, rank]
        assert np.abs(np.array(json.loads(coeffs)) - json.loads(want[2])).max() <= 1e-12


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


@pytest.mark.parametrize(
    "args",
    [
        ["construct", "--family", "w", "--n", "3", "--tol", "1e-9"],
        ["injectivity", "--family", "aklt", "--tol", "1e-9"],
        ["optimize", "--set", "obc", "--n", "3", "--m", "2", "--budget", "1", "--tol", "1e-9"],
        ["optimize", "--set", "obc", "--n", "3", "--m", "2", "--budget", "1", "--target", "w"],
        ["sweep", "--family", "psi_w", "--n", "4", "--eps", "0.1", "--tol", "1e-9"],
        ["sweep", "--family", "psi_w", "--n", "4", "--eps", "0.1", "--m", "2"],
    ],
)
def test_flags_a_command_does_not_read_are_usage_errors(tmp_path, capsys, args):
    assert main(args + ["--out", str(tmp_path / "out")]) == 64
    capsys.readouterr()


@pytest.mark.parametrize(
    "args, message",
    [
        (["schmidt", "--d", "0"], "--d must be at least 2, got 0"),
        (["schmidt", "--d", "1"], "--d must be at least 2, got 1"),
        (["injectivity", "--family", "aklt", "--max-len", "0"], "ell_max must be at least 1"),
        (["optimize", "--set", "ti", "--n", "4", "--m", "2", "--budget", "0"], "budget must be at least 1"),
        (["construct", "--family", "w", "--n", "3", "--d", "0"], "w_state needs d >= 2"),
    ],
    ids=["schmidt-d0", "schmidt-d1", "injectivity-max-len0", "optimize-budget0", "construct-d0"],
)
def test_zero_valued_flags_are_values_not_defaults(tmp_path, capsys, args, message):
    # a flag given as 0 (or 1) reaches the check that refuses it instead of
    # falling back to the flag's default
    state = tmp_path / "w.json"
    assert main(["construct", "--family", "w", "--n", "4", "--out", str(state)]) == 0
    extra = ["--input", str(state)] if args[0] == "schmidt" else []
    out = tmp_path / "out.json"
    assert main(args + extra + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert not out.exists()


@pytest.mark.parametrize(
    "args, site",
    [
        (["--objective", "energy", "--init", "aklt", "--set", "ti"], aklt_tensor()),
        (["--objective", "energy", "--init", "aklt", "--set", "pbc"], aklt_tensor()),
        (["--init", "psi_w_ti", "--eps", "0.5", "--set", "pbc"], psi_w_timps_tensor(4, 0.5)),
    ],
    ids=["aklt-ti", "aklt-pbc", "psi_w_ti-pbc"],
)
def test_optimize_named_starts(tmp_path, capsys, args, site):
    report = tmp_path / "trace.csv"
    argv = ["optimize", *args, "--n", "4", "--m", "2", "--budget", "3", "--out", str(report)]
    assert main(argv) == 0
    _, rows = _read_csv(report)
    # the first record is the named start: every site holds its tensor
    assert json.loads(rows[0][5]) == [float(np.linalg.norm(site.array))] * 4
    capsys.readouterr()


def test_optimize_named_start_on_an_open_chain_exits_two(tmp_path, capsys):
    argv = ["optimize", "--init", "aklt", "--set", "obc", "--n", "4", "--m", "2"]
    assert main(argv + ["--out", str(tmp_path / "trace.csv")]) == 2
    assert capsys.readouterr().err.strip() == "error: init aklt needs --set ti or pbc"


# each translation-invariant family's flags besides --n, the objective its site
# dimension fits (aklt is spin 1) and its site tensor at n = 4
_TI_FAMILIES = {
    "psi_w_ti": (["--eps", "0.5"], "distance", psi_w_timps_tensor(4, 0.5)),
    "aklt": ([], "energy", aklt_tensor()),
}


def test_every_translation_invariant_family_is_tested():
    assert set(_TI_FAMILIES) == {name for name, (_, ti, _) in cli._FAMILIES.items() if ti}


@pytest.mark.parametrize("family", sorted(_TI_FAMILIES))
def test_translation_invariant_family_at_each_entry_point(tmp_path, capsys, family):
    extra, objective, site = _TI_FAMILIES[family]
    state = tmp_path / "state.json"
    assert main(["construct", "--family", family, "--n", "4", *extra, "--out", str(state)]) == 0
    loaded = load_state(state)
    assert isinstance(loaded, MpsPbc) and loaded.translation_invariant
    assert [t.array.tobytes() for t in loaded.tensors] == [site.array.tobytes()] * 4
    report = tmp_path / "inj.csv"
    argv = ["injectivity", "--family", family, "--n", "4", *extra, "--out", str(report)]
    assert main(argv) == 0
    d, m = site.shape[:2]
    assert _read_csv(report)[1][0][:2] == [str(d), str(m)]
    capsys.readouterr()
    for ring in ("ti", "pbc", "obc"):
        argv = ["optimize", "--init", family, "--set", ring, "--objective", objective,
                "--n", "4", "--m", str(m), "--budget", "1", *extra, "--out", str(report)]
        if ring == "obc":
            assert main(argv) == 2
            assert capsys.readouterr().err.strip() == f"error: init {family} needs --set ti or pbc"
            continue
        assert main(argv) == 0
        _, rows = _read_csv(report)
        assert json.loads(rows[0][5]) == [float(np.linalg.norm(site.array))] * 4
        capsys.readouterr()


@pytest.mark.parametrize(
    "args, message",
    [
        (["construct", "--family", "nope", "--n", "3"], "unknown family 'nope'"),
        (["injectivity", "--family", "nope"], "pass --input or --family psi_w_ti|aklt"),
        (["injectivity", "--family", "w", "--n", "3"], "pass --input or --family psi_w_ti|aklt"),
        (["injectivity"], "pass --input or --family psi_w_ti|aklt"),
        (["optimize", "--init", "nope", "--set", "ti", "--n", "3", "--m", "2"],
         "unknown init 'nope'"),
        (["optimize", "--init", "w", "--set", "ti", "--n", "3", "--m", "2"], "unknown init 'w'"),
        # a family's required flags, and --n for every construct
        (["construct", "--family", "aklt"], "--n is required here"),
        (["construct", "--family", "psi_tau", "--n", "3", "--eps", "0.1"], "--m is required here"),
        (["injectivity", "--family", "psi_w_ti", "--n", "4"], "--eps is required here"),
        (["optimize", "--init", "psi_w_ti", "--set", "ti", "--n", "3", "--m", "2"],
         "--eps is required here"),
    ],
)
def test_family_names_and_flags_are_checked_as_usage(tmp_path, capsys, args, message):
    out = tmp_path / "out"
    assert main(args + ["--out", str(out)]) == 64
    assert capsys.readouterr().err.strip() == f"usage error: {message}"
    assert not out.exists()


def test_optimize_reports_divergence_mid_run(tmp_path, capsys):
    report = tmp_path / "trace.csv"
    argv = ["optimize", "--set", "ti", "--n", "7", "--m", "2", "--init", "psi_w_ti",
            "--eps", "0.3", "--budget", "200", "--divergence-threshold", "1.05"]
    assert main(argv + ["--out", str(report)]) == 0
    assert capsys.readouterr().out.strip() == "divergence_flag"
    header, rows = _read_csv(report)
    assert len(rows) == 3
    assert rows[-1][header.index("flag")] == "ridge;divergence_flag"


def test_injectivity_of_a_saved_ti_mps(tmp_path, capsys):
    state = tmp_path / "aklt.json"
    assert main(["construct", "--family", "aklt", "--n", "4", "--out", str(state)]) == 0
    report = tmp_path / "inj.csv"
    assert main(["injectivity", "--input", str(state), "--out", str(report)]) == 0
    assert _read_csv(report)[1][0] == ["3", "2", "56", "2", "true"]
    w = tmp_path / "w.json"
    assert main(["construct", "--family", "w", "--n", "4", "--out", str(w)]) == 0
    capsys.readouterr()
    assert main(["injectivity", "--input", str(w), "--out", str(report)]) == 2
    assert capsys.readouterr().err.strip() == (
        "error: injectivity needs a translation-invariant mps_pbc"
    )


def test_schmidt_dims_flag_and_sizes_that_are_not_powers(tmp_path, capsys):
    state = tmp_path / "two.json"
    argv = ["construct", "--family", "two_domain", "--n", "4", "--m", "2", "--out", str(state)]
    assert main(argv) == 0
    by_dims = tmp_path / "dims.csv"
    by_d = tmp_path / "d.csv"
    assert main(["schmidt", "--input", str(state), "--dims", "4,4,4,4", "--out", str(by_dims)]) == 0
    assert main(["schmidt", "--input", str(state), "--d", "4", "--out", str(by_d)]) == 0
    assert _read_csv(by_dims)[1] == _read_csv(by_d)[1]
    assert len(_read_csv(by_dims)[1]) == 3
    capsys.readouterr()
    assert main(["schmidt", "--input", str(state), "--d", "3", "--out", str(by_d)]) == 2
    assert capsys.readouterr().err.strip() == (
        "error: state size is not a power of --d; pass --dims"
    )


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


@pytest.mark.parametrize("raw", ["abc", "1e6", "0", "-5"])
def test_an_invalid_capacity_cap_exits_2_naming_it(tmp_path, monkeypatch, capsys, raw):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("TNS_CAPACITY_CAP", raw)
    assert main(["construct", "--family", "w", "--n", "3"]) == 2
    assert capsys.readouterr().err.strip() == (
        f"error: TNS_CAPACITY_CAP must be an integer of at least 1, got {raw!r}"
    )


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

    # the --config=path form reads the same file
    out_eq = tmp_path / "from_eq.json"
    assert main(["construct", f"--config={cfg}", "--out", str(out_eq)]) == 0
    assert load_state(out_eq).array.size == 16
    capsys.readouterr()


def test_config_does_not_leak_into_later_calls(tmp_path, monkeypatch, capsys):
    # the parser is built once per process, so one call's config must not
    # become the next call's defaults
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "w.json"
    cfg.write_text(json.dumps({"family": "w", "n": "4", "out": str(out)}), encoding="utf-8")
    assert main(["construct", "--config", str(cfg)]) == 0
    assert load_state(out).array.size == 16  # "4" converted by the flag's type
    assert cli._build_parser() is cli._build_parser()
    monkeypatch.chdir(tmp_path)
    assert main(["construct"]) == 64
    ns = cli._parse(["construct", "--family", "w"])
    assert (ns.family, ns.n, ns.out, ns.config) == ("w", None, None, None)
    cfg.write_text(json.dumps({"family": "w", "n": "four"}), encoding="utf-8")
    assert main(["construct", "--config", str(cfg)]) == 64
    capsys.readouterr()


@pytest.mark.parametrize(
    "command,cfg,key",
    [
        ("certify", {"checks": 5}, "checks"),
        ("construct", {"family": "w", "n": 4.7}, "n"),
        ("construct", {"family": "w", "n": True}, "n"),
        ("certify", {"tol": [1]}, "tol"),
    ],
)
def test_config_values_must_have_their_flags_json_type(tmp_path, capsys, command, cfg, key):
    state = tmp_path / "w.json"
    assert main(["construct", "--family", "w", "--n", "3", "--out", str(state)]) == 0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    argv = [command, "--config", str(path), "--out", str(out)]
    assert main(argv + (["--input", str(state)] if command == "certify" else [])) == 2
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_takes_a_json_integer_for_a_float_flag(tmp_path, capsys):
    state = tmp_path / "w.json"
    assert main(["construct", "--family", "w", "--n", "3", "--out", str(state)]) == 0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"tol": 1, "checks": "norm"}), encoding="utf-8")
    report = tmp_path / "r.csv"
    argv = ["certify", "--input", str(state), "--config", str(path), "--out", str(report)]
    assert main(argv) == 0
    assert type(cli._parse(argv).tol) is float


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


def _readme_examples():
    """Each `tnslab` line of README's "## Command line" sh block, its `\\`
    continuations joined, with the exit code its comment documents (else 0)."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples, comment = [], ""
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("#"):
            comment += line
        elif line.startswith("tnslab "):
            code = re.search(r"exits (\d+)", comment)
            examples.append((shlex.split(line)[1:], int(code.group(1)) if code else 0))
            comment = ""
    return examples


def test_readme_command_line_examples_exit_as_documented(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    examples = _readme_examples()
    assert len(examples) == 7
    for argv, code in examples:
        assert main(argv) == code, argv
    capsys.readouterr()
