"""Command-line front end.

Subcommands: construct, certify, schmidt, injectivity, geometry, optimize,
sweep.  Reports are CSV with a leading "# <timestamp>" comment line; one
header row; floats printed with repr (shortest round-trip).  Exit codes:
0 success, 2 validation failure, 3 capacity exceeded, 64 usage error.

A JSON config file may supply any flag values via --config; flags given on
the command line win over config values.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import fields
from datetime import datetime, timezone

import numpy as np

from .errors import CapacityError, TnsError
from .geometry import geometry_report
from .mera import Mera, eval_mera, random_mera, validate_isometries
from .mps_obc import MpsObc, schmidt, schmidt_profile
from .mps_pbc import (
    MpsPbc,
    injectivity_length,
    is_primitive,
    ti_mps,
    wielandt_bound,
)
from .optimize import TraceRecord, distance_objective, energy_objective, run_experiment
from .serialize import load_state, save_state
from .tensors import (
    BLOCK_TOL,
    DECADE_TOL,
    DEFAULT_DIVERGENCE,
    DEFAULT_TOL,
    DenseTensor,
    as_array,
    contract_network,
)
from .zoo import (
    aklt_tensor,
    blbq_hamiltonian,
    psi_tau_tensors,
    psi_w,
    psi_w_timps_tensor,
    two_domain_state,
    w_obc_mps,
    w_state,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _write_csv(path, header, rows) -> None:
    buf = io.StringIO()
    buf.write(f"# {_timestamp()}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())


def _need(ns, *names):
    for nm in names:
        if getattr(ns, nm, None) is None:
            flag = "--" + nm.replace("_", "-")
            raise _UsageError(f"{flag} is required here")


def _given(value, default):
    return default if value is None else value  # 0 is a value; the library may refuse it


def _state_vector(state) -> np.ndarray:
    if isinstance(state, DenseTensor):
        return np.asarray(as_array(state)).ravel()
    if isinstance(state, Mera):
        return np.asarray(as_array(eval_mera(state))).ravel()
    if hasattr(state, "tensor_network"):
        return contract_network(*state.tensor_network()).ravel()
    raise TypeError(f"cannot evaluate {type(state).__name__}")


# ---------------------------------------------------------------- construct

# family -> (flags it needs, whether it is translation invariant, builder). A
# translation-invariant family's builder gives its site tensor: `construct` wraps
# it in `ti_mps`, `injectivity` reads it as it is, `optimize --init` rings it.
_FAMILIES = {
    "w": (("n",), False, lambda ns: w_state(ns.n, _given(ns.d, 2))),
    "psi_w": (("n", "eps"), False, lambda ns: psi_w(ns.n, ns.eps)),
    "psi_w_ti": (("n", "eps"), True, lambda ns: psi_w_timps_tensor(ns.n, ns.eps)),
    "w_obc": (("n",), False, lambda ns: w_obc_mps(ns.n)),
    "psi_tau": (("n", "m", "eps"), False, lambda ns: psi_tau_tensors(ns.n, ns.m, ns.eps)),
    "two_domain": (("n", "m"), False, lambda ns: two_domain_state(ns.n, ns.m)),
    "aklt": ((), True, lambda ns: aklt_tensor()),
    "mera": (
        ("n", "m"),
        False,
        lambda ns: random_mera(ns.n, ns.m, _given(ns.d, 2), _given(ns.seed, 0)),
    ),
}


def _site_tensor(ns, name, unknown: str):
    """The site tensor of translation-invariant family `name`; the usage error
    `unknown` when `name` is not one."""
    flags, ti, build = _FAMILIES.get(name, ((), False, None))
    if not ti:
        raise _UsageError(unknown)
    _need(ns, *flags)
    return build(ns)


def _cmd_construct(ns) -> int:
    _need(ns, "family")
    if ns.family not in _FAMILIES:
        raise _UsageError(f"unknown family {ns.family!r}")
    flags, ti, build = _FAMILIES[ns.family]
    _need(ns, *flags, "n")  # --n names the default file, and a ring's length
    state = ti_mps(build(ns), ns.n) if ti else build(ns)
    out = ns.out or f"{ns.family}_n{ns.n}.json"
    save_state(state, out)
    print(out)
    return 0


# ------------------------------------------------------------------ certify

def _check_norm(state, tol):
    nrm = float(np.linalg.norm(_state_vector(state)))
    return nrm, abs(nrm - 1.0) <= tol


def _check_canonical(state, tol):
    if not isinstance(state, MpsObc):
        raise ValueError("check 'canonical' applies to mps_obc inputs")
    worst = 0.0
    for t in state.tensors:
        a = np.asarray(as_array(t))
        gram = np.einsum("slr,skr->lk", a, a.conj())
        worst = max(worst, float(np.abs(gram - np.eye(a.shape[1])).max()))
    return worst, worst <= tol


def _check_ti(state, tol):
    if type(state) is not MpsPbc:  # an open chain is a ring too, but not an input here
        raise ValueError("check 'ti' applies to mps_pbc inputs")
    first = np.asarray(as_array(state.tensors[0]))
    worst = 0.0
    for t in state.tensors[1:]:
        a = np.asarray(as_array(t))
        worst = max(worst, float(np.abs(a - first).max()) if a.shape == first.shape else math.inf)
    return worst, worst <= tol


def _check_isometry(state, tol):
    if not isinstance(state, Mera):
        raise ValueError("check 'isometry' applies to mera inputs")
    report = validate_isometries(state, tol)
    worst = max(report.residuals.values()) if report.residuals else 0.0
    return float(worst), report.passed


def _cmd_certify(ns) -> int:
    _need(ns, "input")
    state = load_state(ns.input)
    tol = _given(ns.tol, DEFAULT_TOL)
    names = [c.strip() for c in _given(ns.checks, "wellformed").split(",") if c.strip()]
    if not names:
        raise ValueError(f"--checks {ns.checks!r} names no check")
    rows = []
    all_ok = True
    for name in names:
        if name == "wellformed":
            value, ok = type(state).__name__, True
        elif name == "norm":
            value, ok = _check_norm(state, tol)
        elif name == "canonical":
            value, ok = _check_canonical(state, tol)
        elif name == "ti":
            value, ok = _check_ti(state, tol)
        elif name == "isometry":
            value, ok = _check_isometry(state, tol)
        else:
            raise ValueError(f"unknown check {name!r}")
        rows.append((name, value, ok))
        all_ok = all_ok and ok
    _write_csv(ns.out, ["check", "value", "passed"], rows)
    return 0 if all_ok else 2


# ------------------------------------------------------------------ schmidt

def _cmd_schmidt(ns) -> int:
    _need(ns, "input")
    state = load_state(ns.input)
    vec = _state_vector(state)
    if ns.dims:
        dims = [int(x) for x in ns.dims.split(",")]
    else:
        d = _given(ns.d, 2)
        if d < 2:
            raise ValueError(f"--d must be at least 2, got {d}")
        n = round(math.log(vec.size, d))
        if d ** n != vec.size:
            raise ValueError("state size is not a power of --d; pass --dims")
        dims = [d] * n
    tol = _given(ns.tol, DEFAULT_TOL)
    if ns.cut is not None:
        profile = [schmidt(vec, dims, ns.cut, tol)]
    else:
        profile = schmidt_profile(vec, dims, tol)
    rows = []
    for data in profile:
        coeffs = json.dumps([float(c) for c in data.coefficients], separators=(",", ":"))
        rows.append((data.cut, data.rank, coeffs))
    _write_csv(ns.out, ["cut", "rank", "coefficients"], rows)
    return 0


# -------------------------------------------------------------- injectivity

def _ti_site_tensor(ns) -> np.ndarray:
    if ns.input:
        state = load_state(ns.input)
        if not isinstance(state, MpsPbc) or not state.translation_invariant:
            raise ValueError("injectivity needs a translation-invariant mps_pbc")
        return np.asarray(as_array(state.tensors[0]))
    names = "|".join(name for name, (_, ti, _) in _FAMILIES.items() if ti)
    return np.asarray(as_array(_site_tensor(ns, ns.family, f"pass --input or --family {names}")))


def _cmd_injectivity(ns) -> int:
    a = _ti_site_tensor(ns)
    d, m, _ = a.shape
    bound = wielandt_bound(m)
    cap = _given(ns.max_len, bound)
    ell = injectivity_length(a, cap)
    # primitivity is defined for isometric tensors; tensors isometric up to a
    # scalar are rescaled first, anything else reports an empty column
    gram = sum(a[s] @ a[s].conj().T for s in range(d))
    scale = float(np.trace(gram).real) / m
    primitive = None
    if scale > 0 and np.abs(gram - scale * np.eye(m)).max() <= BLOCK_TOL * scale:
        primitive = is_primitive(a / math.sqrt(scale))
    rows = [
        (
            d,
            m,
            bound,
            -1 if ell is None else ell,
            primitive,
        )
    ]
    header = ["d", "m", "wielandt_bound", "injectivity_length", "primitive"]
    _write_csv(ns.out, header, rows)
    return 0


# ----------------------------------------------------------------- geometry

def _cmd_geometry(ns) -> int:
    _need(ns, "state", "n", "m")
    tol = _given(ns.tol, DEFAULT_TOL)
    rep = geometry_report(ns.state, ns.n, ns.m, tol=tol, seed=_given(ns.seed, 0))
    rows = [(ns.state, ns.n, ns.m, rep.predicted, rep.measured, rep.match)]
    _write_csv(ns.out, ["state", "N", "m", "predicted", "measured", "match"], rows)
    return 0


# ----------------------------------------------------------------- optimize

def _random_params(ns, rng):
    n, m, d = ns.n, ns.m, _given(ns.d, 2)

    def site(shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(d * m)

    if ns.set == "ti":
        return MpsPbc([site((d, m, m))] * n, translation_invariant=True)
    # site k has bonds (bonds[k], bonds[k + 1]); an open chain's two ends are 1
    bonds = [1 if ns.set == "obc" and k in (0, n) else m for k in range(n + 1)]
    tensors = [site((d, bonds[k], bonds[k + 1])) for k in range(n)]
    return MpsObc(tensors) if ns.set == "obc" else MpsPbc(tensors)


def _initial_params(ns, rng):
    init = ns.init or "random"
    if init == "random":
        return _random_params(ns, rng)
    a = _site_tensor(ns, init, f"unknown init {init!r}")
    if ns.set == "obc":
        raise ValueError(f"init {init} needs --set ti or pbc")
    return MpsPbc([a] * ns.n, translation_invariant=ns.set == "ti")


def _cmd_optimize(ns) -> int:
    _need(ns, "set", "n", "m")
    if ns.set not in ("obc", "pbc", "ti"):
        raise _UsageError("--set must be obc, pbc, or ti")
    lam = _given(ns.lam, 0.0)
    reg = ns.reg or "none"
    kind = ns.objective or "distance"
    if kind == "distance":  # the target is always the W state
        obj = distance_objective(w_state(ns.n, _given(ns.d, 2)), reg, lam)
    elif kind == "energy":
        theta = _given(ns.theta, 0.0)
        if _given(ns.d, 3) != 3:
            raise ValueError("energy objective uses spin-1 sites; --d must be 3")
        ns.d = 3
        obj = energy_objective(
            blbq_hamiltonian(ns.n, theta, pbc=ns.set != "obc"), reg, lam
        )
    else:
        raise _UsageError("--objective must be distance or energy")
    rng = np.random.default_rng(_given(ns.seed, 0))
    init = _initial_params(ns, rng)
    budget = _given(ns.budget, 100)
    threshold = _given(ns.divergence_threshold, DEFAULT_DIVERGENCE)
    trace = run_experiment(obj, init, budget, threshold)
    header = [f.name for f in fields(TraceRecord)]  # one column per record field
    rows = []
    for rec in trace.records:
        norms = json.dumps(list(rec.frobenius_norms), separators=(",", ":"))
        rows.append([norms if k == "frobenius_norms" else getattr(rec, k) for k in header])
    _write_csv(ns.out, header, rows)
    print(trace.termination)
    return 0


# -------------------------------------------------------------------- sweep

def _parse_grid(text: str) -> list[float]:
    """Either a comma list of values or 'A..B' walking decades from A to B."""
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        e1 = math.log10(float(lo_s))
        e2 = math.log10(float(hi_s))
        for e in (e1, e2):
            if abs(e - round(e)) > DECADE_TOL:
                raise ValueError("decade grids need power-of-ten endpoints")
        e1, e2 = round(e1), round(e2)
        step = 1 if e2 >= e1 else -1
        return [10.0 ** e for e in range(e1, e2 + step, step)]
    return [float(x) for x in text.split(",")]


def _cmd_sweep(ns) -> int:
    _need(ns, "family", "n", "eps")
    if ns.family != "psi_w":
        raise ValueError(f"sweep supports family psi_w, not {ns.family!r}")
    grid = sorted(_parse_grid(ns.eps))
    w = np.asarray(as_array(w_state(ns.n))).ravel()
    rows = []
    for eps in grid:
        vec = np.asarray(as_array(psi_w(ns.n, eps))).ravel()
        overlap = float(abs(np.vdot(w, vec)))
        a = np.asarray(as_array(psi_w_timps_tensor(ns.n, eps)))
        max_entry = float(np.sqrt(np.einsum("sab,sab->ab", a.conj(), a).real.max()))
        rows.append((eps, overlap, max_entry))
    _write_csv(ns.out, ["eps", "overlap", "max_abs_entry"], rows)
    return 0


# ------------------------------------------------------------------ parsing

_COMMANDS = {
    "construct": _cmd_construct,
    "certify": _cmd_certify,
    "schmidt": _cmd_schmidt,
    "injectivity": _cmd_injectivity,
    "geometry": _cmd_geometry,
    "optimize": _cmd_optimize,
    "sweep": _cmd_sweep,
}


@functools.cache
def _build_parser():
    """The parser and its subparsers by name, built once per process and
    never changed afterwards: a config file fills the parsed namespace."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; explicit flags win")
    common.add_argument("--out", help="output file (default depends on command)")
    with_tol = argparse.ArgumentParser(add_help=False, parents=[common])
    with_tol.add_argument("--tol", type=float, help="numerical tolerance")

    parser = _Parser(prog="tnslab", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    by_name = {}

    p = subs.add_parser("construct", parents=[common])
    p.add_argument("--family")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--seed", type=int)
    by_name["construct"] = p

    p = subs.add_parser("certify", parents=[with_tol])
    p.add_argument("--input")
    p.add_argument("--checks", help="comma list: wellformed,norm,canonical,ti,isometry")
    by_name["certify"] = p

    p = subs.add_parser("schmidt", parents=[with_tol])
    p.add_argument("--input")
    p.add_argument("--dims", help="comma list of site dimensions")
    p.add_argument("--d", type=int)
    p.add_argument("--cut", type=int)
    by_name["schmidt"] = p

    p = subs.add_parser("injectivity", parents=[common])
    p.add_argument("--input")
    p.add_argument("--family")
    p.add_argument("--n", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--max-len", type=int, dest="max_len")
    by_name["injectivity"] = p

    p = subs.add_parser("geometry", parents=[with_tol])
    p.add_argument("--state")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--seed", type=int)
    by_name["geometry"] = p

    p = subs.add_parser("optimize", parents=[common])
    p.add_argument("--objective")
    p.add_argument("--set", dest="set")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--theta", type=float)
    p.add_argument("--reg")
    p.add_argument("--lambda", type=float, dest="lam")
    p.add_argument("--budget", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--init")
    p.add_argument("--divergence-threshold", type=float, dest="divergence_threshold")
    by_name["optimize"] = p

    p = subs.add_parser("sweep", parents=[common])
    p.add_argument("--family")
    p.add_argument("--n", type=int)
    p.add_argument("--eps", help="comma list or A..B decade grid")
    by_name["sweep"] = p

    return parser, by_name


def _parse(argv):
    parser, by_name = _build_parser()
    ns = parser.parse_args(argv)
    if ns.config is not None:
        with open(ns.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config must be a JSON object")
        sub = by_name[ns.command]
        unknown = sorted(set(cfg) - {a.dest for a in sub._actions})
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        _apply_config(sub, ns, cfg)
    return ns


# The JSON types a config value other than a string may have, by flag type.
_CONFIG_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number")}


def _apply_config(sub, ns, cfg: dict) -> None:
    """Fill the flags the command line left unset (every flag defaults to
    None) from the config; a string is converted as argparse converts a
    string default, and any other value must have the flag's JSON type (a
    bool is not an integer), else ValueError names the key."""
    for action in sub._actions:
        if action.dest not in cfg or getattr(ns, action.dest, None) is not None:
            continue
        val = cfg[action.dest]
        kinds, name = _CONFIG_TYPES.get(action.type, ((), "a string"))
        if isinstance(val, str):
            try:
                val = sub._get_value(action, val)
            except argparse.ArgumentError as exc:
                sub.error(str(exc))
        elif type(val) in kinds:
            val = action.type(val)
        else:
            raise ValueError(f"config key {action.dest!r} must be {name}, got {json.dumps(val)}")
        setattr(ns, action.dest, val)


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        ns = _parse(args)
        return _COMMANDS[ns.command](ns)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except (TnsError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
