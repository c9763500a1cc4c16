"""The benchmark's workloads.

``BENCHMARK.json`` lists ``certify``, ``als_distance`` and ``cli_io``.
``als_energy`` runs only by hand (``--workload als_energy``) and in
``--smoke``: its set-up builds a 2187x2187 dense Hamiltonian in about 10 s,
and its three set-ups per run would take so much of the time allowed for all
runs that the other workloads could not run long enough to be steady.

Each workload has four parts:

* ``setup(tl, seed)`` builds the inputs through the library; it is timed as
  part of ``setup_s``, together with ``import tnslab``.
* ``verify_setup(tl, ctx)`` checks the inputs once per run, untimed.
* ``job(tl, ctx, rng)`` is one unit of user work; it is timed.  Every job of
  a workload follows the same recipe and differs only in the seeds it draws
  from ``rng``.
* ``check(tl, ctx, out)`` compares the job's outputs with the independent
  references in ``reference.py``, untimed; it returns a list of failures.

The library is passed in as ``tl`` and always reached through module
attributes, so the traced run sees every call.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

import reference as ref

THETA_AKLT = math.atan(1.0 / 3.0)


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def _cnormal(rng: np.random.Generator, shape, scale: float = 1.0) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale


def _close(name: str, got, want, tol: float, fails: list) -> None:
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want)))) if np.size(want) else 0.0
    if not err <= tol:
        fails.append(f"{name}: max deviation {err:.3e} > {tol:.0e}")


def _equal(name: str, got, want, fails: list) -> None:
    if got != want:
        fails.append(f"{name}: got {got!r}, want {want!r}")


def _dim_pmps(n: int, m: int) -> int:
    """The paper's dimension of the ring parametrization at bond dimension m."""
    return n * m * m * (m * m - 1) + 1


def _dim_g_tau(n: int, m: int) -> int:
    """The paper's stabilizer dimension at the two-domain state."""
    return n * (m * m - 1) + m * (m - 2) + 1


def _w_vector(n: int) -> np.ndarray:
    vec = np.zeros(2**n, dtype=np.complex128)
    vec[[1 << k for k in range(n)]] = 1.0 / math.sqrt(n)
    return vec


# ------------------------------------------------------------------ certify


class Certify:
    """Exact decomposition and certification: no file I/O, no optimizer."""

    name = "certify"
    setup_repeats = 15
    trace_jobs = 8
    n = 16
    loop = (1, 2, 3, 4, 8, 7, 6, 5)  # perimeter of the 2x4 grid, row-major ids

    def setup(self, tl, seed):
        n = self.n
        tree_edges = [(v // 2, v, 2 ** (n // 2)) for v in range(2, n + 1)]
        aklt = np.asarray(tl.aklt_tensor().array)
        both = np.zeros((3, 4, 4), dtype=np.complex128)
        both[:, :2, :2] = aklt
        both[:, 2:, 2:] = 0.5 * aklt
        return {
            "w": tl.w_state(n),
            "tree": tl.TreeNetwork((2,) * n, tree_edges),
            "root": n,  # a leaf of the heap-ordered binary tree
            "grid": tl.grid_network(2, 4, 2),
            "aklt": tl.aklt_tensor(),
            "aklt_sum": both,
        }

    def verify_setup(self, tl, ctx):
        fails = []
        _close("w_state", np.asarray(ctx["w"].array).ravel(), _w_vector(self.n), 1e-15, fails)
        return fails

    def job(self, tl, ctx, rng):
        n, dims = self.n, [2] * self.n
        psi = _cnormal(rng, 2**n)
        psi /= np.linalg.norm(psi)
        out = {"chains": []}
        for vec in (psi, ctx["w"]):
            mps = tl.from_state_obc(vec, dims)
            canon = tl.right_canonicalize(mps)
            value = tl.eval_obc(canon)
            cuts = [tl.schmidt(vec, dims, cut) for cut in range(1, n)]
            out["chains"].append((vec, mps, canon, value, cuts))
        tree = tl.from_state_ttns(psi, ctx["tree"], ctx["root"])
        ortho = tl.orthonormalize_ttns(tree, ctx["root"])
        out["tree"] = (psi, tree, ortho, tl.eval_ttns(ortho))
        eps = 10.0 ** rng.uniform(-1.0, 0.0)
        peps = tl.psi_t_peps(ctx["grid"], self.loop, eps)
        out["peps"] = (peps, tl.eval_peps(peps))
        out["mera"] = tl.eval_mera(tl.random_mera(16, 4, 2, _seed(rng)))
        out["pmps"] = tl.geometry_report("pmps", 5, 2, seed=_seed(rng))
        out["tau"] = tl.geometry_report("tau", 5, 2)
        a = _cnormal(rng, (2, 3, 3))
        out["ti"] = []
        for t in (a, ctx["aklt_sum"]):
            m = t.shape[1]
            out["ti"].append(
                (t, tl.injectivity_length(t, tl.wielandt_bound(m)), tl.ti_canonical_blocks(t))
            )
        out["aklt_len"] = tl.injectivity_length(ctx["aklt"], tl.wielandt_bound(2))
        return out

    def check(self, tl, ctx, out):
        fails = []
        n, dims = self.n, [2] * self.n
        for label, (vec, mps, canon, value, cuts) in zip(("random", "w"), out["chains"]):
            vec = np.asarray(vec).ravel()
            sing = [ref.cut_singulars(vec, dims, cut) for cut in range(1, n)]
            ranks = tuple(ref.rank_of(s) for s in sing)
            _close(f"{label} chain state", ref.chain_state([t.array for t in mps.tensors]), vec, 1e-10, fails)
            _equal(f"{label} bond dims", mps.bond_dims, ranks, fails)
            _equal(f"{label} canonical bond dims", canon.bond_dims, ranks, fails)
            overlap = abs(np.vdot(vec, np.asarray(value.array).ravel()))
            _close(f"{label} canonical overlap", overlap, 1.0, 1e-10, fails)
            for t in canon.tensors:
                b = t.array
                gram = np.einsum("slr,skr->lk", b, b.conj())
                _close(f"{label} right-canonical gram", gram, np.eye(b.shape[1]), 1e-10, fails)
            for data, s, r in zip(cuts, sing, ranks):
                _equal(f"{label} schmidt rank at cut {data.cut}", data.rank, r, fails)
                if data.rank == r:
                    _close(f"{label} schmidt values at cut {data.cut}", data.coefficients, s[:r], 1e-10, fails)

        psi, tree, ortho, value = out["tree"]
        for i, j, m in tree.network.edges:
            want = ref.bipartition_rank(psi, dims, _subtree(tree.network.edges, i, j))
            _equal(f"tree edge ({i},{j}) dim", m, want, fails)
            _equal(f"orthonormal tree edge ({i},{j}) dim", ortho.network.edge_dim(i, j), want, fails)
        _close("tree state", np.asarray(value.array).ravel(), psi, 1e-10, fails)

        peps, value = out["peps"]
        net = peps.network
        want = ref.graph_state(net.n, net.edges, [t.array for t in peps.tensors])
        scale = max(1.0, float(np.abs(want).max()))
        _close("peps state", np.asarray(value.array).ravel(), want, 1e-10 * scale, fails)

        _close("mera norm", np.linalg.norm(out["mera"].array), 1.0, 1e-10, fails)

        for label, want in (("pmps", _dim_pmps(5, 2)), ("tau", _dim_g_tau(5, 2))):
            _equal(f"{label} measured dimension", out[label].measured, want, fails)
            _equal(f"{label} predicted dimension", out[label].predicted, want, fails)

        _equal("aklt injectivity length", out["aklt_len"], 2, fails)
        (a, a_len, a_blocks), (_, s_len, s_blocks) = out["ti"]
        want_len = _injectivity_length(a, 10)
        if want_len is not None:
            _equal("random injectivity length", a_len, want_len, fails)
            _equal("random canonical blocks", a_blocks.block_dims, (3,), fails)
        elif a_len is not None and a_len <= 10:
            fails.append(f"random injectivity length {a_len}, reference finds none up to 10")
        _equal("aklt sum injectivity length", s_len, None, fails)
        _equal("aklt sum block dims", s_blocks.block_dims, (2, 2), fails)
        _close("aklt sum weights", [w for w, _ in s_blocks.blocks], [1.0, 0.5], 1e-8, fails)
        for blocks in (a_blocks, s_blocks):
            for _, t in blocks.blocks:
                b = t.array
                gram = np.einsum("sab,scb->ac", b, b.conj())
                _close("canonical block isometry", gram, np.eye(b.shape[1]), 1e-8, fails)
        return fails


def _subtree(edges, i: int, j: int) -> set:
    """Vertices on i's side once edge (i, j) is cut."""
    adj: dict = {}
    for a, b, _ in edges:
        if {a, b} != {i, j}:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    seen, stack = {i}, [i]
    while stack:
        for w in adj.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _injectivity_length(a: np.ndarray, ell_max: int):
    """Smallest l whose products A^s1...A^sl span all m x m matrices."""
    d, m, _ = a.shape
    prods = a.copy()
    for ell in range(1, ell_max + 1):
        if ref.rank_of(np.linalg.svd(prods.reshape(-1, m * m), compute_uv=False), 1e-8) == m * m:
            return ell
        prods = np.einsum("xab,sbc->xsac", prods, a).reshape(-1, m, m)
    return None


# -------------------------------------------------------------- ALS workloads


@dataclass
class AlsSet:
    label: str
    kind: str  # "obc", "pbc" or "ti"
    n: int
    m: int
    d: int
    reg: str
    lam: float
    budget: int


def _init_tensors(spec: AlsSet, rng: np.random.Generator) -> list:
    scale = 1.0 / math.sqrt(2.0 * spec.d * spec.m)
    if spec.kind == "ti":
        a = _cnormal(rng, (spec.d, spec.m, spec.m), scale)
        return [a] * spec.n
    out = []
    for i in range(spec.n):
        ml = 1 if spec.kind == "obc" and i == 0 else spec.m
        mr = 1 if spec.kind == "obc" and i == spec.n - 1 else spec.m
        out.append(_cnormal(rng, (spec.d, ml, mr), scale))
    return out


def _container(tl, spec: AlsSet, tensors):
    if spec.kind == "obc":
        return tl.MpsObc(tensors)
    if spec.kind == "ti":
        return tl.ti_mps(tensors[0], spec.n)
    return tl.MpsPbc(tensors, translation_invariant=False)


def _reg_value(spec: AlsSet, tensors) -> float:
    if spec.reg == "tensor_norm":
        return spec.lam * sum(float(np.linalg.norm(t) ** 2) for t in tensors)
    return spec.lam * ref.transfer_norm2(tensors)


def _check_trace(spec: AlsSet, tensors, trace, f0: float, f_min: float, fails: list) -> None:
    """Record 0 against the reference f0, monotone f_reg, and the tensor_norm
    sublevel bound: lam * sum |A|^2 <= f_reg(0) - f_min, since f >= f_min."""
    recs = trace.records
    tag = spec.label
    if not recs:
        fails.append(f"{tag}: empty trace")
        return
    f_reg0 = f0 + _reg_value(spec, tensors)
    _close(f"{tag} record 0 f", recs[0].f, f0, 1e-10 * max(1.0, abs(f0)), fails)
    _close(f"{tag} record 0 f_reg", recs[0].f_reg, f_reg0, 1e-10 * max(1.0, abs(f_reg0)), fails)
    for prev, rec in zip(recs, recs[1:]):
        if rec.f_reg > prev.f_reg + 1e-12:
            fails.append(f"{tag}: f_reg rose from {prev.f_reg!r} to {rec.f_reg!r}")
    if spec.reg == "tensor_norm":
        for rec in recs:
            held = spec.lam * sum(x * x for x in rec.frobenius_norms)
            if held > f_reg0 - f_min + 1e-10:
                fails.append(f"{tag}: sublevel bound {held!r} > {f_reg0 - f_min!r} at {rec.iteration}")
            if rec.max_abs_entry > math.sqrt((f_reg0 - f_min) / spec.lam) + 1e-12:
                fails.append(f"{tag}: entry {rec.max_abs_entry!r} beyond the sublevel bound")
    if len(recs) - 1 > spec.budget:
        fails.append(f"{tag}: {len(recs) - 1} sweeps exceed budget {spec.budget}")


def _state(spec: AlsSet, tensors) -> np.ndarray:
    return ref.chain_state(tensors) if spec.kind == "obc" else ref.ring_state(tensors)


class AlsDistance:
    """Regularized ALS toward the W state on three parametrized sets."""

    name = "als_distance"
    setup_repeats = 15
    trace_jobs = 6
    sets = (
        AlsSet("obc", "obc", 10, 3, 2, "tensor_norm", 1e-3, 5),
        AlsSet("pbc", "pbc", 8, 3, 2, "transfer_product", 1e-3, 5),
        AlsSet("ti", "ti", 7, 2, 2, "tensor_norm", 1e-3, 20),
    )

    def setup(self, tl, seed):
        return {
            s.label: tl.distance_objective(tl.w_state(s.n), s.reg, s.lam) for s in self.sets
        }

    def verify_setup(self, tl, ctx):
        fails = []
        for s in self.sets:
            _close(f"{s.label} target", np.asarray(ctx[s.label].target.array).ravel(), _w_vector(s.n), 1e-15, fails)
        return fails

    def job(self, tl, ctx, rng):
        out = []
        for s in self.sets:
            tensors = _init_tensors(s, rng)
            out.append((s, tensors, tl.run_experiment(ctx[s.label], _container(tl, s, tensors), s.budget)))
        return out

    def check(self, tl, ctx, out):
        fails = []
        for spec, tensors, trace in out:
            vec = _state(spec, tensors)
            f0 = 2.0 * (1.0 - abs(np.vdot(_w_vector(spec.n), vec)) / np.linalg.norm(vec))
            _check_trace(spec, tensors, trace, f0, 0.0, fails)
        return fails


class AlsEnergy:
    """Regularized ALS on the spin-1 ring energy at the AKLT point.

    The shared-tensor (ti) energy run is left out: run_experiment's sublevel
    assertion assumes f >= 0, so it aborts whenever the random start has a
    negative energy, which happens for about one start in a thousand.
    """

    name = "als_energy"
    setup_repeats = 3
    trace_jobs = 3
    n = 7
    sets = (
        AlsSet("pbc_m2", "pbc", 7, 2, 3, "tensor_norm", 1e-4, 3),
        AlsSet("pbc_m3", "pbc", 7, 3, 3, "tensor_norm", 1e-4, 3),
    )

    def setup(self, tl, seed):
        h = tl.blbq_hamiltonian(self.n, THETA_AKLT, pbc=True)
        objs = {s.label: tl.energy_objective(h, s.reg, s.lam) for s in self.sets}
        return {"h": h, "objs": objs, "bond": ref.blbq_bond(THETA_AKLT), "seed": seed}

    def verify_setup(self, tl, ctx):
        fails = []
        rng = np.random.default_rng([ctx["seed"], 1 << 20])
        h = np.asarray(ctx["h"].array)
        for k in range(2):
            v = _cnormal(rng, 3**self.n)
            want = ref.blbq_apply(v, self.n, ctx["bond"])
            _close(f"hamiltonian on vector {k}", h @ v, want, 1e-10 * np.linalg.norm(v), fails)
        return fails

    def job(self, tl, ctx, rng):
        out = []
        for s in self.sets:
            tensors = _init_tensors(s, rng)
            obj = ctx["objs"][s.label]
            out.append((s, tensors, tl.run_experiment(obj, _container(tl, s, tensors), s.budget)))
        return out

    def check(self, tl, ctx, out):
        fails = []
        e0 = ref.aklt_ring_energy(self.n, THETA_AKLT)
        for spec, tensors, trace in out:
            vec = ref.ring_state(tensors)
            f0 = float(np.vdot(vec, ref.blbq_apply(vec, self.n, ctx["bond"])).real) / float(
                np.vdot(vec, vec).real
            )
            _check_trace(spec, tensors, trace, f0, e0, fails)
            for rec in trace.records:
                if rec.f < e0 - 1e-9:
                    fails.append(f"{spec.label}: energy {rec.f!r} below the exact {e0!r}")
        return fails


# ------------------------------------------------------------------- cli_io


@dataclass
class CliJob:
    seed: int
    eps: float
    codes: list = field(default_factory=list)
    stdout: str = ""


class CliIo:
    """A pipeline of tnslab subcommands run in process through cli.main."""

    name = "cli_io"
    setup_repeats = 15
    trace_jobs = 8
    files = ("psi.json", "psi_cert.csv", "psi_schmidt.csv", "mera.json", "mera_cert.csv",
             "dom.json", "dom_schmidt.csv", "inj.csv", "geo.csv", "opt.csv")

    def __init__(self, scratch: str):
        self.scratch = scratch

    def setup(self, tl, seed):
        shutil.rmtree(self.scratch, ignore_errors=True)
        os.makedirs(self.scratch)
        cli = importlib.import_module("tnslab.cli")
        return {"cli": cli, "path": {f: os.path.join(self.scratch, f) for f in self.files}}

    def verify_setup(self, tl, ctx):
        return []

    def _argvs(self, p, job: CliJob) -> list:
        s = str(job.seed)
        return [
            ["construct", "--family", "psi_w", "--n", "16", "--eps", repr(job.eps), "--out", p["psi.json"]],
            ["certify", "--input", p["psi.json"], "--checks", "wellformed,norm", "--tol", "1e-12",
             "--out", p["psi_cert.csv"]],
            ["schmidt", "--input", p["psi.json"], "--out", p["psi_schmidt.csv"]],
            ["construct", "--family", "mera", "--n", "16", "--m", "4", "--seed", s, "--out", p["mera.json"]],
            ["certify", "--input", p["mera.json"], "--checks", "wellformed,norm,isometry",
             "--out", p["mera_cert.csv"]],
            ["construct", "--family", "two_domain", "--n", "6", "--m", "2", "--out", p["dom.json"]],
            ["schmidt", "--input", p["dom.json"], "--d", "4", "--out", p["dom_schmidt.csv"]],
            ["injectivity", "--family", "aklt", "--out", p["inj.csv"]],
            ["geometry", "--state", "tau", "--n", "5", "--m", "2", "--out", p["geo.csv"]],
            ["optimize", "--objective", "distance", "--set", "ti", "--n", "7", "--m", "2",
             "--reg", "tensor_norm", "--lambda", "1e-3", "--budget", "20", "--seed", s,
             "--out", p["opt.csv"]],
        ]

    def job(self, tl, ctx, rng):
        job = CliJob(seed=_seed(rng) % 100000, eps=10.0 ** rng.uniform(-2.0, -0.5))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            for argv in self._argvs(ctx["path"], job):
                job.codes.append(ctx["cli"].main(argv))
        job.stdout = buf.getvalue()
        return job

    def check(self, tl, ctx, job):
        fails = []
        p = ctx["path"]
        if job.codes != [0] * len(job.codes):
            return [f"exit codes {job.codes}"]

        psi = ref.json_dense(p["psi.json"])
        want = tl.psi_w(16, job.eps)
        if not np.array_equal(tl.load_state(p["psi.json"]).array, want.array):
            fails.append("load_state(save_state(psi_w)) differs from psi_w")
        if not np.array_equal(psi, want.array):
            fails.append("psi_w JSON differs from psi_w")
        vec = psi.ravel()
        for row in ref.read_csv(p["psi_cert.csv"]):
            if row["check"] == "norm":
                _close("psi_w norm", float(row["value"]), 1.0, 1e-12, fails)
            _equal(f"psi_w check {row['check']}", row["passed"], "true", fails)
        self._check_schmidt(p["psi_schmidt.csv"], vec, [2] * 16, "psi_w", fails)

        for row in ref.read_csv(p["mera_cert.csv"]):
            _equal(f"mera check {row['check']}", row["passed"], "true", fails)

        dom = ref.json_dense(p["dom.json"]).ravel()
        self._check_schmidt(p["dom_schmidt.csv"], dom, [4] * 6, "two_domain", fails)

        (inj,) = ref.read_csv(p["inj.csv"])
        _equal("aklt injectivity", inj["injectivity_length"], "2", fails)
        (geo,) = ref.read_csv(p["geo.csv"])
        _equal("geometry match", geo["match"], "true", fails)
        _equal("geometry measured", int(geo["measured"]), _dim_g_tau(5, 2), fails)

        rows = ref.read_csv(p["opt.csv"])
        fregs = [float(r["f_reg"]) for r in rows]
        if any(b > a + 1e-12 for a, b in zip(fregs, fregs[1:])):
            fails.append("optimize: f_reg rose between records")
        if len(rows) - 1 > 20:
            fails.append("optimize: more sweeps than the budget")
        if job.stdout.split()[-1] not in ("converged", "iteration_cap", "divergence_flag"):
            fails.append(f"optimize: unexpected termination {job.stdout.split()[-1]!r}")
        return fails

    @staticmethod
    def _check_schmidt(path, vec, dims, label, fails) -> None:
        rows = ref.read_csv(path)
        _equal(f"{label} schmidt cuts", [int(r["cut"]) for r in rows], list(range(1, len(dims))), fails)
        for r in rows:
            cut = int(r["cut"])
            s = ref.cut_singulars(vec, dims, cut)
            _equal(f"{label} schmidt rank at {cut}", int(r["rank"]), ref.rank_of(s), fails)


def make(name: str, scratch: str):
    """The workload called `name`; `scratch` holds cli_io's files."""
    if name == "cli_io":
        return CliIo(scratch)
    table = {w.name: w for w in (Certify, AlsDistance, AlsEnergy)}
    if name not in table:
        raise KeyError(name)
    return table[name]()


NAMES = ("certify", "als_distance", "als_energy", "cli_io")
