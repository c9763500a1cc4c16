"""Alternating least-squares style optimization of chain states, with the
norm and transfer-product regularizers and divergence monitoring.

Objectives are scale-invariant: the state is normalized before the distance
or energy functional is evaluated, while regularization terms see the raw
tensors.  Every update is guarded by a backtracking line search that accepts
only non-increasing regularized values, so monotonicity is a hard guarantee
rather than a hope.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import NormalizationError, TnsError
from .mps_obc import MpsObc, chain_network
from .mps_pbc import MpsPbc, transfer_array
from .tensors import (
    DenseTensor,
    as_array,
    capacity_cap,
    check_capacity,
    contract_network,
    site_environment,
)

RIDGE = 1e-12
SWEEP_TOL = 1e-10
DEFAULT_DIVERGENCE = 1e6
_BACKTRACK_STEPS = 21  # t = 1, 1/2, ..., 2^-20


@dataclass(frozen=True)
class Objective:
    """What to minimize and how to regularize.

    kind "distance" needs a normalized target state; kind "energy" needs a
    Hermitian matrix.  reg_kind is "none", "tensor_norm" (weight per site or
    one shared weight, applied to squared Frobenius norms of the raw
    tensors), or "transfer_product" (weight times the squared Frobenius norm
    of the product of all site transfer matrices).
    """

    kind: str
    target: DenseTensor | None = None
    hamiltonian: DenseTensor | None = None
    reg_kind: str = "none"
    reg_weight: object = 0.0

    def __post_init__(self):
        if self.kind not in ("distance", "energy"):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.kind == "distance":
            if self.target is None:
                raise ValueError("distance objective needs a target")
            vec = np.asarray(as_array(self.target)).ravel()
            if abs(np.linalg.norm(vec) - 1.0) > 1e-10:
                raise NormalizationError("target must be normalized within 1e-10")
        else:
            if self.hamiltonian is None:
                raise ValueError("energy objective needs a hamiltonian")
            h = np.asarray(as_array(self.hamiltonian))
            if h.ndim != 2 or h.shape[0] != h.shape[1]:
                raise ValueError("hamiltonian must be a square matrix")
            if np.max(np.abs(h - h.conj().T)) > 1e-10:
                raise ValueError("hamiltonian must be Hermitian within 1e-10")
        if self.reg_kind not in ("none", "tensor_norm", "transfer_product"):
            raise ValueError(f"unknown regularization {self.reg_kind!r}")
        weights = (
            self.reg_weight
            if isinstance(self.reg_weight, (tuple, list))
            else (self.reg_weight,)
        )
        if any(w < 0 for w in weights):
            raise ValueError("regularization weights must be nonnegative")


def distance_objective(target, reg_kind: str = "none", reg_weight=0.0) -> Objective:
    t = target if isinstance(target, DenseTensor) else DenseTensor(target)
    return Objective("distance", target=t, reg_kind=reg_kind, reg_weight=reg_weight)


def energy_objective(hamiltonian, reg_kind: str = "none", reg_weight=0.0) -> Objective:
    h = (
        hamiltonian
        if isinstance(hamiltonian, DenseTensor)
        else DenseTensor(hamiltonian)
    )
    return Objective("energy", hamiltonian=h, reg_kind=reg_kind, reg_weight=reg_weight)


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    f: float
    f_reg: float
    overlap: float
    max_abs_entry: float
    frobenius_norms: tuple
    transfer_product_norm: float
    flag: str = ""


@dataclass
class RunTrace:
    records: list = field(default_factory=list)
    termination: str = "iteration_cap"


def _tensor_arrays(params) -> list[np.ndarray]:
    return [np.asarray(as_array(t)) for t in params.tensors]


class _Point(NamedTuple):
    """A chain's raw site arrays, the iterate of the sweeps.  Points are not
    containers, so a trial costs no validation scan and one that overflows
    reaches _state_value, which rejects it."""

    tensors: list
    translation_invariant: bool

    def tensor_network(self):
        return chain_network(self.tensors)


def _point(params) -> _Point:
    ti = isinstance(params, MpsPbc) and params.translation_invariant
    return _Point(_tensor_arrays(params), ti)


def _with_site(params: _Point, site: int, arr: np.ndarray) -> _Point:
    arrs = list(params.tensors)
    arrs[site - 1] = arr
    if params.translation_invariant:
        arrs = [arr] * len(arrs)
    return params._replace(tensors=arrs)


def _site_lambdas(obj: Objective, nsites: int) -> list[float]:
    if isinstance(obj.reg_weight, (tuple, list)):
        ws = [float(w) for w in obj.reg_weight]
        if len(ws) != nsites:
            raise ValueError(f"need {nsites} weights, got {len(ws)}")
        return ws
    return [float(obj.reg_weight)] * nsites


def _transfer_product(arrs: list[np.ndarray], bond: int = 1) -> np.ndarray:
    """E_1 ... E_k of the given site arrays; the identity on bond^2 for none."""
    if not arrs:
        return np.eye(bond * bond, dtype=np.complex128)
    prod = transfer_array(arrs[0])
    for a in arrs[1:]:
        prod = prod @ transfer_array(a)
    return prod


def _transfer_envs(arrs: list[np.ndarray], site: int):
    """(E_1 ... E_{site-1}, E_{site+1} ... E_N), the transfer environments."""
    _, ml, mr = arrs[site - 1].shape
    return _transfer_product(arrs[: site - 1], ml), _transfer_product(arrs[site:], mr)


def _norm(x: np.ndarray) -> float:
    """Frobenius norm by BLAS nrm2, which scales as it sums, so entries near
    the float range cannot overflow it (np.linalg.norm squares them first)."""
    return float(scipy.linalg.norm(np.ravel(x), check_finite=False))


def _reg_term(obj: Objective, params) -> float:
    if obj.reg_kind == "none":
        return 0.0
    arrs = _tensor_arrays(params)
    if obj.reg_kind == "tensor_norm":
        lams = _site_lambdas(obj, len(arrs))
        return float(
            sum(l * np.linalg.norm(a) ** 2 for l, a in zip(lams, arrs))
        )
    nrm = _norm(_transfer_product(arrs))
    return float(obj.reg_weight) * nrm * nrm


def _reg_env(obj: Objective, arrs: list[np.ndarray], site: int):
    """What the regularizer needs of the sites other than `site`: their
    tensor_norm terms summed, or the transfer environments (L, R)."""
    if obj.reg_kind == "tensor_norm":
        lams = _site_lambdas(obj, len(arrs))
        return sum(
            l * np.linalg.norm(x) ** 2
            for k, (l, x) in enumerate(zip(lams, arrs))
            if k != site - 1
        )
    if obj.reg_kind == "transfer_product":
        return _transfer_envs(arrs, site)
    return None


def _site_reg(obj: Objective, arrs: list[np.ndarray], site: int, env=None):
    """The regularizer as a function of one flattened site array, the others
    held fixed: `env`, from `_reg_env` or a sweep's caches, holds everything
    but that site."""
    if obj.reg_kind == "none":
        return lambda a: 0.0
    if env is None:
        env = _reg_env(obj, arrs, site)
    if obj.reg_kind == "tensor_norm":
        lam = _site_lambdas(obj, len(arrs))[site - 1]
        return lambda a: float(env + lam * np.linalg.norm(a) ** 2)
    (left, right), shape = env, arrs[site - 1].shape
    lam = float(obj.reg_weight)

    def value(a: np.ndarray) -> float:
        nrm = _norm(left @ transfer_array(a.reshape(shape)) @ right)
        return lam * nrm * nrm

    return value


def _state_vector(params) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):  # _state_value rejects an overflow
        return contract_network(*params.tensor_network()).ravel()


def _state_value(obj: Objective, vec: np.ndarray) -> tuple[float, float]:
    """(f, overlap) of a state vector; the overlap is nan for energies.

    Raises on a zero or non-finite state.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        norm = float(np.linalg.norm(vec))
    if not math.isfinite(norm):
        raise NormalizationError("parametrized state is not finite")
    if norm == 0.0:
        raise NormalizationError("parametrized state has zero norm")
    if obj.kind == "distance":
        tvec = np.asarray(as_array(obj.target)).ravel()
        if tvec.size != vec.size:
            raise ValueError("target and state dimensions differ")
        overlap = float(abs(np.vdot(tvec, vec)) / norm)
        return 2.0 * (1.0 - overlap), overlap
    h = np.asarray(as_array(obj.hamiltonian))
    if h.shape[0] != vec.size:
        raise ValueError("hamiltonian and state dimensions differ")
    return float(np.vdot(vec, h @ vec).real) / (norm * norm), float("nan")


def objective_value(obj: Objective, params) -> tuple[float, float]:
    """(f, f_reg) at the given parameters; raises on a zero or non-finite state."""
    f, _ = _state_value(obj, _state_vector(params))
    return f, f + _reg_term(obj, params)


def _solve_normal(neff: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, bool]:
    """Solve the normal equations, falling back to a ridge on singularity."""
    try:
        sol = np.linalg.solve(neff, rhs)
        if np.all(np.isfinite(sol)):
            return sol, False
    except np.linalg.LinAlgError:
        pass
    scale = max(1.0, float(np.abs(np.diag(neff)).max()))
    sol = np.linalg.solve(neff + RIDGE * scale * np.eye(neff.shape[0]), rhs)
    return sol, True


def _candidate(obj: Objective, mat: np.ndarray, a_old: np.ndarray):
    """Unconstrained minimizer of the local surrogate problem."""
    mat_h = mat.conj().T
    neff = mat_h @ mat
    if obj.kind == "distance":
        tvec = np.asarray(as_array(obj.target)).ravel()
        b = mat_h @ tvec
        if not np.any(b):
            return None, False
        return _solve_normal(neff, b)
    h = np.asarray(as_array(obj.hamiltonian))
    heff = mat_h @ (h @ mat)
    heff = (heff + heff.conj().T) / 2.0
    scale = max(1.0, float(np.abs(np.diag(neff)).max()))
    ridged = False
    try:
        w, v = scipy.linalg.eigh(heff, neff)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
        ridged = True
        w, v = scipy.linalg.eigh(heff, neff + RIDGE * scale * np.eye(neff.shape[0]))
    vec = v[:, 0]
    nrm = float(np.linalg.norm(vec))
    if nrm == 0.0 or not np.all(np.isfinite(vec)):
        return None, ridged
    # keep the iterate near the current scale and phase
    vec = vec / nrm
    ref = complex(np.vdot(vec, a_old))
    if abs(ref) > 0:
        vec = vec * (ref / abs(ref))
    return vec * float(np.linalg.norm(a_old)), ridged


def _line_objective(obj: Objective, params: _Point, site: int, mat: np.ndarray, env=None):
    """f_reg as a function of the flattened array at one site.

    Unless the set is translation invariant the state is linear in that
    array, so a trial costs a product with the site matrix plus the
    regularizer with the other sites fixed (`env`, see `_site_reg`).  A
    shared tensor enters every site, so its trials are contracted in full.
    """
    shape = params.tensors[site - 1].shape
    if params.translation_invariant:
        return lambda a: objective_value(obj, _with_site(params, site, a.reshape(shape)))[1]
    reg = _site_reg(obj, params.tensors, site, env)

    def value(a: np.ndarray) -> float:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected
            return _state_value(obj, mat @ a)[0] + reg(a)

    return value


def _als_step(obj: Objective, params: _Point, site: int, freg_old: float, mat=None, env=None):
    """One guarded local update from the current f_reg; returns
    (new params, ridge_used, new f_reg).  A sweep passes the site matrix and
    the regularizer's environment from its caches; without them both are
    built from the whole network."""
    a_old = params.tensors[site - 1].ravel()
    if mat is None:
        mat = site_environment(*params.tensor_network(), site - 1)
    cand, ridged = _candidate(obj, mat, a_old)
    if cand is None:
        return params, ridged, freg_old
    value = _line_objective(obj, params, site, mat, env)
    for k in range(_BACKTRACK_STEPS):
        t = 0.5 ** k
        a_new = (1.0 - t) * a_old + t * cand
        try:
            freg_new = value(a_new)
        except NormalizationError:
            continue
        if freg_new <= freg_old:
            shape = params.tensors[site - 1].shape
            return _with_site(params, site, a_new.reshape(shape)), ridged, freg_new
    return params, ridged, freg_old


def _sweep(obj: Objective, params: _Point, freg: float):
    """Steps at sites 1..N of a chain or ring that is not translation
    invariant; returns (params, ridge_seen, f_reg).

    The environments are built once per sweep and grown one site per step
    (Schollwoeck 2011, sec. 6.3).  The right blocks R_k = A_{k+1}...A_N, of
    shape (m_k, d_{k+1}...d_N, m_0), come right to left from the sweep's
    start; the left block L_k = A_1...A_{k-1}, of shape (m_0, d_1...d_{k-1},
    m_{k-1}), grows by each accepted tensor.  So a step's site matrix is
    that of the three-node ring [L_k, A_k, R_k], not of N - 1 sites; a
    chain's boundary bonds have dimension 1.  The regularizer's environment
    is cached the same way: the tensor_norm terms, or the transfer products
    E_{k+1}...E_N and E_1...E_{k-1}.
    """
    arrs = params.tensors
    n, m0 = len(arrs), arrs[0].shape[1]
    cap = capacity_cap()
    norms, transfer = obj.reg_kind == "tensor_norm", obj.reg_kind == "transfer_product"
    rights = [np.eye(m0, dtype=np.complex128).reshape(m0, 1, m0)]
    trights = [np.eye(m0 * m0, dtype=np.complex128)]
    for a in arrs[:0:-1]:
        d, ml, mr = a.shape
        right = rights[-1]
        check_capacity(ml * d * right.shape[1] * m0, cap, "right environment")
        block = a.transpose(1, 0, 2).reshape(ml * d, mr) @ right.reshape(mr, -1)
        rights.append(block.reshape(ml, -1, m0))
        if transfer:
            check_capacity(ml * ml * m0 * m0, cap, "right transfer environment")
            trights.append(transfer_array(a) @ trights[-1])
    rights.reverse()
    trights.reverse()
    if norms:
        lams = _site_lambdas(obj, n)
        terms = [l * np.linalg.norm(a) ** 2 for l, a in zip(lams, arrs)]
    left, tleft = rights[-1], trights[-1]  # the identities on bond 0
    ridge_seen = False
    for site in range(1, n + 1):
        a, right = params.tensors[site - 1], rights[site - 1]
        ring = [left.transpose(1, 0, 2), a, right.transpose(1, 0, 2)]
        mat = site_environment(*chain_network(ring), 1)
        env = None
        if norms:
            env = sum(x for k, x in enumerate(terms) if k != site - 1)
        elif transfer:
            env = (tleft, trights[site - 1])
        params, ridged, freg = _als_step(obj, params, site, freg, mat, env)
        ridge_seen = ridge_seen or ridged
        if site == n:
            break
        a = params.tensors[site - 1]
        d, ml, mr = a.shape
        check_capacity(left.shape[1] * m0 * d * mr, cap, "left environment")
        block = left.reshape(-1, ml) @ a.transpose(1, 0, 2).reshape(ml, d * mr)
        left = block.reshape(m0, -1, mr)
        if transfer:
            check_capacity(m0 * m0 * mr * mr, cap, "left transfer environment")
            tleft = tleft @ transfer_array(a)
        elif norms:
            terms[site - 1] = lams[site - 1] * np.linalg.norm(a) ** 2
    return params, ridge_seen, freg


def als_sweep(obj: Objective, params, site: int):
    """Update one site tensor (the shared tensor, for translation-invariant
    parametrizations) so that f_reg does not increase."""
    point = _point(params)
    _, freg = objective_value(obj, point)
    new, _, _ = _als_step(obj, point, site, freg)
    if isinstance(params, MpsObc):
        return MpsObc(new.tensors)
    return MpsPbc(new.tensors, translation_invariant=params.translation_invariant)


def _metrics(obj: Objective, params, iteration: int, flag: str) -> TraceRecord:
    """The record of a full evaluation: one contraction of the state."""
    arrs = _tensor_arrays(params)
    f, overlap = _state_value(obj, _state_vector(params))
    return TraceRecord(
        iteration=iteration,
        f=f,
        f_reg=f + _reg_term(obj, params),
        overlap=overlap,
        max_abs_entry=float(max(np.abs(a).max() for a in arrs)),
        frobenius_norms=tuple(float(np.linalg.norm(a)) for a in arrs),
        transfer_product_norm=_norm(_transfer_product(arrs)),
        flag=flag,
    )


def run_experiment(
    obj: Objective,
    init,
    budget: int,
    divergence_threshold: float = DEFAULT_DIVERGENCE,
) -> RunTrace:
    """Sweep until f_reg stalls, the budget runs out, or entries diverge.

    The trace holds one record per completed sweep (plus the initial state);
    the final record's flag carries the termination reason.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    params = _point(init)
    trace = RunTrace()
    rec = _metrics(obj, params, 0, "")
    trace.records.append(rec)
    if rec.max_abs_entry > divergence_threshold:
        trace.termination = "divergence_flag"
        trace.records[-1] = _metrics(obj, params, 0, trace.termination)
        return trace
    ti = params.translation_invariant
    freg0 = rec.f_reg
    prev = rec.f_reg
    for it in range(1, budget + 1):
        # seeded from a full evaluation, so trial values cannot drift across sweeps
        if ti:
            params, ridge_seen, _ = _als_step(obj, params, 1, rec.f_reg)
        else:
            params, ridge_seen, _ = _sweep(obj, params, rec.f_reg)
        flag = "ridge" if ridge_seen else ""
        rec = _metrics(obj, params, it, flag)
        trace.records.append(rec)
        if rec.f_reg > freg0 + SWEEP_TOL:
            # the line search never accepts a rise, so f_reg(0) bounds every
            # sweep; with f >= f_min that bounds the regularizer by f_reg(0) - f_min
            raise TnsError(
                f"sublevel bound violated: f_reg rose from {freg0!r} to {rec.f_reg!r}"
            )
        if rec.max_abs_entry > divergence_threshold:
            trace.termination = "divergence_flag"
            break
        if abs(prev - rec.f_reg) < SWEEP_TOL:
            trace.termination = "converged"
            break
        prev = rec.f_reg
    last = trace.records[-1]
    joined = f"{last.flag};{trace.termination}" if last.flag else trace.termination
    trace.records[-1] = TraceRecord(
        iteration=last.iteration,
        f=last.f,
        f_reg=last.f_reg,
        overlap=last.overlap,
        max_abs_entry=last.max_abs_entry,
        frobenius_norms=last.frobenius_norms,
        transfer_product_norm=last.transfer_product_norm,
        flag=joined,
    )
    return trace


def site_gradient(obj: Objective, params, site: int) -> DenseTensor:
    """Wirtinger gradient of f_reg with respect to the conjugate of one site
    tensor, from the same effective quantities the sweeps use.

    The first-order change under a perturbation dA of the site tensor is
    2 Re <g, dA>.
    """
    arrs = _tensor_arrays(params)
    shape = arrs[site - 1].shape
    a = arrs[site - 1].ravel()
    mat = site_environment(*params.tensor_network(), site - 1)
    vec = mat @ a
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise NormalizationError("parametrized state has zero norm")
    na = mat.conj().T @ vec
    if obj.kind == "distance":
        tvec = np.asarray(as_array(obj.target)).ravel()
        b = mat.conj().T @ tvec
        o = complex(np.vdot(tvec, vec))
        if abs(o) == 0.0:
            g = np.zeros_like(a)
        else:
            g = -(b * (o / abs(o))) / norm
        g = g + abs(o) * na / norm ** 3
    else:
        h = np.asarray(as_array(obj.hamiltonian))
        hv = mat.conj().T @ (h @ vec)
        f = float(np.vdot(vec, h @ vec).real) / (norm * norm)
        g = (hv - f * na) / (norm * norm)
    if obj.reg_kind == "tensor_norm":
        lam = _site_lambdas(obj, len(arrs))[site - 1]
        g = g + lam * a
    elif obj.reg_kind == "transfer_product":
        envs = _transfer_envs(arrs, site)
        g = g + float(obj.reg_weight) * _transfer_grad(arrs[site - 1], *envs).ravel()
    return DenseTensor(g.reshape(shape))


def _transfer_grad(a: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Wirtinger gradient of ||E_1...E_N||_F^2 in the conjugate of the site
    tensor `a`, from its transfer environments (L, R)."""
    _, ml, mr = a.shape
    prod = left @ transfer_array(a) @ right
    m1 = (right @ prod.conj().T @ left).reshape(mr, mr, ml, ml)
    m2 = (right.conj() @ prod.T @ left.conj()).reshape(mr, mr, ml, ml)
    term1 = np.einsum("skl,blak->sab", a, m1)
    term2 = np.einsum("skl,lbka->sab", a, m2)
    return term1 + term2
