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
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import NormalizationError, TnsError
from .mps_obc import MpsObc
from .mps_pbc import MpsPbc, chain_network, transfer_array
from .tensors import (
    DEFAULT_DIVERGENCE,
    GRAM_TOL,
    OBJECTIVE_INPUT_TOL,
    SCREEN_TOL,
    SWEEP_TOL,
    DenseTensor,
    as_array,
    capacity_cap,
    check_capacity,
    contract_network,
    site_environment,
)

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
            if abs(np.linalg.norm(vec) - 1.0) > OBJECTIVE_INPUT_TOL:
                raise NormalizationError("target must be normalized within 1e-10")
        else:
            if self.hamiltonian is None:
                raise ValueError("energy objective needs a hamiltonian")
            h = np.asarray(as_array(self.hamiltonian))
            if h.ndim != 2 or h.shape[0] != h.shape[1]:
                raise ValueError("hamiltonian must be a square matrix")
            if np.max(np.abs(h - h.conj().T)) > OBJECTIVE_INPUT_TOL:
                raise ValueError("hamiltonian must be Hermitian within 1e-10")
        if self.reg_kind not in ("none", "tensor_norm", "transfer_product"):
            raise ValueError(f"unknown regularization {self.reg_kind!r}")
        w = self.reg_weight
        per_site = isinstance(w, (tuple, list))
        if per_site and self.reg_kind == "transfer_product":
            raise ValueError("transfer_product takes one weight")
        if any(x < 0 for x in (w if per_site else (w,))):
            raise ValueError("regularization weights must be nonnegative")


def distance_objective(target, reg_kind: str = "none", reg_weight=0.0) -> Objective:
    t = target if isinstance(target, DenseTensor) else DenseTensor(target)
    return Objective("distance", target=t, reg_kind=reg_kind, reg_weight=reg_weight)


def energy_objective(hamiltonian, reg_kind: str = "none", reg_weight=0.0) -> Objective:
    h = hamiltonian if isinstance(hamiltonian, DenseTensor) else DenseTensor(hamiltonian)
    return Objective("energy", hamiltonian=h, reg_kind=reg_kind, reg_weight=reg_weight)


@dataclass(frozen=True)
class TraceRecord:
    """One full evaluation.  `flag` is "ridge" when a step of the sweep
    dropped a direction of its local problem, an eigenvalue of E^dag E at
    or below GRAM_TOL times the largest (the name is kept from the ridge the
    rank-revealing solve replaced); the last record adds the termination."""

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
    return _Point(_tensor_arrays(params), params.translation_invariant)


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


def _reg_term(obj: Objective, params, transfer_norm: float | None = None) -> float:
    if obj.reg_kind == "none":
        return 0.0
    arrs = _tensor_arrays(params)
    if obj.reg_kind == "tensor_norm":
        lams = _site_lambdas(obj, len(arrs))
        return float(sum(l * np.linalg.norm(a) ** 2 for l, a in zip(lams, arrs)))
    nrm = _norm(_transfer_product(arrs)) if transfer_norm is None else transfer_norm
    return float(obj.reg_weight) * nrm * nrm


def _reg_env(obj: Objective, arrs: list[np.ndarray], site: int):
    """What the regularizer needs of the sites other than `site`: their
    tensor_norm terms summed, or the transfer environments (L, R)."""
    if obj.reg_kind == "tensor_norm":
        lams = _site_lambdas(obj, len(arrs))
        terms = enumerate(zip(lams, arrs))
        return sum(l * np.linalg.norm(x) ** 2 for k, (l, x) in terms if k != site - 1)
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


def _state_value(obj: Objective, vec: np.ndarray, target=None) -> tuple[float, float]:
    """(f, overlap) of a state, the overlap nan for energies; a distance
    compares `vec` with `target`, by default the objective's.  Raises on a
    zero or non-finite state."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        norm = float(np.linalg.norm(vec))
    if not math.isfinite(norm):
        raise NormalizationError("parametrized state is not finite")
    if norm == 0.0:
        raise NormalizationError("parametrized state has zero norm")
    if obj.kind == "distance":
        tvec = np.asarray(as_array(obj.target)).ravel() if target is None else target
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


class _Local(NamedTuple):
    """A site's effective problem (Schollwoeck 2011, sec. 6): the environment
    E of shape (D_L*D_R, m_l*m_r), D_L and D_R the dimensions of the legs
    before and after the site, and a distance's target in E's layout.  A
    flattened site array `a` gives the state E @ a.reshape(d, -1).T."""

    env: np.ndarray
    dl: int
    dr: int
    target: np.ndarray | None = None

    def ordered(self, phi: np.ndarray) -> np.ndarray:
        """A state in E's layout as a vector in state order; from_state inverts it."""
        return phi.reshape(self.dl, self.dr, -1).transpose(0, 2, 1).ravel()

    def from_state(self, vec: np.ndarray) -> np.ndarray:
        return vec.reshape(self.dl, -1, self.dr).transpose(0, 2, 1).reshape(self.dl * self.dr, -1)

    def f(self, obj: Objective, a: np.ndarray) -> float:
        phi = self.env @ a.reshape(-1, self.env.shape[1]).T
        if obj.kind == "distance":
            return _state_value(obj, phi, self.target)[0]
        return _state_value(obj, self.ordered(phi))[0]


def _local(obj: Objective, env: np.ndarray, dl: int, dr: int) -> _Local:
    loc = _Local(env, dl, dr)
    if obj.kind == "distance":  # permuted once per step
        return loc._replace(target=loc.from_state(np.asarray(as_array(obj.target)).ravel()))
    return loc


def _network_local(obj: Objective, arrs: list[np.ndarray], site: int) -> _Local:
    """The local problem at `site` from the whole chain, for steps without
    sweep caches: E's axes are the legs before and after the site, its bonds."""
    env, _ = site_environment(*chain_network(arrs), site - 1)
    dims = [a.shape[0] for a in arrs]
    dl, dr = math.prod(dims[: site - 1]), math.prod(dims[site:])
    return _local(obj, env.reshape(dl * dr, -1), dl, dr)


def _kept_basis(env: np.ndarray) -> tuple[np.ndarray, bool]:
    """(W, dropped): W = V_k lam_k^(-1/2) over the eigenpairs of E^dag E above
    GRAM_TOL times the largest, so E W has orthonormal columns."""
    lam, vec = np.linalg.eigh(env.conj().T @ env)
    keep = lam > GRAM_TOL * lam[-1]
    return vec[:, keep] / np.sqrt(lam[keep]), not keep.all()


def _candidate(obj: Objective, loc: _Local, a_old: np.ndarray):
    """Minimizer of the local surrogate problem on the kept subspace of
    E^dag E; returns (flattened candidate or None, direction dropped).  A
    distance takes the minimum-norm least-squares solution W W^dag E^dag T;
    an energy is a standard eigenproblem on the orthonormal basis I_d (x) E W,
    zero-padded into state order, so that one product with H, a single read
    of it, gives every block of the effective matrix."""
    env = loc.env
    w, dropped = _kept_basis(env)
    if obj.kind == "distance":
        rhs = w.conj().T @ (env.conj().T @ loc.target)
        return ((w @ rhs).T.ravel() if np.any(rhs) else None), dropped
    d, p = a_old.size // env.shape[1], w.shape[1]
    if p == 0:
        return None, dropped
    q = (env @ w).reshape(loc.dl, loc.dr, p)
    check_capacity(loc.dl * d * loc.dr * d * p, what="energy basis")
    basis = np.zeros((loc.dl, d, loc.dr, d, p), dtype=np.complex128)
    for s in range(d):  # the basis vectors with physical index s
        basis[:, s, :, s] = q
    hb = np.asarray(as_array(obj.hamiltonian)) @ basis.reshape(-1, d * p)
    hb = hb.reshape(loc.dl, d, loc.dr, d * p).transpose(1, 0, 2, 3).reshape(d, -1, d * p)
    heff = q.reshape(-1, p).conj().T @ hb  # heff[t, :, (s, :)]
    _, v = np.linalg.eigh(heff.reshape(d * p, d * p), UPLO="U")
    vec = (v[:, 0].reshape(d, p) @ w.T).ravel()
    nrm = float(np.linalg.norm(vec))
    if nrm == 0.0 or not np.all(np.isfinite(vec)):
        return None, dropped
    # keep the iterate near the current scale and phase
    vec = vec / nrm
    ref = complex(np.vdot(vec, a_old))
    if abs(ref) > 0:
        vec = vec * (ref / abs(ref))
    return vec * float(np.linalg.norm(a_old)), dropped


def _line_objective(obj: Objective, params: _Point, site: int, loc: _Local, env=None):
    """f_reg as a function of the flattened array at one site.  Unless the
    set is translation invariant the state is linear in that array, so a
    trial costs a product with the environment E plus the regularizer with
    the other sites fixed (`env`, see `_site_reg`).  A shared tensor enters
    every site, so its trials are contracted in full."""
    shape = params.tensors[site - 1].shape
    if params.translation_invariant:
        return lambda a: objective_value(obj, _with_site(params, site, a.reshape(shape)))[1]
    reg = _site_reg(obj, params.tensors, site, env)

    def value(a: np.ndarray) -> float:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected
            return loc.f(obj, a) + reg(a)

    return value


# The step sizes t and the weights (u^2, u t, t^2) of `_screen`, u = 1 - t.
_STEPS = 0.5 ** np.arange(_BACKTRACK_STEPS)
_WEIGHTS = np.stack([(1.0 - _STEPS) ** 2, (1.0 - _STEPS) * _STEPS, _STEPS**2], axis=1)


def _screen(obj: Objective, loc: _Local, params: _Point, site: int, env, a0, cand):
    """(f_reg, margin) at the step sizes t = 1, 1/2, ..., 2^-20 of a set that
    is not translation invariant, from Gram products alone.

    With u = 1 - t the site array is u a0 + t c and the state u psi_0 +
    t psi_c, so ||psi||^2, a distance's overlap, an energy's <psi|H|psi> and
    the tensor_norm term are quadratic in (u, t): 2x2 Grams of (psi_0, psi_c),
    with the target or with H applied once to each, or of (a0, c).  The
    transfer product L T(a) R is quadratic too, so its squared norm is a
    quartic, from the 3x3 Gram of L T(a0) R, L (T(a0, c) + T(c, a0)) R and
    L T(c) R.  `margin` is SCREEN_TOL times the sizes of the terms summed
    for each value, by Cauchy-Schwarz from the norms on the Grams' diagonals."""

    def quad(g):  # u^2 g00 + u t (g01 + g10) + t^2 g11, g a 2x2 Gram
        return _WEIGHTS @ np.array([g[0, 0], g[0, 1] + g[1, 0], g[1, 1]]).real

    def size(g):  # u |x| + t |y| for the Gram g of (x, y), which bounds |u x + t y|
        return (1.0 - _STEPS) * g[0] + _STEPS * g[1]

    with np.errstate(all="ignore"):  # a value that overflows is never skipped
        x = np.concatenate((a0, cand)).reshape(2, -1)
        k = loc.env.shape[1]
        d = x.shape[1] // k
        y = loc.env @ x.reshape(-1, k).T  # psi_0 then psi_c, in E's layout
        if obj.kind == "distance":
            z = np.concatenate([loc.target, y], axis=1)
            g = np.trace((z.conj().T @ z).reshape(3, d, 3, d), axis1=1, axis2=3)
            gram, o = g[1:, 1:], g[0, 1:]  # <psi_i, psi_j> and <target, psi_i>
        else:
            states = y.reshape(loc.dl, loc.dr, 2, -1).transpose(2, 0, 3, 1).reshape(2, -1)
            hvecs = np.asarray(as_array(obj.hamiltonian)) @ states.T  # one read of H
            gram = states.conj() @ states.T
        nsq = quad(gram)
        ssq = size(np.sqrt(np.diag(gram).real)) ** 2
        if obj.kind == "distance":
            f = 2.0 * (1.0 - np.abs((1.0 - _STEPS) * o[0] + _STEPS * o[1]) / np.sqrt(nsq))
            scale = 2.0 * ssq / nsq
        else:
            f = quad(states.conj() @ hvecs) / nsq
            hsize = size(np.sqrt((hvecs.conj() * hvecs).real.sum(axis=0)))
            scale = (np.sqrt(ssq) * hsize + np.abs(f) * ssq) / nsq
        if obj.reg_kind == "tensor_norm":
            lam = _site_lambdas(obj, len(params.tensors))[site - 1]
            g = x.conj() @ x.T
            f = f + env + lam * quad(g)
            scale = scale + env + lam * size(np.sqrt(np.diag(g).real)) ** 2
        elif obj.reg_kind == "transfer_product":
            left, right = env
            (_, ml, mr), lam = params.tensors[site - 1].shape, float(obj.reg_weight)
            x = x.reshape(2, d, ml, mr)
            check_capacity(4 * ml * ml * mr * mr, what="mixed transfer matrices")
            tr = np.einsum("isab,jscd->ijacbd", x.conj(), x).reshape(4, ml * ml, mr * mr)
            p = left @ tr @ right  # L T(x_i, x_j) R
            p = np.stack([p[0], p[1] + p[2], p[3]]).reshape(3, -1)
            g = (p.conj() @ p.T).real
            f = f + lam * ((_WEIGHTS @ g) * _WEIGHTS).sum(axis=1)
            sigma = _WEIGHTS @ np.sqrt(np.diag(g))
            scale = scale + lam * sigma * sigma
        return f, SCREEN_TOL * scale


def _als_step(obj: Objective, params: _Point, site: int, freg_old: float, loc=None, env=None):
    """One guarded local update from the current f_reg; returns
    (new params, direction dropped, new f_reg).  A sweep passes the local
    problem and the regularizer's environment from its caches; without them
    both are built from the whole network.

    The first trial, from t = 1 down by halving, that does not raise f_reg
    is accepted.  Unless the tensor is shared (its state has degree N in t),
    a t = 1 rejected by more than SCREEN_TOL |freg_old| builds `_screen`,
    and a later trial whose finite screened f_reg exceeds freg_old by more
    than its margin is skipped.  Every trial reached is decided directly, so
    the step is bitwise that of the plain loop; near ties stay direct."""
    a_old = params.tensors[site - 1].ravel()
    if loc is None:
        loc = _network_local(obj, params.tensors, site)
    if env is None and not params.translation_invariant:
        env = _reg_env(obj, params.tensors, site)
    cand, dropped = _candidate(obj, loc, a_old)
    if cand is None:
        return params, dropped, freg_old
    value = _line_objective(obj, params, site, loc, env)
    sure = [False] * _BACKTRACK_STEPS  # trials the screen shows to be rejected
    for k in range(_BACKTRACK_STEPS):
        if sure[k]:
            continue
        t = 0.5 ** k
        a_new = (1.0 - t) * a_old + t * cand
        try:
            freg_new = value(a_new)
        except NormalizationError:
            continue
        if freg_new <= freg_old:
            shape = params.tensors[site - 1].shape
            return _with_site(params, site, a_new.reshape(shape)), dropped, freg_new
        if k == 0 and not params.translation_invariant and (
            freg_new - freg_old > SCREEN_TOL * abs(freg_old)  # not a near tie
        ):
            screened, margin = _screen(obj, loc, params, site, env, a_old, cand)
            sure = (np.isfinite(screened) & (screened - freg_old > margin)).tolist()
    return params, dropped, freg_old


def _sweep(obj: Objective, params: _Point, freg: float):
    """Steps at sites 1..N of a chain or ring that is not translation
    invariant; returns (params, direction dropped, f_reg).

    The environments are built once per sweep and grown one site per step
    (Schollwoeck 2011, sec. 6.3).  The right blocks R_k = A_{k+1}...A_N, of
    shape (m_k, d_{k+1}...d_N, m_0), come right to left from the sweep's
    start; the left block L_k = A_1...A_{k-1}, of shape (m_0, d_1...d_{k-1},
    m_{k-1}), grows by each accepted tensor.  So a step's environment E is
    one product of L_k and R_k over m_0, not a contraction of N - 1 sites;
    a chain's boundary bonds have dimension 1.  The regularizer's environment
    is cached the same way: the tensor_norm terms, or the transfer products
    E_{k+1}...E_N and E_1...E_{k-1}.  The same E and environments serve a
    step's closed-form screen (`_screen`), which skips the trials it shows,
    with a margin of SCREEN_TOL times the sizes of the summed terms, to be
    rejected: a step that rejects every trial costs one direct trial.
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
            trights.append(transfer_array(a) @ trights[-1])
    rights.reverse()
    trights.reverse()
    if norms:
        lams = _site_lambdas(obj, n)
        terms = [l * np.linalg.norm(a) ** 2 for l, a in zip(lams, arrs)]
    left, tleft = rights[-1], trights[-1]  # the identities on bond 0
    dropped_seen = False
    for site in range(1, n + 1):
        right = rights[site - 1]
        (_, dl, ml), (mr, dr, _) = left.shape, right.shape
        check_capacity(dl * dr * ml * mr, cap, "site environment")
        pair = np.tensordot(left, right, (0, 2)).transpose(0, 3, 1, 2)
        loc = _local(obj, pair.reshape(dl * dr, ml * mr), dl, dr)
        env = None
        if norms:
            env = sum(x for k, x in enumerate(terms) if k != site - 1)
        elif transfer:
            env = (tleft, trights[site - 1])
        params, dropped, freg = _als_step(obj, params, site, freg, loc, env)
        dropped_seen = dropped_seen or dropped
        if site == n:
            break
        a = params.tensors[site - 1]
        d, ml, mr = a.shape
        check_capacity(left.shape[1] * m0 * d * mr, cap, "left environment")
        block = left.reshape(-1, ml) @ a.transpose(1, 0, 2).reshape(ml, d * mr)
        left = block.reshape(m0, -1, mr)
        if transfer:
            tleft = tleft @ transfer_array(a)
        elif norms:
            terms[site - 1] = lams[site - 1] * np.linalg.norm(a) ** 2
    return params, dropped_seen, freg


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
    """The record of a full evaluation: one state contraction, one transfer product."""
    arrs = _tensor_arrays(params)
    f, overlap = _state_value(obj, _state_vector(params))
    transfer_norm = _norm(_transfer_product(arrs))
    return TraceRecord(
        iteration=iteration,
        f=f,
        f_reg=f + _reg_term(obj, params, transfer_norm),
        overlap=overlap,
        max_abs_entry=float(max(np.abs(a).max() for a in arrs)),
        frobenius_norms=tuple(float(np.linalg.norm(a)) for a in arrs),
        transfer_product_norm=transfer_norm,
        flag=flag,
    )


def run_experiment(
    obj: Objective, init, budget: int, divergence_threshold: float = DEFAULT_DIVERGENCE
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
        trace.termination, budget = "divergence_flag", 0
    ti = params.translation_invariant
    freg0 = rec.f_reg
    prev = rec.f_reg
    for it in range(1, budget + 1):
        # seeded from a full evaluation, so trial values cannot drift across sweeps
        if ti:
            params, dropped, _ = _als_step(obj, params, 1, rec.f_reg)
        else:
            params, dropped, _ = _sweep(obj, params, rec.f_reg)
        flag = "ridge" if dropped else ""
        rec = _metrics(obj, params, it, flag)
        trace.records.append(rec)
        if rec.f_reg > freg0 + SWEEP_TOL:
            # the line search never accepts a rise, so f_reg(0) bounds every
            # sweep; with f >= f_min that bounds the regularizer by f_reg(0) - f_min
            raise TnsError(f"sublevel bound violated: f_reg rose from {freg0!r} to {rec.f_reg!r}")
        if rec.max_abs_entry > divergence_threshold:
            trace.termination = "divergence_flag"
            break
        if abs(prev - rec.f_reg) < SWEEP_TOL:
            trace.termination = "converged"
            break
        prev = rec.f_reg
    last = trace.records[-1]
    joined = f"{last.flag};{trace.termination}" if last.flag else trace.termination
    trace.records[-1] = replace(last, flag=joined)
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
    loc = _network_local(obj, arrs, site)
    phi = loc.env @ a.reshape(shape[0], -1).T
    norm = float(np.linalg.norm(phi))
    if norm == 0.0:
        raise NormalizationError("parametrized state has zero norm")

    def adjoint(x: np.ndarray) -> np.ndarray:  # the site matrix's adjoint, in E's layout
        return (loc.env.conj().T @ x).T.ravel()

    na = adjoint(phi)
    if obj.kind == "distance":
        b = adjoint(loc.target)
        o = complex(np.vdot(loc.target, phi))
        g = -(b * (o / abs(o))) / norm if o else np.zeros_like(a)
        g = g + abs(o) * na / norm ** 3
    else:
        vec = loc.ordered(phi)
        hvec = np.asarray(as_array(obj.hamiltonian)) @ vec
        f = float(np.vdot(vec, hvec).real) / (norm * norm)
        g = (adjoint(loc.from_state(hvec)) - f * na) / (norm * norm)
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
