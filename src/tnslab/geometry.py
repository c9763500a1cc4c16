"""Dimension counts for local-operator stabilizers of ring states and for the
ring parametrization map, checked numerically against closed formulas.

All dimensions are complex: ranks and nullities of complex matrices.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .mps_pbc import MpsPbc, eval_pbc
from .peps import pair_tensor
from .tensors import (
    DEFAULT_TOL,
    as_array,
    check_capacity,
    matrix_rank,
    site_matrix,
)
from .zoo import psi_tau_tensors, two_domain_state

MAX_STABILIZER_PARAMS = 512
MAX_JACOBIAN_PARAMS = 256


@dataclass(frozen=True)
class PredictedDims:
    dim_G: int
    dim_G_mu: int
    dim_G_tau: int
    dim_pmps: int


@dataclass(frozen=True)
class DimensionReport:
    predicted: int
    measured: int
    match: bool
    tolerance_used: float


def predicted_dims(n: int, m: int) -> PredictedDims:
    """Closed-form complex dimensions for the ring of n sites at bond dim m.

    dim_G counts products of local invertible operators, dim_G_mu and
    dim_G_tau their stabilizer subgroups at the pair seed state and at the
    two-domain state, and dim_pmps the parametrized set itself; the identity
    dim_pmps = dim_G - dim_G_mu holds by orbit counting.
    """
    if n < 3:
        raise ValueError("needs n >= 3")
    if m < 1:
        raise ValueError("needs m >= 1")
    m2 = m * m
    return PredictedDims(
        dim_G=n * (m2 * m2 - 1) + 1,
        dim_G_mu=n * m2 - n,
        dim_G_tau=n * (m2 - 1) + m * (m - 2) + 1,
        dim_pmps=n * m2 * (m2 - 1) + 1,
    )


def stabilizer_lie_dim(psi, site_dims, tol: float = DEFAULT_TOL) -> int:
    """Dimension of the Lie algebra of local operators annihilating psi.

    Builds the map (X_1, ..., X_N) -> sum_j (X_j acting on site j)|psi> as a
    dense matrix and returns its nullity minus (N - 1).  The subtraction
    removes the tuples (c_j * identity) with sum c_j = 0, which act as the
    zero operator even though they are nonzero tuples.
    """
    dims = tuple(int(d) for d in site_dims)
    arr = np.asarray(as_array(psi)).reshape(dims)
    n = len(dims)
    if n < 1:
        raise ValueError("need at least one site")
    params = sum(d * d for d in dims)
    if params > MAX_STABILIZER_PARAMS:
        raise CapacityError(
            f"stabilizer problem has {params} parameters, cap {MAX_STABILIZER_PARAMS}"
        )
    if not np.any(arr):
        raise ValueError("psi must be nonzero")
    check_capacity(arr.size * params, what="stabilizer matrix")
    cols = np.empty((arr.size, params), dtype=np.complex128)
    c = 0
    for j, d in enumerate(dims):
        # X_j -> (X_j on site j)|psi> is the environment of an operator on leg j
        legs = [[n if k == j else k for k in range(n)], (j, n)]
        cols[:, c : c + d * d] = site_matrix([arr, np.eye(d)], legs, range(n), 1)
        c += d * d
    nullity = params - matrix_rank(cols, tol)
    return nullity - (n - 1)


def jacobian_rank(tensors, tol: float = DEFAULT_TOL) -> int:
    """Complex rank of the differential of (A_1..A_N) -> ring state.

    The state is linear in each tensor, so the partial derivatives in site j's
    entries are the columns of its site matrix; the rank of those
    matrices stacked side by side (d^N x params) is the local dimension of
    the parametrized set at this point.
    """
    arrs = [np.asarray(as_array(t)) for t in tensors]
    n = len(arrs)
    if n < 2:
        raise ValueError("need at least 2 sites")
    d, m, m2 = arrs[0].shape
    if any(a.shape != (d, m, m2) for a in arrs) or m != m2:
        raise ValueError("tensors must share one (d, m, m) shape")
    params = n * d * m * m
    if params > MAX_JACOBIAN_PARAMS:
        raise CapacityError(
            f"jacobian has {params} parameters, cap {MAX_JACOBIAN_PARAMS}"
        )
    check_capacity(d ** n * params, what="jacobian")
    network = MpsPbc(arrs).tensor_network()
    cols = np.hstack([site_matrix(*network, j) for j in range(n)])
    return matrix_rank(cols, tol)


def mu_ring_state(n: int, m: int) -> np.ndarray:
    """Dense entangled-pair ring state: one unit per cyclic symbol string."""
    return np.asarray(as_array(eval_pbc(psi_tau_tensors(n, m, 1.0))))


def random_injective_point(n: int, m: int, seed: int = 0):
    """Ring tensors of a generic injective point: random invertible operators
    applied to the pair-seed site tensors."""
    rng = np.random.default_rng(seed)
    d = m * m
    base = pair_tensor(d, (m, m))
    out = []
    for _ in range(n):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        out.append(np.einsum("ps,sab->pab", g, base))
    return out


def geometry_report(
    state: str, n: int, m: int, tol: float = DEFAULT_TOL, seed: int = 0
) -> DimensionReport:
    """Predicted-versus-measured dimension for one named ring state.

    state is "mu" (pair seed), "tau" (two-domain), or "pmps" (Jacobian rank
    at a random injective point).
    """
    pred = predicted_dims(n, m)
    if state == "mu":
        predicted = pred.dim_G_mu
        measured = stabilizer_lie_dim(mu_ring_state(n, m), [m * m] * n, tol)
    elif state == "tau":
        predicted = pred.dim_G_tau
        measured = stabilizer_lie_dim(two_domain_state(n, m), [m * m] * n, tol)
    elif state == "pmps":
        predicted = pred.dim_pmps
        measured = jacobian_rank(random_injective_point(n, m, seed), tol)
    else:
        raise ValueError(f"unknown state {state!r}; want mu, tau, or pmps")
    return DimensionReport(
        predicted=predicted,
        measured=measured,
        match=predicted == measured,
        tolerance_used=tol,
    )
