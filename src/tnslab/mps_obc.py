"""Open-boundary MPS, a ring whose closing bond has dimension 1 (`MpsObc`
subclasses `mps_pbc.MpsPbc`): state conversion and right-canonical form (the
tree sweeps of `ttns` on a path), Schmidt data, and bond gauge
transformations."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DimensionMismatchError, InvertibilityError
from .mps_pbc import MpsPbc
from .tensors import (
    DEFAULT_TOL,
    GAUGE_COND_MAX,
    WORKING_TOL,
    DenseTensor,
    _rank_from_singulars,
    as_array,
    check_capacity,
    contract_network,
)
from .ttns import TreeNetwork, Ttns, from_state_ttns, orthonormalize_ttns


class MpsObc(MpsPbc):
    """Open-boundary MPS; tensor i has axes (physical d_i, left bond, right bond).

    A ring whose closing bond has dimension 1: the first tensor has left bond
    1 and the last has right bond 1.
    """

    __slots__ = ()

    def __init__(self, tensors):
        super().__init__(tensors)
        # the closing bond is both the last right bond and the first left bond
        if self.tensors[-1].shape[2] != 1:
            raise DimensionMismatchError("boundary bonds must have dimension 1")

    @property
    def bond_dims(self) -> tuple[int, ...]:
        """Interior bond dimensions m_1 ... m_{N-1}."""
        return super().bond_dims[:-1]

    def __repr__(self) -> str:
        return f"MpsObc(site_dims={self.site_dims}, bond_dims={self.bond_dims})"


@dataclass(frozen=True)
class SchmidtData:
    """Schmidt spectrum across one cut: descending coefficients above tolerance."""

    cut: int
    coefficients: np.ndarray
    rank: int


def eval_obc(mps: MpsObc) -> DenseTensor:
    """Materialize the full state tensor of shape d_1 x ... x d_N."""
    return DenseTensor(contract_network(*mps.tensor_network()))


def _to_path(mps: MpsObc) -> Ttns:
    """A chain as a tree on its path: the dimension-1 boundary bonds dropped."""
    ts = list(mps.tensors)
    ts[0] = ts[0].reshape(ts[0].shape[:1] + ts[0].shape[2:])  # (d, right)
    ts[-1] = ts[-1].reshape(ts[-1].shape[:-1])  # (d, left); (d,) for one site
    edges = [(i, i + 1, m) for i, m in enumerate(mps.bond_dims, 1)]
    return Ttns(TreeNetwork(mps.site_dims, edges), ts)


def _to_chain(t: Ttns) -> MpsObc:
    """A tree on the path 1-2-...-N as a chain: the boundary bonds restored."""
    ts = list(t.tensors)
    ts[0] = ts[0].reshape(ts[0].shape[0], 1, -1)
    ts[-1] = ts[-1].reshape(ts[-1].shape[0], -1, 1)
    return MpsObc(ts)


def from_state_obc(psi, dims, max_bond: int | None = None) -> MpsObc:
    """Exact MPS from a state tensor: `from_state_ttns` on the path 1-2-...-N
    rooted at site 1.  Every interior bond dimension comes out equal to the
    Schmidt rank of its cut; there is no truncation (a rank above max_bond
    raises RankError; None allows any rank).
    """
    dims = [int(d) for d in dims]
    bond = math.prod(dims) if max_bond is None else max_bond
    edges = [(i, i + 1, bond) for i in range(1, len(dims))]
    return _to_chain(from_state_ttns(psi, TreeNetwork(dims, edges), 1))


def right_canonicalize(mps: MpsObc) -> MpsObc:
    """Bring an MPS to right-canonical form (sum_s B^s B^s+ = identity).

    `orthonormalize_ttns` on the path rooted at site 1 sweeps left to right,
    making every left block injective, then right to left, landing on exact
    Schmidt ranks; padded bonds collapse.  The state is normalized, and the
    global phase makes the largest-magnitude amplitude real positive whenever
    `eval_obc` can evaluate the state under the capacity rule (`check_state`).
    """
    out = list(_to_chain(orthonormalize_ttns(_to_path(mps), 1)).tensors)
    out[0] = DenseTensor(out[0].array / np.linalg.norm(out[0].array))
    try:
        vec = eval_obc(MpsObc(out)).array.ravel()
    except CapacityError:  # a state past the state cap keeps the phase the sweeps left
        return MpsObc(out)
    k = int(np.argmax(np.abs(vec)))
    out[0] = DenseTensor(out[0].array * np.conj(vec[k] / abs(vec[k])))
    return MpsObc(out)


def schmidt(psi, dims, cut: int, tol: float = DEFAULT_TOL) -> SchmidtData:
    """Schmidt coefficients and rank across the cut [1..cut] | [cut+1..N]."""
    dims = [int(d) for d in dims]
    n = len(dims)
    if not 1 <= cut <= n - 1:
        raise ValueError(f"cut must lie in 1..{n - 1}, got {cut}")
    arr = as_array(psi).reshape(tuple(dims))
    mat = arr.reshape(math.prod(dims[:cut]), math.prod(dims[cut:]))
    # a real state's singular values, in float64 arithmetic, as `reduced_rq` takes them
    s = np.linalg.svd(mat if mat.imag.any() else mat.real, compute_uv=False)
    rank = _rank_from_singulars(s, tol)
    return SchmidtData(cut=cut, coefficients=s[:rank].copy(), rank=rank)


def schmidt_profile(psi, dims, tol: float = DEFAULT_TOL) -> list[SchmidtData]:
    """`schmidt` at every cut 1..N-1, from one right-to-left sweep.

    The cut-c matrix is held as M times a factor with orthonormal rows, so
    its singular values are M's; M starts as the state reshaped at cut N-1,
    and the next cut's M is M reshaped.  Where M has singular values at or
    below WORKING_TOL * s_max, M becomes U_k S_k of its thin SVD, which moves
    V_k† into the factor; a full-rank state is never compressed.
    """
    dims = [int(d) for d in dims]
    arr = as_array(psi).reshape(tuple(dims))
    if len(dims) < 2:
        return []
    profile = []
    mat = arr.reshape(math.prod(dims[:-1]), dims[-1])
    # a real state's sweep runs in float64 arithmetic, as `schmidt` does
    mat = mat if mat.imag.any() else mat.real
    for cut in range(len(dims) - 1, 0, -1):
        s = np.linalg.svd(mat, compute_uv=False)
        rank = _rank_from_singulars(s, tol)
        profile.append(SchmidtData(cut=cut, coefficients=s[:rank].copy(), rank=rank))
        keep = _rank_from_singulars(s, WORKING_TOL)
        if keep == 0:  # the zero state has rank 0 at every cut
            profile += [SchmidtData(c, s[:0].copy(), 0) for c in range(cut - 1, 0, -1)]
            break
        if keep < s.size:
            check_capacity(mat.shape[0] * keep, what="Schmidt profile factor")
            u, s, _ = np.linalg.svd(mat, full_matrices=False)
            mat = u[:, :keep] * s[:keep]
        mat = mat.reshape(math.prod(dims[: cut - 1]), -1)
    return profile[::-1]


def gauge_transform(mps: MpsObc, bond: int, z) -> MpsObc:
    """Insert z^-1 z on interior bond `bond` (1-indexed, between bond and bond+1)."""
    n = len(mps)
    if not 1 <= bond <= n - 1:
        raise ValueError(f"bond must lie in 1..{n - 1}, got {bond}")
    zm = as_array(z)
    m = mps.tensors[bond - 1].shape[2]
    if zm.shape != (m, m):
        raise DimensionMismatchError(
            f"gauge matrix shape {zm.shape} does not match bond dimension {m}"
        )
    cond = np.linalg.cond(zm)
    if not np.isfinite(cond) or cond >= GAUGE_COND_MAX:
        raise InvertibilityError(
            f"gauge matrix condition number {cond!r} is too large to invert safely"
        )
    zinv = np.linalg.inv(zm)
    left = np.tensordot(as_array(mps.tensors[bond - 1]), zinv, axes=([2], [0]))
    right = np.tensordot(as_array(mps.tensors[bond]), zm, axes=([1], [1])).transpose(
        0, 2, 1
    )
    tensors = list(mps.tensors)
    tensors[bond - 1] = DenseTensor(left)
    tensors[bond] = DenseTensor(right)
    return MpsObc(tensors)
