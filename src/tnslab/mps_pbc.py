"""Periodic-boundary MPS, the one chain container: `MpsPbc` holds a ring of
site tensors whose bond dimensions may differ from bond to bond, and an open
chain (`mps_obc.MpsObc`) is a ring whose closing bond has dimension 1.  Trace
evaluation, transfer matrices and channels, injectivity-length analysis, and
the canonical block decomposition of a translation-invariant tensor.

The canonical-blocks routine rescales the tensor to unit spectral radius,
repeatedly splits the bond space along supports of positive fixed points of
the transfer channel (and of its adjoint), gauges each full-support piece to
an isometric block, and finally rotates the surviving fixed point to diagonal
form.  Ambiguous spectral splits raise DegeneracyError rather than guessing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DegeneracyError,
    DimensionMismatchError,
    NormalizationError,
)
from .tensors import (
    BASIS_TOL,
    BLOCK_TOL,
    CLUSTER_TOL,
    INVARIANT_TOL,
    NILPOTENT_TOL,
    NOISE_TOL,
    PROJECTION_TOL,
    TRACELESS_TOL,
    DenseTensor,
    _rank_from_singulars,
    as_array,
    check_capacity,
    contract_network,
)


class MpsPbc:
    """Periodic MPS: a ring of site tensors shaped (d_i, m_{i-1}, m_i).

    Each site's right bond matches the next site's left bond, and the last
    site's right bond closes the ring on the first site's left bond, so the
    bond dimensions may differ from bond to bond.
    """

    __slots__ = ("tensors", "translation_invariant")

    def __init__(self, tensors, translation_invariant: bool = False):
        ts = tuple(
            t if isinstance(t, DenseTensor) else DenseTensor(t) for t in tensors
        )
        if not ts:
            raise ValueError("an MPS needs at least one site")
        for i, t in enumerate(ts):
            if t.ndim != 3:
                raise DimensionMismatchError(
                    f"site {i} tensor has {t.ndim} axes, expected 3"
                )
        for i, t in enumerate(ts):
            j = (i + 1) % len(ts)
            if t.shape[2] != ts[j].shape[1]:
                raise DimensionMismatchError(
                    f"bond between sites {i} and {j} mismatches: "
                    f"{t.shape[2]} vs {ts[j].shape[1]}"
                )
        if translation_invariant:
            first = ts[0].array
            for t in ts[1:]:
                if t.shape != ts[0].shape or not np.array_equal(t.array, first):
                    raise ValueError(
                        "translation_invariant requires identical site tensors"
                    )
        self.tensors = ts
        self.translation_invariant = bool(translation_invariant)

    def __len__(self) -> int:
        return len(self.tensors)

    @property
    def site_dims(self) -> tuple[int, ...]:
        return tuple(t.shape[0] for t in self.tensors)

    @property
    def bond_dims(self) -> tuple[int, ...]:
        """Bond dimensions m_1 ... m_N; m_N closes the ring."""
        return tuple(t.shape[2] for t in self.tensors)

    def tensor_network(self):
        return chain_network(self.tensors)

    def __repr__(self) -> str:
        return (
            f"MpsPbc(site_dims={self.site_dims}, bond_dims={self.bond_dims}, "
            f"translation_invariant={self.translation_invariant})"
        )


def chain_network(tensors):
    """Arrays, axis labels and open legs of a ring of (d, left, right)
    tensors, for `contract_network`.

    Site k has labels (k, n + k, n + (k + 1) % n): its physical leg, then its
    left and right bonds.  An open chain's closing bond has dimension 1, so
    closing it costs nothing.  A single site closes through an identity.
    """
    arrays = [as_array(t) for t in tensors]
    n = len(arrays)
    if n == 1:
        return arrays + [np.eye(arrays[0].shape[1])], [(0, 1, 2), (2, 1)], (0,)
    return arrays, [(k, n + k, n + (k + 1) % n) for k in range(n)], tuple(range(n))


def ti_mps(a, n: int) -> MpsPbc:
    """Translation-invariant MPS with `n` copies of one (d, m, m) tensor."""
    t = a if isinstance(a, DenseTensor) else DenseTensor(a)
    return MpsPbc([t] * int(n), translation_invariant=True)


@dataclass(frozen=True)
class CanonicalBlocks:
    """Canonical block form: weights alpha_j in (0,1], isometric block tensors,
    and the positive diagonal fixed points of the adjoint block channels."""

    blocks: tuple[tuple[float, DenseTensor], ...]
    fixed_points: tuple[DenseTensor, ...]

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(t.shape[1] for _, t in self.blocks)

    def tensor(self) -> DenseTensor:
        """Reassemble the direct-sum tensor diag(alpha_1 A_1, ..., alpha_b A_b)."""
        d = self.blocks[0][1].shape[0]
        mtot = sum(self.block_dims)
        out = np.zeros((d, mtot, mtot), dtype=np.complex128)
        at = 0
        for alpha, t in self.blocks:
            m = t.shape[1]
            out[:, at : at + m, at : at + m] = alpha * t.array
            at += m
        return DenseTensor(out)


def eval_pbc(mps: MpsPbc) -> DenseTensor:
    """Full state tensor; amplitude at s is the trace of the cyclic product."""
    return DenseTensor(contract_network(*mps.tensor_network()))


def transfer_matrix(a) -> DenseTensor:
    """E = sum_s conj(A^s) (x) A^s as an m^2 x m^2 matrix."""
    return DenseTensor(transfer_array(_as_site_tensor(a)))


def transfer_array(a: np.ndarray) -> np.ndarray:
    """sum_s conj(A^s) (x) A^s for a (d, ml, mr) array, as an ml^2 x mr^2 array."""
    _, ml, mr = a.shape
    check_capacity(ml * ml * mr * mr, what="transfer matrix")
    a = np.asarray(a, dtype=np.complex128)
    return np.einsum("sab,scd->acbd", a.conj(), a).reshape(ml * ml, mr * mr)


def block_tensor(a, ell: int) -> DenseTensor:
    """Blocked tensor over ell consecutive sites: B^(s1..sl) = A^s1 ... A^sl."""
    arr = _as_site_tensor(a)
    if ell < 1:
        raise ValueError("ell must be at least 1")
    d, m, _ = arr.shape
    check_capacity(d**ell * m * m, what="blocked tensor")
    acc = arr
    for _ in range(ell - 1):
        acc = np.einsum("xab,sbc->xsac", acc, arr).reshape(-1, m, m)
    return DenseTensor(acc)


def wielandt_bound(m: int) -> int:
    """Upper bound on the block length needed for injectivity at bond dim m."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return math.ceil(2 * m * m * (6 + math.log2(m)))


def span_dimensions(a, ell_max: int) -> list[int]:
    """Dimension of span{A^s1 ... A^sl} for l = 1..ell_max.

    The span is tracked through an orthonormal basis of at most m^2 matrices,
    so the cost stays polynomial in ell_max.  If the span stabilizes early the
    last dimension is repeated for the remaining l.
    """
    arr = _as_site_tensor(a)
    d, m, _ = arr.shape
    basis = _orthonormal_rows(arr.reshape(d, m * m))
    dims = [basis.shape[0]]
    for _ in range(1, ell_max):
        if basis.shape[0] == 0:
            dims.append(0)
            continue
        check_capacity(d * basis.shape[0] * m * m, what="span candidates")
        cand = np.einsum("sab,kbc->skac", arr, basis.reshape(-1, m, m))
        new = _orthonormal_rows(cand.reshape(-1, m * m))
        if new.shape[0] == basis.shape[0]:
            # possible stabilization: same span iff old basis lies in new span
            proj = new.conj() @ basis.reshape(-1, m * m).T
            if np.allclose(basis.reshape(-1, m * m), proj.T @ new, atol=NOISE_TOL):
                dims.extend([new.shape[0]] * (ell_max - len(dims)))
                basis = new
                break
        basis = new
        dims.append(new.shape[0])
    return dims[:ell_max]


def injectivity_length(a, ell_max: int) -> int | None:
    """Smallest block length l <= ell_max whose blocks span all m x m matrices."""
    arr = _as_site_tensor(a)
    if ell_max < 1:
        raise ValueError("ell_max must be at least 1")
    m = arr.shape[1]
    for ell, dim in enumerate(span_dimensions(arr, ell_max), start=1):
        if dim == m * m:
            return ell
    return None


def is_primitive(a) -> bool:
    """True iff the transfer channel of an isometric tensor has a unique
    top-magnitude eigenvalue whose Hermitized fixed point is positive definite."""
    arr = _as_site_tensor(a)
    d, m, _ = arr.shape
    iso = sum(arr[s] @ arr[s].conj().T for s in range(d)) - np.eye(m)
    if np.abs(iso).max() > BLOCK_TOL:
        raise ValueError("is_primitive requires an (approximately) isometric tensor")
    kmat = _channel_matrix(arr)
    vals, vecs = np.linalg.eig(kmat)
    mags = np.abs(vals)
    rho = mags.max()
    if rho <= 0.0:
        return False
    top = np.flatnonzero(mags >= rho * (1.0 - BLOCK_TOL))
    if top.size != 1:
        return False
    x = vecs[:, top[0]].reshape(m, m)
    ph = np.trace(x)
    if abs(ph) > NOISE_TOL:
        x = x * (ph.conjugate() / abs(ph))
    h = (x + x.conj().T) / 2.0
    w = np.linalg.eigvalsh(h)
    if abs(w[0]) > w[-1]:
        w = -w[::-1]
    return bool(w[0] > BLOCK_TOL * w[-1])


def ti_canonical_blocks(a) -> CanonicalBlocks:
    """Canonical block decomposition of a translation-invariant MPS tensor.

    Returns weights alpha_j (max-normalized into (0,1]), isometric block
    tensors, and diagonal positive fixed points of the adjoint channels.  The
    reassembled direct sum reproduces the input state up to normalization.
    """
    arr = _as_site_tensor(a)
    found: list[tuple[float, np.ndarray, np.ndarray]] = []
    _decompose(arr, 1.0, found)
    if not found:
        raise NormalizationError("tensor generates only the zero state")
    found.sort(key=lambda item: (-item[0], -item[1].shape[1]))
    top = found[0][0]
    blocks = tuple(
        (scale / top, DenseTensor(tensor)) for scale, tensor, _ in found
    )
    fixed = tuple(DenseTensor(np.diag(lam)) for _, _, lam in found)
    return CanonicalBlocks(blocks=blocks, fixed_points=fixed)


# ---------------------------------------------------------------------------
# channel helpers


def _as_site_tensor(a) -> np.ndarray:
    arr = as_array(a)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise DimensionMismatchError(
            f"site tensor must be shaped (d, m, m), got {arr.shape}"
        )
    return arr


def _orthonormal_rows(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis (as rows) of the row space of mat."""
    if mat.size == 0:
        return mat.reshape(0, mat.shape[1])
    _, s, vh = np.linalg.svd(mat, full_matrices=False)
    return vh[: _rank_from_singulars(s, BLOCK_TOL)]


def _channel_matrix(kraus: np.ndarray) -> np.ndarray:
    """Matrix of X -> sum_s A^s X A^s+ acting on row-major vec(X)."""
    return transfer_array(kraus).conj()


def _hermitian_fixed_basis(kmat: np.ndarray, m: int) -> list[np.ndarray]:
    """Orthonormal Hermitian basis of the fixed-point space of the channel."""
    _, s, vh = np.linalg.svd(kmat - np.eye(m * m))
    cols = vh[np.count_nonzero(s > BLOCK_TOL):].conj().T
    basis: list[np.ndarray] = []
    for k in range(cols.shape[1]):
        x = cols[:, k].reshape(m, m)
        for cand in ((x + x.conj().T) / 2.0, (x - x.conj().T) / 2.0j):
            h = cand
            for g in basis:
                h = h - np.real(np.trace(g.conj().T @ h)) * g
            nrm = np.linalg.norm(h)
            if nrm > BASIS_TOL:
                basis.append(h / nrm)
    return basis


def _positive_fixed_point(kmat: np.ndarray, m: int, basis: list[np.ndarray]) -> np.ndarray:
    """A positive-semidefinite fixed point with maximal support."""
    if not basis:
        raise DegeneracyError(
            "no fixed point found within tolerance; spectrum too ambiguous"
        )
    if len(basis) == 1:
        h = basis[0]
        w = np.linalg.eigvalsh(h)
        if abs(w[0]) > abs(w[-1]):
            h = -h
            w = -w[::-1]
        if w[0] < -BLOCK_TOL * max(w[-1], 0.0):
            raise DegeneracyError(
                "unique fixed point is indefinite; cannot orient a positive one"
            )
        return h
    x = _cluster_projector_on_identity(kmat, m)
    if x is not None:
        return x
    # fall back: some basis element may already be (semi)definite
    best: np.ndarray | None = None
    best_rank = -1
    for h in basis:
        w = np.linalg.eigvalsh(h)
        for cand, wc in ((h, w), (-h, -w[::-1])):
            if wc[0] >= -BLOCK_TOL * max(wc[-1], 0.0):
                rank = int(np.count_nonzero(wc > BLOCK_TOL * wc[-1]))
                if rank > best_rank:
                    best, best_rank = cand, rank
    if best is None:
        raise DegeneracyError(
            "degenerate fixed space contains no recognizably positive element"
        )
    return best


def _cluster_projector_on_identity(kmat: np.ndarray, m: int) -> np.ndarray | None:
    """Spectral projector of the unit-eigenvalue cluster applied to identity.

    Returns None when the projected matrix fails to be a genuine positive
    fixed point (non-semisimple unit eigenvalue); callers then fall back.
    """
    n = m * m
    try:
        t, z, sdim = scipy.linalg.schur(
            kmat, output="complex", sort=lambda lam: bool(abs(lam - 1.0) < CLUSTER_TOL)
        )
    except scipy.linalg.LinAlgError:
        return None
    if sdim == 0:
        return None
    if sdim == n:
        proj = np.eye(n)
    else:
        t11 = t[:sdim, :sdim]
        t12 = t[:sdim, sdim:]
        t22 = t[sdim:, sdim:]
        try:
            r = scipy.linalg.solve_sylvester(t11, -t22, t12)
        except (scipy.linalg.LinAlgError, ValueError):
            return None
        top = np.hstack([np.eye(sdim), r])
        proj = z[:, :sdim] @ top @ z.conj().T
    x = (proj @ np.eye(m).reshape(-1)).reshape(m, m)
    x = (x + x.conj().T) / 2.0
    nrm = np.linalg.norm(x)
    if nrm < PROJECTION_TOL:
        return None
    x = x / nrm
    # verify it is really fixed and really positive
    resid = np.linalg.norm((kmat @ x.reshape(-1)).reshape(m, m) - x)
    if resid > CLUSTER_TOL:
        return None
    w = np.linalg.eigvalsh(x)
    if w[0] < -CLUSTER_TOL * w[-1]:
        return None
    return x


def _support_split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Split eigenbasis of a PSD matrix into (support, kernel) column blocks."""
    w, u = np.linalg.eigh(x)
    if w[-1] <= 0.0:
        return None
    keep = w > BLOCK_TOL * w[-1]
    rank = int(np.count_nonzero(keep))
    if rank == 0 or rank == x.shape[0]:
        return None
    order = np.argsort(~keep, kind="stable")  # support columns first
    u = u[:, order]
    return u[:, :rank], u[:, rank:]


def _decompose(kraus: np.ndarray, scale: float, found: list) -> None:
    d, m, _ = kraus.shape
    kmat = _channel_matrix(kraus)
    rho = float(np.abs(np.linalg.eigvals(kmat)).max()) if m > 0 else 0.0
    if rho <= NILPOTENT_TOL:
        # nilpotent piece: contributes nothing to any trace for large N
        return
    sq = math.sqrt(rho)
    kraus = kraus / sq
    kmat = kmat / rho
    scale = scale * sq

    x = _positive_fixed_point(kmat, m, _hermitian_fixed_basis(kmat, m))
    split = _support_split(x)
    if split is not None:
        usup, uker = split
        _recurse_triangular(kraus, usup, uker, scale, found, lower_left_zero=True)
        return

    # full support: gauge the channel to a unital one
    w, u = np.linalg.eigh(x)
    whalf = u @ np.diag(np.sqrt(w)) @ u.conj().T
    whalfinv = u @ np.diag(1.0 / np.sqrt(w)) @ u.conj().T
    unital = np.einsum("ab,sbc,cd->sad", whalfinv, kraus, whalf)

    adj = np.conj(np.transpose(unital, (0, 2, 1)))
    kmat_adj = _channel_matrix(adj)
    lam = _positive_fixed_point(kmat_adj, m, _hermitian_fixed_basis(kmat_adj, m))
    lsplit = _support_split(lam)
    if lsplit is not None:
        usup, uker = lsplit
        _recurse_triangular(unital, usup, uker, scale, found, lower_left_zero=False)
        return

    kmat_unital = _channel_matrix(unital)
    basis_unital = _hermitian_fixed_basis(kmat_unital, m)
    if len(basis_unital) > 1:
        for sub in _commutant_split(unital, basis_unital):
            _decompose(sub, scale, found)
        return

    # irreducible block: rotate the adjoint fixed point to descending diagonal
    lam = lam / np.trace(lam).real
    w, q = np.linalg.eigh(lam)
    order = np.argsort(-w)
    q = q[:, order]
    final = np.einsum("ab,sbc,cd->sad", q.conj().T, unital, q)
    found.append((scale, final, w[order].real))


def _recurse_triangular(
    kraus: np.ndarray,
    usup: np.ndarray,
    uker: np.ndarray,
    scale: float,
    found: list,
    lower_left_zero: bool,
) -> None:
    """Recurse on the two diagonal blocks of a block-triangular Kraus family.

    With `lower_left_zero` the invariant subspace is the support (kernel rows
    below it vanish); otherwise the kernel side is invariant and the
    upper-right block vanishes.  Either way the off-diagonal block does not
    contribute to any cyclic trace and is dropped.
    """
    u = np.hstack([usup, uker])
    rot = np.einsum("ab,sbc,cd->sad", u.conj().T, kraus, u)
    r = usup.shape[1]
    off = rot[:, r:, :r] if lower_left_zero else rot[:, :r, r:]
    size = max(np.abs(rot).max(), 1.0)
    if np.abs(off).max() > INVARIANT_TOL * size:
        raise DegeneracyError(
            "fixed-point support is not an invariant subspace within tolerance"
        )
    _decompose(rot[:, :r, :r], scale, found)
    _decompose(rot[:, r:, r:], scale, found)


def _commutant_split(kraus: np.ndarray, basis: list[np.ndarray]) -> list[np.ndarray]:
    """Split a unital channel with degenerate fixed space along a second
    Hermitian fixed point, which must commute with every Kraus operator."""
    m = kraus.shape[1]
    traceless = [g - np.trace(g) / m * np.eye(m) for g in basis]
    norms = [np.linalg.norm(y) for y in traceless]
    k = int(np.argmax(norms))
    if norms[k] < TRACELESS_TOL:
        raise DegeneracyError(
            "degenerate fixed space but no independent fixed point to split on"
        )
    w, u = np.linalg.eigh(traceless[k] / norms[k])
    # eigenvalue clusters end at gaps above CLUSTER_TOL * spread; none is ambiguous
    cuts = np.flatnonzero(np.diff(w) > CLUSTER_TOL * (w[-1] - w[0])) + 1
    if not cuts.size:
        raise DegeneracyError(
            "eigenvalue clusters of the splitting fixed point are unresolved"
        )
    rot = np.einsum("ab,sbc,cd->sad", u.conj().T, kraus, u)
    bounds = list(zip([0, *cuts], [*cuts, m]))
    size = max(np.abs(rot).max(), 1.0)
    for gi, (a0, a1) in enumerate(bounds):
        for gj, (b0, b1) in enumerate(bounds):
            if gi != gj and np.abs(rot[:, a0:a1, b0:b1]).max() > INVARIANT_TOL * size:
                raise DegeneracyError(
                    "splitting fixed point does not commute with the tensor "
                    "within tolerance"
                )
    return [rot[:, a0:a1, a0:a1] for a0, a1 in bounds]
