"""Dense complex tensors and the linear-algebra kernels used everywhere else.

Everything downstream (MPS conversions, canonical forms, rank certification)
reduces to four primitives on matrices: contraction, reduced RQ, SVD with a
relative rank cutoff, and nullspace extraction.  They live here so the rank
tolerance convention is defined in exactly one place.
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import CapacityError, DimensionMismatchError

# Singular values below DEFAULT_TOL * s_max count as zero.
DEFAULT_TOL = 1e-10

# Hard cap on dense intermediates (entries, not bytes); the environment
# variable TNS_CAPACITY_CAP overrides it.
DEFAULT_CAPACITY_CAP = 2**24

# Default cap for materializing a full state vector.
DEFAULT_EVAL_CAP = 2**20


def capacity_cap() -> int:
    raw = os.environ.get("TNS_CAPACITY_CAP")
    return int(raw) if raw else DEFAULT_CAPACITY_CAP


def check_capacity(size: int, cap: int | None = None, what: str = "tensor") -> None:
    """Raise CapacityError if a dense object of `size` entries is too big."""
    if cap is None:
        cap = capacity_cap()
    if size > cap:
        raise CapacityError(f"{what} with {size} entries exceeds cap of {cap}")


class DenseTensor:
    """Immutable dense tensor, complex128 entries in row-major order."""

    __slots__ = ("array",)

    def __init__(self, data, shape=None):
        arr = np.array(data, dtype=np.complex128, order="C")
        if shape is not None:
            arr = arr.reshape(tuple(shape))
        if arr.size and not np.isfinite(arr).all():
            raise ValueError("tensor entries must be finite")
        arr.setflags(write=False)
        self.array = arr

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def ndim(self) -> int:
        return self.array.ndim

    @property
    def size(self) -> int:
        return self.array.size

    def reshape(self, *shape) -> "DenseTensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return DenseTensor(self.array.reshape(shape))

    def conj(self) -> "DenseTensor":
        return DenseTensor(self.array.conj())

    def __array__(self, dtype=None, copy=None):
        if dtype is None:
            return self.array
        return self.array.astype(dtype)

    def __getitem__(self, key):
        return self.array[key]

    def __repr__(self) -> str:
        return f"DenseTensor(shape={self.shape})"


def as_array(t) -> np.ndarray:
    """Accept a DenseTensor or any array-like; return a complex ndarray."""
    if isinstance(t, DenseTensor):
        return t.array
    return np.asarray(t, dtype=np.complex128)


def _as_matrix(t) -> np.ndarray:
    arr = as_array(t)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class SvdResult:
    """Economy SVD with a rank count under the relative tolerance."""

    u: DenseTensor
    s: np.ndarray
    vdag: DenseTensor
    rank: int


def contract(a, b, axis_pairs) -> DenseTensor:
    """Contract tensors `a` and `b` over the given (axis_of_a, axis_of_b) pairs.

    Result axes are the unpaired axes of `a` followed by those of `b`.
    """
    aa = as_array(a)
    bb = as_array(b)
    pairs = [(int(i), int(j)) for i, j in axis_pairs]
    lab_b = list(range(aa.ndim, aa.ndim + bb.ndim))
    for i, j in pairs:
        if not (0 <= i < aa.ndim and 0 <= j < bb.ndim):
            raise DimensionMismatchError(
                f"axis pair ({i},{j}) out of range for shapes {aa.shape}, {bb.shape}"
            )
        lab_b[j] = i
    open_labels = [k for k in range(aa.ndim) if k not in dict(pairs)]
    open_labels += [lb for lb in lab_b if lb >= aa.ndim]
    out = contract_network([aa, bb], [range(aa.ndim), lab_b], open_labels, None)
    return DenseTensor(out)


def contract_network(
    arrays, labels, open_labels, cap: int | None = DEFAULT_EVAL_CAP
) -> np.ndarray:
    """Contract a tensor network into one array with axes ordered as `open_labels`.

    `labels[k]` names the axes of `arrays[k]`.  A label in `open_labels`
    appears once in the network; every other label appears twice and is
    summed over.  The final array is checked against `cap` (None: the
    capacity cap) and every intermediate against the capacity cap, before
    anything is allocated.
    """
    labels = tuple(map(tuple, labels))
    shapes = tuple(a.shape for a in arrays)
    steps, perm, size, peak = _plan(labels, shapes, tuple(open_labels))
    check_capacity(size, cap=cap, what="contraction result")
    check_capacity(peak, what="contraction intermediate")
    nodes = list(arrays)
    for ia, ib, ax_a, ax_b in steps:
        b = nodes.pop(ib)
        a = nodes.pop(ia)
        nodes.append(np.tensordot(a, b, axes=(ax_a, ax_b)))
    return nodes[0].transpose(perm)


# Contraction plans kept, keyed on labels and shapes; one per network
# structure in use, so a sweep over a chain needs one per site and one more.
PLAN_MEMO_SIZE = 256


@functools.lru_cache(maxsize=PLAN_MEMO_SIZE)
def _plan(labels: tuple, shapes: tuple, open_labels: tuple):
    """Greedy pairwise order: merge the pair whose result is smallest; take an
    outer product only when no two nodes share a label.  Ties go to the
    earliest pair.  Returns (steps, final permutation, size, peak size)."""
    ext: dict = {}
    seen: dict = {}
    for labs, shape in zip(labels, shapes):
        if len(labs) != len(shape):
            raise DimensionMismatchError(f"{len(labs)} labels for shape {shape}")
        if len(set(labs)) != len(labs):
            raise ValueError(f"labels {labs} repeat on one tensor")
        for lb, e in zip(labs, shape):
            if ext.setdefault(lb, e) != e:
                raise DimensionMismatchError(
                    f"label {lb!r} has extents {ext[lb]} and {e}"
                )
            seen[lb] = seen.get(lb, 0) + 1
    for lb, k in seen.items():
        if k != (1 if lb in open_labels else 2):
            raise ValueError(f"label {lb!r} appears {k} times")
    if set(open_labels) - set(seen) or len(set(open_labels)) != len(open_labels):
        raise ValueError("open labels must name distinct legs of the network")
    nodes = [list(labs) for labs in labels]
    steps = []
    peak = 0
    while len(nodes) > 1:
        best = None
        for ia in range(len(nodes)):
            for ib in range(ia + 1, len(nodes)):
                shared = [lb for lb in nodes[ia] if lb in nodes[ib]]
                merged = [lb for lb in nodes[ia] + nodes[ib] if lb not in shared]
                key = (not shared, math.prod(ext[lb] for lb in merged), ia, ib)
                if best is None or key < best[0]:
                    best = (key, shared, merged)
        (_, size, ia, ib), shared, merged = best
        lab_b = nodes.pop(ib)
        lab_a = nodes.pop(ia)
        ax_a = tuple(lab_a.index(lb) for lb in shared)
        ax_b = tuple(lab_b.index(lb) for lb in shared)
        steps.append((ia, ib, ax_a, ax_b))
        nodes.append(merged)
        peak = max(peak, size)
    perm = tuple(nodes[0].index(lb) for lb in open_labels)
    return tuple(steps), perm, math.prod(ext[lb] for lb in open_labels), peak


def site_environment(arrays, labels, open_labels, vertex: int) -> np.ndarray:
    """Matrix M with M @ vec(arrays[vertex]) = vec(contract_network(...)).

    The other vertices are contracted with the vertex's bonds left open, and
    that environment is written into M on the diagonal of each of the
    vertex's open legs, where M pairs the leg's row with its column.  Rows
    follow `open_labels`, columns the vertex's axes.
    """
    labs = tuple(labels[vertex])
    open_labels = tuple(open_labels)
    outer = [lb for lb in open_labels if lb not in labs]
    bonds = [lb for lb in labs if lb not in open_labels]
    rest = [k for k in range(len(arrays)) if k != vertex]
    if rest:
        env = contract_network(
            [arrays[k] for k in rest], [labels[k] for k in rest], outer + bonds, cap=None
        )
    else:  # a lone vertex has no bonds, and M is the identity
        env = np.ones(())
    ext = dict(zip(labs, arrays[vertex].shape))
    ext.update(zip(outer, env.shape))
    rows = math.prod(ext[lb] for lb in open_labels)
    check_capacity(rows * arrays[vertex].size, what="site matrix")
    mat = np.zeros([ext[lb] for lb in open_labels + labs], dtype=env.dtype)
    # einsum returns the diagonal over repeated axis ids as a writable view
    axis = {lb: i for i, lb in enumerate(open_labels + tuple(bonds))}
    diag = np.einsum(mat, [axis[lb] for lb in open_labels + labs], list(range(len(axis))))
    own = tuple(i for i, lb in enumerate(open_labels) if lb in labs)
    diag[...] = np.expand_dims(env, own)
    return mat.reshape(rows, -1)


def svd(m, tol: float = DEFAULT_TOL) -> SvdResult:
    """Economy SVD of a matrix; rank counts singular values > tol * s_max."""
    mat = _as_matrix(m)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    rank = _rank_from_singulars(s, tol)
    return SvdResult(u=DenseTensor(u), s=s, vdag=DenseTensor(vh), rank=rank)


def _rank_from_singulars(s: np.ndarray, tol: float) -> int:
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def matrix_rank(m, tol: float = DEFAULT_TOL) -> int:
    mat = _as_matrix(m)
    s = np.linalg.svd(mat, compute_uv=False)
    return _rank_from_singulars(s, tol)


def nullspace(m, tol: float = DEFAULT_TOL) -> DenseTensor:
    """Orthonormal columns spanning the (right) kernel of a k-by-n matrix."""
    mat = _as_matrix(m)
    _, n = mat.shape
    u, s, vh = np.linalg.svd(mat, full_matrices=True)
    rank = _rank_from_singulars(s, tol)
    return DenseTensor(vh[rank:].conj().T.reshape(n, n - rank))


def reduced_rq(m, tol: float = DEFAULT_TOL) -> tuple[DenseTensor, DenseTensor]:
    """Reduced RQ split of a k-by-n matrix: m = r @ q with q q† = identity.

    `q` keeps only rank(m) rows, so `r` has shape (k, rank).  Implemented as a
    pivoted reduced QR of the conjugate transpose; the pivoted diagonal of the
    triangular factor supplies the rank decision.
    """
    mat = _as_matrix(m)
    k, n = mat.shape
    qt, rt, piv = scipy.linalg.qr(mat.conj().T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(rt))
    if diag.size == 0 or diag[0] <= 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(diag > tol * diag[0]))
    # mat†[:, piv] = qt @ rt, so mat[piv, :] = rt† qt†; undo the row pivot.
    inv = np.argsort(piv)
    r = rt[:rank, :].conj().T[inv, :]
    q = qt[:, :rank].conj().T
    return DenseTensor(r.reshape(k, rank)), DenseTensor(q.reshape(rank, n))


def reduced_qr(m, tol: float = DEFAULT_TOL) -> tuple[DenseTensor, DenseTensor]:
    """Companion split m = q @ r with q†q = identity, q of shape (k, rank)."""
    r_t, q_t = reduced_rq(as_array(m).conj().T, tol=tol)
    return DenseTensor(q_t.array.conj().T), DenseTensor(r_t.array.conj().T)
