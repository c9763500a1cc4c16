"""Dense complex tensors and the linear-algebra kernels used everywhere else.

Everything downstream (MPS conversions, canonical forms, rank certification)
reduces to three primitives on matrices: contraction, reduced RQ, and SVD
with a relative rank cutoff.

The tolerance block below is the one place where the library's tolerances
are defined: rank cuts, canonical-block tolerances, input checks and
optimizer stopping rules, each with its reason, beside the two dense
capacity caps.  Other modules import these names and write no tolerance as a
number; only problem-size limits (`geometry.MAX_*_PARAMS`) stay beside the
code they limit.  No other module names the caps: `check_state` is the rule.

`split_leg` cuts one leg of a tensor to the rank of the unfolding (that leg)
x (all other legs), by a reduced RQ.  The decomposition sweeps of `ttns`,
which open chains run on a path, are sequences of such leg splits, so their
bond ranks are all decided here: by the pivoted QR of `reduced_rq`, on the
unfolding or, when it is tall, on its small triangle; on a real one in float64.

`contract_network` contracts pairwise in a memoized plan.  Each step of a
plan stores what `np.tensordot` would derive from the shapes on every call:
the transposes of both operands, their 2-D shapes and the output shape.  A
step then runs tensordot's own arithmetic, one `np.dot` of the two reshaped
operands, so results are bitwise those of tensordot without its per-call
bookkeeping.
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import CapacityError, DimensionMismatchError, NormalizationError

# ---------------------------------------------------------------------------
# Tolerances and caps: every tolerance of the library is named here, once,
# with its reason.  Rounding in double precision is about 1e-16 of the
# largest value involved; a relative cut compares with that largest value.
DEFAULT_TOL = 1e-10  # rank cut on singular values, relative: six decades above rounding
WORKING_TOL = 1e-14  # compressing sweeps drop singular values this small; spectra move 1e-14
GRAM_TOL = 1e-12  # E^dag E eigenvalue cut, relative: forming it rounds at 1e-16 of the largest
BLOCK_TOL = 1e-8  # canonical blocks: a defective channel eigenvalue is accurate to sqrt(1e-16)
CLUSTER_TOL = 100 * BLOCK_TOL  # unit-eigenvalue cluster: slack for the Schur and Sylvester steps
INVARIANT_TOL = 1e4 * BLOCK_TOL  # off-block entries, relative: eigenvectors blur over small gaps
BASIS_TOL = 1e-6  # a smaller Hermitian part is noise of a null vector cut at BLOCK_TOL
TRACELESS_TOL = 1e-7  # a unit fixed point this near a multiple of 1 splits nothing: BLOCK_TOL noise
PROJECTION_TOL = 1e-10  # the cluster's projection of 1 (norm sqrt(m)) is zero below: a rank cut
NILPOTENT_TOL = 1e-14  # a channel of no larger spectral radius adds nothing to long rings
NOISE_TOL = 1e-12  # norms and differences of unit vectors at most this are rounding noise
STATE_NORM_TOL = 1e-8  # catches a state never normalized, passes any normalized one
OBJECTIVE_INPUT_TOL = 1e-10  # a target's norm and a Hamiltonian's Hermiticity are meant exact
SWEEP_TOL = 1e-10  # f_reg change of a converged sweep, and the largest rise a run tolerates
# `optimize._screen` skips a trial only past this times the summed terms' sizes: both sides round
# at 1e-16 of those sizes, leaving seven decades for cancellation.
SCREEN_TOL = 1e-9
DEFAULT_DIVERGENCE = 1e6  # an entry six decades above a normalized start's unit scale
GAUGE_COND_MAX = 1e8  # inverting a gauge matrix this ill-conditioned loses half the digits
DECADE_TOL = 1e-9  # log10 of a float power of ten is an integer to about 1e-15
DEFAULT_CAPACITY_CAP = 2**24  # any dense object, 256 MiB; TNS_CAPACITY_CAP overrides it
DEFAULT_EVAL_CAP = 2**20  # a full state, 16 MiB, or the capacity cap where that is lower
# `reduced_rq` splits k x n through the n x n triangle when k >= TALL_RATIO * n.  One BLAS thread:
# as fast or faster from k/n = 8 up ((8192, 8) 4.3 -> 1.6 ms), 15-40% slower at k/n = 2.
TALL_RATIO = 16


def capacity_cap() -> int:
    """TNS_CAPACITY_CAP, read on every call, or DEFAULT_CAPACITY_CAP when it is
    unset or empty; ValueError unless it is an integer of at least 1."""
    raw = os.environ.get("TNS_CAPACITY_CAP")
    if not raw:
        return DEFAULT_CAPACITY_CAP
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"TNS_CAPACITY_CAP must be an integer of at least 1, got {raw!r}")
    return int(raw)


def check_state(size: int, what: str = "state") -> int:
    """Check a full state against min(DEFAULT_EVAL_CAP, capacity cap); return the capacity cap."""
    cap = capacity_cap()
    check_capacity(size, min(DEFAULT_EVAL_CAP, cap), what)
    return cap


def check_capacity(size: int, cap: int | None = None, what: str = "tensor") -> None:
    """Raise CapacityError if a dense object of `size` entries is too big."""
    if cap is None:
        cap = capacity_cap()
    if size > cap:
        raise CapacityError(f"{what} with {size} entries exceeds cap of {cap}")


def check_normalized(arr: np.ndarray) -> None:
    """Raise NormalizationError unless a state has norm 1 within STATE_NORM_TOL."""
    nrm = float(np.linalg.norm(arr))
    if abs(nrm - 1.0) > STATE_NORM_TOL:
        raise NormalizationError(f"state norm {nrm!r} differs from 1 by more than 1e-8")


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
    summed over.  The result is checked against min(cap, capacity cap), by
    default the state rule of `check_state` (None: the capacity cap), and
    every intermediate against the capacity cap, before anything is allocated.
    """
    labels = tuple(map(tuple, labels))
    shapes = tuple(a.shape for a in arrays)
    steps, perm, size, peak = _plan(labels, shapes, tuple(open_labels))
    limit = capacity_cap()
    check_capacity(size, limit if cap is None else min(cap, limit), "contraction result")
    check_capacity(peak, limit, "contraction intermediate")
    nodes = [np.asarray(a) for a in arrays]
    for ia, ib, pa, sa, pb, sb, out in steps:
        b = nodes.pop(ib)
        a = nodes.pop(ia)
        nodes.append(np.dot(a.transpose(pa).reshape(sa), b.transpose(pb).reshape(sb)).reshape(out))
    return nodes[0].transpose(perm)


# Contraction plans kept, keyed on labels and shapes; one per network
# structure in use, so a sweep over a chain needs one per site and one more.
PLAN_MEMO_SIZE = 256


@functools.lru_cache(maxsize=PLAN_MEMO_SIZE)
def _plan(labels: tuple, shapes: tuple, open_labels: tuple):
    """Greedy pairwise order: merge the pair whose result is smallest; take an
    outer product only when no two nodes share a label.  Ties go to the
    earliest pair.  Returns (steps, final permutation, size, peak size); a
    step (ia, ib, pa, sa, pb, sb, out) is np.tensordot(nodes[ia], nodes[ib])
    with the transposes, 2-D shapes and output shape it would derive."""
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
        # tensordot's layout: a's free legs then the shared ones, b's shared
        # legs (in a's order) then its free ones
        free_a = [lb for lb in lab_a if lb not in shared]
        free_b = [lb for lb in lab_b if lb not in shared]
        inner = math.prod(ext[lb] for lb in shared)
        pa = tuple(lab_a.index(lb) for lb in free_a + shared)
        pb = tuple(lab_b.index(lb) for lb in shared + free_b)
        sa = (math.prod(ext[lb] for lb in free_a), inner)
        sb = (inner, math.prod(ext[lb] for lb in free_b))
        steps.append((ia, ib, pa, sa, pb, sb, tuple(ext[lb] for lb in merged)))
        nodes.append(merged)
        peak = max(peak, size)
    perm = tuple(nodes[0].index(lb) for lb in open_labels)
    return tuple(steps), perm, math.prod(ext[lb] for lb in open_labels), peak


def site_environment(arrays, labels, open_labels, vertex: int):
    """The network without one vertex, contracted with that vertex's bonds
    left open: (E, (outer, bonds)), E's axes being the open legs not on the
    vertex, in `open_labels` order, then its bonds, in its axis order."""
    labs, open_labels = tuple(labels[vertex]), tuple(open_labels)
    outer = tuple(lb for lb in open_labels if lb not in labs)
    bonds = tuple(lb for lb in labs if lb not in open_labels)
    rest = [k for k in range(len(arrays)) if k != vertex]
    if not rest:  # a lone vertex has no bonds
        return np.ones(()), (outer, bonds)
    env = contract_network(
        [arrays[k] for k in rest], [labels[k] for k in rest], outer + bonds, cap=None
    )
    return env, (outer, bonds)


def site_matrix(arrays, labels, open_labels, vertex: int) -> np.ndarray:
    """M with M @ vec(arrays[vertex]) = vec(contract_network(...)): the site
    environment on the diagonal of each of the vertex's open legs.  Rows
    follow `open_labels`, columns the vertex's axes."""
    env, (outer, bonds) = site_environment(arrays, labels, open_labels, vertex)
    labs, open_labels = tuple(labels[vertex]), tuple(open_labels)
    ext = dict(zip(labs, arrays[vertex].shape))
    ext.update(zip(outer, env.shape))
    rows = math.prod(ext[lb] for lb in open_labels)
    check_capacity(rows * arrays[vertex].size, what="site matrix")
    mat = np.zeros([ext[lb] for lb in open_labels + labs], dtype=env.dtype)
    # einsum returns the diagonal over repeated axis ids as a writable view
    axis = {lb: i for i, lb in enumerate(open_labels + bonds)}
    diag = np.einsum(mat, [axis[lb] for lb in open_labels + labs], list(range(len(axis))))
    own = tuple(i for i, lb in enumerate(open_labels) if lb in labs)
    diag[...] = np.expand_dims(env, own)
    return mat.reshape(rows, -1)


def svd(m) -> SvdResult:
    """Economy SVD of a matrix; rank counts singular values > DEFAULT_TOL * s_max."""
    mat = _as_matrix(m)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    rank = _rank_from_singulars(s, DEFAULT_TOL)
    return SvdResult(u=DenseTensor(u), s=s, vdag=DenseTensor(vh), rank=rank)


def _rank_from_singulars(s: np.ndarray, tol: float) -> int:
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def matrix_rank(m, tol: float = DEFAULT_TOL) -> int:
    mat = _as_matrix(m)
    s = np.linalg.svd(mat, compute_uv=False)
    return _rank_from_singulars(s, tol)


def reduced_rq(m) -> tuple[DenseTensor, DenseTensor]:
    """Reduced RQ split of a k-by-n matrix: m = r @ q with q q† = identity.

    `q` keeps only rank(m) rows, so `r` has shape (k, rank).  The rank counts
    the diagonal entries above DEFAULT_TOL times the largest of a pivoted
    reduced QR of m†, or, when k >= TALL_RATIO * n, of R₁† for the n x n
    triangle of m = Q₁R₁ (m's singular values), with r = m q† = Q₁r₁.  A real
    m is factored in float64; non-finite entries raise ValueError.
    """
    mat = _as_matrix(m)
    if not np.isfinite(mat).all():
        raise ValueError("matrix entries must be finite")
    if not mat.imag.any():
        mat = mat.real.copy()  # contiguous, so `mat @ q` below runs in BLAS
    k, n = mat.shape
    tall = n and k >= TALL_RATIO * n
    side = np.linalg.qr(mat, mode="r") if tall else mat
    # np.conjugate always copies, so geqp3 may overwrite its argument
    qt, rt, piv = scipy.linalg.qr(
        np.conjugate(side).T, mode="economic", pivoting=True, overwrite_a=True, check_finite=False
    )
    rank = _rank_from_singulars(np.abs(np.diag(rt)), DEFAULT_TOL)
    q = qt[:, :rank]
    if tall:
        r = mat @ q
    else:
        # mat†[:, piv] = qt @ rt, so mat[piv, :] = rt† qt†; undo the row pivot.
        r = np.empty((k, rank), dtype=rt.dtype)
        r[piv] = rt[:rank].conj().T
    return DenseTensor(r), DenseTensor(q.conj().T)


def reduced_qr(m) -> tuple[DenseTensor, DenseTensor]:
    """Companion split m = q @ r with q†q = identity, q of shape (k, rank)."""
    r_t, q_t = reduced_rq(as_array(m).conj().T)
    return DenseTensor(q_t.array.conj().T), DenseTensor(r_t.array.conj().T)


def split_leg(arr, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Cut leg `axis` of a tensor to the rank of the unfolding (that leg) x
    (all other legs), by a reduced RQ of that unfolding.

    `q` is `arr` with the leg cut to the rank and orthonormal along it; `r`
    has shape (old extent, rank), and `arr` is `tensordot(q, r, ([axis],
    [1]))` with the last axis moved back to `axis`.  The neighbour on that
    leg absorbs `r` by contracting its own leg with `r`'s first axis.  A
    zero leg raises NormalizationError.
    """
    a = np.moveaxis(as_array(arr), axis, 0)
    r, q = reduced_rq(a.reshape(a.shape[0], math.prod(a.shape[1:])))
    if q.shape[0] == 0:
        raise NormalizationError(f"leg {axis} of a zero tensor has rank 0")
    return np.moveaxis(q.array.reshape(q.shape[:1] + a.shape[1:]), 0, axis), r.array
