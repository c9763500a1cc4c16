"""Shared oracles for the test suite.

Everything here is deliberately independent of the library internals: dense
reshapes, brute-force contractions, and closed-form arithmetic only.
"""
from __future__ import annotations

import math

import numpy as np


def random_state(rng: np.random.Generator, dims) -> np.ndarray:
    """Normalized dense complex state of the given site dimensions."""
    shape = tuple(int(d) for d in dims)
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return arr / np.linalg.norm(arr)


def fidelity(x, y) -> float:
    xv = np.asarray(x, dtype=complex).ravel()
    yv = np.asarray(y, dtype=complex).ravel()
    return abs(np.vdot(xv, yv)) / (np.linalg.norm(xv) * np.linalg.norm(yv))


def bipartition_rank(psi, dims, part, tol: float = 1e-10) -> int:
    """Schmidt rank of a state across an arbitrary site bipartition.

    `part` lists the 0-based site positions of one side.
    """
    dims = tuple(int(d) for d in dims)
    arr = np.asarray(psi, dtype=complex).reshape(dims)
    part = sorted(part)
    rest = [k for k in range(len(dims)) if k not in part]
    mat = arr.transpose(part + rest).reshape(
        math.prod(dims[k] for k in part), -1
    )
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def region_rho(psi, dims, sites) -> np.ndarray:
    """Reduced density matrix of `sites` (0-based) from a dense state."""
    dims = tuple(int(d) for d in dims)
    arr = np.asarray(psi, dtype=complex).reshape(dims)
    sites = sorted(sites)
    rest = [k for k in range(len(dims)) if k not in sites]
    rho = np.tensordot(arr, arr.conj(), axes=(rest, rest))
    k = len(sites)
    dim = math.prod(dims[s] for s in sites)
    return rho.reshape(dim, dim) if k > 1 else rho


def mpo_dense(blocks) -> np.ndarray:
    """Contract an operator-valued matrix chain to one dense operator.

    Each block has axes (bond_left, bond_right, row, col); the result is the
    (1,1) bond element with row/col indices flattened row-major.
    """
    acc = np.asarray(blocks[0], dtype=complex)
    for blk in blocks[1:]:
        nxt = np.asarray(blk, dtype=complex)
        acc = np.einsum("lmxy,mrzw->lrxzyw", acc, nxt).reshape(
            acc.shape[0], nxt.shape[1], acc.shape[2] * nxt.shape[2], acc.shape[3] * nxt.shape[3]
        )
    assert acc.shape[0] == 1 and acc.shape[1] == 1
    return acc[0, 0]


def w_overlap_formula(n: int, eps: float) -> float:
    # (1+eps^2)^n - 1 via expm1 so small eps does not lose digits.
    return math.sqrt(n) * eps / math.sqrt(math.expm1(n * math.log1p(eps * eps)))


def w_max_entry_formula(n: int, eps: float) -> float:
    base = math.expm1(n * math.log1p(eps * eps))
    return math.sqrt(1 + eps * eps) * base ** (-1 / (2 * n))


def einsum_state(tensors, legs, n: int) -> np.ndarray:
    """Brute-force network contraction by one np.einsum call.

    `legs[k]` names the axes of tensors[k]; ("p", v) is the physical leg of
    site v (0-based) and every other name is a bond, summed over wherever it
    appears.  The result has one axis per site, in site order.
    """
    ids: dict = {}
    operands = []
    for t, names in zip(tensors, legs):
        axes = [ids.setdefault(x, len(ids)) for x in names]
        operands += [np.asarray(t, dtype=complex), axes]
    return np.einsum(*operands, [ids[("p", v)] for v in range(n)])


def chain_legs(n: int, periodic: bool) -> list:
    """Legs of (d, left, right) chain tensors; an open chain's two boundary
    bonds have dimension 1 and are left unmatched, which sums them out."""
    right = [(k + 1) % n if periodic else k + 1 for k in range(n)]
    return [[("p", k), ("b", k), ("b", right[k])] for k in range(n)]


def graph_legs(n: int, edges) -> list:
    """Legs of graph tensors on vertices 1..n: the physical leg, then one bond
    per incident edge, sorted by (neighbor id, edge id)."""
    legs = []
    for v in range(1, n + 1):
        inc = sorted(
            (i + j - v, idx) for idx, (i, j, _) in enumerate(edges) if v in (i, j)
        )
        legs.append([("p", v - 1)] + [("e", idx) for _, idx in inc])
    return legs
