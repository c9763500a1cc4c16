"""Independent references for the benchmark's output checks.

Everything here is plain numpy written from the definitions, not from the
library's code paths, so a check compares the program against a separate
computation rather than against a stored copy of an earlier output.
"""
from __future__ import annotations

import csv
import json
import math

import numpy as np

RANK_TOL = 1e-10


def rank_of(s: np.ndarray, tol: float = RANK_TOL) -> int:
    """Count of singular values above tol times the largest."""
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def cut_singulars(vec: np.ndarray, dims, cut: int) -> np.ndarray:
    """Singular values of the state reshaped across [1..cut] | [cut+1..N]."""
    left = math.prod(dims[:cut])
    return np.linalg.svd(np.reshape(vec, (left, -1)), compute_uv=False)


def bipartition_rank(vec: np.ndarray, dims, part) -> int:
    """Schmidt rank of the state across the vertex set `part` (1-based)."""
    arr = np.reshape(vec, tuple(dims))
    inside = sorted(v - 1 for v in part)
    outside = [k for k in range(len(dims)) if k not in inside]
    rows = math.prod(dims[k] for k in inside)
    mat = arr.transpose(inside + outside).reshape(rows, -1)
    return rank_of(np.linalg.svd(mat, compute_uv=False))


def chain_state(tensors) -> np.ndarray:
    """Dense vector of an open chain; tensors are (physical, left, right)."""
    acc = np.ones((1, 1), dtype=np.complex128)  # (physical so far, bond)
    for t in tensors:
        d, ml, mr = t.shape
        acc = (acc @ t.transpose(1, 0, 2).reshape(ml, d * mr)).reshape(-1, mr)
    return acc[:, 0]


def ring_state(tensors) -> np.ndarray:
    """Dense vector of a ring; the amplitude is the trace of the product."""
    m = tensors[0].shape[1]
    acc = np.eye(m, dtype=np.complex128)  # rows (physical so far, a), column b
    for t in tensors:
        d, ml, mr = t.shape
        acc = (acc @ t.transpose(1, 0, 2).reshape(ml, d * mr)).reshape(-1, m, d, mr)
        acc = acc.transpose(0, 2, 1, 3).reshape(-1, mr)
    return np.einsum("paa->p", acc.reshape(-1, m, m))


def transfer_norm2(tensors) -> float:
    """Squared Frobenius norm of the product of the site transfer matrices
    E = sum_s conj(A^s) (x) A^s."""
    prod = None
    for t in tensors:
        ml, mr = t.shape[1], t.shape[2]
        e = np.einsum("sac,sbd->abcd", t.conj(), t).reshape(ml * ml, mr * mr)
        prod = e if prod is None else prod @ e
    return float(np.linalg.norm(prod) ** 2)


def graph_state(n: int, edges, tensors) -> np.ndarray:
    """Dense vector of a graph network by one einsum.

    Each vertex tensor has its physical axis first, then one axis per
    incident edge ordered by (neighbour id, edge index); `edges` lists
    (i, j, m) with 1-based vertices.
    """
    letters = iter("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
    phys = [next(letters) for _ in range(n)]
    bond = [next(letters) for _ in edges]
    operands = []
    for v in range(1, n + 1):
        incident = sorted(
            (j if i == v else i, k) for k, (i, j, _) in enumerate(edges) if v in (i, j)
        )
        operands.append(phys[v - 1] + "".join(bond[k] for _, k in incident))
    spec = ",".join(operands) + "->" + "".join(phys)
    return np.einsum(spec, *tensors, optimize="greedy").ravel()


def spin1() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin-1 matrices in the descending S_z basis (+1, 0, -1)."""
    r = 1.0 / math.sqrt(2.0)
    sx = np.array([[0, r, 0], [r, 0, r], [0, r, 0]], dtype=np.complex128)
    sy = np.array([[0, -1j * r, 0], [1j * r, 0, -1j * r], [0, 1j * r, 0]])
    sz = np.diag([1.0, 0.0, -1.0]).astype(np.complex128)
    return sx, sy, sz


def blbq_bond(theta: float) -> np.ndarray:
    """Two-site term cos(theta) S.S + sin(theta) (S.S)^2 as a (3,3,3,3) operator."""
    ss = sum(np.kron(a, a) for a in spin1())
    h = math.cos(theta) * ss + math.sin(theta) * (ss @ ss)
    return h.reshape(3, 3, 3, 3)


def blbq_apply(vec: np.ndarray, n: int, bond: np.ndarray) -> np.ndarray:
    """H|v> for the periodic chain, one two-site term at a time."""
    psi = np.reshape(vec, (3,) * n)
    out = np.zeros_like(psi)
    for i in range(n):
        j = (i + 1) % n
        moved = np.tensordot(bond, psi, axes=([2, 3], [i, j]))
        out += np.moveaxis(moved, (0, 1), (i, j))
    return out.ravel()


def aklt_ring_energy(n: int, theta: float) -> float:
    """Exact ground energy of the periodic chain at tan(theta) = 1/3: every
    bond term equals cos(theta) (2 P_2 - 2/3) and the valence-bond state is
    annihilated by every spin-2 projector P_2."""
    return -(2.0 / 3.0) * n * math.cos(theta)


def json_dense(path) -> np.ndarray:
    """Dense state read straight from the JSON file, without the library."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    tensor = obj["tensor"]
    data = np.array(tensor["data"], dtype=np.float64)
    return (data[:, 0] + 1j * data[:, 1]).reshape(tensor["shape"])


def read_csv(path) -> list[dict]:
    """Rows of a report: one '#' comment line, a header, then data."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError(f"{path}: missing timestamp comment")
    return list(csv.DictReader(lines[1:]))
