"""Binary 1D MERA with periodic layout: construction from seeds, isometry
validation, exact desk-scale evaluation, and causal-cone extraction.

Layer conventions (sites 0-indexed within a layer, n = number of fine sites):
isometry block b coarse-grains the pair (2b, 2b+1); disentangler k acts on the
pair (2k+1, (2k+2) mod n), i.e. across neighboring isometry blocks with one
wrap-around pair.  Tensors are stored in the coarse-graining direction, so an
isometry has shape (m, f*f) with orthonormal rows and a disentangler is a
(f*f, f*f) unitary.  Tensor ids are ("u", layer, k), ("w", layer, b), ("top",).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .tensors import DEFAULT_TOL, DenseTensor, as_array, check_capacity, check_state

TensorId = tuple


@dataclass(frozen=True)
class MeraLayer:
    disentanglers: tuple[DenseTensor, ...]
    isometries: tuple[DenseTensor, ...]


class Mera:
    """Binary MERA on L = 2^(#layers) sites with bond dimension m."""

    __slots__ = ("L", "m", "d", "layers", "top")

    def __init__(self, L: int, m: int, d: int, layers, top):
        self.L = int(L)
        self.m = int(m)
        self.d = int(d)
        self.layers = tuple(_norm_layer(ly) for ly in layers)
        self.top = top if isinstance(top, DenseTensor) else DenseTensor(top)
        if self.L != 2 ** len(self.layers):
            raise DimensionMismatchError(
                f"L={self.L} does not match {len(self.layers)} layers"
            )
        for ell, layer in enumerate(self.layers, start=1):
            f = self.d if ell == 1 else self.m
            n_in = self.L // 2 ** (ell - 1)
            if len(layer.isometries) != n_in // 2:
                raise DimensionMismatchError(f"layer {ell} needs {n_in // 2} isometries")
            if len(layer.disentanglers) != n_in // 2:
                raise DimensionMismatchError(
                    f"layer {ell} needs {n_in // 2} disentanglers"
                )
            for u in layer.disentanglers:
                if u.shape != (f * f, f * f):
                    raise DimensionMismatchError(
                        f"layer {ell} disentangler shape {u.shape} != ({f * f},{f * f})"
                    )
            for w in layer.isometries:
                if w.shape != (self.m, f * f):
                    raise DimensionMismatchError(
                        f"layer {ell} isometry shape {w.shape} != ({self.m},{f * f})"
                    )
        if self.top.shape != (self.m,):
            raise DimensionMismatchError(f"top tensor must have shape ({self.m},)")

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def tensor(self, tid: TensorId) -> DenseTensor:
        if tid == ("top",):
            return self.top
        kind, ell, k = tid
        layer = self.layers[ell - 1]
        return layer.disentanglers[k] if kind == "u" else layer.isometries[k]

    def all_tensor_ids(self) -> list[TensorId]:
        ids: list[TensorId] = []
        for ell, layer in enumerate(self.layers, start=1):
            ids.extend(("u", ell, k) for k in range(len(layer.disentanglers)))
            ids.extend(("w", ell, b) for b in range(len(layer.isometries)))
        ids.append(("top",))
        return ids

    def replace_tensors(self, mapping: dict) -> "Mera":
        """New Mera with the tensors named in `mapping` swapped out."""
        layers = []
        for ell, layer in enumerate(self.layers, start=1):
            us = [
                mapping.get(("u", ell, k), u)
                for k, u in enumerate(layer.disentanglers)
            ]
            ws = [
                mapping.get(("w", ell, b), w) for b, w in enumerate(layer.isometries)
            ]
            layers.append(MeraLayer(tuple(map(_as_dense, us)), tuple(map(_as_dense, ws))))
        top = _as_dense(mapping.get(("top",), self.top))
        return Mera(self.L, self.m, self.d, layers, top)


def _as_dense(t) -> DenseTensor:
    return t if isinstance(t, DenseTensor) else DenseTensor(t)


def _norm_layer(ly) -> MeraLayer:
    us, ws = (ly.disentanglers, ly.isometries) if isinstance(ly, MeraLayer) else ly
    return MeraLayer(tuple(map(_as_dense, us)), tuple(map(_as_dense, ws)))


def random_mera(L: int, m: int, d: int, seed: int) -> Mera:
    """Haar-ish random MERA (QR of complex Gaussians), deterministic per seed."""
    if L not in (4, 8, 16):
        raise ValueError("L must be one of 4, 8, 16")
    if m < 1 or d < 1:
        raise ValueError("m and d must be positive")
    if m > d * d:
        raise ValueError(f"m={m} exceeds d^2={d * d}; layer-1 isometries need m <= d^2")
    check_state(d**L, "full state")
    rng = np.random.default_rng(seed)
    layers = []
    n_layers = int(math.log2(L))
    for ell in range(1, n_layers + 1):
        f = d if ell == 1 else m
        n_in = L // 2 ** (ell - 1)
        us = []
        ws = []
        for _ in range(n_in // 2):
            us.append(DenseTensor(_random_isometry(rng, f * f, f * f)))
        for _ in range(n_in // 2):
            q = _random_isometry(rng, f * f, m)
            ws.append(DenseTensor(q.conj().T))
        layers.append(MeraLayer(tuple(us), tuple(ws)))
    top = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    top = top / np.linalg.norm(top)
    return Mera(L, m, d, layers, DenseTensor(top))


def _random_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Orthonormal columns from the QR of a complex Gaussian; a unitary when square."""
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@dataclass(frozen=True)
class IsometryReport:
    residuals: dict
    tol: float
    passed: bool


def validate_isometries(mera: Mera, tol: float = DEFAULT_TOL) -> IsometryReport:
    """Max-norm residual of sum_s A^s A^s+ - identity for every tensor."""
    residuals: dict = {}
    for tid in mera.all_tensor_ids():
        arr = as_array(mera.tensor(tid))
        if tid == ("top",):
            residuals[tid] = abs(float(np.vdot(arr, arr).real) - 1.0)
            continue
        gram = arr @ arr.conj().T
        residuals[tid] = float(np.abs(gram - np.eye(gram.shape[0])).max())
    passed = all(v <= tol for v in residuals.values())
    return IsometryReport(residuals=residuals, tol=tol, passed=passed)


def eval_mera(mera: Mera) -> DenseTensor:
    """Full state of shape (d,)*L by expanding from the top tensor downward;
    an isometry scales the size by f*f/m, past the state's size if m > d*d."""
    cap = check_state(mera.d**mera.L, "full state")
    state = as_array(mera.top)
    for ell in range(mera.n_layers, 0, -1):
        layer = mera.layers[ell - 1]
        f = mera.d if ell == 1 else mera.m
        # isometry adjoints: coarse site b becomes fine pair (2b, 2b+1)
        for b in range(len(layer.isometries) - 1, -1, -1):
            w = as_array(layer.isometries[b]).reshape(mera.m, f, f)
            check_capacity(state.size // mera.m * f * f, cap, "evaluation intermediate")
            state = np.tensordot(state, w.conj(), axes=([b], [0]))
            state = np.moveaxis(state, (-2, -1), (b, b + 1))
        # disentangler adjoints across block boundaries, wrapping at the end
        n_in = state.ndim
        for k in range(len(layer.disentanglers)):
            i = 2 * k + 1
            j = (2 * k + 2) % n_in
            u4 = as_array(layer.disentanglers[k]).reshape(f, f, f, f)
            op = u4.conj().transpose(2, 3, 0, 1)  # (out_i, out_j, in_i, in_j)
            state = np.tensordot(state, op, axes=([i, j], [2, 3]))
            state = np.moveaxis(state, (-2, -1), (i, j))
    return DenseTensor(state)


@dataclass(frozen=True)
class CausalCone:
    """Cone of a site set: the tensors its reduced density matrix depends on."""

    tensor_ids: frozenset
    per_layer_sites: tuple[tuple[int, ...], ...]

    @property
    def cross_sections(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.per_layer_sites)


def causal_cone(mera: Mera, sites) -> CausalCone:
    """Tensors that can influence rho on `sites` (0-indexed, contiguous mod L)."""
    chosen = sorted(set(int(s) for s in sites))
    if not chosen:
        raise ValueError("sites must be nonempty")
    if any(not 0 <= s < mera.L for s in chosen):
        raise ValueError(f"sites must lie in 0..{mera.L - 1}")
    if not _contiguous_mod(chosen, mera.L):
        raise ValueError("sites must be contiguous (cyclically)")
    ids: set[TensorId] = set()
    support = set(chosen)
    per_layer: list[tuple[int, ...]] = []
    for ell in range(1, mera.n_layers + 1):
        n_in = mera.L // 2 ** (ell - 1)
        widened = set(support)
        for k in range(n_in // 2):
            pair = (2 * k + 1, (2 * k + 2) % n_in)
            if support & set(pair):
                ids.add(("u", ell, k))
                widened.update(pair)
        coarse = set()
        for b in range(n_in // 2):
            pair = (2 * b, 2 * b + 1)
            if widened & set(pair):
                ids.add(("w", ell, b))
                coarse.add(b)
        support = coarse
        per_layer.append(tuple(sorted(coarse)))
    ids.add(("top",))
    return CausalCone(tensor_ids=frozenset(ids), per_layer_sites=tuple(per_layer))


def _contiguous_mod(sorted_sites: list[int], L: int) -> bool:
    k = len(sorted_sites)
    if k == L:
        return True
    idx = set(sorted_sites)
    # contiguous cyclically iff exactly one "gap start" going around the ring
    starts = sum(1 for s in idx if (s - 1) % L not in idx)
    return starts == 1
