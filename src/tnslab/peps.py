"""PEPS on small graphs: the one graph container, which `ttns` extends to
trees (graphs without loops), exact greedy contraction, the entangled-pair
state, the loop-embedded two-domain family, and reduced-density-matrix checks.

Edges are identified by their index in the network's edge list (parallel edges
are allowed); per-vertex tensor axes are the physical axis first, then one
axis per incident edge, incident edges sorted by (neighbor id, edge id).
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, NormalizationError
from .tensors import DenseTensor, as_array, contract_network


class PepsNetwork:
    """Connected graph on vertices 1..N with site dims per vertex and bond
    dims per edge; edges are kept as (i, j, m) with i < j."""

    __slots__ = ("dims", "edges", "_incidence")

    def __init__(self, dims, edges):
        dims = tuple(int(d) for d in dims)
        n = len(dims)
        if n < 1 or any(d < 1 for d in dims):
            raise ValueError("site dimensions must be positive")
        es = []
        inc: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, n + 1)}
        for e in edges:
            i, j, m = (int(x) for x in e)
            if not (1 <= i <= n and 1 <= j <= n) or i == j:
                raise ValueError(f"bad edge ({i},{j}) for {n} vertices")
            if m < 1:
                raise ValueError("bond dimensions must be at least 1")
            inc[i].append((j, len(es)))
            inc[j].append((i, len(es)))
            es.append((min(i, j), max(i, j), m))
        seen = {1}
        frontier = [1]
        while frontier:
            for w, _ in inc[frontier.pop()]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if len(seen) != n:
            raise ValueError("edge list does not connect all vertices")
        self.dims, self.edges = dims, tuple(es)
        self._incidence = {v: tuple(idx for _, idx in sorted(p)) for v, p in inc.items()}

    @property
    def n(self) -> int:
        return len(self.dims)

    def incident(self, v: int) -> tuple[int, ...]:
        """Edge ids at v, sorted by (neighbor id, edge id)."""
        return self._incidence[v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        """The neighbor across each incident edge, in `incident` order."""
        return tuple(sum(self.edges[k][:2]) - v for k in self._incidence[v])

    def edge_endpoints(self, idx: int) -> tuple[int, int]:
        i, j, _ = self.edges[idx]
        return i, j

    def bond_dims_at(self, v: int) -> tuple[int, ...]:
        return tuple(self.edges[idx][2] for idx in self.incident(v))

    def edges_between(self, a: int, b: int) -> list[int]:
        key = (min(a, b), max(a, b))
        return [idx for idx, (i, j, _) in enumerate(self.edges) if (i, j) == key]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dims={self.dims}, edges={self.edges})"


class Peps:
    """PEPS value: network plus per-vertex tensors in the axis convention."""

    __slots__ = ("network", "tensors")

    def __init__(self, network: PepsNetwork, tensors):
        ts = tuple(
            t if isinstance(t, DenseTensor) else DenseTensor(t) for t in tensors
        )
        if len(ts) != network.n:
            raise DimensionMismatchError(f"need {network.n} tensors, got {len(ts)}")
        for v in range(1, network.n + 1):
            want = (network.dims[v - 1],) + network.bond_dims_at(v)
            if ts[v - 1].shape != want:
                raise DimensionMismatchError(
                    f"vertex {v} tensor shape {ts[v - 1].shape} != expected {want}"
                )
        self.network = network
        self.tensors = ts

    def tensor_at(self, v: int) -> DenseTensor:
        return self.tensors[v - 1]

    def tensor_network(self):
        """Arrays, axis labels and open legs for `contract_network`: vertex
        v's physical leg is v - 1, edge k is n + k."""
        n = self.network.n
        labels = [
            (v - 1,) + tuple(n + k for k in self.network.incident(v)) for v in range(1, n + 1)
        ]
        return [t.array for t in self.tensors], labels, tuple(range(n))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.network.n}, dims={self.network.dims})"


def eval_peps(p: Peps) -> DenseTensor:
    """Exact contraction by greedy pairwise merging (see `contract_network`)."""
    return DenseTensor(contract_network(*p.tensor_network()))


def pair_tensor(d: int, bond_dims) -> np.ndarray:
    """Entangled-pair seed at one vertex: physical index p is the row-major
    flattening of its bond labels, and rows from prod(bond_dims) on are zero."""
    return np.eye(d, math.prod(bond_dims), dtype=np.complex128).reshape(d, *bond_dims)


def pair_weights(m: int, diag: float, off: float) -> np.ndarray:
    """m x m pair weights: `diag` on equal bond labels, `off` on unequal ones."""
    w = np.full((m, m), off, dtype=np.complex128)
    np.fill_diagonal(w, diag)
    return w


def mu_peps(net: PepsNetwork) -> Peps:
    """Entangled-pair seed state: product over edges of sum_n |n,n>."""
    tensors = []
    for v in range(1, net.n + 1):
        bd = net.bond_dims_at(v)
        pi = math.prod(bd)
        if net.dims[v - 1] != pi:
            raise DimensionMismatchError(
                f"vertex {v} needs d = {pi} (= product of bond dims), "
                f"got {net.dims[v - 1]}"
            )
        tensors.append(pair_tensor(pi, bd))
    return Peps(net, tensors)


def _loop_edges(net: PepsNetwork, loop) -> tuple[list[int], list[int], int]:
    """Validate a simple cycle; return (vertices, edge ids, loop bond dim)."""
    vs = [int(v) for v in loop]
    k = len(vs)
    if k < 3:
        raise ValueError("loop must have at least 3 vertices")
    if len(set(vs)) != k:
        raise ValueError("loop must visit distinct vertices")
    if any(not 1 <= v <= net.n for v in vs):
        raise ValueError("loop vertex out of range")
    eids = []
    for i in range(k):
        a, b = vs[i], vs[(i + 1) % k]
        cands = net.edges_between(a, b)
        if not cands:
            raise ValueError(f"loop step ({a},{b}) is not an edge of the network")
        eids.append(cands[0])
    ms = {net.edges[idx][2] for idx in eids}
    if len(ms) != 1:
        raise ValueError("all loop edges must share one bond dimension")
    return vs, eids, ms.pop()


def _padded_pair_base(net: PepsNetwork, v: int) -> np.ndarray:
    bd = net.bond_dims_at(v)
    pi = math.prod(bd)
    d = net.dims[v - 1]
    if d < pi:
        raise DimensionMismatchError(
            f"vertex {v} needs d >= {pi} (= product of bond dims), got {d}"
        )
    return pair_tensor(d, bd)


def _apply_pair_weight(
    base: np.ndarray, net: PepsNetwork, v: int, ein: int, eout: int, wmat: np.ndarray
) -> np.ndarray:
    """Multiply base entrywise by wmat[n_in, n_out] over the two bond axes."""
    inc = net.incident(v)
    pos_in = 1 + inc.index(ein)
    pos_out = 1 + inc.index(eout)
    m = wmat.shape[0]
    shape = [1] * base.ndim
    shape[pos_in] = m
    shape[pos_out] = m
    # reshape is row-major, so the weight's first axis must land on the
    # earlier of the two positions
    w = wmat if pos_in < pos_out else wmat.T
    return base * w.reshape(shape)


def psi_t_peps(net: PepsNetwork, loop, eps: float) -> Peps:
    """Two-domain family embedded along a cycle of the network.

    Loop vertices get the diagonal pair operator with weight 1 on equal bond
    labels and eps on unequal ones; the last loop vertex gets the companion
    operator with weight 1 on equal labels and 1/eps on unequal ones.  All
    other vertices keep the entangled-pair tensors.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    vs, eids, m = _loop_edges(net, loop)
    k = len(vs)
    tensors = []
    for v in range(1, net.n + 1):
        base = _padded_pair_base(net, v)
        if v in vs:
            i = vs.index(v)
            ein = eids[(i - 1) % k]
            eout = eids[i]
            wmat = pair_weights(m, 1.0, (1.0 / eps) if i == k - 1 else eps)
            base = _apply_pair_weight(base, net, v, ein, eout, wmat)
        tensors.append(DenseTensor(base))
    return Peps(net, tensors)


def loop_limit_state(net: PepsNetwork, loop) -> DenseTensor:
    """Dense limit (eps -> 0) of the loop family: the all-equal term plus one
    wall term per non-final loop vertex.  Returned unnormalized."""
    vs, eids, m = _loop_edges(net, loop)
    k = len(vs)
    total: np.ndarray | None = None
    terms = [frozenset()] + [frozenset({j, k - 1}) for j in range(k - 1)]
    for walls in terms:
        tensors = []
        for v in range(1, net.n + 1):
            base = _padded_pair_base(net, v)
            if v in vs:
                i = vs.index(v)
                wmat = pair_weights(m, 0.0, 1.0) if i in walls else pair_weights(m, 1.0, 0.0)
                base = _apply_pair_weight(
                    base, net, v, eids[(i - 1) % k], eids[i], wmat
                )
            tensors.append(DenseTensor(base))
        part = as_array(eval_peps(Peps(net, tensors)))
        total = part if total is None else total + part
    return DenseTensor(total)


def state_site_rho(psi, dims, vertex: int) -> DenseTensor:
    """Trace-normalized reduced density matrix of `vertex` from a dense state."""
    dims = tuple(int(d) for d in dims)
    arr = as_array(psi).reshape(dims)
    others = [k for k in range(len(dims)) if k != vertex - 1]
    rho = np.tensordot(arr, arr.conj(), axes=(others, others))
    tr = float(np.trace(rho).real)
    if tr <= 0.0:
        raise NormalizationError("zero state has no density matrix")
    return DenseTensor(rho / tr)


def ring_network(n: int, m: int) -> PepsNetwork:
    """Cycle on n >= 3 vertices, bond dim m everywhere, site dims m^2."""
    if n < 3:
        raise ValueError("ring needs at least 3 vertices")
    edges = [(i, i + 1, m) for i in range(1, n)] + [(1, n, m)]
    return PepsNetwork([m * m] * n, edges)


def grid_network(rows: int, cols: int, m: int) -> PepsNetwork:
    """Open 2D grid, row-major vertex ids, site dim m^degree per vertex."""
    if rows < 1 or cols < 1:
        raise ValueError("grid must be nonempty")

    def vid(r: int, c: int) -> int:
        return r * cols + c + 1

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1), m))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c), m))
    deg = {v: 0 for v in range(1, rows * cols + 1)}
    for i, j, _ in edges:
        deg[i] += 1
        deg[j] += 1
    dims = [m ** deg[v] for v in range(1, rows * cols + 1)]
    return PepsNetwork(dims, edges)
