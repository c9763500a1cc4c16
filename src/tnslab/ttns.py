"""Tree tensor network states: evaluation, decomposition of a dense state by
root-directed sweeps of leg splits, and the orthonormal (isometric) form.

A tree network is a graph network without loops, so `TreeNetwork` and `Ttns`
are `PepsNetwork` and `Peps` with the tree checks added."""
from __future__ import annotations

import math
from collections import deque

import numpy as np

from .errors import NormalizationError, RankError
from .peps import Peps, PepsNetwork
from .tensors import DenseTensor, as_array, check_normalized, check_state, contract_network, split_leg


def _edge_key(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


class TreeNetwork(PepsNetwork):
    """Connected loop-free graph on vertices 1..N: a graph network with
    N - 1 distinct edges."""

    __slots__ = ()

    def __init__(self, dims, edges):
        super().__init__(dims, edges)
        n = self.n
        if len({(i, j) for i, j, _ in self.edges}) != len(self.edges):
            raise ValueError("duplicate edge")
        if len(self.edges) != n - 1:
            raise ValueError(
                f"a tree on {n} vertices needs {n - 1} edges, got {len(self.edges)}"
            )

    def degree(self, v: int) -> int:
        return len(self._incidence[v])

    def edge_dim(self, i: int, j: int) -> int:
        key = _edge_key(i, j)
        for a, b, m in self.edges:
            if (a, b) == key:
                return m
        raise KeyError(f"no edge {key}")

    def with_edge_dims(self, realized: dict[tuple[int, int], int]) -> "TreeNetwork":
        edges = [(i, j, realized.get((i, j), m)) for i, j, m in self.edges]
        return TreeNetwork(self.dims, edges)

    def distances_from(self, root: int) -> dict[int, int]:
        dist = {root: 0}
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in self.neighbors(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return dist

    def parents_toward(self, root: int) -> dict[int, int]:
        """Parent map directing every non-root vertex toward the root."""
        dist = self.distances_from(root)
        parent = {}
        for v in range(1, self.n + 1):
            if v == root:
                continue
            parent[v] = min(w for w in self.neighbors(v) if dist[w] == dist[v] - 1)
        return parent


class Ttns(Peps):
    """Tree tensor network state: a PEPS on a `TreeNetwork`.

    Tensor axes per vertex: physical axis first, then one axis per incident
    edge, edges sorted by neighbor vertex id.
    """

    __slots__ = ()

    def __init__(self, network: TreeNetwork, tensors):
        if not isinstance(network, TreeNetwork):
            raise TypeError(f"a Ttns needs a TreeNetwork, got {type(network).__name__}")
        super().__init__(network, tensors)


def eval_ttns(t: Ttns) -> DenseTensor:
    """Contract the whole tree into the dense state (axes ordered by vertex id)."""
    return DenseTensor(contract_network(*t.tensor_network()))


def _visit_order(net: TreeNetwork, root: int, outward: bool) -> list[int]:
    """Non-root vertices ordered by distance from root; ties by smallest id."""
    dist = net.distances_from(root)
    vs = [v for v in range(1, net.n + 1) if v != root]
    vs.sort(key=lambda v: (-dist[v] if not outward else dist[v], v))
    return vs


def from_state_ttns(psi, net: TreeNetwork, root: int) -> Ttns:
    """Decompose a dense state over the given tree by a leaves-to-root sweep of
    leg splits.

    Realized bond dimensions equal the Schmidt ranks of the edge bipartitions;
    declared bond dims act as capacities (exceeding one raises RankError).
    """
    if net.degree(root) != 1 and net.n > 1:
        raise ValueError(f"root {root} must be a leaf")
    check_state(math.prod(net.dims))
    arr = as_array(psi).reshape(net.dims)
    check_normalized(arr)
    parent = net.parents_toward(root)
    labels: list[tuple] = [("p", v) for v in range(1, net.n + 1)]
    current = arr
    tensors: dict[int, DenseTensor] = {}
    realized: dict[tuple[int, int], int] = {}
    for v in _visit_order(net, root, outward=False):
        p = parent[v]
        children = sorted(nb for nb in net.neighbors(v) if nb != p)
        group = [("p", v)] + [("b", _edge_key(v, c)) for c in children]
        idx = [labels.index(g) for g in group]
        rest = [k for k in range(current.ndim) if k not in idx]
        cur = current.transpose(rest + idx)
        q, r = split_leg(cur.reshape((-1,) + cur.shape[len(rest):]), 0)
        if q.shape[0] > net.edge_dim(v, p):
            raise RankError(
                f"edge ({v},{p}) needs bond dimension {q.shape[0]}, "
                f"network allows {net.edge_dim(v, p)}"
            )
        realized[_edge_key(v, p)] = q.shape[0]
        # q axes: (parent bond, physical, child bonds sorted by child id)
        perm = [1] + [0 if nb == p else 2 + children.index(nb) for nb in net.neighbors(v)]
        tensors[v] = DenseTensor(q.transpose(perm))
        current = r.reshape(cur.shape[: len(rest)] + r.shape[1:])
        labels = [labels[k] for k in rest] + [("b", _edge_key(v, p))]
    if net.n == 1:
        tensors[root] = DenseTensor(current.reshape(net.dims[0]))
    else:
        i = labels.index(("p", root))
        tensors[root] = DenseTensor(current.transpose([i, 1 - i]))
    new_net = net.with_edge_dims(realized)
    return Ttns(new_net, [tensors[v] for v in range(1, net.n + 1)])


def orthonormalize_ttns(t: Ttns, root: int) -> Ttns:
    """Isometric (orthonormal) form with respect to `root`.

    Sweeps of leg splits: leaves to root, root to leaves, leaves to root.
    Each split leaves a tensor orthonormal along the leg it cuts, and the
    neighbour on that leg absorbs the factor.  The first sweep makes every
    subtree map injective, so the second makes every root side injective and
    the final sweep lands on exact Schmidt ranks at every edge.  On a path
    (an open chain) a root side has no sibling subtree and the second sweep
    alone makes it injective, so the first runs only when some vertex has
    two children.  All non-root tensors end up isometric with their
    root-directed edge as rows; the root tensor takes the norm and phase.
    """
    net = t.network
    if net.n == 1:
        if float(np.linalg.norm(as_array(t.tensor_at(1)))) == 0.0:
            raise NormalizationError("zero state cannot be orthonormalized")
        return t
    if net.degree(root) != 1:
        raise ValueError(f"root {root} must be a leaf")
    parent = net.parents_toward(root)
    arrs = {v: np.asarray(as_array(t.tensor_at(v))) for v in range(1, net.n + 1)}
    dims: dict[tuple[int, int], int] = {}

    def axis_of(v: int, nb: int) -> int:
        return 1 + net.neighbors(v).index(nb)

    def toward(v: int, nb: int) -> None:
        """Split v's leg to nb; nb absorbs the factor."""
        arrs[v], r = split_leg(arrs[v], axis_of(v, nb))
        ax = axis_of(nb, v)
        arrs[nb] = np.moveaxis(np.tensordot(arrs[nb], r, axes=([ax], [0])), -1, ax)
        dims[_edge_key(v, nb)] = r.shape[1]

    if any(net.degree(v) > 2 for v in parent):  # a vertex with two children
        for v in _visit_order(net, root, outward=False):
            toward(v, parent[v])
    for v in [root] + _visit_order(net, root, outward=True):
        for c in sorted(nb for nb in net.neighbors(v) if nb != parent.get(v)):
            toward(v, c)
    for v in _visit_order(net, root, outward=False):
        toward(v, parent[v])

    new_net = net.with_edge_dims(dims)
    return Ttns(new_net, [arrs[v] for v in range(1, net.n + 1)])
