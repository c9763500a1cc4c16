"""Tree tensor networks: construction from dense states and orthonormal form."""
import math

import numpy as np
import pytest

from tnslab.errors import DimensionMismatchError, RankError
from tnslab.mps_obc import from_state_obc, right_canonicalize
from tnslab.peps import Peps, PepsNetwork, eval_peps, ring_network
from tnslab.ttns import (
    TreeNetwork,
    Ttns,
    eval_ttns,
    from_state_ttns,
    orthonormalize_ttns,
)
from tnslab.zoo import w_state

from helpers import bipartition_rank, fidelity, random_state


def _chain(n, d=2, m=4):
    return TreeNetwork((d,) * n, [(i, i + 1, m) for i in range(1, n)])


def _edge_partition(net, i, j):
    """0-based vertices on the i-side after deleting edge (i, j)."""
    n = len(net.dims)
    adj = {v: set() for v in range(1, n + 1)}
    for a, b, _ in net.edges:
        adj[a].add(b)
        adj[b].add(a)
    adj[i].discard(j)
    adj[j].discard(i)
    seen = {i}
    stack = [i]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return [v - 1 for v in sorted(seen)]


def test_single_vertex_state_is_the_tensor():
    net = TreeNetwork((3,), [])
    t = Ttns(net, [np.array([1.0, 2.0, 3.0])])
    assert np.abs(eval_ttns(t).array - np.array([1.0, 2.0, 3.0])).max() == 0.0


def test_path_tree_agrees_with_obc_chain():
    rng = np.random.default_rng(33)
    shapes = [(2, 3), (2, 3, 2), (2, 2)]
    raw = [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes]
    net = TreeNetwork((2, 2, 2), [(1, 2, 3), (2, 3, 2)])
    tree_psi = eval_ttns(Ttns(net, raw)).array
    from tnslab.mps_obc import MpsObc, eval_obc

    chain = MpsObc(
        [
            raw[0].reshape(2, 1, 3),
            raw[1],
            raw[2].reshape(2, 2, 1),
        ]
    )
    assert np.abs(tree_psi - eval_obc(chain).array.reshape(2, 2, 2)).max() < 1e-12


def test_star_with_scalar_center_couples_legs():
    # center vertex 1 has d=1 and three bond legs: contracting a delta-like
    # core against |0>/|1> leaves on each arm gives a GHZ-type state
    m = 2
    net = TreeNetwork((1, 2, 2, 2), [(1, 2, m), (1, 3, m), (1, 4, m)])
    core = np.zeros((1, m, m, m))
    for k in range(m):
        core[0, k, k, k] = 1.0
    leaf = np.eye(2)
    t = Ttns(net, [core, leaf, leaf, leaf])
    psi = eval_ttns(t).array
    want = np.zeros((1, 2, 2, 2))
    want[0, 0, 0, 0] = 1.0
    want[0, 1, 1, 1] = 1.0
    assert np.abs(psi - want).max() < 1e-14


def test_from_state_product_uses_unit_bonds():
    rng = np.random.default_rng(34)
    parts = [random_state(rng, (2,)) for _ in range(4)]
    psi = parts[0]
    for p in parts[1:]:
        psi = np.kron(psi, p)
    net = TreeNetwork((2,) * 4, [(1, 2, 4), (2, 3, 4), (2, 4, 4)])
    t = from_state_ttns(psi, net, root=1)
    for i, j, _ in net.edges:
        assert t.network.edge_dim(i, j) == 1
    assert fidelity(eval_ttns(t).array.ravel(), psi) > 1 - 1e-12


def test_from_state_w7_every_edge_rank_two():
    net = TreeNetwork(
        (2,) * 7,
        [(1, 2, 8), (2, 3, 8), (3, 4, 8), (3, 5, 8), (5, 6, 8), (5, 7, 8)],
    )
    t = from_state_ttns(w_state(7), net, root=1)
    for i, j, _ in net.edges:
        assert t.network.edge_dim(i, j) == 2


def test_from_state_chain_matches_obc_bond_dims():
    rng = np.random.default_rng(35)
    psi = random_state(rng, (2,) * 6)
    t = from_state_ttns(psi, _chain(6, m=8), root=1)
    mps = from_state_obc(psi, (2,) * 6)
    tree_dims = tuple(t.network.edge_dim(i, i + 1) for i in range(1, 6))
    assert tree_dims == mps.bond_dims


def test_from_state_edge_ranks_match_bipartition_ranks():
    rng = np.random.default_rng(36)
    dims = (2, 2, 2, 2, 2)
    psi = random_state(rng, dims)
    net = TreeNetwork(dims, [(1, 2, 8), (2, 3, 8), (2, 4, 8), (4, 5, 8)])
    t = from_state_ttns(psi, net, root=1)
    for i, j, _ in net.edges:
        part = _edge_partition(net, i, j)
        assert t.network.edge_dim(i, j) == bipartition_rank(psi, dims, part)


def test_from_state_insufficient_edge_capacity_raises():
    rng = np.random.default_rng(37)
    psi = random_state(rng, (2,) * 5)
    with pytest.raises(RankError):
        from_state_ttns(psi, _chain(5, m=2), root=1)


def test_from_state_root_must_be_leaf():
    rng = np.random.default_rng(38)
    psi = random_state(rng, (2, 2, 2))
    net = TreeNetwork((2, 2, 2), [(1, 2, 4), (2, 3, 4)])
    with pytest.raises(ValueError):
        from_state_ttns(psi, net, root=2)


def test_orthonormalize_preserves_state_and_sets_root_norm():
    rng = np.random.default_rng(39)
    net = TreeNetwork((2,) * 5, [(1, 2, 3), (2, 3, 3), (3, 4, 3), (3, 5, 3)])
    tensors = []
    for v in range(1, 6):
        shape = (2,) + tuple(net.edge_dim(v, w) for w in net.neighbors(v))
        tensors.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    t = Ttns(net, tensors)
    psi = eval_ttns(t).array
    canon = orthonormalize_ttns(t, root=1)
    out = eval_ttns(canon).array
    assert fidelity(out, psi) > 1 - 1e-12
    root_norm = np.linalg.norm(canon.tensor_at(1).array)
    assert abs(root_norm - np.linalg.norm(psi)) < 1e-10 * np.linalg.norm(psi)


def test_orthonormalize_twice_is_stable_and_collapses_padding():
    # tensors are fixed only up to bond rotations; the realized edge dims and
    # the generated state must survive a second pass unchanged
    rng = np.random.default_rng(40)
    psi = random_state(rng, (2,) * 4)
    net = TreeNetwork((2,) * 4, [(1, 2, 8), (2, 3, 8), (3, 4, 8)])
    t = from_state_ttns(psi, net, root=1)
    once = orthonormalize_ttns(t, root=1)
    twice = orthonormalize_ttns(once, root=1)
    for v in range(1, 5):
        assert once.tensor_at(v).shape == twice.tensor_at(v).shape
    assert fidelity(eval_ttns(once).array, eval_ttns(twice).array) > 1 - 1e-12
    chain_dims = tuple(once.network.edge_dim(i, i + 1) for i in range(1, 4))
    assert chain_dims == from_state_obc(psi, (2,) * 4).bond_dims


def test_orthonormalize_branching_tree_reaches_schmidt_ranks_through_siblings():
    # vertex 2 passes leg 3 straight to leg 4, and leaf 4 keeps one direction
    # of that leg: the state is a product, so edge (2, 3) has Schmidt rank 1.
    # Only a leaves-to-root sweep before the root-to-leaves one sees that the
    # sibling subtree at 4 is not injective.
    net = TreeNetwork((2, 1, 2, 2), [(1, 2, 1), (2, 3, 2), (2, 4, 2)])
    leaf4 = np.outer([0.6, 0.8], [1.0, 0.0])
    t = Ttns(net, [[[1.0], [0.0]], np.eye(2).reshape(1, 1, 2, 2), np.eye(2), leaf4])
    psi = eval_ttns(t).array
    canon = orthonormalize_ttns(t, root=1)
    assert fidelity(eval_ttns(canon).array, psi) > 1 - 1e-12
    for i, j, m in canon.network.edges:
        assert m == bipartition_rank(psi.ravel(), net.dims, _edge_partition(net, i, j)) == 1


def test_network_validation():
    with pytest.raises(ValueError):
        TreeNetwork((2, 2, 2), [(1, 2, 2)])  # disconnected: missing an edge
    with pytest.raises(ValueError):
        TreeNetwork((2, 2), [(1, 1, 2)])  # self loop
    with pytest.raises(ValueError):
        TreeNetwork((2, 2, 2), [(1, 2, 2), (2, 3, 2), (1, 3, 2)])  # cycle
    with pytest.raises(ValueError):
        TreeNetwork((2, 2), [(1, 2, 2), (2, 1, 3)])  # duplicate edge
    with pytest.raises(ValueError):
        TreeNetwork((2, 2), [(1, 5, 2)])  # vertex out of range


def test_tensor_shape_validation():
    net = TreeNetwork((2, 2), [(1, 2, 3)])
    with pytest.raises(DimensionMismatchError):
        Ttns(net, [np.ones((2, 3)), np.ones((2, 2))])


def test_ttns_on_a_loopy_network_is_a_type_error():
    net = ring_network(3, 2)
    with pytest.raises(TypeError, match="TreeNetwork"):
        Ttns(net, [np.ones((4, 2, 2))] * 3)


def test_a_ttns_is_a_peps_and_evaluates_as_one():
    # a tree network is a graph network without loops
    rng = np.random.default_rng(7)
    net = TreeNetwork((2, 3, 2, 2, 3), [(1, 2, 2), (2, 3, 3), (2, 4, 2), (4, 5, 2)])
    tensors = []
    for v in range(1, net.n + 1):
        shape = (net.dims[v - 1],) + net.bond_dims_at(v)
        tensors.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    t = Ttns(net, tensors)
    assert isinstance(net, PepsNetwork) and isinstance(t, Peps)
    assert np.array_equal(eval_ttns(t).array, eval_peps(t).array)
    assert repr(t) == "Ttns(n=5, dims=(2, 3, 2, 2, 3))"
    assert repr(net).startswith("TreeNetwork(dims=(2, 3, 2, 2, 3), edges=((1, 2, 2),")


def test_tree_neighbors_and_bond_dims_agree_with_edge_dim():
    net = TreeNetwork((2,) * 6, [(3, 1, 2), (3, 6, 4), (3, 2, 3), (6, 5, 5), (6, 4, 1)])
    assert net.neighbors(3) == (1, 2, 6)
    assert net.neighbors(6) == (3, 4, 5)
    for v in range(1, net.n + 1):
        assert list(net.neighbors(v)) == sorted(net.neighbors(v))
        assert net.bond_dims_at(v) == tuple(net.edge_dim(v, nb) for nb in net.neighbors(v))
        assert net.degree(v) == len(net.neighbors(v))
