"""PEPS on small graphs: pair-consistent states, loop deformations, limits."""
import math

import numpy as np
import pytest

from tnslab.errors import DimensionMismatchError, NormalizationError
from tnslab.mps_pbc import eval_pbc
from tnslab.peps import (
    Peps,
    PepsNetwork,
    eval_peps,
    grid_network,
    loop_limit_state,
    mu_peps,
    pair_tensor,
    psi_t_peps,
    ring_network,
    state_site_rho,
)
from tnslab.ttns import TreeNetwork, Ttns, eval_ttns
from tnslab.zoo import psi_tau_tensors, two_domain_state

from helpers import fidelity


def test_single_edge_pair_state_norm():
    net = PepsNetwork((3, 3), [(1, 2, 3)])
    psi = eval_peps(mu_peps(net)).array
    assert abs(np.linalg.norm(psi) - math.sqrt(3)) < 1e-12


def test_ring_pair_state_norm_squared():
    psi = eval_peps(mu_peps(ring_network(3, 2))).array
    assert abs(np.linalg.norm(psi) ** 2 - 8.0) < 1e-10


def test_grid_pair_state_norm_squared():
    psi = eval_peps(mu_peps(grid_network(2, 3, 2))).array
    assert abs(np.linalg.norm(psi) ** 2 - 128.0) < 1e-10


def test_network_validation():
    with pytest.raises(ValueError):
        PepsNetwork((2, 2), [(1, 1, 2)])
    with pytest.raises(ValueError):
        PepsNetwork((2, 2), [(1, 3, 2)])
    # parallel edges are legal: a two-vertex loop is a valid network
    multi = PepsNetwork((4, 4), [(1, 2, 2), (2, 1, 2)])
    assert len(multi.edges) == 2
    with pytest.raises(DimensionMismatchError):
        # vertex physical dimension must match the product of its bond dims
        mu_peps(PepsNetwork((2, 3), [(1, 2, 2)]))


def test_peps_eval_agrees_with_tree_contraction():
    rng = np.random.default_rng(41)
    edges = [(1, 2, 2), (2, 3, 3), (2, 4, 2)]
    dims = (2, 12, 3, 2)
    tnet = TreeNetwork(dims, edges)
    pnet = PepsNetwork(dims, edges)
    tensors = []
    for v in range(1, 5):
        shape = (dims[v - 1],) + tuple(tnet.edge_dim(v, w) for w in tnet.neighbors(v))
        tensors.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    t_psi = eval_ttns(Ttns(tnet, tensors)).array
    p_psi = eval_peps(Peps(pnet, tensors)).array
    assert np.abs(p_psi - t_psi).max() < 1e-12


def test_loop_deformation_at_unit_strength_is_the_pair_state():
    net = ring_network(4, 2)
    loop = (1, 2, 3, 4)
    mu = eval_peps(mu_peps(net)).array
    deformed = eval_peps(psi_t_peps(net, loop, 1.0)).array
    assert np.abs(deformed - mu).max() < 1e-12


def test_loop_deformation_matches_dense_weight_oracle():
    # multiply per-vertex bond weights directly into the dense pair state:
    # diag 1 / off-diagonal eps, with the closing vertex carrying 1/eps
    net = grid_network(2, 3, 2)
    loop = (1, 2, 5, 4)
    eps = 0.3
    dense = eval_peps(mu_peps(net)).array.copy()
    for pos, vertex in enumerate(loop):
        # other endpoint of each incident edge; incident order sorts by neighbor
        nbrs = [a + b - vertex for a, b in map(net.edge_endpoints, net.incident(vertex))]
        off = 1.0 / eps if pos == len(loop) - 1 else eps
        w = np.full((2, 2), off, dtype=complex)
        np.fill_diagonal(w, 1.0)
        pos_in = nbrs.index(loop[(pos - 1) % len(loop)])
        pos_out = nbrs.index(loop[(pos + 1) % len(loop)])
        shape = (2,) * len(nbrs)
        diag = np.ones(shape, dtype=complex)
        for idx in np.ndindex(*shape):
            diag[idx] = w[idx[pos_in], idx[pos_out]]
        dense = np.moveaxis(dense, vertex - 1, 0)
        flat = diag.reshape(-1, 1) * dense.reshape(2 ** len(nbrs), -1)
        dense = np.moveaxis(flat.reshape(dense.shape), 0, vertex - 1)
    got = eval_peps(psi_t_peps(net, loop, eps)).array
    assert np.abs(got - dense).max() < 1e-12


def test_loop_limit_overlap_increases_toward_one():
    net = ring_network(4, 2)
    loop = (1, 2, 3, 4)
    limit = loop_limit_state(net, loop).array
    overlaps = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        psi = eval_peps(psi_t_peps(net, loop, eps)).array
        overlaps.append(fidelity(psi, limit))
    assert all(b > a for a, b in zip(overlaps, overlaps[1:]))
    assert overlaps[-1] > 1 - 1e-6


def test_loop_limit_state_has_full_rank_site_density_matrices():
    net = ring_network(3, 2)
    limit = loop_limit_state(net, (1, 2, 3)).array
    for v in (1, 2, 3):
        rho = state_site_rho(limit, (4, 4, 4), v)
        vals = np.linalg.eigvalsh(rho.array)
        assert (vals > 1e-10).sum() == 4


def test_site_density_matrix_properties():
    rng = np.random.default_rng(42)
    psi = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
    arr = state_site_rho(psi, (2, 3, 2), 2).array
    assert arr.shape == (3, 3)
    assert abs(np.trace(arr) - 1.0) < 1e-12
    assert np.abs(arr - arr.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(arr).min() > -1e-12
    with pytest.raises(NormalizationError):
        state_site_rho(np.zeros((2, 2)), (2, 2), 1)


def test_loop_validation_errors():
    net = grid_network(2, 3, 2)
    with pytest.raises(ValueError):
        psi_t_peps(net, (1, 2), 0.5)  # too short
    with pytest.raises(ValueError):
        psi_t_peps(net, (1, 2, 1, 4), 0.5)  # repeated vertex
    with pytest.raises(ValueError):
        psi_t_peps(net, (1, 2, 6, 4), 0.5)  # (2, 6) is not an edge


def test_pair_tensor_pads_the_matrix_units_with_zero_rows():
    seed = pair_tensor(7, (2, 3))
    assert seed.shape == (7, 2, 3) and seed.dtype == np.complex128
    units = np.zeros((7, 6))
    units[np.arange(6), np.arange(6)] = 1.0
    assert np.array_equal(seed.reshape(7, 6), units)


def _swap_end_pairs(arr, n, m):
    """The dense loop state on a ring with the pair (x, y) read as (y, x) at
    vertices 1 and n, where the ring's two bonds sit in the other order."""
    swap = np.arange(m * m).reshape(m, m).T.ravel()
    return np.ascontiguousarray(np.asarray(arr).reshape((m * m,) * n)[swap][..., swap])


@pytest.mark.parametrize("n, m", [(3, 2), (4, 2), (4, 3), (5, 3)])
def test_ring_family_is_the_loop_family_on_a_ring(n, m):
    ring = ring_network(n, m)
    for eps in (1.0, 0.1, 1e-3):
        want = eval_pbc(psi_tau_tensors(n, m, eps)).array.reshape((m * m,) * n)
        got = _swap_end_pairs(eval_peps(psi_t_peps(ring, range(1, n + 1), eps)).array, n, m)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    want = two_domain_state(n, m).array
    got = _swap_end_pairs(loop_limit_state(ring, range(1, n + 1)).array, n, m)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
