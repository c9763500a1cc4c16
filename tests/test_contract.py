"""The contraction core behind every evaluator: each container's state against
a brute-force einsum, site environments, and the capacity guard."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnslab.errors import CapacityError
from tnslab import tensors
from tnslab.mps_obc import MpsObc, eval_obc
from tnslab.mps_pbc import MpsPbc, chain_network, eval_pbc, ti_mps
from tnslab.peps import Peps, PepsNetwork, eval_peps, mu_peps, ring_network
from tnslab.tensors import contract_network, site_environment, site_matrix
from tnslab.ttns import TreeNetwork, Ttns, eval_ttns

from helpers import chain_legs, einsum_state, graph_legs

SEEDS = st.integers(0, 2**32 - 1)


def _cnormal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _assert_close(got, want):
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _random_obc(rng, n):
    d = rng.integers(1, 4, size=n)
    bonds = [1] + list(rng.integers(1, 4, size=n - 1)) + [1]
    return MpsObc([_cnormal(rng, (d[k], bonds[k], bonds[k + 1])) for k in range(n)])


def _random_pbc(rng, n, ti):
    m = int(rng.integers(1, 4))
    if ti:
        return ti_mps(_cnormal(rng, (int(rng.integers(1, 4)), m, m)), n)
    return MpsPbc([_cnormal(rng, (int(rng.integers(1, 4)), m, m)) for _ in range(n)])


def _graph_tensors(rng, n, dims, edges):
    legs = graph_legs(n, edges)
    shapes = [(dims[v],) + tuple(edges[e[1]][2] for e in legs[v][1:]) for v in range(n)]
    return [_cnormal(rng, s) for s in shapes]


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 5))
def test_eval_obc_matches_einsum(seed, n):
    mps = _random_obc(np.random.default_rng(seed), n)
    tensors = [t.array for t in mps.tensors]
    _assert_close(eval_obc(mps).array, einsum_state(tensors, chain_legs(n, False), n))


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 5), ti=st.booleans())
def test_eval_pbc_matches_einsum(seed, n, ti):
    mps = _random_pbc(np.random.default_rng(seed), n, ti)
    tensors = [t.array for t in mps.tensors]
    _assert_close(eval_pbc(mps).array, einsum_state(tensors, chain_legs(n, True), n))


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 6))
def test_eval_ttns_matches_einsum(seed, n):
    rng = np.random.default_rng(seed)
    order = rng.permutation(n) + 1  # random labels, so trees are not heap-ordered
    edges = [
        (int(order[v]), int(order[rng.integers(v)]), int(rng.integers(1, 4)))
        for v in range(1, n)
    ]
    dims = [int(d) for d in rng.integers(1, 4, size=n)]
    net = TreeNetwork(dims, edges)
    tensors = _graph_tensors(rng, n, dims, net.edges)
    want = einsum_state(tensors, graph_legs(n, net.edges), n)
    _assert_close(eval_ttns(Ttns(net, tensors)).array, want)


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, n=st.integers(2, 5), extra=st.integers(0, 3))
def test_eval_peps_matches_einsum(seed, n, extra):
    rng = np.random.default_rng(seed)
    # a random spanning tree, then extra edges that may close loops or run
    # parallel to existing ones
    edges = [
        (v + 1, int(rng.integers(v)) + 1, int(rng.integers(1, 3))) for v in range(1, n)
    ]
    for _ in range(extra):
        i, j = rng.choice(n, size=2, replace=False) + 1
        edges.append((int(i), int(j), int(rng.integers(1, 3))))
    dims = [int(d) for d in rng.integers(1, 3, size=n)]
    net = PepsNetwork(dims, edges)
    tensors = _graph_tensors(rng, n, dims, net.edges)
    want = einsum_state(tensors, graph_legs(n, net.edges), n)
    _assert_close(eval_peps(Peps(net, tensors)).array, want)


@pytest.mark.parametrize("kind", ["obc", "pbc", "ti"])
def test_site_matrix_times_site_tensor_is_the_state(kind):
    rng = np.random.default_rng(7)
    n = 5
    if kind == "obc":
        mps = _random_obc(rng, n)
    else:
        mps = _random_pbc(rng, n, kind == "ti")
    arrays, labels, open_labels = mps.tensor_network()
    state = contract_network(arrays, labels, open_labels).ravel()
    for k in range(n):
        mat = site_matrix(arrays, labels, open_labels, k)
        assert mat.shape == (state.size, arrays[k].size)
        _assert_close(mat @ arrays[k].ravel(), state)
        env, (outer, bonds) = site_environment(arrays, labels, open_labels, k)
        assert outer == tuple(j for j in open_labels if j != k)
        assert bonds == labels[k][1:] and env.ndim == len(outer) + 2
        # E with the site's bonds contracted is the state with leg k last
        got = np.tensordot(env, arrays[k], ([-2, -1], [1, 2]))
        _assert_close(np.moveaxis(got, -1, k).ravel(), state)


def test_site_matrix_goes_through_the_capacity_guard(monkeypatch):
    mps = _random_pbc(np.random.default_rng(8), 4, False)
    network = mps.tensor_network()
    rows = np.prod(mps.site_dims)
    monkeypatch.setenv("TNS_CAPACITY_CAP", str(rows * network[0][0].size - 1))
    with pytest.raises(CapacityError):
        site_matrix(*network, 0)


def test_oversized_peps_state_is_refused_before_allocation():
    peps = mu_peps(ring_network(11, 2))  # 4^11 = 2^22 amplitudes
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            eval_peps(peps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # bytes; the state alone would take 64 MiB


def test_disconnected_parts_join_by_outer_product():
    a = np.arange(2.0)
    b = np.arange(3.0)
    got = contract_network([b, a], [("j",), ("i",)], ["i", "j"])
    assert np.array_equal(got, np.outer(a, b))


def _tensordot_replay(arrays, labels, open_labels):
    """The network contracted pairwise in contract_network's plan order, each
    pair by np.tensordot over the legs it shares."""
    shapes = tuple(np.shape(a) for a in arrays)
    steps = tensors._plan(tuple(map(tuple, labels)), shapes, tuple(open_labels))[0]
    nodes, labs = list(arrays), [list(lb) for lb in labels]
    for ia, ib, *_ in steps:
        b, lab_b = nodes.pop(ib), labs.pop(ib)
        a, lab_a = nodes.pop(ia), labs.pop(ia)
        shared = [lb for lb in lab_a if lb in lab_b]
        axes = ([lab_a.index(lb) for lb in shared], [lab_b.index(lb) for lb in shared])
        nodes.append(np.tensordot(a, b, axes))
        labs.append([lb for lb in lab_a + lab_b if lb not in shared])
    return nodes[0].transpose([labs[0].index(lb) for lb in open_labels])


def _network(rng, kind, n):
    if kind == "chain":
        return _random_obc(rng, n).tensor_network()
    if kind == "ring":
        return _random_pbc(rng, n, False).tensor_network()
    if kind == "single":  # one site closed through an identity
        m, d = (int(x) for x in rng.integers(1, 4, size=2))
        return chain_network([_cnormal(rng, (d, m, m))])
    if kind == "tree":
        edges = [(v + 1, int(rng.integers(v)) + 1, int(rng.integers(1, 4))) for v in range(1, n)]
        dims = [int(d) for d in rng.integers(1, 4, size=n)]
        net = TreeNetwork(dims, edges)
        return Ttns(net, _graph_tensors(rng, n, dims, net.edges)).tensor_network()
    # outer products: no two tensors share a label
    shapes = [tuple(int(x) for x in rng.integers(1, 4, size=rng.integers(0, 3))) for _ in range(n)]
    labels, k = [], 0
    for shape in shapes:
        labels.append(tuple(range(k, k + len(shape))))
        k += len(shape)
    return [_cnormal(rng, sh) for sh in shapes], labels, tuple(rng.permutation(k).tolist())


@settings(max_examples=60, deadline=None)
@given(
    seed=SEEDS,
    kind=st.sampled_from(["chain", "ring", "tree", "outer", "single"]),
    n=st.integers(1, 6),
)
def test_contraction_is_bitwise_a_tensordot_replay_of_its_plan(seed, kind, n):
    # each planned step stores tensordot's transposes and shapes, so the
    # stored arithmetic must reproduce tensordot's bit for bit
    arrays, labels, open_labels = _network(np.random.default_rng(seed), kind, n)
    got = contract_network(arrays, labels, open_labels)
    want = _tensordot_replay(arrays, labels, open_labels)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)


def _refused_before_allocation(evaluate, state):
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError) as err:
            evaluate(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # bytes; the state alone would take 32 MiB
    return str(err.value)


def test_oversized_chain_state_is_refused_before_allocation():
    mps = MpsObc([np.ones((2, 1, 1), dtype=complex)] * 21)
    msg = _refused_before_allocation(eval_obc, mps)
    assert msg == f"contraction result with {2**21} entries exceeds cap of {2**20}"


def test_oversized_tree_state_is_refused_before_allocation():
    net = TreeNetwork([2] * 21, [(v, v // 2, 1) for v in range(2, 22)])
    tree = Ttns(net, [np.ones((2,) + (1,) * len(net.incident(v))) for v in range(1, 22)])
    msg = _refused_before_allocation(eval_ttns, tree)
    assert msg == f"contraction result with {2**21} entries exceeds cap of {2**20}"
