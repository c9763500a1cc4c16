"""Open-boundary matrix product states: exact ranks, canonical form, gauges."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnslab import tensors
from tnslab.errors import CapacityError, InvertibilityError, NormalizationError, RankError
from tnslab.mera import eval_mera, random_mera
from tnslab.mps_obc import (
    MpsObc,
    eval_obc,
    from_state_obc,
    gauge_transform,
    right_canonicalize,
    schmidt,
    schmidt_profile,
)
from tnslab.tensors import DEFAULT_TOL, TALL_RATIO, WORKING_TOL, reduced_rq
from tnslab.ttns import TreeNetwork, from_state_ttns
from tnslab.zoo import psi_w, two_domain_state, w_state

from helpers import bipartition_rank, fidelity, random_state


def _random_mps(rng, dims, bonds):
    """Random OBC tensor chain with prescribed interior bond dimensions."""
    full = (1,) + tuple(bonds) + (1,)
    tensors = []
    for i, d in enumerate(dims):
        shape = (d, full[i], full[i + 1])
        tensors.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return MpsObc(tensors)


def test_scalar_chain_evaluates_to_one():
    mps = MpsObc([np.ones((1, 1, 1))] * 4)
    psi = eval_obc(mps)
    assert psi.shape == (1, 1, 1, 1)
    assert abs(psi[0, 0, 0, 0] - 1.0) < 1e-15


def test_eval_matches_brute_force_contraction():
    rng = np.random.default_rng(5)
    mps = _random_mps(rng, (2, 3, 2), (2, 3))
    psi = eval_obc(mps).array
    for idx in np.ndindex(2, 3, 2):
        mat = np.eye(1)
        for site, s in enumerate(idx):
            mat = mat @ mps.tensors[site].array[s]
        assert abs(psi[idx] - mat[0, 0]) < 1e-12


def test_from_state_w_gives_single_excitation_amplitudes():
    w = w_state(3)
    mps = from_state_obc(w, (2, 2, 2))
    psi = eval_obc(mps).array
    amp = 1.0 / math.sqrt(3)
    for idx in np.ndindex(2, 2, 2):
        want = amp if sum(idx) == 1 else 0.0
        assert abs(psi[idx] - want) < 1e-12


def test_from_state_product_has_unit_bonds():
    rng = np.random.default_rng(6)
    parts = [random_state(rng, (d,)) for d in (2, 3, 2, 2)]
    psi = parts[0]
    for p in parts[1:]:
        psi = np.kron(psi, p)
    mps = from_state_obc(psi, (2, 3, 2, 2))
    assert mps.bond_dims == (1, 1, 1)
    assert fidelity(eval_obc(mps).array, psi) > 1 - 1e-12


def test_from_state_w5_interior_bonds_are_two():
    mps = from_state_obc(w_state(5), (2,) * 5)
    assert mps.bond_dims == (2, 2, 2, 2)


def test_from_state_random_six_qubits_full_ranks():
    rng = np.random.default_rng(7)
    psi = random_state(rng, (2,) * 6)
    mps = from_state_obc(psi, (2,) * 6)
    assert mps.bond_dims == (2, 4, 8, 4, 2)
    assert fidelity(eval_obc(mps).array, psi) > 1 - 1e-12


def test_from_state_bond_cap_below_rank_raises():
    rng = np.random.default_rng(8)
    psi = random_state(rng, (2,) * 6)
    with pytest.raises(RankError):
        from_state_obc(psi, (2,) * 6, max_bond=4)


def test_from_state_requires_normalization():
    with pytest.raises(NormalizationError):
        from_state_obc(2.0 * w_state(3).array, (2, 2, 2))


def test_right_canonicalize_isometry_and_fidelity():
    rng = np.random.default_rng(9)
    mps = _random_mps(rng, (2, 2, 2, 2), (3, 3, 3))
    before = eval_obc(mps).array
    canon = right_canonicalize(mps)
    after = eval_obc(canon).array
    assert fidelity(before, after) > 1 - 1e-12
    # canonical form carries unit norm; the original scale is dropped
    assert abs(np.linalg.norm(after) - 1.0) < 1e-10
    for t in canon.tensors:
        arr = t.array
        mat = arr.transpose(1, 0, 2).reshape(arr.shape[1], -1)
        assert np.abs(mat @ mat.conj().T - np.eye(arr.shape[1])).max() < 1e-10


def test_right_canonicalize_collapses_padded_bonds():
    rng = np.random.default_rng(10)
    base = from_state_obc(random_state(rng, (2,) * 4), (2,) * 4)
    padded = []
    full = (1,) + tuple(2 * b for b in base.bond_dims) + (1,)
    for i, t in enumerate(base.tensors):
        arr = np.zeros((t.shape[0], full[i], full[i + 1]), dtype=complex)
        arr[:, : t.shape[1], : t.shape[2]] = t.array
        padded.append(arr)
    canon = right_canonicalize(MpsObc(padded))
    assert canon.bond_dims == base.bond_dims


def test_right_canonicalize_twice_is_stable():
    # individual tensors are only fixed up to bond rotations, so compare
    # shapes and the generated state rather than raw entries
    rng = np.random.default_rng(11)
    mps = _random_mps(rng, (2, 3, 2), (2, 2))
    once = right_canonicalize(mps)
    twice = right_canonicalize(once)
    for a, b in zip(once.tensors, twice.tensors):
        assert a.shape == b.shape
    assert fidelity(eval_obc(once).array, eval_obc(twice).array) > 1 - 1e-12


def test_right_canonicalize_w_state_bond_two():
    mps = from_state_obc(w_state(4), (2,) * 4)
    canon = right_canonicalize(mps)
    assert canon.bond_dims == (2, 2, 2)
    assert fidelity(eval_obc(canon).array, w_state(4)) > 1 - 1e-12


def test_right_canonicalize_zero_state_raises():
    with pytest.raises(NormalizationError):
        right_canonicalize(MpsObc([np.zeros((2, 1, 2)), np.zeros((2, 2, 1))]))


def test_right_canonicalize_phase_convention():
    # the largest-magnitude amplitude of the evaluated state ends up on the
    # positive real axis, so equal states get equal tensors
    rng = np.random.default_rng(12)
    psi = random_state(rng, (2, 2, 2))
    a = right_canonicalize(from_state_obc(psi, (2, 2, 2)))
    b = right_canonicalize(from_state_obc(np.exp(0.7j) * psi, (2, 2, 2)))
    amp_a = eval_obc(a).array.ravel()
    amp_b = eval_obc(b).array.ravel()
    top = np.argmax(np.abs(amp_a))
    assert amp_a[top].imag == pytest.approx(0.0, abs=1e-10)
    assert amp_a[top].real > 0
    assert np.abs(amp_a - amp_b).max() < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_right_canonicalize_takes_two_leg_splits_per_bond(monkeypatch, n):
    # a chain is a path tree: no vertex has two children, so the tree code
    # skips its first sweep and each bond is split once in each direction
    calls = []
    monkeypatch.setattr("tnslab.tensors.reduced_rq", lambda m: calls.append(1) or reduced_rq(m))
    mps = _random_mps(np.random.default_rng(n), (2,) * n, (3,) * (n - 1))
    canon = right_canonicalize(mps)
    assert len(calls) == 2 * (n - 1)
    assert fidelity(eval_obc(canon).array, eval_obc(mps).array) > 1 - 1e-12


def test_canonical_entries_are_bounded_by_left_bond():
    rng = np.random.default_rng(13)
    mps = _random_mps(rng, (2, 2, 2, 2, 2), (4, 6, 6, 4))
    canon = right_canonicalize(mps)
    for t in canon.tensors:
        bound = math.sqrt(t.shape[1]) + 1e-10
        assert np.abs(t.array).max() <= bound


def test_schmidt_product_state_rank_one():
    rng = np.random.default_rng(14)
    left = random_state(rng, (2,))
    right = random_state(rng, (3,))
    data = schmidt(np.kron(left, right), (2, 3), cut=1)
    assert data.rank == 1
    assert abs(data.coefficients[0] - 1.0) < 1e-12


def test_schmidt_w4_middle_cut():
    data = schmidt(w_state(4), (2,) * 4, cut=2)
    assert data.rank == 2
    assert abs(np.sum(data.coefficients**2) - 1.0) < 1e-10


@pytest.mark.parametrize("m", [2, 3, 4])
def test_schmidt_maximally_entangled_pair(m):
    psi = np.eye(m).ravel() / math.sqrt(m)
    data = schmidt(psi, (m, m), cut=1)
    assert data.rank == m
    assert np.abs(data.coefficients - 1.0 / math.sqrt(m)).max() < 1e-12


def test_schmidt_rejects_boundary_cuts():
    with pytest.raises(ValueError):
        schmidt(w_state(3), (2, 2, 2), cut=0)
    with pytest.raises(ValueError):
        schmidt(w_state(3), (2, 2, 2), cut=3)


def test_schmidt_weights_sum_to_squared_norm():
    rng = np.random.default_rng(15)
    psi = 0.25 * random_state(rng, (2, 3, 2))
    data = schmidt(psi, (2, 3, 2), cut=2)
    assert abs(np.sum(data.coefficients**2) - 0.25**2) < 1e-10


def test_gauge_identity_leaves_tensors_alone():
    rng = np.random.default_rng(16)
    mps = _random_mps(rng, (2, 2, 2), (2, 2))
    out = gauge_transform(mps, 1, np.eye(2))
    for a, b in zip(mps.tensors, out.tensors):
        assert np.abs(a.array - b.array).max() < 1e-12


def test_gauge_scaling_preserves_the_state():
    rng = np.random.default_rng(17)
    mps = _random_mps(rng, (2, 2, 2), (2, 2))
    out = gauge_transform(mps, 2, 2.0 * np.eye(2))
    assert np.abs(eval_obc(out).array - eval_obc(mps).array).max() < 1e-12


def test_gauge_invariance_for_random_invertible_matrices():
    rng = np.random.default_rng(18)
    for _ in range(100):
        n = int(rng.integers(3, 6))
        bonds = tuple(int(rng.integers(1, 4)) for _ in range(n - 1))
        mps = _random_mps(rng, (2,) * n, bonds)
        bond = int(rng.integers(1, n))
        m = bonds[bond - 1]
        z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        z += 3.0 * np.eye(m)
        ref = eval_obc(mps).array
        out = eval_obc(gauge_transform(mps, bond, z)).array
        assert np.abs(out - ref).max() < 1e-10 * max(1.0, np.abs(ref).max())


def test_gauge_singular_matrix_raises():
    rng = np.random.default_rng(19)
    mps = _random_mps(rng, (2, 2), (2,))
    with pytest.raises(InvertibilityError):
        gauge_transform(mps, 1, np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        gauge_transform(mps, 0, np.eye(2))


@given(
    n=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=25, deadline=None)
def test_round_trip_recovers_ranks_and_state(n, seed):
    rng = np.random.default_rng(seed)
    dims = tuple(int(rng.integers(2, 4)) for _ in range(n))
    psi = random_state(rng, dims)
    mps = from_state_obc(psi, dims)
    for cut in range(1, n):
        want = bipartition_rank(psi, dims, list(range(cut)))
        got = 1 if n == 1 else mps.bond_dims[cut - 1]
        assert got == want
    assert fidelity(eval_obc(mps).array, psi) > 1 - 1e-10


def test_every_leg_split_is_one_reduced_rq_call(monkeypatch):
    # the tall route factors inside the one call; it must not call the public name again
    shapes = []
    split = tensors.reduced_rq

    def counted(m):
        shapes.append(np.shape(m))
        return split(m)

    monkeypatch.setattr(tensors, "reduced_rq", counted)
    rng = np.random.default_rng(8)
    for n in (2, 7, 10):
        shapes.clear()
        from_state_obc(random_state(rng, (2,) * n), [2] * n)
        assert len(shapes) == n - 1
    assert any(k >= TALL_RATIO * m for k, m in shapes)
    n = 16  # a heap-ordered binary tree, rooted at a leaf
    tree = TreeNetwork((2,) * n, [(v // 2, v, 2 ** (n // 2)) for v in range(2, n + 1)])
    shapes.clear()
    from_state_ttns(random_state(rng, (2,) * n), tree, n)
    assert len(shapes) == n - 1


def test_schmidt_of_a_real_state_matches_the_complex_route():
    # a global phase leaves the Schmidt values alone but forces complex arithmetic
    n = 16
    psi = w_state(n).array
    phase = np.exp(1j * np.pi / 7)
    for cut in range(1, n):
        got, want = schmidt(psi, [2] * n, cut), schmidt(phase * psi, [2] * n, cut)
        assert got.rank == want.rank == 2
        assert np.abs(got.coefficients - want.coefficients).max() <= 1e-14


@pytest.mark.parametrize(
    "build", [lambda: w_state(16), lambda: two_domain_state(6, 2)], ids=["w16", "two_domain"]
)
def test_schmidt_profile_of_a_real_state_matches_the_complex_route(monkeypatch, build):
    psi = build().array
    dims = list(psi.shape)
    svd, kinds = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: kinds.append(a.dtype) or svd(a, **kw))
    got = schmidt_profile(psi, dims)
    real = set(kinds)
    want = schmidt_profile(np.exp(1j * np.pi / 7) * psi, dims)
    assert real == {np.dtype(np.float64)} and set(kinds) - real == {np.dtype(np.complex128)}
    assert [p.rank for p in got] == [p.rank for p in want]
    for g, w in zip(got, want):
        assert g.coefficients.dtype == np.float64
        assert np.abs(g.coefficients - w.coefficients).max() <= 1e-14


def _assert_profile_matches_per_cut(psi, dims):
    profile = schmidt_profile(psi, dims)
    want = [schmidt(psi, dims, cut) for cut in range(1, len(dims))]
    assert [p.cut for p in profile] == list(range(1, len(dims)))
    assert [p.rank for p in profile] == [w.rank for w in want]
    for got, ref in zip(profile, want):
        assert got.coefficients.shape == ref.coefficients.shape
        if ref.rank:
            assert np.abs(got.coefficients - ref.coefficients).max() <= 1e-12
    return profile


def _product_state(rng, dims):
    psi = np.ones(1)
    for d in dims:
        psi = np.kron(psi, random_state(rng, (d,)))
    return psi


@pytest.mark.parametrize(
    "name",
    ["w", "psi_w_small_eps", "psi_w_large_eps", "two_domain", "random",
     "mera", "product", "mixed_random", "mixed_low_rank"],
)
def test_schmidt_profile_matches_per_cut_schmidt(name):
    rng = np.random.default_rng(71)
    if name == "w":
        psi, dims = w_state(9), [2] * 9
    elif name == "psi_w_small_eps":
        psi, dims = psi_w(10, 1e-2), [2] * 10
    elif name == "psi_w_large_eps":
        psi, dims = psi_w(10, 0.3), [2] * 10
    elif name == "two_domain":
        psi, dims = two_domain_state(5, 2), [4] * 5
    elif name == "random":
        psi, dims = random_state(rng, (2,) * 10), [2] * 10
    elif name == "mera":
        psi, dims = eval_mera(random_mera(8, 2, 2, 5)), [2] * 8
    elif name == "product":
        dims = [2, 3, 2, 4, 2]
        psi = _product_state(rng, dims)
    elif name == "mixed_random":
        dims = [2, 3, 4, 2]
        psi = random_state(rng, dims)
    else:
        dims = [2, 3, 4, 2, 3]
        psi = eval_obc(_random_mps(rng, dims, (2, 2, 3, 1)))
    _assert_profile_matches_per_cut(psi, dims)


@pytest.mark.parametrize("factor", [1 - 1e-2, 1 + 1e-2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_schmidt_profile_near_the_rank_tolerance(factor, seed):
    """|0...0> + factor * DEFAULT_TOL |1...1> under random local unitaries:
    Schmidt values (1, factor * DEFAULT_TOL) at every cut."""
    rng = np.random.default_rng(seed)
    n = 7
    psi = np.zeros(2**n, dtype=complex)
    psi[0], psi[-1] = 1.0, factor * DEFAULT_TOL
    for k in range(n):
        u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        psi = np.einsum("ab,ibj->iaj", u, psi.reshape(2**k, 2, -1)).ravel()
    profile = _assert_profile_matches_per_cut(psi, [2] * n)
    assert [p.rank for p in profile] == [2 if factor > 1 else 1] * (n - 1)


def test_schmidt_profile_of_the_zero_state_and_of_one_site():
    profile = _assert_profile_matches_per_cut(np.zeros(2**5), [2] * 5)
    assert [p.rank for p in profile] == [0] * 4
    assert all(p.coefficients.size == 0 for p in profile)
    assert schmidt_profile(np.ones(3), [3]) == []


def test_schmidt_profile_rejects_dims_that_do_not_fit():
    with pytest.raises(ValueError):
        schmidt_profile(np.ones(8), [2, 3])


def test_working_tolerance_sits_decades_below_the_rank_tolerance():
    assert 0.0 < WORKING_TOL <= 1e-3 * DEFAULT_TOL


def _svd_spy(monkeypatch):
    calls = []
    real = np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


def test_schmidt_profile_never_compresses_a_full_rank_state(monkeypatch):
    rng = np.random.default_rng(72)
    dims = [2, 3, 4, 2, 2]
    psi = random_state(rng, dims)
    calls = _svd_spy(monkeypatch)
    profile = schmidt_profile(psi, dims)
    assert [p.rank for p in profile] == [2, 6, 4, 2]
    assert calls == [False] * 4  # values-only, one per cut, no thin SVD


def test_schmidt_profile_compresses_a_low_rank_state(monkeypatch):
    calls = _svd_spy(monkeypatch)
    schmidt_profile(w_state(6), [2] * 6)
    assert calls.count(False) == 5 and calls.count(True) >= 1


def test_schmidt_profile_factor_is_capacity_checked(monkeypatch):
    psi = w_state(14)
    # cut 13 keeps its 8192 x 2 matrix; cut 12 compresses 4096 x 4 to 4096 x 2
    monkeypatch.setenv("TNS_CAPACITY_CAP", str(8191))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError) as err:
            schmidt_profile(psi, [2] * 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "Schmidt profile factor with 8192 entries exceeds cap of 8191"
    assert peak < 2**20  # bytes
