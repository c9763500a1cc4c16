"""Reference state families: W deformations, pair rings, fine-graining, AKLT."""
import itertools
import math

import numpy as np
import pytest

from tnslab.errors import CapacityError, DimensionMismatchError
from tnslab.mps_obc import eval_obc, right_canonicalize
from tnslab.mps_pbc import eval_pbc, injectivity_length, ti_mps, transfer_matrix
from tnslab.mps_pbc import MpsPbc
from tnslab.zoo import (
    FineGrainSpec,
    aklt_tensor,
    blbq_hamiltonian,
    block_cluster,
    fine_grain_A,
    fine_grained_psi_tau,
    psi_tau_tensors,
    psi_w,
    psi_w_timps_tensor,
    s_values,
    spin1_matrices,
    two_domain_state,
    w_obc_mps,
    w_state,
)

from helpers import (
    fidelity,
    mpo_dense,
    region_rho,
    w_max_entry_formula,
    w_overlap_formula,
)


# ---------------------------------------------------------------- W family


def test_w_state_amplitudes():
    w2 = w_state(2).array
    assert abs(w2[0, 1] - 1 / math.sqrt(2)) < 1e-15
    assert abs(w2[1, 0] - 1 / math.sqrt(2)) < 1e-15
    w3 = w_state(3).array
    hits = [idx for idx in np.ndindex(2, 2, 2) if abs(w3[idx]) > 0]
    assert sorted(hits) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    for n in range(2, 11):
        assert abs(np.linalg.norm(w_state(n).array) - 1.0) < 1e-12


@pytest.mark.parametrize("n", [3, 5, 7])
@pytest.mark.parametrize("eps", [1.0, 0.1, 0.01])
def test_psi_w_overlap_closed_form(n, eps):
    overlap = abs(np.vdot(w_state(n).array, psi_w(n, eps).array))
    assert abs(overlap - w_overlap_formula(n, eps)) < 1e-12
    assert abs(np.linalg.norm(psi_w(n, eps).array) - 1.0) < 1e-12


def test_psi_w_rejects_zero_eps():
    with pytest.raises(ValueError):
        psi_w(4, 0.0)
    with pytest.raises(ValueError):
        psi_w(4, -0.1)


def test_timps_tensor_reproduces_the_state():
    a = psi_w_timps_tensor(3, 0.5)
    got = eval_pbc(ti_mps(a.array, 3)).array.ravel()
    assert np.abs(got - psi_w(3, 0.5).array.ravel()).max() < 1e-12
    for n, eps in [(4, 0.3), (5, 0.05)]:
        a = psi_w_timps_tensor(n, eps)
        got = eval_pbc(ti_mps(a.array, n)).array.ravel()
        assert np.abs(got - psi_w(n, eps).array.ravel()).max() < 1e-10


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("eps", [1.0, 0.1, 0.001])
def test_timps_tensor_column_norm_closed_form(n, eps):
    # the bond-resolved kets A[:, a, b] realize the max; plain entry maxima
    # miss the sqrt(1 + eps^2) factor
    arr = psi_w_timps_tensor(n, eps).array
    col_norms = np.linalg.norm(arr, axis=0)
    assert abs(col_norms.max() - w_max_entry_formula(n, eps)) < 1e-10


def test_timps_entries_blow_up_at_small_eps():
    arr = psi_w_timps_tensor(5, 1e-3).array
    assert np.abs(arr).max() > 1.9


def test_w_obc_mps_is_exact_with_bond_two():
    for n in (3, 6):
        mps = w_obc_mps(n)
        assert mps.bond_dims == (2,) * (n - 1)
        got = eval_obc(mps).array
        assert np.abs(got - w_state(n).array).max() < 1e-12
        canon = right_canonicalize(mps)
        assert canon.bond_dims == (2,) * (n - 1)
        assert fidelity(eval_obc(canon).array, w_state(n).array) > 1 - 1e-12


# ---------------------------------------------------------- pair-ring family


def _dense_pair_ring(n, m, bulk, last):
    """Independent oracle: sum over symbol strings of products of weights."""
    arr = np.zeros(((m * m),) * n, dtype=complex)
    for symbols in itertools.product(range(m), repeat=n):
        idx = tuple(
            symbols[i] * m + symbols[(i + 1) % n] for i in range(n)
        )
        amp = 1.0
        for i in range(n):
            w = last if i == n - 1 else bulk
            amp *= w[symbols[i], symbols[(i + 1) % n]]
        arr[idx] = amp
    return arr


def test_pair_ring_at_unit_strength_marks_consistent_strings():
    got = eval_pbc(psi_tau_tensors(3, 2, 1.0)).array
    want = _dense_pair_ring(3, 2, np.ones((2, 2)), np.ones((2, 2)))
    assert np.abs(got - want).max() < 1e-12


def test_pair_ring_matches_weight_oracle():
    eps = 0.1
    bulk = np.full((2, 2), eps)
    np.fill_diagonal(bulk, 1.0)
    last = np.full((2, 2), 1.0 / eps)
    np.fill_diagonal(last, 1.0)
    got = eval_pbc(psi_tau_tensors(3, 2, eps)).array
    assert np.abs(got - _dense_pair_ring(3, 2, bulk, last)).max() < 1e-12


def test_pair_ring_last_site_entries_grow():
    mps = psi_tau_tensors(4, 2, 0.1)
    assert abs(np.abs(mps.tensors[-1].array).max() - 10.0) < 1e-12
    assert abs(np.abs(mps.tensors[0].array).max() - 1.0) < 1e-12


def test_pair_ring_is_injective_at_moderate_eps():
    mps = psi_tau_tensors(3, 2, 0.5)
    assert injectivity_length(mps.tensors[0].array, 8) == 1


# ------------------------------------------------------------- domain walls


def test_two_domain_coefficient_counts():
    for n, m, count in [(3, 2, 6), (4, 2, 8), (3, 3, 15)]:
        arr = two_domain_state(n, m).array
        assert int(np.count_nonzero(arr)) == count
        assert count == m + (n - 1) * m * (m - 1)
        vals = arr[np.abs(arr) > 0]
        assert np.abs(vals - 1.0).max() < 1e-15
        assert abs(np.linalg.norm(arr) ** 2 - count) < 1e-12


def test_two_domain_is_the_small_eps_limit():
    tau = two_domain_state(3, 2).array
    overlaps = []
    for eps in (1e-1, 1e-2, 1e-3):
        psi = eval_pbc(psi_tau_tensors(3, 2, eps)).array
        overlaps.append(fidelity(psi, tau))
    assert all(b > a for a, b in zip(overlaps, overlaps[1:]))
    assert overlaps[-1] > 0.999


def test_two_domain_site_density_matrices_are_full_rank():
    arr = two_domain_state(3, 2).array
    for site in range(3):
        rho = region_rho(arr, (4, 4, 4), [site])
        assert (np.linalg.eigvalsh(rho) > 1e-10).sum() == 4


# ------------------------------------------------------------ fine-graining


def test_fine_grain_spec_diagonal_basis():
    spec = FineGrainSpec((2, 3))
    assert spec.m == 6
    for i, d in enumerate(spec.factors):
        basis = spec.diagonal_basis[i]
        assert np.abs(basis[0] - np.eye(d) / math.sqrt(d)).max() == 0.0
        for k, dk in enumerate(basis):
            assert np.abs(dk - np.diag(np.diag(dk))).max() == 0.0
            assert np.abs(dk.imag).max() == 0.0
            for k2, dk2 in enumerate(basis):
                want = 1.0 if k == k2 else 0.0
                assert abs(np.trace(dk @ dk2) - want) < 1e-12


def test_fine_grain_spec_rejects_bad_factors():
    with pytest.raises(ValueError):
        FineGrainSpec(())
    with pytest.raises(ValueError):
        FineGrainSpec((2, 0))


@pytest.mark.parametrize("factors", [(2,), (2, 2), (3, 2)])
@pytest.mark.parametrize("alpha,beta", [(1.0, 0.1), (10.0, 1.0)])
def test_fine_grain_recontraction(factors, alpha, beta):
    spec = FineGrainSpec(factors)
    m = spec.m
    u_chain, s_mpo, v_chain = fine_grain_A(alpha, beta, spec)
    svals = s_values(s_mpo)
    dims = spec.factors
    acc = np.zeros((m * m, m * m), dtype=complex)
    for flat, ks in enumerate(np.ndindex(*dims)):
        dk = np.array([[1.0]])
        for i, k in enumerate(ks):
            dk = np.kron(dk, spec.diagonal_basis[i][k])
        acc += svals[flat] * np.kron(dk, dk)
    want = np.zeros((m * m, m * m))
    for a in range(m):
        for b in range(m):
            want[a * m + b, a * m + b] = alpha if a == b else beta
    assert np.abs(acc - want).max() < 1e-12
    assert abs(svals[0] - (m * beta + alpha - beta)) < 1e-15
    assert np.abs(svals[1:] - (alpha - beta)).max() < 1e-15
    # the u/v chains are the diagonal-basis coefficients verbatim
    for i, d in enumerate(dims):
        q = spec.q_matrix(i)
        for k in range(d):
            u_slice = u_chain[i].array[:, :, k]
            assert np.abs(u_slice - np.diag(q[k])).max() == 0.0
            v_slice = v_chain[i].array[:, k, :]
            assert np.abs(v_slice - np.diag(q[k])).max() == 0.0


def test_s_chain_block_shapes_and_dense_product():
    spec = FineGrainSpec((2, 2, 2))
    _, s_mpo, _ = fine_grain_A(1.0, 0.1, spec)
    shapes = [b.shape[:2] for b in s_mpo]
    assert shapes == [(1, 2), (2, 2), (2, 1)]
    dense = mpo_dense([b.array for b in s_mpo])
    assert np.abs(dense - np.diag(s_values(s_mpo))).max() < 1e-12
    single = fine_grain_A(1.0, 0.1, FineGrainSpec((4,)))[1]
    assert [b.shape[:2] for b in single] == [(1, 1)]


def test_equal_weights_collapse_the_s_chain():
    spec = FineGrainSpec((2, 2))
    _, s_mpo, _ = fine_grain_A(0.7, 0.7, spec)
    svals = s_values(s_mpo)
    assert abs(svals[0] - 4 * 0.7) < 1e-15
    assert np.abs(svals[1:]).max() < 1e-15


def test_fine_grain_printed_example_values():
    _, s_mpo, _ = fine_grain_A(1.0, 0.1, FineGrainSpec((2, 2)))
    svals = s_values(s_mpo)
    assert abs(svals[0] - 1.3) < 1e-15
    assert np.abs(svals[1:] - 0.9).max() < 1e-15


def test_block_cluster_trivial_and_scalar_cases():
    t = np.arange(12.0).reshape(3, 2, 2)
    out = block_cluster([t], [0])
    assert np.abs(out.array - t).max() == 0.0
    a = np.array([[[2.0]]])
    b = np.array([[[3.5]]])
    out = block_cluster([a, b], [0, 1])
    assert out.shape == (1, 1, 1)
    assert abs(out.array[0, 0, 0] - 7.0) < 1e-15


def test_block_cluster_rejects_bad_groupings():
    t = np.ones((2, 1, 1))
    with pytest.raises(ValueError):
        block_cluster([t, t], [0, 2])
    with pytest.raises(ValueError):
        block_cluster([t, t], [1, 0])
    with pytest.raises(ValueError):
        block_cluster([t], [])
    with pytest.raises(ValueError):
        block_cluster([t], [0, 1])


def _regroup_blocked_site(blocked, factors):
    """Reorder a blocked physical leg (x1, y1, x2, y2, ...) to (x-string, y-string)."""
    p = len(factors)
    m = math.prod(factors)
    arr = blocked.reshape(
        tuple(d for f in factors for d in (f, f)) + blocked.shape[1:]
    )
    perm = [2 * i for i in range(p)] + [2 * i + 1 for i in range(p)]
    perm += list(range(2 * p, arr.ndim))
    arr = arr.transpose(perm)
    return arr.reshape((m * m,) + blocked.shape[1:])


@pytest.mark.parametrize("eps", [1.0, 0.1])
def test_fine_grained_single_factor_is_the_coarse_chain(eps):
    spec = FineGrainSpec((2,))
    fine = fine_grained_psi_tau(3, 2, eps, spec)
    coarse = psi_tau_tensors(3, 2, eps)
    assert len(fine) == 3
    for f, c in zip(fine, coarse.tensors):
        assert np.abs(f.array - c.array).max() < 1e-12
    got = eval_pbc(MpsPbc([f.array for f in fine])).array
    assert np.abs(got - eval_pbc(coarse).array).max() < 1e-10


def test_fine_grained_blocks_back_to_coarse_sites():
    spec = FineGrainSpec((2, 2))
    eps = 0.1
    fine = fine_grained_psi_tau(3, 4, eps, spec)
    coarse = psi_tau_tensors(3, 4, eps)
    assert len(fine) == 6
    for site in range(3):
        blocked = block_cluster(fine, [2 * site, 2 * site + 1]).array
        regrouped = _regroup_blocked_site(blocked, spec.factors)
        assert np.abs(regrouped - coarse.tensors[site].array).max() < 1e-12


def test_fine_grained_state_reproduces_coarse_amplitudes():
    # evaluate the fine chain by blocking each run of two sites, then undo
    # the leg interleaving; MpsPbc takes the fine chain's rectangular bonds
    # too, and evaluating it unblocked gives the same amplitudes
    spec = FineGrainSpec((2, 2))
    eps = 0.1
    fine = fine_grained_psi_tau(3, 4, eps, spec)
    blocked = [block_cluster(fine, [2 * s, 2 * s + 1]).array for s in range(3)]
    psi_fine = eval_pbc(MpsPbc(blocked)).array
    assert np.array_equal(eval_pbc(MpsPbc(fine)).array.ravel(), psi_fine.ravel())
    arr = psi_fine.reshape((2,) * 12)
    perm = []
    for site in range(3):
        base = 4 * site
        perm.extend([base, base + 2, base + 1, base + 3])
    arr = arr.transpose(perm).reshape(16, 16, 16)
    want = eval_pbc(psi_tau_tensors(3, 4, eps)).array
    assert np.abs(arr - want).max() < 1e-10


def test_fine_grained_sites_are_a_ring_that_evaluates_directly():
    # the rectangular bonds inside each ring site need no blocking first
    spec = FineGrainSpec((2, 2))
    fine = fine_grained_psi_tau(3, 4, 0.1, spec)
    ring = MpsPbc(fine)
    assert ring.bond_dims == (8, 4, 8, 4, 8, 4)
    blocked = [block_cluster(fine, [2 * s, 2 * s + 1]).array for s in range(3)]
    want = eval_pbc(MpsPbc(blocked)).array.ravel()
    assert np.abs(eval_pbc(ring).array.ravel() - want).max() < 1e-12


def test_fine_grained_rejects_mismatched_spec():
    with pytest.raises(DimensionMismatchError):
        fine_grained_psi_tau(3, 5, 0.1, FineGrainSpec((2, 2)))


# ------------------------------------------------------------- spin chains


def test_aklt_transfer_spectrum():
    e = transfer_matrix(aklt_tensor().array / math.sqrt(3)).array
    vals = np.sort_complex(np.linalg.eigvals(e))
    assert abs(vals[-1] - 1.0) < 1e-10
    assert np.abs(vals[:-1] + 1.0 / 3.0).max() < 1e-10


def test_spin1_algebra():
    sx, sy, sz = spin1_matrices()
    assert np.abs(sx @ sy - sy @ sx - 1j * sz).max() < 1e-12
    casimir = sx @ sx + sy @ sy + sz @ sz
    assert np.abs(casimir - 2.0 * np.eye(3)).max() < 1e-12


def test_heisenberg_point_two_site_spectrum():
    h = blbq_hamiltonian(2, 0.0, pbc=False).array
    vals = np.linalg.eigvalsh(h)
    assert np.abs(vals[:1] + 2.0).max() < 1e-12
    assert np.abs(vals[1:4] + 1.0).max() < 1e-12
    assert np.abs(vals[4:] - 1.0).max() < 1e-12


def test_blbq_is_hermitian():
    h = blbq_hamiltonian(3, 0.7, pbc=True).array
    assert np.abs(h - h.conj().T).max() < 1e-12


def test_blbq_boundary_terms_differ():
    open_h = blbq_hamiltonian(3, 0.0, pbc=False).array
    ring_h = blbq_hamiltonian(3, 0.0, pbc=True).array
    assert np.abs(open_h - ring_h).max() > 1.0


def test_blbq_site_cap():
    with pytest.raises(CapacityError):
        blbq_hamiltonian(9, 0.0, pbc=True)


def test_aklt_state_is_a_ground_state_at_the_special_angle():
    theta = math.atan(1.0 / 3.0)
    n = 4
    h = blbq_hamiltonian(n, theta, pbc=True).array
    psi = eval_pbc(ti_mps(aklt_tensor().array, n)).array.ravel()
    psi = psi / np.linalg.norm(psi)
    e0 = np.linalg.eigvalsh(h)[0]
    assert np.linalg.norm(h @ psi - e0 * psi) < 1e-8
