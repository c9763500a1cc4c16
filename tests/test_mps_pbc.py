"""Periodic / translation-invariant MPS: transfer spectra, blocking, injectivity."""
import math

import numpy as np
import pytest

from tnslab import mps_pbc
from tnslab.errors import DimensionMismatchError, NormalizationError
from tnslab.mps_obc import MpsObc, eval_obc
from tnslab.mps_pbc import (
    MpsPbc,
    block_tensor,
    eval_pbc,
    injectivity_length,
    is_primitive,
    span_dimensions,
    ti_canonical_blocks,
    ti_mps,
    transfer_matrix,
    wielandt_bound,
)
from tnslab.zoo import aklt_tensor, psi_w, psi_w_timps_tensor

from helpers import fidelity


def _random_pbc(rng, n, d, m):
    shape = (d, m, m)
    return MpsPbc(
        [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(n)]
    )


def _random_isometric(rng, d, m):
    """Site tensor with sum_s A^s (A^s)^dag = I, drawn Haar-style."""
    mat = rng.standard_normal((m, d * m)) + 1j * rng.standard_normal((m, d * m))
    u, _, vdag = np.linalg.svd(mat, full_matrices=False)
    iso = u @ vdag
    return iso.reshape(m, d, m).transpose(1, 0, 2)


def test_eval_matches_trace_of_matrix_product():
    rng = np.random.default_rng(20)
    mps = _random_pbc(rng, 4, 2, 3)
    psi = eval_pbc(mps).array
    for idx in np.ndindex(2, 2, 2, 2):
        mat = np.eye(3, dtype=complex)
        for site, s in enumerate(idx):
            mat = mat @ mps.tensors[site].array[s]
        assert abs(psi[idx] - np.trace(mat)) < 1e-12


def test_bond_one_gives_product_of_scalars():
    rng = np.random.default_rng(21)
    vecs = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
    mps = MpsPbc([v.reshape(2, 1, 1) for v in vecs])
    psi = eval_pbc(mps).array
    want = np.einsum("i,j,k->ijk", *vecs)
    assert np.abs(psi - want).max() < 1e-12


def test_w_family_tensor_reproduces_closed_form_state():
    psi = eval_pbc(ti_mps(psi_w_timps_tensor(3, 0.5), 3)).array
    want = psi_w(3, 0.5).array
    assert np.abs(psi - want).max() < 1e-12


def test_aklt_norm_equals_transfer_trace():
    a = aklt_tensor()
    mps = ti_mps(a, 4)
    norm_sq = np.linalg.norm(eval_pbc(mps).array) ** 2
    e = transfer_matrix(a)
    want = np.trace(np.linalg.matrix_power(e.array, 4)).real
    assert abs(norm_sq - want) < 1e-10 * want


def test_cyclic_shift_invariance_of_ti_states():
    rng = np.random.default_rng(22)
    a = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    psi = eval_pbc(ti_mps(a, 5)).array
    rolled = np.moveaxis(psi, 0, 4)
    assert np.abs(psi - rolled).max() < 1e-12 * np.abs(psi).max()


def test_transfer_matrix_of_identity_tensor():
    a = np.eye(3).reshape(1, 3, 3)
    e = transfer_matrix(a)
    assert np.abs(e.array - np.eye(9)).max() < 1e-14


def test_transfer_matrix_isometric_spectral_radius():
    rng = np.random.default_rng(23)
    a = _random_isometric(rng, 2, 3)
    vals = np.linalg.eigvals(transfer_matrix(a).array)
    assert np.abs(vals).max() <= 1 + 1e-10
    assert np.min(np.abs(vals - 1.0)) < 1e-10


def test_w_family_transfer_trace_is_unit_norm():
    for n in (3, 5):
        a = psi_w_timps_tensor(n, 0.3)
        e = transfer_matrix(a).array
        norm_sq = np.trace(np.linalg.matrix_power(e, n)).real
        assert abs(norm_sq - 1.0) < 1e-10


def test_block_tensor_length_one_is_identity_operation():
    rng = np.random.default_rng(24)
    a = rng.standard_normal((2, 3, 3))
    assert np.abs(block_tensor(a, 1).array - a).max() == 0.0


def test_block_tensor_scalar_chain_multiplies_entries():
    a = np.array([2.0, 3.0]).reshape(2, 1, 1)
    blocked = block_tensor(a, 2).array
    want = np.array([4.0, 6.0, 6.0, 9.0]).reshape(4, 1, 1)
    assert np.abs(blocked - want).max() < 1e-14


def test_blocked_aklt_spans_full_matrix_space():
    dims = span_dimensions(aklt_tensor(), 2)
    assert dims[1] == 4


def test_wielandt_bound_values():
    assert wielandt_bound(2) == 56
    assert wielandt_bound(1) == 12
    assert wielandt_bound(4) == 256


def test_injectivity_lengths_of_reference_tensors():
    ones = np.ones((2, 1, 1)) / math.sqrt(2)
    assert injectivity_length(ones, 4) == 1
    assert injectivity_length(aklt_tensor(), 8) == 2
    assert injectivity_length(psi_w_timps_tensor(4, 0.5), 12) is None
    with pytest.raises(ValueError):
        injectivity_length(aklt_tensor(), 0)


def test_injectivity_is_monotone_once_reached():
    rng = np.random.default_rng(25)
    a = _random_isometric(rng, 4, 2)
    ell = injectivity_length(a, wielandt_bound(2))
    assert ell is not None
    # span_dimensions entry k covers block length k + 1
    dims = span_dimensions(a, ell + 3)
    for k in range(ell - 1, ell + 3):
        assert dims[k] == 4


def test_primitive_tensors_reach_injectivity_within_bound():
    rng = np.random.default_rng(26)
    for _ in range(5):
        a = _random_isometric(rng, 3, 2)
        if not is_primitive(a):
            continue
        assert injectivity_length(a, wielandt_bound(2)) is not None


def test_is_primitive_on_reference_tensors():
    assert is_primitive(aklt_tensor().array / math.sqrt(3)) is True
    # GHZ tensor: exactly isometric, yet the transfer channel keeps two
    # fixed sectors, so the top eigenvalue is degenerate.
    ghz = np.zeros((2, 2, 2))
    ghz[0, 0, 0] = 1.0
    ghz[1, 1, 1] = 1.0
    assert is_primitive(ghz) is False
    assert is_primitive(np.ones((2, 1, 1)) / math.sqrt(2)) is True


def test_is_primitive_requires_isometric_input():
    with pytest.raises(ValueError):
        is_primitive(aklt_tensor())


class TestCanonicalBlocks:
    def test_single_isometric_tensor_is_one_block(self):
        rng = np.random.default_rng(27)
        a = _random_isometric(rng, 2, 3)
        blocks = ti_canonical_blocks(a)
        assert len(blocks.blocks) == 1
        assert blocks.blocks[0][0] == pytest.approx(1.0, abs=1e-10)
        assert blocks.block_dims == (3,)

    def test_w_family_tensor_splits_into_two_scalars(self):
        blocks = ti_canonical_blocks(psi_w_timps_tensor(3, 0.5))
        assert blocks.block_dims == (1, 1)

    def test_direct_sum_recovers_scales(self):
        rng = np.random.default_rng(28)
        a1 = _random_isometric(rng, 2, 2)
        a2 = _random_isometric(rng, 2, 2)
        a = np.zeros((2, 4, 4), dtype=complex)
        a[:, :2, :2] = a1
        a[:, 2:, 2:] = 0.5 * a2
        blocks = ti_canonical_blocks(a)
        scales = tuple(alpha for alpha, _ in blocks.blocks)
        assert scales == pytest.approx((1.0, 0.5), abs=1e-8)

    def test_degenerate_identity_splits_into_valid_blocks(self):
        # two identical invariant subspaces: the split is not unique, but any
        # valid one reproduces the state
        a = np.eye(2).reshape(1, 2, 2) / math.sqrt(2)
        blocks = ti_canonical_blocks(a)
        assert blocks.block_dims == (1, 1)
        out = eval_pbc(ti_mps(blocks.tensor().array, 3)).array
        ref = eval_pbc(ti_mps(a, 3)).array
        assert fidelity(out, ref) > 1 - 1e-8

    def test_zero_state_raises(self):
        a = np.zeros((2, 2, 2))
        a[0, 0, 1] = 1.0
        with pytest.raises(NormalizationError):
            ti_canonical_blocks(a)

    @pytest.mark.parametrize("seed", [29, 30, 31])
    def test_block_invariants_and_state_recovery(self, seed):
        rng = np.random.default_rng(seed)
        d, m, n = 2, 4, 4
        a = rng.standard_normal((d, m, m)) + 1j * rng.standard_normal((d, m, m))
        blocks = ti_canonical_blocks(a)
        assert sum(blocks.block_dims) <= m
        for (_, t), lam in zip(blocks.blocks, blocks.fixed_points):
            arr = t.array
            mj = arr.shape[1]
            gram = sum(arr[s] @ arr[s].conj().T for s in range(d))
            assert np.abs(gram - np.eye(mj)).max() < 1e-8
            lam_arr = lam.array
            assert np.abs(lam_arr - np.diag(np.diag(lam_arr))).max() < 1e-10
            assert np.diag(lam_arr).real.min() > 0
            trans = sum(arr[s].conj().T @ lam_arr @ arr[s] for s in range(d))
            assert np.abs(trans - lam_arr).max() < 1e-8
        out = eval_pbc(ti_mps(blocks.tensor().array, n)).array
        ref = eval_pbc(ti_mps(a, n)).array
        assert fidelity(out, ref) > 1 - 1e-8

    @pytest.mark.parametrize(
        "a, branch, weights",
        [
            # a Jordan block: the unit-eigenvalue projector is not a fixed
            # point, so the positive fixed point comes from the basis search
            (
                [[[1, 1], [0, 1]], [[0, 0], [0, 0]]],
                "basis search",
                (1.0, 1.0),
            ),
            # the channel's support is not invariant, so the split is made on
            # the adjoint side
            (
                [[[1, 0], [1, 0.5]], [[0, 0], [0.3, 0.2]]],
                "adjoint split",
                (1.0, 0.538516),
            ),
        ],
    )
    def test_fallback_branches_reproduce_the_state(self, monkeypatch, a, branch, weights):
        reached = set()
        projector = mps_pbc._cluster_projector_on_identity
        recurse = mps_pbc._recurse_triangular

        def spy_projector(*args, **kwargs):
            x = projector(*args, **kwargs)
            if x is None:
                reached.add("basis search")
            return x

        def spy_recurse(*args, lower_left_zero, **kwargs):
            if not lower_left_zero:
                reached.add("adjoint split")
            return recurse(*args, lower_left_zero=lower_left_zero, **kwargs)

        monkeypatch.setattr(mps_pbc, "_cluster_projector_on_identity", spy_projector)
        monkeypatch.setattr(mps_pbc, "_recurse_triangular", spy_recurse)
        a = np.array(a, dtype=complex)
        blocks = ti_canonical_blocks(a)
        assert branch in reached
        assert blocks.block_dims == (1, 1)
        assert tuple(alpha for alpha, _ in blocks.blocks) == pytest.approx(weights, abs=1e-6)
        for _, t in blocks.blocks:
            arr = t.array
            gram = sum(arr[s] @ arr[s].conj().T for s in range(arr.shape[0]))
            assert np.abs(gram - np.eye(arr.shape[1])).max() < 1e-12
        for n in range(2, 7):
            out = eval_pbc(ti_mps(blocks.tensor().array, n)).array
            ref = eval_pbc(ti_mps(a, n)).array
            assert fidelity(out, ref) > 1 - 1e-12


def _direct_sum(*tensors):
    d = tensors[0].shape[0]
    out = np.zeros((d,) + (sum(t.shape[1] for t in tensors),) * 2, dtype=complex)
    at = 0
    for t in tensors:
        m = t.shape[1]
        out[:, at : at + m, at : at + m] = t
        at += m
    return out


def _similar_pair():
    # B and g B g^-1 generate the same ring states, so their channels share
    # the unit eigenvalue twice
    rng = np.random.default_rng(33)
    b = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return _direct_sum(b, np.einsum("ij,sjk,kl->sil", g, b, np.linalg.inv(g)))


@pytest.mark.parametrize(
    "a, dims",
    [
        (_direct_sum(aklt_tensor().array, aklt_tensor().array), (2, 2)),
        (_direct_sum(*[aklt_tensor().array] * 3), (2, 2, 2)),
        (_similar_pair(), (2, 2)),
    ],
    ids=["aklt+aklt", "aklt+aklt+aklt", "b+gbg^-1"],
)
def test_equal_weight_sums_project_through_the_sylvester_step(monkeypatch, a, dims):
    # equal weights put several eigenvalues in the unit cluster next to the
    # rest of the spectrum, so the cluster projector solves a Sylvester
    # equation; its result is the spectral projection of the identity, which
    # an eigendecomposition gives independently
    solves, errors = [], []
    solve = mps_pbc.scipy.linalg.solve_sylvester
    project = mps_pbc._cluster_projector_on_identity

    def spy_solve(*args):
        solves.append(1)
        return solve(*args)

    def spy_project(kmat, m):
        x = project(kmat, m)
        w, v = np.linalg.eig(kmat)
        unit = np.abs(w - 1.0) < 1e-6
        want = (v[:, unit] @ np.linalg.inv(v)[unit] @ np.eye(m).ravel()).reshape(m, m)
        want = want + want.conj().T
        errors.append(np.abs(x - want / np.linalg.norm(want)).max())
        return x

    monkeypatch.setattr(mps_pbc.scipy.linalg, "solve_sylvester", spy_solve)
    monkeypatch.setattr(mps_pbc, "_cluster_projector_on_identity", spy_project)
    blocks = ti_canonical_blocks(a)
    assert solves and errors and max(errors) < 1e-10
    assert blocks.block_dims == dims
    assert tuple(alpha for alpha, _ in blocks.blocks) == pytest.approx((1.0,) * len(dims), abs=1e-8)
    for _, t in blocks.blocks:
        arr = t.array
        gram = sum(arr[s] @ arr[s].conj().T for s in range(arr.shape[0]))
        assert np.abs(gram - np.eye(arr.shape[1])).max() < 1e-10
    for n in range(2, 7):
        out = eval_pbc(ti_mps(blocks.tensor().array, n)).array
        ref = eval_pbc(ti_mps(a, n)).array
        assert fidelity(out, ref) > 1 - 1e-10


def test_trace_consistency_between_eval_and_transfer():
    rng = np.random.default_rng(32)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        mps = _random_pbc(rng, n, d, m)
        norm_sq = np.linalg.norm(eval_pbc(mps).array) ** 2
        prod = np.eye(m * m, dtype=complex)
        for t in mps.tensors:
            prod = prod @ transfer_matrix(t.array).array
        want = np.trace(prod).real
        assert abs(norm_sq - want) < 1e-10 * max(1.0, abs(want))


_CHAIN_REFUSALS = {
    "no sites": (lambda: MpsPbc([]), ValueError, "an MPS needs at least one site"),
    "2-axis tensor": (
        lambda: MpsObc([np.ones((2, 1, 1)), np.ones((2, 1))]),
        DimensionMismatchError,
        "site 1 tensor has 2 axes, expected 3",
    ),
    "neighbouring bonds": (
        lambda: MpsObc([np.ones((2, 1, 2)), np.ones((2, 3, 1))]),
        DimensionMismatchError,
        "bond between sites 0 and 1 mismatches: 2 vs 3",
    ),
    "closing bond": (
        lambda: MpsPbc([np.ones((2, 2, 3)), np.ones((2, 3, 4))]),
        DimensionMismatchError,
        "bond between sites 1 and 0 mismatches: 4 vs 2",
    ),
    "open boundary bond 2": (
        lambda: MpsObc([np.ones((2, 2, 3)), np.ones((2, 3, 2))]),
        DimensionMismatchError,
        "boundary bonds must have dimension 1",
    ),
    "unequal ti tensors": (
        lambda: MpsPbc([np.ones((2, 2, 2)), np.zeros((2, 2, 2))], translation_invariant=True),
        ValueError,
        "translation_invariant requires identical site tensors",
    ),
}


@pytest.mark.parametrize("case", sorted(_CHAIN_REFUSALS))
def test_chain_refusals_pin_class_and_message(case):
    build, cls, message = _CHAIN_REFUSALS[case]
    with pytest.raises(cls) as info:
        build()
    assert info.type is cls and str(info.value) == message


def test_a_ring_may_change_bond_dimension_from_bond_to_bond():
    rng = np.random.default_rng(24)
    bonds = (2, 3, 1, 4)  # bond k joins sites k and k + 1; the last closes the ring
    shapes = [(2, bonds[k - 1], bonds[k]) for k in range(4)]
    mps = MpsPbc([rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes])
    assert mps.bond_dims == bonds
    assert repr(mps) == (
        "MpsPbc(site_dims=(2, 2, 2, 2), bond_dims=(2, 3, 1, 4), translation_invariant=False)"
    )
    psi = eval_pbc(mps).array
    for idx in np.ndindex(2, 2, 2, 2):
        mat = np.eye(bonds[-1], dtype=complex)
        for site, s in enumerate(idx):
            mat = mat @ mps.tensors[site].array[s]
        assert abs(psi[idx] - np.trace(mat)) < 1e-12


def test_an_open_chain_is_a_ring_whose_closing_bond_is_one():
    rng = np.random.default_rng(25)
    shapes = [(2, 1, 3), (3, 3, 2), (2, 2, 1)]
    chain = MpsObc([rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes])
    assert isinstance(chain, MpsPbc) and not chain.translation_invariant
    assert chain.bond_dims == (3, 2)
    assert MpsPbc(chain.tensors).bond_dims == (3, 2, 1)
    assert repr(chain) == "MpsObc(site_dims=(2, 3, 2), bond_dims=(3, 2))"
    assert np.array_equal(eval_obc(chain).array, eval_pbc(chain).array)
