"""Tests for the dense-tensor kernels: contraction, SVD ranks, RQ/QR splits."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnslab.errors import CapacityError, DimensionMismatchError, NormalizationError
from tnslab.tensors import (
    DEFAULT_CAPACITY_CAP,
    TALL_RATIO,
    DenseTensor,
    capacity_cap,
    check_capacity,
    contract,
    matrix_rank,
    reduced_qr,
    reduced_rq,
    split_leg,
    svd,
)


def test_dense_tensor_is_immutable_complex():
    t = DenseTensor([[1.0, 2.0], [3.0, 4.0]])
    assert t.shape == (2, 2)
    assert t.array.dtype == np.complex128
    with pytest.raises(ValueError):
        t.array[0, 0] = 5.0


def test_dense_tensor_reshape_and_flat_data():
    t = DenseTensor(np.arange(6.0), shape=(2, 3))
    assert t.shape == (2, 3)
    assert t[1, 2] == 5.0


def test_dense_tensor_rejects_nonfinite():
    with pytest.raises(ValueError):
        DenseTensor([1.0, np.inf])
    with pytest.raises(ValueError):
        DenseTensor([np.nan])


def test_contract_matches_einsum():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
    b = rng.standard_normal((5, 4, 2)) + 1j * rng.standard_normal((5, 4, 2))
    got = contract(a, b, [(2, 0), (1, 1)])
    want = np.einsum("ijk,kjl->il", a, b)
    assert np.allclose(got.array, want, atol=1e-13)


def test_contract_dimension_mismatch():
    a = np.ones((2, 3))
    b = np.ones((4, 2))
    with pytest.raises(DimensionMismatchError):
        contract(a, b, [(1, 0)])
    with pytest.raises(DimensionMismatchError):
        contract(a, b, [(0, 7)])


def test_svd_rank_and_reconstruction():
    rng = np.random.default_rng(1)
    left = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    right = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    mat = left @ right
    res = svd(mat)
    assert res.rank == 3
    rebuilt = res.u.array @ np.diag(res.s) @ res.vdag.array
    assert np.abs(rebuilt - mat).max() < 1e-12


def test_matrix_rank_relative_tolerance():
    mat = np.diag([1.0, 1e-5, 1e-12])
    assert matrix_rank(mat) == 2
    assert matrix_rank(mat, tol=1e-14) == 3
    assert matrix_rank(np.zeros((3, 3))) == 0


@given(
    k=st.integers(min_value=1, max_value=6),
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=40, deadline=None)
def test_reduced_rq_reconstructs_with_isometric_q(k, n, seed):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    r, q = reduced_rq(mat)
    rank = q.shape[0]
    assert rank <= min(k, n)
    assert np.abs(r.array @ q.array - mat).max() < 1e-10
    assert np.abs(q.array @ q.array.conj().T - np.eye(rank)).max() < 1e-12


def test_reduced_rq_trims_rank_deficient_rows():
    rng = np.random.default_rng(3)
    row = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    mat = np.outer(rng.standard_normal(5), row)
    r, q = reduced_rq(mat)
    assert q.shape == (1, 4)
    assert np.abs(r.array @ q.array - mat).max() < 1e-12


@given(n=st.integers(min_value=1, max_value=8), data=st.data())
@settings(max_examples=40, deadline=None)
def test_reduced_rq_of_a_tall_matrix_splits_through_its_triangle(n, data):
    # k >= TALL_RATIO * n: the rank is decided on the n x n triangle of m = Q1 R1
    k = data.draw(st.integers(min_value=TALL_RATIO * n, max_value=4096))
    rank = data.draw(st.integers(min_value=0, max_value=n))
    real = data.draw(st.booleans())
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=10**6)))

    def isometry(rows):
        g = rng.standard_normal((rows, rank))
        if not real:
            g = g + 1j * rng.standard_normal((rows, rank))
        return np.linalg.qr(g)[0]

    # singular values in [0.5, 1] and then exact zeros: a clear gap
    s = rng.uniform(0.5, 1.0, rank)
    mat = ((isometry(k) * s) @ isometry(n).conj().T).astype(np.complex128)
    r, q = reduced_rq(mat)
    assert q.shape[0] == matrix_rank(mat) == rank
    assert (r.shape, q.shape) == ((k, rank), (rank, n))
    assert np.linalg.norm(r.array @ q.array - mat) <= 1e-12 * np.linalg.norm(mat)
    assert np.abs(q.array @ q.array.conj().T - np.eye(rank)).max(initial=0.0) < 1e-12


@pytest.mark.parametrize("shape", [(6, 5), (96, 4)], ids=["direct", "tall"])
def test_a_real_matrix_splits_in_real_arithmetic_like_its_phase_rotation(shape):
    rng = np.random.default_rng(5)
    mat = (rng.standard_normal((shape[0], 3)) @ rng.standard_normal((3, shape[1]))).astype(complex)
    phase = np.exp(1j * np.pi / 7)
    (r, q), (r_c, q_c) = reduced_rq(mat), reduced_rq(phase * mat)
    assert q.shape[0] == q_c.shape[0] == matrix_rank(mat) == 3
    for t in (r, q, r_c, q_c):
        assert isinstance(t, DenseTensor) and t.array.dtype == np.complex128
    assert not r.array.imag.any() and not q.array.imag.any()
    assert np.abs(r.array @ q.array - mat).max() < 1e-12
    assert np.abs(r.array @ q.array - (r_c.array @ q_c.array) / phase).max() < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.inf)])
@pytest.mark.parametrize("shape", [(3, 4), (64, 2)], ids=["direct", "tall"])
def test_reduced_rq_refuses_non_finite_entries(shape, bad):
    mat = np.ones(shape, dtype=np.complex128)
    mat[1, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be finite"):
            reduced_rq(mat)


def test_reduced_qr_is_the_transpose_companion():
    rng = np.random.default_rng(4)
    mat = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    q, r = reduced_qr(mat)
    rank = q.shape[1]
    assert np.abs(q.array @ r.array - mat).max() < 1e-10
    assert np.abs(q.array.conj().T @ q.array - np.eye(rank)).max() < 1e-12


def test_zero_matrix_rq_has_rank_zero():
    r, q = reduced_rq(np.zeros((3, 4)))
    assert q.shape == (0, 4)
    assert r.shape == (3, 0)


@given(
    shape=st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=4),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_split_leg_cuts_a_leg_to_the_rank_of_its_unfolding(shape, data):
    axis = data.draw(st.integers(min_value=0, max_value=len(shape) - 1))
    others = shape[:axis] + shape[axis + 1 :]
    rank = data.draw(st.integers(min_value=1, max_value=min(shape[axis], math.prod(others))))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=10**6)))

    def isometry(rows):
        g = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
        return np.linalg.qr(g)[0]

    # singular values in [0.5, 1] and then exact zeros: a clear gap
    s = rng.uniform(0.5, 1.0, rank)
    unfolding = (isometry(shape[axis]) * s) @ isometry(math.prod(others)).conj().T
    arr = np.moveaxis(unfolding.reshape([shape[axis]] + others), 0, axis)
    q, r = split_leg(arr, axis)
    cut = q.shape[axis]
    assert cut == matrix_rank(unfolding) == rank
    assert q.shape == tuple(shape[:axis] + [cut] + shape[axis + 1 :])
    assert r.shape == (shape[axis], cut)
    rows = np.moveaxis(q, axis, 0).reshape(cut, -1)
    assert np.abs(rows @ rows.conj().T - np.eye(cut)).max() < 1e-12
    rebuilt = np.moveaxis(np.tensordot(q, r, axes=([axis], [1])), -1, axis)
    assert np.abs(rebuilt - arr).max() < 1e-12


def test_split_leg_of_a_zero_tensor_raises():
    with pytest.raises(NormalizationError):
        split_leg(np.zeros((2, 3, 2)), 1)


def test_check_capacity_raises_over_cap():
    check_capacity(10, cap=10)
    with pytest.raises(CapacityError):
        check_capacity(11, cap=10)


def test_capacity_cap_env_override(monkeypatch):
    monkeypatch.delenv("TNS_CAPACITY_CAP", raising=False)
    assert capacity_cap() == DEFAULT_CAPACITY_CAP
    monkeypatch.setenv("TNS_CAPACITY_CAP", "1000")
    assert capacity_cap() == 1000
    with pytest.raises(CapacityError):
        check_capacity(1001)


@pytest.mark.parametrize("raw", ["abc", "1e6", "1.5", "0", "-5"])
def test_capacity_cap_refuses_values_that_are_not_positive_integers(monkeypatch, raw):
    monkeypatch.setenv("TNS_CAPACITY_CAP", raw)
    with pytest.raises(ValueError) as info:
        capacity_cap()
    assert str(info.value) == f"TNS_CAPACITY_CAP must be an integer of at least 1, got {raw!r}"
    with pytest.raises(ValueError, match="TNS_CAPACITY_CAP"):
        check_capacity(1)
