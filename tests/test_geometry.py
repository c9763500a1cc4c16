"""Dimension counting for the pair-ring orbit: stabilizers and Jacobian ranks."""
import numpy as np
import pytest

from tnslab.errors import CapacityError
from tnslab.geometry import (
    geometry_report,
    jacobian_rank,
    mu_ring_state,
    predicted_dims,
    random_injective_point,
    stabilizer_lie_dim,
)
from tnslab.mps_pbc import MpsPbc, eval_pbc
from tnslab.zoo import two_domain_state, w_state


def test_predicted_dims_reference_point():
    pred = predicted_dims(3, 2)
    assert pred.dim_G == 46
    assert pred.dim_G_mu == 9
    assert pred.dim_G_tau == 10
    assert pred.dim_pmps == 37


@pytest.mark.parametrize("n,m", [(3, 1), (3, 2), (4, 2), (5, 3)])
def test_predicted_dims_orbit_identity(n, m):
    pred = predicted_dims(n, m)
    assert pred.dim_pmps == pred.dim_G - pred.dim_G_mu
    if m == 1:
        assert pred.dim_G_tau == 0
    else:
        assert pred.dim_G_tau > pred.dim_G_mu


def test_predicted_dims_input_validation():
    with pytest.raises(ValueError):
        predicted_dims(2, 2)
    with pytest.raises(ValueError):
        predicted_dims(3, 0)


def test_stabilizer_dimension_of_the_pair_seed():
    assert stabilizer_lie_dim(mu_ring_state(3, 2), [4, 4, 4]) == 9


def test_stabilizer_dimension_of_the_two_domain_state():
    assert stabilizer_lie_dim(two_domain_state(3, 2), [4, 4, 4]) == 10


def test_stabilizer_is_constant_along_the_orbit():
    # generic invertible deformations keep the pair-seed stabilizer dimension
    for seed in range(10):
        arrs = [np.asarray(t) for t in random_injective_point(3, 2, seed)]
        psi = eval_pbc(MpsPbc(arrs))
        assert stabilizer_lie_dim(psi, [4, 4, 4]) == 9


def test_stabilizer_of_a_product_state():
    # |00>: the kernel is cut out by X_1[1,0] = X_2[1,0] = 0 and
    # X_1[0,0] + X_2[0,0] = 0, leaving 5 of 8 parameters, one of which is
    # the quotiented identity tuple
    psi = np.zeros((2, 2))
    psi[0, 0] = 1.0
    assert stabilizer_lie_dim(psi, [2, 2]) == 4


def test_stabilizer_capacity_cap():
    psi = w_state(3, d=16).array
    with pytest.raises(CapacityError):
        stabilizer_lie_dim(psi, [16, 16, 16])


def test_stabilizer_matrix_goes_through_the_capacity_guard(monkeypatch):
    psi = w_state(4)
    monkeypatch.setenv("TNS_CAPACITY_CAP", "100")  # the map is 16 x 16
    with pytest.raises(CapacityError):
        stabilizer_lie_dim(psi, [2] * 4)


def test_jacobian_rank_at_an_injective_point():
    assert jacobian_rank(random_injective_point(3, 2, seed=0)) == 37


def test_jacobian_rank_consistency_with_stabilizer():
    pred = predicted_dims(3, 2)
    measured = jacobian_rank(random_injective_point(3, 2, seed=1))
    assert measured + pred.dim_G_mu == pred.dim_G


def test_jacobian_rank_drops_at_degenerate_points():
    zeroish = [np.zeros((4, 2, 2)) for _ in range(3)]
    zeroish[0][0, 0, 0] = 1.0
    zeroish[1][0, 0, 0] = 1.0
    zeroish[2][0, 0, 0] = 1.0
    assert jacobian_rank(zeroish) < 37


def test_jacobian_rank_scalar_bond_case():
    rng = np.random.default_rng(43)
    tensors = [
        (rng.standard_normal((2, 1, 1)) + 1j * rng.standard_normal((2, 1, 1)))
        for _ in range(3)
    ]
    # with trivial bonds the measured rank is the product-manifold dimension
    assert jacobian_rank(tensors) == 3 * (2 - 1) + 1


def test_jacobian_rank_input_validation():
    a = np.ones((2, 2, 2))
    with pytest.raises(ValueError):
        jacobian_rank([a])
    with pytest.raises(ValueError):
        jacobian_rank([a, np.ones((2, 2, 3))])


def test_jacobian_capacity_cap():
    big = [np.ones((4, 4, 4)) for _ in range(5)]  # 5 * 4 * 16 = 320 parameters
    with pytest.raises(CapacityError):
        jacobian_rank(big)


def test_rank_is_stable_under_tolerance_choice():
    point = random_injective_point(3, 2, seed=2)
    assert jacobian_rank(point, tol=1e-8) == jacobian_rank(point, tol=1e-10)
    psi = mu_ring_state(3, 2)
    assert stabilizer_lie_dim(psi, [4, 4, 4], tol=1e-8) == stabilizer_lie_dim(
        psi, [4, 4, 4], tol=1e-10
    )


@pytest.mark.parametrize("state,predicted", [("mu", 9), ("tau", 10), ("pmps", 37)])
def test_geometry_report_matches(state, predicted):
    report = geometry_report(state, 3, 2)
    assert report.predicted == predicted
    assert report.measured == predicted
    assert report.match is True


def test_geometry_report_unknown_state():
    with pytest.raises(ValueError):
        geometry_report("sigma", 3, 2)
