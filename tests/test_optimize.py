"""Sweep optimization: objectives, monotone descent, traces, gradients."""
import math
import warnings

import numpy as np
import pytest

from tnslab import optimize
from tnslab.errors import NormalizationError
from tnslab.mps_obc import MpsObc, from_state_obc, gauge_transform
from tnslab.mps_pbc import MpsPbc, ti_mps, transfer_matrix
from tnslab.optimize import (
    Objective,
    als_sweep,
    distance_objective,
    energy_objective,
    objective_value,
    run_experiment,
    site_gradient,
)
from tnslab.tensors import site_environment
from tnslab.zoo import (
    aklt_tensor,
    blbq_hamiltonian,
    psi_tau_tensors,
    psi_w_timps_tensor,
    w_state,
)

from helpers import random_state, w_overlap_formula


def _random_obc(rng, dims, bonds):
    full = (1,) + tuple(bonds) + (1,)
    tensors = []
    for i, d in enumerate(dims):
        shape = (d, full[i], full[i + 1])
        tensors.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return MpsObc(tensors)


def _random_pbc(rng, n, d, m, ti=False):
    shape = (d, m, m)
    if ti:
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return ti_mps(a / math.sqrt(d * m), n)
    return MpsPbc(
        [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(n)]
    )


def test_distance_to_self_is_zero():
    rng = np.random.default_rng(44)
    psi = random_state(rng, (2, 2, 2, 2))
    params = from_state_obc(psi, (2, 2, 2, 2))
    obj = distance_objective(psi)
    f, f_reg = objective_value(obj, params)
    assert abs(f) < 1e-12
    assert f_reg == f


def test_projector_energy_reaches_minus_one():
    rng = np.random.default_rng(45)
    psi = random_state(rng, (2, 2, 2))
    h = -np.outer(psi, psi.conj())
    params = from_state_obc(psi, (2, 2, 2))
    f, _ = objective_value(energy_objective(h), params)
    assert abs(f + 1.0) < 1e-10


def test_transfer_product_term_matches_direct_norm():
    lam = 1e-3
    params = psi_tau_tensors(3, 2, 0.5)
    obj = distance_objective(w_state(3, d=4), reg_kind="transfer_product", reg_weight=lam)
    f, f_reg = objective_value(obj, params)
    prod = np.eye(4, dtype=complex)
    for t in params.tensors:
        prod = prod @ transfer_matrix(t.array).array
    assert abs((f_reg - f) - lam * np.linalg.norm(prod) ** 2) < 1e-12


def test_objective_validation():
    rng = np.random.default_rng(46)
    with pytest.raises(ValueError):
        Objective("fit", target=None)
    with pytest.raises(ValueError):
        Objective("distance")
    with pytest.raises(NormalizationError):
        distance_objective(2.0 * w_state(3).array)
    with pytest.raises(ValueError):
        energy_objective(rng.standard_normal((4, 3)))
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    with pytest.raises(ValueError):
        energy_objective(h)  # not Hermitian
    with pytest.raises(ValueError):
        distance_objective(w_state(3), reg_kind="lasso")
    with pytest.raises(ValueError):
        distance_objective(w_state(3), reg_kind="tensor_norm", reg_weight=-1.0)


def test_zero_state_raises():
    params = MpsObc([np.zeros((2, 1, 2)), np.zeros((2, 2, 1))])
    with pytest.raises(NormalizationError):
        objective_value(distance_objective(w_state(2)), params)


def test_sweep_is_stationary_at_the_optimum():
    params = from_state_obc(w_state(4), (2,) * 4)
    obj = distance_objective(w_state(4))
    _, before = objective_value(obj, params)
    for site in range(1, 5):
        params = als_sweep(obj, params, site)
    _, after = objective_value(obj, params)
    assert abs(after - before) < 1e-12


def test_sweep_updates_only_the_named_site():
    rng = np.random.default_rng(47)
    params = _random_obc(rng, (2, 2, 2), (2, 2))
    obj = distance_objective(w_state(3))
    out = als_sweep(obj, params, 2)
    assert np.abs(out.tensors[0].array - params.tensors[0].array).max() == 0.0
    assert np.abs(out.tensors[2].array - params.tensors[2].array).max() == 0.0


def test_obc_fit_reaches_high_overlap():
    rng = np.random.default_rng(48)
    psi = random_state(rng, (2,) * 5)
    obj = distance_objective(psi)
    init = _random_obc(rng, (2,) * 5, (2, 4, 4, 2))
    trace = run_experiment(obj, init, budget=10)
    assert trace.records[-1].overlap >= 0.999


def test_w_fit_converges_to_machine_overlap():
    rng = np.random.default_rng(49)
    obj = distance_objective(w_state(6))
    init = _random_obc(rng, (2,) * 6, (2, 2, 2, 2, 2))
    trace = run_experiment(obj, init, budget=200)
    assert trace.termination == "converged"
    assert trace.records[-1].overlap >= 1 - 1e-8
    assert max(r.max_abs_entry for r in trace.records) < 100.0


@pytest.mark.parametrize("shape", ["obc", "pbc", "ti"])
@pytest.mark.parametrize("reg", ["none", "tensor_norm", "transfer_product"])
def test_descent_is_monotone(shape, reg):
    rng = np.random.default_rng(50)
    n = 4
    target = random_state(rng, (2,) * n)
    obj = distance_objective(target, reg_kind=reg, reg_weight=1e-3)
    if shape == "obc":
        init = _random_obc(rng, (2,) * n, (2, 3, 2))
    else:
        init = _random_pbc(rng, n, 2, 2, ti=(shape == "ti"))
    trace = run_experiment(obj, init, budget=15)
    fregs = [r.f_reg for r in trace.records]
    for a, b in zip(fregs, fregs[1:]):
        assert b <= a + 1e-12


def test_energy_descent_is_monotone():
    rng = np.random.default_rng(51)
    h = rng.standard_normal((8, 8))
    h = h + h.T
    obj = energy_objective(h)
    init = _random_obc(rng, (2, 2, 2), (2, 2))
    trace = run_experiment(obj, init, budget=15)
    fregs = [r.f_reg for r in trace.records]
    for a, b in zip(fregs, fregs[1:]):
        assert b <= a + 1e-12
    e0 = np.linalg.eigvalsh(h)[0]
    assert trace.records[-1].f >= e0 - 1e-10


def test_run_budget_and_validation():
    rng = np.random.default_rng(52)
    obj = distance_objective(random_state(rng, (2, 2, 2)))
    init = _random_obc(rng, (2, 2, 2), (1, 1))
    trace = run_experiment(obj, init, budget=1)
    assert trace.records[0].iteration == 0
    assert trace.records[-1].iteration <= 1
    assert trace.termination in ("iteration_cap", "converged")
    with pytest.raises(ValueError):
        run_experiment(obj, init, budget=0)


def test_divergent_initialization_is_flagged_immediately():
    rng = np.random.default_rng(53)
    obj = distance_objective(random_state(rng, (2, 2)))
    init = MpsObc([1e9 * np.ones((2, 1, 1)), np.ones((2, 1, 1))])
    trace = run_experiment(obj, init, budget=5, divergence_threshold=1e6)
    assert trace.termination == "divergence_flag"
    assert len(trace.records) == 1
    assert trace.records[0].flag == "divergence_flag"


def test_singular_environment_uses_the_ridge():
    rng = np.random.default_rng(54)
    t1 = rng.standard_normal((2, 1, 2)) + 1j * rng.standard_normal((2, 1, 2))
    t2 = np.zeros((2, 2, 1), dtype=complex)
    t2[:, 0, 0] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    obj = distance_objective(w_state(2))
    trace = run_experiment(obj, MpsObc([t1, t2]), budget=1)
    assert "ridge" in trace.records[-1].flag


def test_tensor_norm_iterates_respect_the_initial_sublevel_set():
    rng = np.random.default_rng(55)
    lam = 1e-2
    obj = distance_objective(random_state(rng, (2,) * 4), "tensor_norm", lam)
    init = _random_obc(rng, (2,) * 4, (2, 2, 2))
    trace = run_experiment(obj, init, budget=20)
    bound = trace.records[0].f_reg + 1e-10
    for rec in trace.records:
        held = sum(lam * x * x for x in rec.frobenius_norms)
        assert held <= bound


@pytest.mark.parametrize("ti", [True, False])
def test_negative_energy_runs_complete(ti):
    # the AKLT ring starts at negative energy, so f_reg(0) < lam * sum |A|^2;
    # only a rise of f_reg breaks the sublevel guarantee
    h = blbq_hamiltonian(4, math.atan(1.0 / 3.0), pbc=True)
    obj = energy_objective(h, "tensor_norm", 1e-4)
    init = ti_mps(aklt_tensor(), 4) if ti else MpsPbc([aklt_tensor()] * 4)
    trace = run_experiment(obj, init, 2)
    assert trace.records[0].f < 0
    fregs = [r.f_reg for r in trace.records]
    assert all(b <= a + 1e-12 for a, b in zip(fregs, fregs[1:]))


def _fd_check(obj, params, site, rng):
    g = site_gradient(obj, params, site).array.ravel()
    arrs = [t.array.copy() for t in params.tensors]
    shape = arrs[site - 1].shape

    def at(vec):
        # Perturb only the one position, even when params is translation
        # invariant: site_gradient is the partial with the other ring
        # positions held fixed, and those partials differ per position
        # whenever the target is not shift invariant.
        arrs2 = list(arrs)
        arrs2[site - 1] = vec.reshape(shape)
        if isinstance(params, MpsObc):
            return objective_value(obj, MpsObc(arrs2))[1]
        return objective_value(obj, MpsPbc(arrs2))[1]

    a0 = arrs[site - 1].ravel()
    h = 1e-6
    for _ in range(3):
        direction = rng.standard_normal(a0.size) + 1j * rng.standard_normal(a0.size)
        direction /= np.linalg.norm(direction)
        df = (at(a0 + h * direction) - at(a0 - h * direction)) / (2 * h)
        want = 2.0 * np.real(np.vdot(g, direction))
        assert abs(df - want) <= 1e-6 * max(1.0, abs(want))


def test_gradient_matches_finite_differences_obc():
    rng = np.random.default_rng(56)
    obj = distance_objective(random_state(rng, (2, 2, 2)), "tensor_norm", 1e-2)
    params = _random_obc(rng, (2, 2, 2), (2, 2))
    _fd_check(obj, params, 2, rng)


def test_gradient_matches_finite_differences_pbc_energy():
    rng = np.random.default_rng(57)
    h = rng.standard_normal((8, 8))
    h = h + h.T
    obj = energy_objective(h)
    params = _random_pbc(rng, 3, 2, 2)
    _fd_check(obj, params, 1, rng)


def test_gradient_matches_finite_differences_ti_transfer():
    rng = np.random.default_rng(58)
    obj = distance_objective(
        random_state(rng, (2, 2, 2, 2)), "transfer_product", 1e-3
    )
    params = _random_pbc(rng, 4, 2, 2, ti=True)
    _fd_check(obj, params, 1, rng)


def test_w_family_curve_trades_distance_for_entry_growth():
    n = 5
    obj = distance_objective(w_state(n))
    fs, entries = [], []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        params = ti_mps(psi_w_timps_tensor(n, eps).array, n)
        f, _ = objective_value(obj, params)
        assert abs(f - 2.0 * (1.0 - w_overlap_formula(n, eps))) < 1e-10
        fs.append(f)
        entries.append(max(np.abs(t.array).max() for t in params.tensors))
    assert all(b < a for a, b in zip(fs, fs[1:]))
    assert all(b > a for a, b in zip(entries, entries[1:]))


def test_transfer_product_term_is_gauge_invariant_inside_the_chain():
    rng = np.random.default_rng(59)
    lam = 7e-4

    # open chain, official gauge operation on every interior bond
    target = random_state(rng, (2,) * 4)
    obj = distance_objective(target, "transfer_product", lam)
    params = _random_obc(rng, (2,) * 4, (2, 3, 2))
    _, ref = objective_value(obj, params)
    for bond, m in zip((1, 2, 3), (2, 3, 2)):
        z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        z += 3.0 * np.eye(m)
        _, moved = objective_value(obj, gauge_transform(params, bond, z))
        assert abs(moved - ref) <= 1e-10 * abs(ref)

    # ring, manual insertion on the bonds between distinct sites
    target = random_state(rng, (2,) * 4)
    obj = distance_objective(target, "transfer_product", lam)
    ring = _random_pbc(rng, 4, 2, 2)
    _, ref = objective_value(obj, ring)
    for bond in (1, 2, 3):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        z += 3.0 * np.eye(2)
        zinv = np.linalg.inv(z)
        arrs = [t.array.copy() for t in ring.tensors]
        arrs[bond - 1] = np.einsum("sab,bc->sac", arrs[bond - 1], zinv)
        arrs[bond] = np.einsum("ab,sbc->sac", z, arrs[bond])
        _, moved = objective_value(obj, MpsPbc(arrs))
        assert abs(moved - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("kind", ["distance", "energy"])
@pytest.mark.parametrize("shape", ["obc", "pbc"])
@pytest.mark.parametrize("reg", ["none", "tensor_norm", "transfer_product"])
def test_site_matrix_trials_match_full_evaluation(kind, shape, reg):
    rng = np.random.default_rng(60)
    n = 4
    if kind == "distance":
        obj = distance_objective(random_state(rng, (2,) * n), reg, 1e-2)
    else:
        h = rng.standard_normal((2**n, 2**n))
        obj = energy_objective(h + h.T, reg, 1e-2)
    if shape == "obc":
        params = _random_obc(rng, (2,) * n, (2, 3, 2))
    else:
        params = _random_pbc(rng, n, 2, 2)
    point = optimize._point(params)
    for site in range(1, n + 1):
        a_old = point.tensors[site - 1].ravel()
        mat = site_environment(*point.tensor_network(), site - 1)
        cand, _ = optimize._candidate(obj, mat, a_old)
        value = optimize._line_objective(obj, point, site, mat)
        for t in (1.0, 0.5, 2.0**-5, 2.0**-20):
            a = (1.0 - t) * a_old + t * cand
            trial = optimize._with_site(point, site, a.reshape(point.tensors[site - 1].shape))
            _, want = objective_value(obj, trial)
            assert abs(value(a) - want) <= 1e-12 * abs(want)


def test_overflowing_site_matrix_trials_are_rejected_silently():
    # the huge weight on site 1 makes its regularizer overflow for every
    # candidate much longer than the current tensor
    rng = np.random.default_rng(61)
    arrs = [rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2)) for _ in range(4)]
    arrs[1:] = [0.1 * a for a in arrs[1:]]
    obj = distance_objective(
        random_state(rng, (2,) * 4), "tensor_norm", (1e306, 1e-3, 1e-3, 1e-3)
    )
    values = []
    line_objective = optimize._line_objective

    def spy(*args):
        value = line_objective(*args)
        return lambda a: values.append(value(a)) or values[-1]

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(optimize, "_line_objective", spy)
        warnings.simplefilter("error", RuntimeWarning)
        trace = run_experiment(obj, MpsPbc(arrs), 5)
    assert any(math.isinf(v) for v in values)
    fregs = [r.f_reg for r in trace.records]
    assert all(math.isfinite(x) for x in fregs)
    assert all(b <= a for a, b in zip(fregs, fregs[1:]))


def test_a_sweep_contracts_the_full_state_once(monkeypatch):
    # line-search trials of a ring go through the site matrix; only the
    # record that closes each sweep contracts the whole network
    rng = np.random.default_rng(62)
    obj = distance_objective(random_state(rng, (2,) * 6), "transfer_product", 1e-3)
    contractions, trials = [], []
    contract = optimize.contract_network
    line_objective = optimize._line_objective

    def counted_contract(*args, **kwargs):
        contractions.append(1)
        return contract(*args, **kwargs)

    def counted_line_objective(*args):
        value = line_objective(*args)
        return lambda a: trials.append(1) or value(a)

    monkeypatch.setattr(optimize, "contract_network", counted_contract)
    monkeypatch.setattr(optimize, "_line_objective", counted_line_objective)
    trace = run_experiment(obj, _random_pbc(rng, 6, 2, 2), budget=3)
    assert len(trials) >= 6 * (len(trace.records) - 1)
    assert len(contractions) == len(trace.records)


def test_huge_ring_records_a_finite_transfer_product_norm():
    # a state norm near 1e130 puts the transfer product near 1e260, whose
    # squared entries overflow; the record's norm must not
    rng = np.random.default_rng(63)
    arrs = [1e33 * (rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))) for _ in range(4)]
    obj = distance_objective(random_state(rng, (2,) * 4), "tensor_norm", 1e-3)
    c = 3.0 - 4.0j
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rec = run_experiment(obj, MpsPbc(arrs), 2).records[0]
        scaled = run_experiment(obj, MpsPbc([c * a for a in arrs]), 2).records[0]
    assert all(math.isfinite(x) for x in (rec.f, rec.f_reg, rec.transfer_product_norm))
    want = abs(c) ** 8 * rec.transfer_product_norm
    assert abs(scaled.transfer_product_norm - want) <= 1e-12 * want


_CACHE_CASES = [
    ("obc", 4, (2, 3, 2)),
    ("obc", 1, ()),
    ("obc", 2, (2,)),
    ("obc", 5, (2, 2, 2, 2)),
    ("pbc", 1, None),
    ("pbc", 2, None),
    ("pbc", 5, None),
]


@pytest.mark.parametrize("reg", ["tensor_norm", "transfer_product"])
@pytest.mark.parametrize("shape,n,bonds", _CACHE_CASES)
def test_sweep_caches_match_the_whole_network(monkeypatch, shape, n, bonds, reg):
    # every step of a sweep gets, from the sweep's caches, the site matrix and
    # the regularizer environment that the whole network gives at that point
    rng = np.random.default_rng(64)
    obj = distance_objective(random_state(rng, (2,) * n), reg, 1e-2)
    params = _random_obc(rng, (2,) * n, bonds) if shape == "obc" else _random_pbc(rng, n, 2, 2)
    step = optimize._als_step
    sites = []

    def spy(obj, point, site, freg, mat, env):
        want = site_environment(*point.tensor_network(), site - 1)
        assert np.linalg.norm(mat - want) <= 1e-12 * np.linalg.norm(want)
        if reg == "tensor_norm":
            rest = optimize._reg_env(obj, point.tensors, site)
            assert abs(env - rest) <= 1e-12 * abs(rest)
        else:
            for got, full in zip(env, optimize._transfer_envs(point.tensors, site)):
                assert np.linalg.norm(got - full) <= 1e-12 * np.linalg.norm(full)
        sites.append(site)
        return step(obj, point, site, freg, mat, env)

    monkeypatch.setattr(optimize, "_als_step", spy)
    trace = run_experiment(obj, params, budget=3)
    assert sites == list(range(1, n + 1)) * (len(trace.records) - 1)


def test_sweep_site_matrices_contract_three_nodes(monkeypatch):
    rng = np.random.default_rng(65)
    site_environment = optimize.site_environment
    nodes = []

    def counted(arrays, *args):
        nodes.append(len(arrays))
        return site_environment(arrays, *args)

    monkeypatch.setattr(optimize, "site_environment", counted)
    for params, reg in (
        (_random_obc(rng, (2,) * 7, (2, 3, 3, 3, 3, 2)), "tensor_norm"),
        (_random_pbc(rng, 7, 2, 2), "transfer_product"),
    ):
        obj = distance_objective(random_state(rng, (2,) * 7), reg, 1e-3)
        trace = run_experiment(obj, params, budget=2)
        assert len(trace.records) > 1
    assert nodes and max(nodes) == 3
