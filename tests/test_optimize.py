"""Sweep optimization: objectives, monotone descent, traces, gradients."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from tnslab import optimize
from tnslab.errors import CapacityError, NormalizationError
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
from tnslab.tensors import site_matrix
from tnslab.zoo import (
    aklt_tensor,
    blbq_hamiltonian,
    psi_tau_tensors,
    psi_w_timps_tensor,
    w_state,
)

from helpers import chain_legs, einsum_state, random_state, w_overlap_formula


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


def test_transfer_product_refuses_per_site_weights():
    # the transfer product is one term, so it has one weight
    with pytest.raises(ValueError, match="transfer_product takes one weight"):
        distance_objective(w_state(3), "transfer_product", (1e-3, 1e-3, 1e-3))
    assert distance_objective(w_state(3), "tensor_norm", (1e-3, 1e-3, 1e-3)).reg_weight


@pytest.mark.parametrize("reg", ["none", "tensor_norm", "transfer_product"])
def test_a_ring_whose_bonds_differ_descends(reg):
    rng = np.random.default_rng(64)
    bonds = (2, 3, 2, 3)  # site k has bonds (bonds[k - 1], bonds[k])
    shapes = [(2, bonds[k - 1], bonds[k]) for k in range(4)]
    arrs = [(rng.standard_normal(s) + 1j * rng.standard_normal(s)) / 3 for s in shapes]
    ring = MpsPbc(arrs)
    assert ring.bond_dims == bonds
    target = w_state(4).array
    trace = run_experiment(distance_objective(target, reg, 1e-3), ring, 4)
    fregs = [r.f_reg for r in trace.records]
    assert len(fregs) > 1 and all(b <= a for a, b in zip(fregs, fregs[1:]))
    psi = einsum_state(arrs, chain_legs(4, True), 4)
    overlap = abs(np.vdot(target, psi)) / np.linalg.norm(psi)
    assert abs(trace.records[0].f - 2.0 * (1.0 - overlap)) < 1e-12


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


def test_a_run_stops_when_entries_diverge_mid_run():
    # the psi_w_ti start fits W by growing its entries, which pass 1.05 at sweep 2
    obj = distance_objective(w_state(7))
    init = ti_mps(psi_w_timps_tensor(7, 0.3), 7)
    trace = run_experiment(obj, init, 200, divergence_threshold=1.05)
    assert trace.termination == "divergence_flag"
    assert len(trace.records) == 3
    assert trace.records[0].max_abs_entry < 1.05 < trace.records[-1].max_abs_entry
    assert trace.records[-1].flag.endswith(";divergence_flag")


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
        loc = optimize._network_local(obj, point.tensors, site)
        cand, _ = optimize._candidate(obj, loc, a_old)
        value = optimize._line_objective(obj, point, site, loc)
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
    # every step of a sweep gets, from the sweep's caches, the environment E,
    # the permuted target and the regularizer environment that the whole
    # network gives at that point
    rng = np.random.default_rng(64)
    obj = distance_objective(random_state(rng, (2,) * n), reg, 1e-2)
    params = _random_obc(rng, (2,) * n, bonds) if shape == "obc" else _random_pbc(rng, n, 2, 2)
    step = optimize._als_step
    sites = []

    def spy(obj, point, site, freg, loc, env):
        want = optimize._network_local(obj, point.tensors, site)
        assert (loc.dl, loc.dr) == (want.dl, want.dr)
        assert loc.env.shape == want.env.shape
        assert np.linalg.norm(loc.env - want.env) <= 1e-12 * np.linalg.norm(want.env)
        assert np.array_equal(loc.target, want.target)
        if reg == "tensor_norm":
            rest = optimize._reg_env(obj, point.tensors, site)
            assert abs(env - rest) <= 1e-12 * abs(rest)
        else:
            for got, full in zip(env, optimize._transfer_envs(point.tensors, site)):
                assert np.linalg.norm(got - full) <= 1e-12 * np.linalg.norm(full)
        sites.append(site)
        return step(obj, point, site, freg, loc, env)

    monkeypatch.setattr(optimize, "_als_step", spy)
    trace = run_experiment(obj, params, budget=3)
    assert sites == list(range(1, n + 1)) * (len(trace.records) - 1)


def test_sweep_site_matrices_contract_three_nodes(monkeypatch):
    # a sweep's step takes E from its two cached blocks, never from the
    # network: no site environment is contracted, and E has the site's shape
    rng = np.random.default_rng(65)
    site_environment = optimize.site_environment
    calls, shapes = [], []
    step = optimize._als_step

    def counted(*args):
        calls.append(1)
        return site_environment(*args)

    def spy(obj, point, site, freg, loc, env):
        d, ml, mr = point.tensors[site - 1].shape
        rows = math.prod(a.shape[0] for a in point.tensors) // d
        shapes.append(loc.env.shape == (rows, ml * mr))
        return step(obj, point, site, freg, loc, env)

    monkeypatch.setattr(optimize, "site_environment", counted)
    monkeypatch.setattr(optimize, "_als_step", spy)
    for params, reg in (
        (_random_obc(rng, (2,) * 7, (2, 3, 3, 3, 3, 2)), "tensor_norm"),
        (_random_pbc(rng, 7, 2, 2), "transfer_product"),
    ):
        obj = distance_objective(random_state(rng, (2,) * 7), reg, 1e-3)
        trace = run_experiment(obj, params, budget=2)
        assert len(trace.records) > 1
    assert shapes and all(shapes) and not calls
    # the shared-tensor step has no caches and goes through the network
    monkeypatch.setattr(optimize, "_als_step", step)
    run_experiment(obj, _random_pbc(rng, 7, 2, 2, ti=True), budget=1)
    assert calls


def _rank_deficient_cases():
    rng = np.random.default_rng(54)
    # the two-site chain of test_singular_environment_uses_the_ridge: site 2
    # uses one of its two left-bond values, so E at site 1 has a zero column
    t1 = rng.standard_normal((2, 1, 2)) + 1j * rng.standard_normal((2, 1, 2))
    t2 = np.zeros((2, 2, 1), dtype=complex)
    t2[:, 0, 0] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    yield MpsObc([t1, t2]), w_state(2), 1
    # a boundary site (2, 1, 3) carries rank 2 into its bond of 3, so E at
    # site 2 is singular up to rounding
    rng = np.random.default_rng(66)
    yield _random_obc(rng, (2,) * 5, (3, 3, 3, 3)), random_state(rng, (2,) * 5), 2


@pytest.mark.parametrize("case", range(2))
def test_rank_deficient_candidate_is_the_minimum_norm_solution(case):
    params, target, site = list(_rank_deficient_cases())[case]
    obj = distance_objective(target, "tensor_norm", 1e-3)
    point = optimize._point(params)
    loc = optimize._network_local(obj, point.tensors, site)
    a_old = point.tensors[site - 1].ravel()
    cand, dropped = optimize._candidate(obj, loc, a_old)
    mat = site_matrix(*point.tensor_network(), site - 1)
    want = np.linalg.pinv(mat) @ np.asarray(target).ravel()
    assert dropped
    assert np.linalg.norm(cand - want) <= 1e-10 * np.linalg.norm(want)
    lam, vec = np.linalg.eigh(loc.env.conj().T @ loc.env)
    gone = vec[:, lam <= optimize.GRAM_TOL * lam[-1]]
    assert gone.shape[1] > 0
    inside = cand.reshape(a_old.size // loc.env.shape[1], -1) @ gone.conj()
    assert np.linalg.norm(inside) <= 1e-12 * np.linalg.norm(cand)


@pytest.mark.parametrize("case", range(2))
def test_rank_deficient_energy_candidate_is_the_lowest_state_in_range(case):
    # the candidate's state is the ground state of H on the span of the
    # site matrix's columns, with the dropped directions left out
    params, target, site = list(_rank_deficient_cases())[case]
    rng = np.random.default_rng(68)
    dim = np.asarray(target).size
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    obj = energy_objective(h + h.conj().T)
    point = optimize._point(params)
    loc = optimize._network_local(obj, point.tensors, site)
    cand, dropped = optimize._candidate(obj, loc, point.tensors[site - 1].ravel())
    mat = site_matrix(*point.tensor_network(), site - 1)
    u, sv, _ = np.linalg.svd(mat, full_matrices=False)
    span = u[:, sv > 1e-6 * sv[0]]
    want = np.linalg.eigvalsh(span.conj().T @ obj.hamiltonian.array @ span)[0]
    got, _ = optimize._state_value(obj, mat @ cand)
    assert dropped
    assert abs(got - want) <= 1e-10 * abs(want)


def _per_index_energy_candidate(obj, loc, a_old):
    """The energy candidate with H applied to one physical index's basis
    vectors at a time, reading only H's blocks t <= s."""
    env = loc.env
    w, _ = optimize._kept_basis(env)
    d, p = a_old.size // env.shape[1], w.shape[1]
    q = (env @ w).reshape(loc.dl, loc.dr, p)
    rows = np.asarray(obj.hamiltonian.array).reshape(loc.dl, d, loc.dr, -1)
    heff = np.zeros((d, p, d, p), dtype=np.complex128)
    col = np.zeros((loc.dl, d, loc.dr, p), dtype=np.complex128)
    for s in range(d):
        col[:, s] = q
        for t in range(s + 1):
            block = rows[:, t] @ col.reshape(-1, p)
            heff[t, :, s] = np.tensordot(q.conj(), block, ([0, 1], [0, 1]))
        col[:, s] = 0.0
    _, v = np.linalg.eigh(heff.reshape(d * p, d * p), UPLO="U")
    vec = (v[:, 0].reshape(d, p) @ w.T).ravel()
    vec = vec / np.linalg.norm(vec)
    ref = complex(np.vdot(vec, a_old))
    return vec * (ref / abs(ref)) * np.linalg.norm(a_old)


@pytest.mark.parametrize("shape,d", [("obc", 2), ("pbc", 2), ("pbc", 3)])
def test_energy_candidate_matches_the_per_index_products(shape, d):
    # one product with the zero-padded basis reads H once and must give the
    # candidate that the per-index products gave
    rng = np.random.default_rng(72)
    n = 4
    h = rng.standard_normal((d**n, d**n)) + 1j * rng.standard_normal((d**n, d**n))
    obj = energy_objective(h + h.conj().T)
    params = _random_obc(rng, (d,) * n, (2, 3, 2)) if shape == "obc" else _random_pbc(rng, n, d, 2)
    point = optimize._point(params)
    for site in range(1, n + 1):
        a_old = point.tensors[site - 1].ravel()
        loc = optimize._network_local(obj, point.tensors, site)
        cand, _ = optimize._candidate(obj, loc, a_old)
        want = _per_index_energy_candidate(obj, loc, a_old)
        assert np.linalg.norm(cand - want) <= 1e-12 * np.linalg.norm(want)


def test_energy_basis_goes_through_the_capacity_guard(monkeypatch):
    # a ring of 4 sites, d = 2, m = 2: the padded basis is 16 x (2 * 4)
    rng = np.random.default_rng(73)
    h = rng.standard_normal((16, 16))
    obj = energy_objective(h + h.T)
    point = optimize._point(_random_pbc(rng, 4, 2, 2))
    loc = optimize._network_local(obj, point.tensors, 1)
    monkeypatch.setenv("TNS_CAPACITY_CAP", "127")
    with pytest.raises(CapacityError, match="energy basis with 128 entries exceeds cap of 127"):
        optimize._candidate(obj, loc, point.tensors[0].ravel())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_open_chain_runs_do_not_depend_on_rounding(seed):
    # the benchmark's open chain: a boundary site of bond 3 makes the local
    # problems rank deficient, and a 1e-15 relative change of the start must
    # not change which update the run takes
    n, m, d = 10, 3, 2
    rng = np.random.default_rng(seed)
    bonds = (1,) + (m,) * (n - 1) + (1,)
    tensors = [
        (rng.standard_normal((d, bonds[i], bonds[i + 1]))
         + 1j * rng.standard_normal((d, bonds[i], bonds[i + 1]))) / math.sqrt(2 * d * m)
        for i in range(n)
    ]
    moved = [t * (1.0 + 1e-15 * rng.standard_normal(t.shape)) for t in tensors]
    obj = distance_objective(w_state(n), "tensor_norm", 1e-3)
    f0 = run_experiment(obj, MpsObc(tensors), 5).records[-1].f_reg
    f1 = run_experiment(obj, MpsObc(moved), 5).records[-1].f_reg
    assert abs(f1 - f0) <= 1e-8


def test_oversized_sweep_environment_is_refused_before_allocation(monkeypatch):
    # an open chain with bond 8 on 11 sites: the state has 2^11 entries, but
    # E at site 2 has 2^10 * 8 * 8 = 65536, 1 MiB
    n, m = 11, 8
    rng = np.random.default_rng(67)
    init = _random_obc(rng, (2,) * n, (m,) * (n - 1))
    obj = distance_objective(w_state(n), "tensor_norm", 1e-3)
    monkeypatch.setenv("TNS_CAPACITY_CAP", str(2**16 - 1))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError) as err:
            run_experiment(obj, init, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "site environment with 65536 entries exceeds cap of 65535"
    assert peak < 2**20  # bytes


def _backtracking_step(obj, params, site, freg_old, loc=None, env=None):
    """The sequential backtracking loop without the screen: every trial from
    t = 1 down is evaluated directly until one does not raise f_reg."""
    a_old = params.tensors[site - 1].ravel()
    if loc is None:
        loc = optimize._network_local(obj, params.tensors, site)
    cand, dropped = optimize._candidate(obj, loc, a_old)
    if cand is None:
        return params, dropped, freg_old
    value = optimize._line_objective(obj, params, site, loc, env)
    for k in range(optimize._BACKTRACK_STEPS):
        t = 0.5 ** k
        a_new = (1.0 - t) * a_old + t * cand
        try:
            freg_new = value(a_new)
        except NormalizationError:
            continue
        if freg_new <= freg_old:
            shape = params.tensors[site - 1].shape
            return optimize._with_site(params, site, a_new.reshape(shape)), dropped, freg_new
    return params, dropped, freg_old


def _counted_trials(monkeypatch):
    """Patch _line_objective so that every direct trial is counted."""
    trials = []
    line_objective = optimize._line_objective

    def counted(*args):
        value = line_objective(*args)
        return lambda a: trials.append(1) or value(a)

    monkeypatch.setattr(optimize, "_line_objective", counted)
    return trials


def _trial_values(obj, point, site):
    """The direct f_reg of every trial of a step, nan where it raises."""
    a_old = point.tensors[site - 1].ravel()
    loc = optimize._network_local(obj, point.tensors, site)
    cand, _ = optimize._candidate(obj, loc, a_old)
    value = optimize._line_objective(obj, point, site, loc)
    out = []
    for k in range(optimize._BACKTRACK_STEPS):
        t = 0.5 ** k
        try:
            out.append(value((1.0 - t) * a_old + t * cand))
        except NormalizationError:
            out.append(math.nan)
    return out


_OFFSETS = (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1.0)


@pytest.mark.parametrize("kind", ["distance", "energy"])
@pytest.mark.parametrize("shape", ["obc", "pbc"])
@pytest.mark.parametrize("reg", ["none", "tensor_norm", "transfer_product"])
def test_screened_steps_match_the_backtracking_loop_bitwise(monkeypatch, kind, shape, reg):
    # lowering the value to beat moves the accepted trial down the step
    # sizes, past trials the screen skips, or rejects every trial; near ties
    # (offsets near SCREEN_TOL) are decided by direct evaluations, and a
    # value to beat equal to a trial's own value must accept that trial
    rng = np.random.default_rng(69)
    n = 4
    if kind == "distance":
        obj = distance_objective(random_state(rng, (2,) * n), reg, 1e-2)
    else:
        h = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
        obj = energy_objective(h + h.conj().T, reg, 1e-2)
    params = _random_obc(rng, (2,) * n, (2, 3, 2)) if shape == "obc" else _random_pbc(rng, n, 2, 2)
    point = optimize._point(params)
    trials = _counted_trials(monkeypatch)
    direct = 0
    for sweep in range(3):
        for site in range(1, n + 1):
            _, freg = objective_value(obj, point)
            ties = [v for v in _trial_values(obj, point, site)[1::4] if math.isfinite(v)]
            for freg_old in [freg - x * max(1.0, abs(freg)) for x in _OFFSETS] + ties:
                del trials[:]
                want = _backtracking_step(obj, point, site, freg_old)
                direct += len(trials)
                del trials[:]
                got = optimize._als_step(obj, point, site, freg_old)
                direct -= len(trials)
                assert got[1:] == want[1:]
                assert all(np.array_equal(a, b) for a, b in zip(got[0].tensors, want[0].tensors))
            point = got[0] if got[2] <= freg else point
    assert direct > 0  # the screen skipped trials


def test_a_step_that_rejects_everything_makes_one_direct_trial(monkeypatch):
    # no trial of a ring step beats f_reg = 0, below every distance's f_reg:
    # the t = 1 trial is rejected directly, the rest by the screen
    rng = np.random.default_rng(70)
    obj = distance_objective(random_state(rng, (2,) * 6), "transfer_product", 1e-3)
    point = optimize._point(MpsPbc([t.array / 3 for t in _random_pbc(rng, 6, 2, 2).tensors]))
    trials = _counted_trials(monkeypatch)
    for site in range(1, 7):
        del trials[:]
        assert _backtracking_step(obj, point, site, 0.0)[2] == 0.0
        assert len(trials) == optimize._BACKTRACK_STEPS
        del trials[:]
        new, _, value = optimize._als_step(obj, point, site, 0.0)
        assert len(trials) == 1
        assert new is point and value == 0.0


def test_an_overflowing_screen_skips_nothing_and_stays_silent(monkeypatch):
    # a candidate near 1e100 keeps the state finite but overflows the
    # transfer product, in the direct trials and in the screen's Grams
    rng = np.random.default_rng(71)
    obj = distance_objective(random_state(rng, (2,) * 4), "transfer_product", 1e-3)
    point = optimize._point(_random_pbc(rng, 4, 2, 2))
    _, freg = objective_value(obj, point)
    candidate, screen = optimize._candidate, optimize._screen
    screened = []

    def huge(*args):
        cand, dropped = candidate(*args)
        return 1e100 * cand, dropped

    def spy(*args):
        screened.append(screen(*args)[0])
        return screened[-1], screen(*args)[1]

    monkeypatch.setattr(optimize, "_candidate", huge)
    monkeypatch.setattr(optimize, "_screen", spy)
    trials = _counted_trials(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        new, _, value = optimize._als_step(obj, point, 2, freg)
    assert new is point and value == freg
    assert len(screened) == 1 and not np.isfinite(screened[0]).any()
    assert len(trials) == optimize._BACKTRACK_STEPS
