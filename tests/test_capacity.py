"""Guarded entry points refuse an input one entry over a lowered cap, with
the guard's exact message, before allocating the refused object; and every
full state obeys one state cap, min(2^20, capacity cap)."""
import math
import tracemalloc

import numpy as np
import pytest

from tnslab import optimize
from tnslab.cli import main
from tnslab.errors import CapacityError
from tnslab.geometry import jacobian_rank, stabilizer_lie_dim
from tnslab.mera import Mera, eval_mera, random_mera
from tnslab.mps_obc import MpsObc, eval_obc, from_state_obc, right_canonicalize
from tnslab.mps_pbc import MpsPbc, eval_pbc, injectivity_length, ti_canonical_blocks, transfer_matrix
from tnslab.optimize import distance_objective, run_experiment
from tnslab.serialize import load_state, save_state
from tnslab.ttns import TreeNetwork, from_state_ttns
from tnslab.zoo import blbq_hamiltonian, psi_w, w_obc_mps, w_state

from helpers import fidelity


def _sites(n, d, m):
    rng = np.random.default_rng(n * 100 + m)
    return [rng.standard_normal((d, m, m)) + 1j * rng.standard_normal((d, m, m)) for _ in range(n)]


def _mera(L, m, d):
    """A MERA built by hand, so that no constructor check runs before the
    evaluator's: identity disentanglers and truncated-identity isometries."""
    layers = []
    for ell in range(1, int(math.log2(L)) + 1):
        f = d if ell == 1 else m
        layers.append(([np.eye(f * f)] * (L >> ell), [np.eye(m, f * f)] * (L >> ell)))
    return Mera(L, m, d, layers, np.eye(m)[0])


def _screen_transfer_product():
    """`_screen` at the middle site of a 3-site open chain with bonds 12,
    under the transfer_product regularizer: its four mixed transfer matrices
    have 4 * 12^4 entries, 1.3 MiB, where everything else it holds is small."""
    obj = distance_objective(w_state(3), "transfer_product", 1e-3)
    arrs = [np.ones((2, 1, 12)), np.ones((2, 12, 12)), np.ones((2, 12, 1))]
    loc = optimize._network_local(obj, arrs, 2)
    env = optimize._reg_env(obj, arrs, 2)
    a0 = arrs[1].ravel()
    return optimize._screen(obj, loc, optimize._Point(arrs, False), 2, env, a0, 2 * a0)


# a zero-stride view: 2^16 amplitudes of norm 1 that take no memory until copied
_FLAT16 = np.broadcast_to(2.0**-8, (2,) * 16)


@pytest.mark.parametrize(
    "call, what, size",
    [
        # a 17-site qubit ring: 2^17 amplitudes, 2 MiB
        pytest.param(
            lambda: eval_pbc(MpsPbc(_sites(17, 2, 1))),
            "contraction result", 2**17, id="eval_pbc",
        ),
        # a 16-site qubit MERA: 2^16 amplitudes, 1 MiB
        pytest.param(
            lambda: eval_mera(_mera(16, 2, 2)),
            "full state", 2**16, id="eval_mera",
        ),
        # 10 ring sites with d = m = 2: 2^10 amplitudes x 80 parameters, 1.25 MiB
        pytest.param(
            lambda: jacobian_rank(_sites(10, 2, 2)),
            "jacobian", 2**10 * 80, id="jacobian_rank",
        ),
        # W on 12 qubits: 2^12 amplitudes x 48 parameters, 3 MiB
        pytest.param(
            lambda: stabilizer_lie_dim(w_state(12), [2] * 12),
            "stabilizer matrix", 2**12 * 48, id="stabilizer_lie_dim",
        ),
        # bond 8: every transfer matrix has 8^4 entries; a run's first trace
        # record builds the transfer product even with no regularizer
        pytest.param(
            lambda: transfer_matrix(_sites(1, 2, 8)[0]),
            "transfer matrix", 8**4, id="transfer_matrix",
        ),
        pytest.param(
            lambda: ti_canonical_blocks(_sites(1, 2, 8)[0]),
            "transfer matrix", 8**4, id="ti_canonical_blocks",
        ),
        pytest.param(
            lambda: run_experiment(distance_objective(w_state(3)), MpsPbc(_sites(3, 2, 8)), 1),
            "transfer matrix", 8**4, id="run_experiment",
        ),
        # 16 qubits, whose complex copy would take 1 MiB
        pytest.param(
            lambda: from_state_obc(_FLAT16, [2] * 16),
            "state", 2**16, id="from_state_obc",
        ),
        pytest.param(
            lambda: from_state_ttns(
                _FLAT16, TreeNetwork([2] * 16, [(v, v + 1, 2) for v in range(1, 16)]), 1
            ),
            "state", 2**16, id="from_state_ttns",
        ),
        pytest.param(
            _screen_transfer_product, "mixed transfer matrices", 4 * 12**4, id="screen",
        ),
        # bond 8, d = 2: the first candidates are 2 x rank 2 products of 8^2 entries
        pytest.param(
            lambda: injectivity_length(_sites(1, 2, 8)[0], 3),
            "span candidates", 2 * 2 * 8**2, id="injectivity_length",
        ),
        # 6 spin-1 sites: a 3^6 x 3^6 matrix, 8.1 MiB
        pytest.param(
            lambda: blbq_hamiltonian(6, 0.0, pbc=True),
            "Hamiltonian", 9**6, id="blbq_hamiltonian",
        ),
    ],
)
def test_guarded_entry_points_refuse_one_entry_over_a_lowered_cap(monkeypatch, call, what, size):
    # a capacity cap below 2^20 is the state cap too
    monkeypatch.setenv("TNS_CAPACITY_CAP", str(size - 1))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError) as err:
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == f"{what} with {size} entries exceeds cap of {size - 1}"
    assert peak < 2**20  # bytes


def test_eval_mera_refuses_an_intermediate_before_allocating_it(monkeypatch):
    # m = 5 > d^2: 16 qubits at the bottom, but 5^8 = 390625 amplitudes on the
    # 8 sites between layers 2 and 1, past a cap that the state passes
    monkeypatch.setenv("TNS_CAPACITY_CAP", "100000")
    mera = _mera(16, 5, 2)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError) as err:
            eval_mera(mera)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "evaluation intermediate with 390625 entries exceeds cap of 100000"
    assert peak < 390625 * 16  # bytes of the refused intermediate


@pytest.mark.parametrize(
    "build, what, size",
    [
        pytest.param(lambda: w_state(21), "state", 2**21, id="w_state"),
        pytest.param(lambda: psi_w(21, 0.1), "state", 2**21, id="psi_w"),
        # 6^8 entries lie between the state cap 2^20 and the capacity cap 2^24
        pytest.param(lambda: random_mera(8, 2, 6, 0), "full state", 6**8, id="random_mera"),
    ],
)
def test_constructors_keep_the_state_cap_of_the_evaluators(monkeypatch, build, what, size):
    monkeypatch.delenv("TNS_CAPACITY_CAP", raising=False)
    with pytest.raises(CapacityError) as err:
        build()
    assert str(err.value) == f"{what} with {size} entries exceeds cap of {2**20}"


def test_right_canonicalize_under_a_capacity_cap_below_its_state(monkeypatch):
    # W on 8 qubits has 256 amplitudes: past a cap of 100, so the phase fix
    # is skipped and the sweeps alone give the right-canonical form
    with monkeypatch.context() as patch:
        patch.setenv("TNS_CAPACITY_CAP", "100")
        canon = right_canonicalize(w_obc_mps(8))
    for t in canon.tensors:
        b = t.array.transpose(1, 0, 2).reshape(t.shape[1], -1)
        assert np.abs(b @ b.conj().T - np.eye(t.shape[1])).max() < 1e-12
    assert canon.bond_dims == (2,) * 7
    assert fidelity(eval_obc(canon).array, w_state(8)) > 1 - 1e-12


@pytest.mark.parametrize(
    "build, what, size",
    [
        pytest.param(lambda: w_state(8), "state", 2**8, id="dense_state"),
        # a 3-site chain with bond 8: its middle tensor has 2 x 8 x 8 entries
        pytest.param(
            lambda: MpsObc([np.ones((2, 1, 8)), np.ones((2, 8, 8)), np.ones((2, 8, 1))]),
            "tensor", 2 * 8 * 8, id="mps_obc",
        ),
    ],
)
def test_loading_a_file_obeys_the_caps(tmp_path, monkeypatch, capsys, build, what, size):
    # saved under the default caps, read back under a cap of 100 entries
    path = tmp_path / "state.json"
    save_state(build(), path)
    monkeypatch.setenv("TNS_CAPACITY_CAP", "100")
    with pytest.raises(CapacityError) as err:
        load_state(path)
    assert str(err.value) == f"{what} with {size} entries exceeds cap of 100"
    assert main(["certify", "--input", str(path), "--checks", "wellformed"]) == 3
    assert str(err.value) in capsys.readouterr().err


@pytest.mark.parametrize(
    "build, what, size",
    [
        # 2^16 amplitudes, 0.77 MB on disk
        pytest.param(lambda: w_state(16), "state", 2**16, id="w_state"),
        # a 16-entry first tensor passes; the 2 x 8 x 2048 middle one is refused
        pytest.param(
            lambda: MpsObc([np.ones((2, 1, 8)), np.ones((2, 8, 2048)), np.ones((2, 2048, 1))]),
            "tensor", 2 * 8 * 2048, id="mps_obc",
        ),
    ],
)
def test_loading_refuses_a_tensor_before_reading_its_data(tmp_path, monkeypatch, build, what, size):
    path = tmp_path / "state.json"
    save_state(build(), path)
    monkeypatch.setenv("TNS_CAPACITY_CAP", "100")
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError) as err:
            load_state(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == f"{what} with {size} entries exceeds cap of 100"
    # the file's text, not the parse tree of its data
    assert peak < 2 * 2**20  # bytes
