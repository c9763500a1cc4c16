"""Guarded entry points refuse an input one entry over a lowered cap, with
the guard's exact message, before allocating the refused object."""
import tracemalloc

import numpy as np
import pytest

from tnslab.errors import CapacityError
from tnslab.geometry import jacobian_rank, stabilizer_lie_dim
from tnslab.mera import eval_mera, random_mera
from tnslab.mps_pbc import MpsPbc, eval_pbc, ti_canonical_blocks, transfer_matrix
from tnslab.optimize import distance_objective, run_experiment
from tnslab.zoo import w_state


def _sites(n, d, m):
    rng = np.random.default_rng(n * 100 + m)
    return [rng.standard_normal((d, m, m)) + 1j * rng.standard_normal((d, m, m)) for _ in range(n)]


@pytest.mark.parametrize(
    "call, what, size",
    [
        # a 17-site qubit ring: 2^17 amplitudes, 2 MiB
        pytest.param(
            lambda cap: eval_pbc(MpsPbc(_sites(17, 2, 1)), cap),
            "contraction result", 2**17, id="eval_pbc",
        ),
        # a 16-site qutrit MERA: 3^16 amplitudes, 657 MiB
        pytest.param(
            lambda cap: eval_mera(random_mera(16, 2, 3, seed=0), cap),
            "full state", 3**16, id="eval_mera",
        ),
        # 10 ring sites with d = m = 2: 2^10 amplitudes x 80 parameters, 1.25 MiB
        pytest.param(
            lambda cap: jacobian_rank(_sites(10, 2, 2)),
            "jacobian", 2**10 * 80, id="jacobian_rank",
        ),
        # W on 12 qubits: 2^12 amplitudes x 48 parameters, 3 MiB
        pytest.param(
            lambda cap: stabilizer_lie_dim(w_state(12), [2] * 12),
            "stabilizer matrix", 2**12 * 48, id="stabilizer_lie_dim",
        ),
        # bond 8: every transfer matrix has 8^4 entries; a run's first trace
        # record builds the transfer product even with no regularizer
        pytest.param(
            lambda cap: transfer_matrix(_sites(1, 2, 8)[0]),
            "transfer matrix", 8**4, id="transfer_matrix",
        ),
        pytest.param(
            lambda cap: ti_canonical_blocks(_sites(1, 2, 8)[0]),
            "transfer matrix", 8**4, id="ti_canonical_blocks",
        ),
        pytest.param(
            lambda cap: run_experiment(distance_objective(w_state(3)), MpsPbc(_sites(3, 2, 8)), 1),
            "transfer matrix", 8**4, id="run_experiment",
        ),
    ],
)
def test_guarded_entry_points_refuse_one_entry_over_a_lowered_cap(monkeypatch, call, what, size):
    # the capacity cap and, where the entry point takes one, its own cap
    monkeypatch.setenv("TNS_CAPACITY_CAP", str(size - 1))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError) as err:
            call(size - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == f"{what} with {size} entries exceeds cap of {size - 1}"
    assert peak < 2**20  # bytes
