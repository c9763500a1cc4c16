"""JSON round-trips for every supported container."""
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnslab import serialize
from tnslab.mera import random_mera
from tnslab.mps_obc import MpsObc
from tnslab.mps_pbc import ti_mps
from tnslab.peps import Peps, ring_network
from tnslab.serialize import (
    load_state,
    save_state,
    state_from_obj,
    state_to_obj,
    tensor_from_obj,
    tensor_to_obj,
)
from tnslab.tensors import DenseTensor, as_array
from tnslab.ttns import TreeNetwork, Ttns
from tnslab.zoo import aklt_tensor, w_state


def test_tensor_obj_layout():
    obj = tensor_to_obj(np.array([[1.0, 2.0], [3.0, 4.0 + 1j]]))
    assert obj["shape"] == [2, 2]
    assert obj["data"] == [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 1.0]]
    back = tensor_from_obj(obj)
    assert back.dtype == np.complex128
    assert np.abs(back - np.array([[1.0, 2.0], [3.0, 4.0 + 1j]])).max() == 0.0


def test_tensor_obj_shape_mismatch():
    with pytest.raises(ValueError):
        tensor_from_obj({"shape": [2, 2], "data": [[1.0, 0.0]]})


def test_dense_state_round_trip():
    state = w_state(4)
    back = state_from_obj(state_to_obj(state))
    assert isinstance(back, DenseTensor)
    assert np.abs(back.array - state.array).max() == 0.0


def test_mps_obc_round_trip():
    rng = np.random.default_rng(60)
    tensors = [
        rng.standard_normal((2, 1, 2)) + 1j * rng.standard_normal((2, 1, 2)),
        rng.standard_normal((2, 2, 1)) + 1j * rng.standard_normal((2, 2, 1)),
    ]
    state = MpsObc(tensors)
    back = state_from_obj(state_to_obj(state))
    assert isinstance(back, MpsObc)
    for a, b in zip(state.tensors, back.tensors):
        assert np.abs(a.array - b.array).max() == 0.0


def test_mps_pbc_round_trip_keeps_the_ti_flag():
    state = ti_mps(aklt_tensor().array, 4)
    obj = state_to_obj(state)
    assert obj["translation_invariant"] is True
    back = state_from_obj(obj)
    assert back.translation_invariant is True
    for a, b in zip(state.tensors, back.tensors):
        assert np.abs(a.array - b.array).max() == 0.0


def test_ttns_round_trip():
    rng = np.random.default_rng(61)
    net = TreeNetwork((2, 2, 2), [(1, 2, 2), (2, 3, 2)])
    tensors = [
        rng.standard_normal((2, 2)),
        rng.standard_normal((2, 2, 2)),
        rng.standard_normal((2, 2)),
    ]
    state = Ttns(net, tensors)
    back = state_from_obj(state_to_obj(state))
    assert isinstance(back, Ttns)
    assert back.network.dims == net.dims
    assert back.network.edges == net.edges
    for v in (1, 2, 3):
        assert np.abs(back.tensor_at(v).array - state.tensor_at(v).array).max() == 0.0


def test_peps_round_trip():
    rng = np.random.default_rng(62)
    net = ring_network(3, 2)
    tensors = [rng.standard_normal((4, 2, 2)) for _ in range(3)]
    state = Peps(net, tensors)
    back = state_from_obj(state_to_obj(state))
    assert isinstance(back, Peps)
    assert back.network.edges == net.edges
    for a, b in zip(state.tensors, back.tensors):
        assert np.abs(a.array - b.array).max() == 0.0


def test_mera_round_trip():
    state = random_mera(8, 2, 2, seed=63)
    back = state_from_obj(state_to_obj(state))
    for tid in state.all_tensor_ids():
        assert np.abs(back.tensor(tid).array - state.tensor(tid).array).max() == 0.0


def _per_amplitude_obj(tensor):
    # the writer's original layout: one [re, im] list built per amplitude
    arr = np.asarray(as_array(tensor))
    return {
        "shape": [int(s) for s in arr.shape],
        "data": [[float(z.real), float(z.imag)] for z in arr.ravel()],
    }


@pytest.mark.parametrize("kind", ["mera", "dense"])
def test_save_state_text_matches_the_per_amplitude_writer(tmp_path, monkeypatch, kind):
    rng = np.random.default_rng(63)
    if kind == "mera":
        state = random_mera(8, 2, 2, 5)
    else:
        state = DenseTensor(rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8)))
    path = tmp_path / "state.json"
    save_state(state, path)
    monkeypatch.setattr(serialize, "tensor_to_obj", _per_amplitude_obj)
    want = io.StringIO()
    json.dump(state_to_obj(state), want)
    want.write("\n")
    assert path.read_text(encoding="utf-8") == want.getvalue()


@pytest.mark.parametrize(
    "data",
    [[1.0, 2.0], [["a", 0], [1, 0]], [[1.0, 0.0, 0.0], [1.0, 0.0]], 7],
)
def test_malformed_tensor_data_is_a_value_error(data):
    with pytest.raises(ValueError):
        tensor_from_obj({"shape": [2], "data": data})


@pytest.mark.parametrize(
    "obj",
    [[1, 2], "dense_state", None, {"kind": "dense_state", "tensor": 5},
     {"kind": "mps_obc", "tensors": [[1, 2]]}],
)
def test_non_object_json_is_a_value_error(obj):
    with pytest.raises(ValueError):
        state_from_obj(obj)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        state_from_obj({"kind": "matrix_product_operator"})


def test_file_round_trip_is_utf8_with_trailing_newline(tmp_path):
    path = tmp_path / "state.json"
    save_state(w_state(3), path)
    raw = path.read_bytes()
    assert raw.endswith(b"\n")
    json.loads(raw.decode("utf-8"))
    back = load_state(path)
    assert np.abs(back.array - w_state(3).array).max() == 0.0


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    rows=st.integers(min_value=1, max_value=4),
    cols=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=30, deadline=None)
def test_random_tensors_round_trip_bit_for_bit(seed, rows, cols):
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    # through the JSON text layer, not just the dict layer
    text = json.dumps(tensor_to_obj(arr))
    back = tensor_from_obj(json.loads(text))
    assert back.shape == arr.shape
    assert np.abs(back - arr).max() == 0.0
