"""JSON round-trips for every supported container."""
import gc
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnslab import serialize
from tnslab.mera import random_mera
from tnslab.mps_obc import MpsObc
from tnslab.mps_pbc import MpsPbc, ti_mps
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
from tnslab.zoo import aklt_tensor, psi_tau_tensors, psi_w, w_obc_mps, w_state


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
    assert type(back) is MpsObc
    for a, b in zip(state.tensors, back.tensors):
        assert np.abs(a.array - b.array).max() == 0.0


def test_mps_pbc_round_trip_keeps_the_ti_flag():
    state = ti_mps(aklt_tensor().array, 4)
    obj = state_to_obj(state)
    assert obj["translation_invariant"] is True
    back = state_from_obj(obj)
    # an open chain is an MpsPbc too, so only the exact type tells them apart
    assert type(back) is MpsPbc
    assert back.translation_invariant is True
    for a, b in zip(state.tensors, back.tensors):
        assert np.abs(a.array - b.array).max() == 0.0


@pytest.mark.parametrize("flag", ["false", 1, 0, [0], None])
def test_ti_flag_must_be_a_json_bool(flag):
    # a string or number that bool() would read as true or false
    obj = state_to_obj(psi_tau_tensors(3, 2, 0.5))
    obj["translation_invariant"] = flag
    with pytest.raises(ValueError, match="must be true or false"):
        state_from_obj(obj)
    obj["translation_invariant"] = False
    assert state_from_obj(obj).translation_invariant is False
    del obj["translation_invariant"]
    assert state_from_obj(obj).translation_invariant is False


def test_ttns_round_trip():
    rng = np.random.default_rng(61)
    net = TreeNetwork((2, 2, 2), [(1, 2, 2), (2, 3, 2)])
    tensors = [
        rng.standard_normal((2, 2)),
        rng.standard_normal((2, 2, 2)),
        rng.standard_normal((2, 2)),
    ]
    state = Ttns(net, tensors)
    assert state_to_obj(state)["kind"] == "ttns"
    back = state_from_obj(state_to_obj(state))
    assert type(back) is Ttns
    assert back.network.dims == net.dims
    assert back.network.edges == net.edges
    for v in (1, 2, 3):
        assert np.abs(back.tensor_at(v).array - state.tensor_at(v).array).max() == 0.0


def test_peps_round_trip():
    rng = np.random.default_rng(62)
    net = ring_network(3, 2)
    tensors = [rng.standard_normal((4, 2, 2)) for _ in range(3)]
    state = Peps(net, tensors)
    # a Ttns is a Peps too, so only the exact type and kind tell them apart
    assert state_to_obj(state)["kind"] == "peps"
    back = state_from_obj(state_to_obj(state))
    assert type(back) is Peps
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


def _complex_normal(seed, shape):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# 0.0 and -0.0 differ only in their sign bit; 5e-324 is the smallest subnormal
_SIGNED_ZEROS = np.array([0.0, -0.0, 5e-324, -1e300])


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: random_mera(8, 2, 2, 5), id="mera"),
        pytest.param(lambda: DenseTensor(_complex_normal(63, (4, 8))), id="dense"),
        pytest.param(lambda: psi_w(8, 0.05), id="psi_w"),
        pytest.param(lambda: w_state(8), id="w_state"),
        pytest.param(lambda: w_obc_mps(5), id="w_obc_mps"),
        pytest.param(lambda: DenseTensor(np.zeros((2, 0))), id="empty"),
        pytest.param(
            lambda: DenseTensor(
                _SIGNED_ZEROS[np.arange(24) % 4] + 1j * _SIGNED_ZEROS[np.arange(24) // 6]
            ),
            id="signed_zeros",
        ),
    ],
)
def test_save_state_text_matches_the_per_amplitude_writer(tmp_path, monkeypatch, build):
    state = build()
    path = tmp_path / "state.json"
    save_state(state, path)
    monkeypatch.setattr(serialize, "tensor_to_obj", _per_amplitude_obj)
    want = io.StringIO()
    json.dump(state_to_obj(state), want)
    want.write("\n")
    assert path.read_text(encoding="utf-8") == want.getvalue()


@pytest.mark.parametrize(
    "data",
    [[1.0, 2.0], [["a", 0], [1, 0]], [[1.0, 0.0, 0.0], [1.0, 0.0]], 7,
     [[True, 0], [1, 0]], [[1.0, 0.0], [0.5, False]], ["ab", [1, 0]], [{"a": 1, "b": 2}, [1, 0]]],
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


_WRONG_NESTED_TYPES = [
    {"kind": "dense_state", "tensor": {"shape": 5, "data": []}},
    {"kind": "dense_state", "tensor": {"shape": [[2]], "data": []}},
    {"kind": "mps_obc", "tensors": 5},
    {"kind": "ttns", "network": [1], "tensors": []},
    {"kind": "peps", "network": {"dims": 2, "edges": []}, "tensors": []},
    {"kind": "peps", "network": {"dims": [2, 2], "edges": [5]}, "tensors": []},
    {"kind": "mera", "L": 2, "m": 2, "d": 2, "layers": [5], "top": {}},
    {"kind": "mera", "L": [2], "m": 2, "d": 2, "layers": [], "top": {}},
]


@pytest.mark.parametrize("obj", _WRONG_NESTED_TYPES)
def test_nested_fields_of_the_wrong_type_are_value_errors(obj):
    with pytest.raises(ValueError):
        state_from_obj(obj)


_NON_INTEGRAL_SIZES = [
    {"kind": "dense_state", "tensor": {"shape": [2.7], "data": [[1, 0], [0, 0]]}},
    {"kind": "dense_state", "tensor": {"shape": [True, 2], "data": [[1, 0], [0, 0]]}},
    {"kind": "dense_state", "tensor": {"shape": [2.0], "data": [[1, 0], [0, 0]]}},
    {"kind": "ttns", "network": {"dims": [2.5, 2], "edges": [[0, 1, 1]]}, "tensors": []},
    {"kind": "peps", "network": {"dims": [2, 2], "edges": [[0, 1, True]]}, "tensors": []},
    {"kind": "mera", "L": 4.0, "m": 2, "d": 2, "layers": [], "top": {}},
    {"kind": "mera", "L": 4, "m": True, "d": 2, "layers": [], "top": {}},
]


@pytest.mark.parametrize("obj", _NON_INTEGRAL_SIZES)
def test_non_integral_sizes_are_value_errors(obj):
    with pytest.raises(ValueError, match="must hold integers"):
        state_from_obj(obj)


def test_integer_too_large_for_a_float_is_a_value_error():
    text = '{"shape": [1], "data": [[1' + "0" * 400 + ", 0]]}"
    with pytest.raises(ValueError, match=r"\[re, im\] number pairs"):
        tensor_from_obj(json.loads(text))


@pytest.mark.parametrize("enabled", [True, False])
def test_save_and_load_keep_the_callers_collector_setting(tmp_path, enabled):
    good, bad, broken = (tmp_path / f for f in ("good.json", "bad.json", "broken.json"))
    bad.write_text('{"kind": "dense_state", "tensor": {"shape": [2.7], "data": []}}')
    broken.write_text('{"kind": "dense_state", "tensor": ')
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        # two distinct values, then mostly distinct ones: the writer's two paths
        for state in (w_state(3), random_mera(8, 2, 2, 5)):
            save_state(state, good)
            assert gc.isenabled() is enabled
            load_state(good)
            assert gc.isenabled() is enabled
        for path in (bad, broken):
            with pytest.raises(ValueError):
                load_state(path)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


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


# few values, so they repeat: signed zeros, subnormals, both ends of the
# normal range, and short and long reprs
_POOL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
         1.7976931348623157e308, -1.0, 0.1, 1 / 3]


@given(
    shape=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_saved_files_round_trip_every_bit(tmp_path_factory, shape, data):
    size = int(np.prod(shape))
    parts = data.draw(st.lists(st.sampled_from(_POOL), min_size=2 * size, max_size=2 * size))
    arr = np.array(parts, dtype=np.float64).view(np.complex128).reshape(shape)
    path = tmp_path_factory.mktemp("bits") / "state.json"
    save_state(DenseTensor(arr), path)
    back = load_state(path).array
    assert back.shape == arr.shape
    # == would take -0.0 for 0.0; the bit patterns do not
    assert np.array_equal(back.view(np.uint64), arr.view(np.uint64))
