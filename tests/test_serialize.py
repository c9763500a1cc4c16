"""JSON round-trips for every supported container."""
import gc
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnslab import serialize
from tnslab.mera import Mera, random_mera
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


def _fingerprint(state):
    """The container's type and layout, with each tensor's shape and bits in
    its place: == tells -0.0 from 0.0 and a NaN equals itself."""
    def leaf(t):
        arr = np.asarray(as_array(t))
        return arr.shape, arr.view(np.uint64).tobytes()

    return type(state), serialize._layout(state, leaf)


def _outcome(read):
    try:
        return _fingerprint(read())
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)


def _drawn(rng, shape, few):
    # few distinct values: save_state's table writer; else its per-amplitude tree
    if few:
        return rng.integers(-1, 2, shape) + 0.5j * rng.integers(0, 2, shape)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _kinds(few):
    rng = np.random.default_rng(64 + few)
    draw = lambda *shape: _drawn(rng, shape, few)  # noqa: E731
    a = draw(2, 2, 2)
    tree = TreeNetwork((2, 2, 2), [(1, 2, 2), (2, 3, 2)])
    if few:
        # identity disentanglers and truncated-identity isometries: 0 and 1
        layers = [([np.eye(4)] * 4, [np.eye(2, 4)] * 4), ([np.eye(4)] * 2, [np.eye(2, 4)] * 2),
                  ([np.eye(4)], [np.eye(2, 4)])]
        mera = Mera(8, 2, 2, layers, np.eye(2)[0])
    else:
        mera = random_mera(8, 2, 2, 5)
    return [
        DenseTensor(draw(4, 8)),
        MpsObc([draw(2, 1, 2), draw(2, 2, 3), draw(2, 3, 1)]),
        MpsPbc([a, a, a], True),
        MpsPbc([draw(2, 2, 3), draw(2, 3, 2)]),
        Ttns(tree, [draw(2, 2), draw(2, 2, 2), draw(2, 2)]),
        Peps(ring_network(3, 2), [draw(4, 2, 2) for _ in range(3)]),
        mera,
    ]


def _saved_texts(tmp_path):
    texts = []
    for few in (True, False):
        for state in _kinds(few):
            path = tmp_path / "state.json"
            save_state(state, path)
            texts.append(path.read_text(encoding="utf-8"))
    return texts


def _dense(rows):
    """A dense state's text with the given row texts, canonical separators."""
    return ('{"kind": "dense_state", "tensor": {"shape": [%d], "data": [[%s]]}}\n'
            % (len(rows), "], [".join(rows)))


def _chain(rows):
    """A one-site open chain with the given row texts."""
    return ('{"kind": "mps_obc", "tensors": [{"shape": [%d, 1, 1], "data": [[%s]]}]}\n'
            % (len(rows), "], [".join(rows)))


_ZEROS = ["0.0, 0.0"] * 6


def _hand_texts():
    canonical = json.loads(_dense(["1.0, 0.0"] + _ZEROS))
    texts = [json.dumps(canonical, separators=(",", ":")), json.dumps(canonical, indent=1)]
    for special in ["NaN, 0.0", "0.0, Infinity", "-Infinity, 1.0", "-0.0, -0.0", "5e-324, 1.0",
                    "1e400, 0.0", "1, 0", "-0, 2", "12345678901234567891, 0.0",
                    "1" + "0" * 400 + ", 0.0", "true, 0.0", "1.0, null", "1.0", "1.0, 0.0, 0.0"]:
        texts += [_dense([special] + _ZEROS), _chain([special] + _ZEROS), _dense(_ZEROS + [special])]
    good = "1.0, 0.0], [" + "], [".join(_ZEROS)
    texts += [
        # json keeps the last of two "data" keys
        '{"kind": "dense_state", "tensor": {"data": [[9.0, 9.0]], "shape": [7], "data": [[%s]]}}' % good,
        # a body in a key no reader looks at, valid or not, and one in a string
        '{"kind": "dense_state", "note": {"data": [[1, 2]]}, "tensor": {"shape": [7], "data": [[%s]]}}'
        % good,
        '{"kind": "dense_state", "note": {"data": [[1, tru]]}, "tensor": {"shape": [7], "data": [[%s]]}}'
        % good,
        '{"kind": "dense_state", "note": "\\"data\\": [[1, 2]]}", "tensor": {"shape": [7], "data": [[%s]]}}'
        % good,
        # a string that looks like the marker of the first body
        '{"kind": "dense_state", "x": {"data": [[%s]]}, "tensor": {"shape": [7], "data": "\\u00000"}}'
        % good,
        # a body whose rows disagree with its shape
        _dense(["1.0, 0.0"] + _ZEROS).replace("[7]", "[6]"),
        # brackets inside a row, a row nested in a row, and a body closed twice
        _dense(["[1.0], 0.0"] + _ZEROS),
        _dense(["1.0, 0.0", "[0.0, 0.0], [0.0, 0.0]"] + _ZEROS[:4]).replace("[6]", "[7]"),
        _dense(["1.0, 0.0"] * 7).replace("]]}", "]]]}"),
        # rows whose tokens pair up although their numbers do not
        _dense(["1.0,0.0"] + _ZEROS),
        _dense(["1.0,0.0, 2.0"] + _ZEROS),
        _dense(["1.0, 0.0, 0.0", "1.0"] + _ZEROS[:5]),
        _dense(["1.0, 0.0"] * 7).replace(", 0.0]]", ", 0.0]] "),
    ]
    whole = _dense(["0.5, 0.0"] + _ZEROS)
    texts += [whole[:cut] for cut in (20, whole.index("data") + 12, len(whole) - 5, len(whole) - 2)]
    return texts


def _assert_read_as_json_reads(tmp_path, texts):
    for text in texts:
        path = tmp_path / "case.json"
        path.write_text(text, encoding="utf-8")
        want = _outcome(lambda: state_from_obj(json.loads(text)))
        assert _outcome(lambda: load_state(path)) == want, text[:200]


def test_load_state_matches_the_json_reader(tmp_path):
    _assert_read_as_json_reads(tmp_path, _saved_texts(tmp_path) + _hand_texts())


def test_load_state_matches_the_json_reader_under_a_cap(tmp_path, monkeypatch):
    # a tensor over its cap is refused before any body after it is read, so
    # only for text that json parses must the refusal be json's own
    texts = []
    for text in _saved_texts(tmp_path) + _hand_texts():
        try:
            json.loads(text)
            texts.append(text)
        except ValueError:
            pass
    monkeypatch.setenv("TNS_CAPACITY_CAP", "6")
    _assert_read_as_json_reads(tmp_path, texts)


@pytest.mark.parametrize(
    "build", [lambda: psi_w(16, 0.05), lambda: w_obc_mps(5)], ids=["psi_w", "w_obc_mps"]
)
def test_canonical_saves_load_without_the_per_amplitude_tree(tmp_path, monkeypatch, build):
    # the json reader's tree is built only under _collector_paused
    state = build()
    path = tmp_path / "state.json"
    save_state(state, path)
    calls = []
    paused = serialize._collector_paused
    monkeypatch.setattr(serialize, "_collector_paused", lambda: calls.append(1) or paused())
    back = load_state(path)
    assert calls == []
    assert _fingerprint(back) == _fingerprint(state)
