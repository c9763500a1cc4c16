"""JSON round-tripping for tensors and the network containers.

Tensors are stored as {"shape": [...], "data": [[re, im], ...]} with
row-major data; repr-level precision of json round-trips doubles exactly,
so save followed by load is bit-faithful.
"""
from __future__ import annotations

import contextlib
import gc
import itertools
import json
import math
import re

import numpy as np

from .mera import Mera
from .mps_obc import MpsObc
from .mps_pbc import MpsPbc
from .peps import Peps, PepsNetwork
from .tensors import DenseTensor, as_array, check_capacity, check_state
from .ttns import TreeNetwork, Ttns


def _tensor_obj(tensor, data) -> dict:
    arr = np.asarray(as_array(tensor))
    return {"shape": [int(s) for s in arr.shape], "data": data(arr.ravel())}


def tensor_to_obj(tensor) -> dict:
    return _tensor_obj(tensor, lambda flat: np.stack((flat.real, flat.imag), axis=-1).tolist())


def _field(obj, key: str, kind: type):
    """obj[key], which must be a JSON array (kind list) or object (kind dict)."""
    val = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(val, kind):
        raise ValueError(f"field {key!r} must be {'an array' if kind is list else 'an object'}")
    return val


def _ints(values, key: str) -> list[int]:
    """`values`, which must be a JSON array of integers: no bools, no floats."""
    if not isinstance(values, list) or not all(type(v) is int for v in values):
        raise ValueError(f"field {key!r} must hold integers")
    return values


class _Body:
    """A tensor's "[[re, im], ...]" text in a saved file: its rows counted before
    the cap check, its numbers read after; rows -1 or a ValueError leave it to json."""

    def __init__(self, text: str, start: int, end: int):
        self.text, self.start, self.end, self.read, self.rows = text, start, end, False, -1
        # json.load reads mostly distinct numbers faster than a table does: judged here
        # on the first 128 (a float token has at most 26 bytes), in floats on all
        head = text[start + 2 : min(end - 2, start + 128 * 32)].split(", ")[:128]
        if 2 * len({t.strip("[]") for t in head}) <= len(head):
            # a body holds no string, so each "[" but the outer one opens a row
            rows = text.count("], [", start, end) + 1
            self.rows = rows if text.count("[", start, end) == rows + 1 else -1

    def floats(self, count: int) -> np.ndarray:
        tokens = self.text[self.start + 2 : self.end - 2].split(", ")
        index = {t: i for i, t in enumerate(dict.fromkeys(tokens))}
        # a row's "[" stays on its first token and its "]" on its last; json's
        # reading of the distinct numbers is its reading of each if one apiece
        cores = [t.removeprefix("[").removesuffix("]") for t in index]
        if len(tokens) != count or 2 * len(set(cores)) > count:
            raise ValueError("left to the json reader")
        values = json.loads(f"[{', '.join(cores)}]")
        at = np.fromiter(map(index.__getitem__, tokens), np.intp, count)
        kinds = np.array([(t[:1] == "[") + 2 * (t[-1:] == "]") for t in index], np.uint8)[at]
        if (len(values) != len(cores) or set(map(type, values)) - {int, float} or kinds[0]
                or kinds[-1] or (kinds[1:-1:2] != 2).any() or (kinds[2:-1:2] != 1).any()):
            raise ValueError("left to the json reader")
        self.read = True
        # ints pass through float() as np.fromiter converts them on json's route
        return np.fromiter(values, np.float64, len(values))[at]


def tensor_from_obj(obj: dict, check=check_capacity) -> np.ndarray:
    """The array a tensor object describes; `check(size)` passes its entry
    count before the array is allocated, and before a _Body's numbers are read."""
    if not isinstance(obj, dict):
        raise ValueError("a tensor must be a JSON object with shape and data")
    shape = tuple(_ints(_field(obj, "shape", list), "shape"))
    data = obj.get("data")
    rows = data.rows if isinstance(data, _Body) else len(_field(obj, "data", list))
    size = math.prod(shape)
    if min(shape, default=0) < 0 or rows != size:
        raise ValueError("tensor data does not match its shape")
    check(size)
    if isinstance(data, _Body):
        return data.floats(2 * size).view(np.complex128).reshape(shape)
    numbers = itertools.chain.from_iterable
    try:
        # pairs of JSON numbers only: a bool would pass as 0 or 1
        if set(map(len, data)) - {2} or set(map(type, numbers(data))) - {int, float}:
            raise TypeError
        flat = np.fromiter(numbers(data), dtype=np.float64, count=2 * size)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError("tensor data must be [re, im] number pairs") from exc
    return flat.view(np.complex128).reshape(shape)


def _layout(state, leaf) -> dict:
    """The JSON-ready dict of any supported container, with leaf(tensor) in
    each tensor's place."""
    if isinstance(state, DenseTensor):
        return {"kind": "dense_state", "tensor": leaf(state)}
    if isinstance(state, MpsPbc):
        head = (
            {"kind": "mps_obc"}
            if isinstance(state, MpsObc)
            else {"kind": "mps_pbc", "translation_invariant": bool(state.translation_invariant)}
        )
        return {**head, "tensors": [leaf(t) for t in state.tensors]}
    if isinstance(state, Peps):
        net = state.network
        return {
            "kind": "ttns" if isinstance(state, Ttns) else "peps",
            "network": {
                "dims": [int(d) for d in net.dims],
                "edges": [[int(i), int(j), int(m)] for i, j, m in net.edges],
            },
            "tensors": [leaf(t) for t in state.tensors],
        }
    if isinstance(state, Mera):
        layers = [
            {
                "disentanglers": [leaf(u) for u in layer.disentanglers],
                "isometries": [leaf(w) for w in layer.isometries],
            }
            for layer in state.layers
        ]
        sizes = {"L": int(state.L), "m": int(state.m), "d": int(state.d)}
        return {"kind": "mera", **sizes, "layers": layers, "top": leaf(state.top)}
    raise TypeError(f"cannot serialize {type(state).__name__}")


def state_to_obj(state) -> dict:
    """Serialize any supported container to a plain JSON-ready dict."""
    return _layout(state, tensor_to_obj)


def state_from_obj(obj: dict):
    """The container a JSON object describes; ValueError when a field is
    missing or of the wrong type."""
    if not isinstance(obj, dict):
        raise ValueError("a state must be a JSON object with a kind")
    kind = obj.get("kind")
    if kind == "dense_state":
        return DenseTensor(tensor_from_obj(obj.get("tensor"), check_state))
    if kind not in ("mps_obc", "mps_pbc", "ttns", "peps", "mera"):
        raise ValueError(f"unknown state kind {kind!r}")
    if kind == "mera":
        layers = [
            (
                [tensor_from_obj(u) for u in _field(lay, "disentanglers", list)],
                [tensor_from_obj(w) for w in _field(lay, "isometries", list)],
            )
            for lay in _field(obj, "layers", list)
        ]
        sizes = _ints([obj.get(k) for k in ("L", "m", "d")], "L, m and d")
        return Mera(*sizes, layers, tensor_from_obj(obj.get("top")))
    tensors = [tensor_from_obj(t) for t in _field(obj, "tensors", list)]
    if kind == "mps_obc":
        return MpsObc(tensors)
    if kind == "mps_pbc":
        ti = obj.get("translation_invariant", False)
        if type(ti) is not bool:
            raise ValueError("field 'translation_invariant' must be true or false")
        return MpsPbc(tensors, ti)
    net_cls, cls = (TreeNetwork, Ttns) if kind == "ttns" else (PepsNetwork, Peps)
    net = _field(obj, "network", dict)
    edges = [tuple(_ints(e, "edges")) for e in _field(net, "edges", list)]
    return cls(net_cls(_ints(_field(net, "dims", list), "dims"), edges), tensors)


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, restoring the caller's setting.

    A dense state's JSON tree holds one [re, im] list per amplitude; built or
    parsed under the collector, it sets off hundreds of collections that can
    free nothing, since the tree has no cycles.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _distinct_texts(flats: list[np.ndarray]) -> list[str] | None:
    """The JSON text of each flat complex array as [[re, im], ...] pairs, or
    None when more than half of all their float64 values are distinct.

    Values are told apart by their bit patterns, so -0.0 stays apart from
    0.0. json's float formatter runs once per distinct value, and each text
    joins those tokens by the inverse index, building no per-amplitude list.
    When most values are distinct, each needs its own formatting anyway, and
    the per-amplitude tree through the C encoder is the faster way.
    """
    bits = np.concatenate(flats).view(np.uint64)
    ordered = np.sort(bits)
    first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    if 2 * np.count_nonzero(first) > bits.size:
        return None
    distinct = ordered[first]
    tokens = json.dumps(distinct.view(np.float64).tolist())[1:-1].split(", ")
    # a real part opens its amplitude's pair, an imaginary part closes it
    table = np.array([f"[{t}, " for t in tokens] + [f"{t}], " for t in tokens], dtype=object)
    index = np.searchsorted(distinct, bits)
    index[1::2] += len(tokens)
    pieces = np.split(table[index], np.cumsum([2 * f.size for f in flats[:-1]]))
    return ["[" + "".join(p.tolist())[:-2] + "]" for p in pieces]


def save_state(state, path) -> None:
    """Write any supported container to `path` as UTF-8 JSON text.

    The bytes are those of json.dumps(state_to_obj(state)) and a newline.
    Unless most values are distinct, that dict is never built: the skeleton
    holds "\\0<i>" in the place of the i-th tensor's data, a string no key or
    kind name contains, and the data's text from _distinct_texts replaces it.
    """
    flats = []

    def place(flat):
        flats.append(flat)
        return f"\0{len(flats) - 1}"

    skeleton = _layout(state, lambda t: _tensor_obj(t, place))
    texts = _distinct_texts(flats)
    if texts is None:
        with _collector_paused():
            # the C encoder (json.dump is pure Python); the tree has no cycles
            text = json.dumps(state_to_obj(state), check_circular=False)
    else:
        parts = re.split(r'"\\u0000(\d+)"', json.dumps(skeleton))
        parts[1::2] = [texts[int(i)] for i in parts[1::2]]
        text = "".join(parts)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def load_state(path):
    """The container saved at `path`, with the arrays json.load would give.

    ValueError when the JSON is not a state, CapacityError when a dense
    state is over the state cap or another tensor over the capacity cap,
    before the refused array is allocated. A file as save_state writes it,
    with at most half of each tensor's numbers distinct, takes the table
    route: json parses only the skeleton, each tensor's cap is checked
    before its data is read, and each data body is read through a table of
    its distinct numbers. json.load reads any other file, and any file that
    route cannot show to read the same.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    bodies = []

    def cut(match) -> str:
        bodies.append(_Body(text, *match.span(1)))
        return f'"data": "\\u0000{len(bodies) - 1}"}}'

    def attach(obj: dict) -> dict:
        mark = obj.get("data")
        if isinstance(mark, str) and mark[:1] == "\0":
            obj["data"] = bodies[int(mark[1:])]
        return obj

    # as save_state writes it, a body holds no string and ends its object;
    # with no backslash in the file, no string in it can pass for a marker
    skeleton = "" if "\\" in text else re.sub(r'"data": (\[\[[^"]*\]\])\}', cut, text)
    if bodies:
        try:
            state = state_from_obj(json.loads(skeleton, object_hook=attach))
            if all(body.read for body in bodies):
                return state
        except (ValueError, OverflowError):
            pass
    with _collector_paused():
        return state_from_obj(json.loads(text))
