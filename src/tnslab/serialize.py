"""JSON round-tripping for tensors and the network containers.

Tensors are stored as {"shape": [...], "data": [[re, im], ...]} with
row-major data; repr-level precision of json round-trips doubles exactly,
so save followed by load is bit-faithful.
"""
from __future__ import annotations

import json
import math

import numpy as np

from .mera import Mera
from .mps_obc import MpsObc
from .mps_pbc import MpsPbc
from .peps import Peps, PepsNetwork
from .tensors import DenseTensor, as_array
from .ttns import TreeNetwork, Ttns


def tensor_to_obj(tensor) -> dict:
    arr = np.asarray(as_array(tensor))
    flat = arr.ravel()
    return {
        "shape": [int(s) for s in arr.shape],
        "data": np.stack((flat.real, flat.imag), axis=-1).tolist(),
    }


def tensor_from_obj(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError("a tensor must be a JSON object with shape and data")
    shape = tuple(int(s) for s in obj["shape"])
    data = obj["data"]
    if not isinstance(data, list) or min(shape, default=0) < 0 or len(data) != math.prod(shape):
        raise ValueError("tensor data does not match its shape")
    try:
        flat = np.array([complex(re, im) for re, im in data], dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ValueError("tensor data must be [re, im] number pairs") from exc
    return flat.reshape(shape)


def state_to_obj(state) -> dict:
    """Serialize any supported container to a plain JSON-ready dict."""
    if isinstance(state, DenseTensor):
        return {"kind": "dense_state", "tensor": tensor_to_obj(state)}
    if isinstance(state, MpsObc):
        return {
            "kind": "mps_obc",
            "tensors": [tensor_to_obj(t) for t in state.tensors],
        }
    if isinstance(state, MpsPbc):
        return {
            "kind": "mps_pbc",
            "translation_invariant": bool(state.translation_invariant),
            "tensors": [tensor_to_obj(t) for t in state.tensors],
        }
    if isinstance(state, (Ttns, Peps)):
        net = state.network
        return {
            "kind": "ttns" if isinstance(state, Ttns) else "peps",
            "network": {
                "dims": [int(d) for d in net.dims],
                "edges": [[int(i), int(j), int(m)] for i, j, m in net.edges],
            },
            "tensors": [tensor_to_obj(t) for t in state.tensors],
        }
    if isinstance(state, Mera):
        layers = []
        for layer in state.layers:
            layers.append(
                {
                    "disentanglers": [tensor_to_obj(u) for u in layer.disentanglers],
                    "isometries": [tensor_to_obj(w) for w in layer.isometries],
                }
            )
        return {
            "kind": "mera",
            "L": int(state.L),
            "m": int(state.m),
            "d": int(state.d),
            "layers": layers,
            "top": tensor_to_obj(state.top),
        }
    raise TypeError(f"cannot serialize {type(state).__name__}")


def state_from_obj(obj: dict):
    if not isinstance(obj, dict):
        raise ValueError("a state must be a JSON object with a kind")
    kind = obj.get("kind")
    if kind == "dense_state":
        return DenseTensor(tensor_from_obj(obj["tensor"]))
    if kind == "mps_obc":
        return MpsObc([tensor_from_obj(t) for t in obj["tensors"]])
    if kind == "mps_pbc":
        return MpsPbc(
            [tensor_from_obj(t) for t in obj["tensors"]],
            translation_invariant=bool(obj.get("translation_invariant", False)),
        )
    if kind in ("ttns", "peps"):
        net_cls, cls = (TreeNetwork, Ttns) if kind == "ttns" else (PepsNetwork, Peps)
        net = net_cls(
            dims=[int(d) for d in obj["network"]["dims"]],
            edges=[tuple(e) for e in obj["network"]["edges"]],
        )
        return cls(net, [tensor_from_obj(t) for t in obj["tensors"]])
    if kind == "mera":
        layers = [
            (
                [tensor_from_obj(u) for u in lay["disentanglers"]],
                [tensor_from_obj(w) for w in lay["isometries"]],
            )
            for lay in obj["layers"]
        ]
        return Mera(
            int(obj["L"]),
            int(obj["m"]),
            int(obj["d"]),
            layers,
            tensor_from_obj(obj["top"]),
        )
    raise ValueError(f"unknown state kind {kind!r}")


def save_state(state, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(state_to_obj(state)))  # the C encoder; json.dump is pure Python
        fh.write("\n")


def load_state(path):
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_obj(json.load(fh))
