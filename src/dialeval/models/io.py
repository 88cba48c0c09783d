"""Versioned binary model files.

Header: magic 'DLEV', format version, model kind, d, V, K, w (all little
endian), then named row-major float64 matrices.  A plain-text sidecar
(<path>.cfg) records the TrainConfig used; loading a model requires it.
"""

from __future__ import annotations

import struct

import numpy as np

from dialeval import DataError
from dialeval.models.config import TrainConfig
from dialeval.models.embeddings import SINGLE_DICT, EmbedParams
from dialeval.models.memn2n import MemN2NParams
from dialeval.models.mf import MFParams
from dialeval.models.tfidf import TfIdfModel

MAGIC = b"DLEV"
VERSION = 1

KIND_SUPEMB = "supemb"
KIND_MEMN2N = "memn2n"
KIND_IR = "ir"
KIND_MF = "mf"


def _write_matrix(f, name: str, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    f.write(struct.pack("<8sII", name.encode().ljust(8), arr.shape[0], arr.shape[1]))
    f.write(arr.tobytes())


def _read_matrix(f) -> tuple[str, np.ndarray]:
    head = f.read(16)
    if len(head) != 16:
        raise DataError("truncated model file")
    name, rows, cols = struct.unpack("<8sII", head)
    data = f.read(rows * cols * 8)
    if len(data) != rows * cols * 8:
        raise DataError("truncated matrix data")
    arr = np.frombuffer(data, dtype="<f8").reshape(rows, cols).copy()
    return name.rstrip(b"\x00 ").decode(), arr


def save_model(path, kind: str, matrices: list[tuple[str, np.ndarray]],
               cfg: TrainConfig, d: int, V: int, K: int = 0, w: int = 1) -> None:
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I8sIIII", VERSION, kind.encode().ljust(8), d, V, K, w))
        f.write(struct.pack("<I", len(matrices)))
        for name, arr in matrices:
            _write_matrix(f, name, arr)
    with open(str(path) + ".cfg", "w", encoding="utf-8") as f:
        f.write(f"kind={kind}\n")
        f.write(cfg.to_text())


def load_model(path):
    """Returns (kind, params object, cfg, header dict)."""
    with open(path, "rb") as f:
        if f.read(4) != MAGIC:
            raise DataError(f"{path}: not a model file")
        version, kind_b, d, V, K, w = struct.unpack("<I8sIIII", f.read(28))
        if version != VERSION:
            raise DataError(f"{path}: unsupported model format version {version}")
        kind = kind_b.rstrip(b"\x00 ").decode()
        (n_matrices,) = struct.unpack("<I", f.read(4))
        matrices = dict(_read_matrix(f) for _ in range(n_matrices))
    cfg = _load_cfg(str(path) + ".cfg")
    header = {"d": d, "V": V, "K": K, "w": w}
    return kind, _build(kind, matrices, header), cfg, header


def _load_cfg(path) -> TrainConfig:
    """The sidecar is required: ranking needs the memory and hashing settings
    the model was trained with, and defaults would silently replace them."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = [ln for ln in f if not ln.startswith("kind=")]
    except FileNotFoundError:
        raise DataError(f"{path}: missing model config sidecar") from None
    return TrainConfig.from_text("".join(lines))


def _build(kind: str, matrices: dict[str, np.ndarray], header: dict):
    d, V, K, w = header["d"], header["V"], header["K"], header["w"]
    if kind == KIND_SUPEMB:
        U_in = matrices["U_IN"]
        return EmbedParams(U_in, matrices.get("U_OUT"))
    if kind == KIND_MEMN2N:
        A_in = matrices["A_IN"]
        A_mem = matrices["A_MEM"] if w == 3 else A_in
        W = matrices["W"] if w >= 2 else A_in.T
        R = matrices["R"].reshape(K, d, d) if K else np.zeros((0, d, d))
        return MemN2NParams(A_in, A_mem, W, R, matrices["T"])
    if kind == KIND_IR:
        model = TfIdfModel.from_idf_vector(matrices["IDF"].ravel())
        model.rf_weight = float(matrices.get("RF", np.zeros((1, 1)))[0, 0])
        return model
    if kind == KIND_MF:
        item_ids = [int(x) for x in matrices["ITEMS"].ravel()]
        return MFParams(matrices["P"], matrices["Q"], item_ids)
    raise DataError(f"unknown model kind {kind!r}")


def save_supemb(path, p: EmbedParams, cfg: TrainConfig) -> None:
    mats = [("U_IN", p.U_in)]
    w = 1 if p.variant == SINGLE_DICT else 2
    if w == 2:
        mats.append(("U_OUT", p.U_out))
    save_model(path, KIND_SUPEMB, mats, cfg, p.dim, p.vocab_size, 0, w)


def save_memn2n(path, p: MemN2NParams, cfg: TrainConfig) -> None:
    w = p.n_dicts
    mats = [("A_IN", p.A_in)]
    if w == 3:
        mats.append(("A_MEM", p.A_mem))
    if w >= 2:
        mats.append(("W", p.W))
    mats.append(("R", p.R.reshape(p.hops * p.dim, p.dim) if p.hops
                 else np.zeros((0, p.dim))))
    mats.append(("T", p.T))
    save_model(path, KIND_MEMN2N, mats, cfg, p.dim, p.vocab_size, p.hops, w)


def save_ir(path, model: TfIdfModel, V: int, cfg: TrainConfig) -> None:
    mats = [("IDF", model.idf_vector(V)),
            ("RF", np.array([[model.rf_weight]]))]
    save_model(path, KIND_IR, mats, cfg, 0, V, 0, 1)


def save_mf(path, p: MFParams, cfg: TrainConfig) -> None:
    mats = [("P", p.user_factors), ("Q", p.item_factors),
            ("ITEMS", np.array(p.item_ids, dtype=float))]
    save_model(path, KIND_MF, mats, cfg, p.dim, len(p.item_ids), 0, 1)
