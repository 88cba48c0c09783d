"""Versioned binary model files.

Header: magic 'DLEV', format version, model kind, d, V, K, w (all little
endian), then named row-major float64 matrices.  A plain-text sidecar
(<path>.cfg) records the TrainConfig used; loading a model requires it, and
every matrix the kind needs must have the shape the header gives.  A file
that ends early or runs on past its last matrix is refused.  Ranking
also needs the vocabulary (<path>.vocab): `load_for_ranking` checks the
three files against each other.
"""

from __future__ import annotations

import io
import struct

import numpy as np

from dialeval import DataError
from dialeval.models.config import TrainConfig
from dialeval.models.embeddings import SINGLE_DICT, EmbedParams
from dialeval.models.memn2n import MemN2NParams
from dialeval.models.mf import MFParams
from dialeval.models.tfidf import TfIdfModel
from dialeval.text import Vocabulary

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


def _read(f: io.BytesIO, path, n: int) -> bytes:
    """Exactly n bytes of the model file, or DataError naming it; a size
    read from a damaged header is checked before anything is allocated."""
    if n > len(f.getbuffer()) - f.tell():
        raise DataError(f"{path}: truncated model file")
    return f.read(n)


def _read_matrix(f, path) -> tuple[str, np.ndarray]:
    name, rows, cols = struct.unpack("<8sII", _read(f, path, 16))
    data = _read(f, path, rows * cols * 8)
    arr = np.frombuffer(data, dtype="<f8").reshape(rows, cols).copy()
    return name.rstrip(b"\x00 ").decode("latin-1"), arr


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
    with open(path, "rb") as fh:
        f = io.BytesIO(fh.read())
    if f.read(4) != MAGIC:
        raise DataError(f"{path}: not a model file")
    version, kind_b, d, V, K, w = struct.unpack("<I8sIIII", _read(f, path, 28))
    if version != VERSION:
        raise DataError(f"{path}: unsupported model format version {version}")
    kind = kind_b.rstrip(b"\x00 ").decode("latin-1")
    (n_matrices,) = struct.unpack("<I", _read(f, path, 4))
    matrices = dict(_read_matrix(f, path) for _ in range(n_matrices))
    if f.read(1):
        raise DataError(f"{path}: bytes after the last matrix")
    cfg = _load_cfg(str(path) + ".cfg")
    header = {"d": d, "V": V, "K": K, "w": w}
    _check_shapes(path, kind, matrices, header)
    return kind, _build(kind, matrices, header), cfg, header


def load_for_ranking(path):
    """(kind, params, cfg, vocab) of a model file, its .cfg and its .vocab,
    checked against each other: the vocabulary has the header's V symbols
    (the models that embed or weight tokens), and memn2n's time features
    have a row per memory slot of the config."""
    kind, params, cfg, header = load_model(path)
    vocab_path = f"{path}.vocab"
    vocab = Vocabulary.load(vocab_path)
    if kind in (KIND_SUPEMB, KIND_MEMN2N, KIND_IR) and vocab.size != header["V"]:
        raise DataError(f"{vocab_path}: {vocab.size} symbols, but {path} was "
                        f"trained on V={header['V']}")
    if kind == KIND_MEMN2N and params.T.shape[0] != cfg.max_memories + 1:
        raise DataError(f"{path}: T has {params.T.shape[0]} rows, but {path}.cfg's "
                        f"max_memories={cfg.max_memories} needs {cfg.max_memories + 1}")
    return kind, params, cfg, vocab


def _load_cfg(path) -> TrainConfig:
    """The sidecar is required: ranking needs the memory and hashing settings
    the model was trained with, and defaults would silently replace them."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = [ln for ln in f if not ln.startswith("kind=")]
    except FileNotFoundError:
        raise DataError(f"{path}: missing model config sidecar") from None
    try:
        return TrainConfig.from_text("".join(lines))
    except DataError as e:
        raise DataError(f"{path}: {e}") from None


# the matrices each model needs, by kind and, where it matters, w
_NEEDED = {
    (KIND_SUPEMB, 1): ("U_IN",), (KIND_SUPEMB, 2): ("U_IN", "U_OUT"),
    (KIND_MEMN2N, 1): ("A_IN", "R", "T"), (KIND_MEMN2N, 2): ("A_IN", "W", "R", "T"),
    (KIND_MEMN2N, 3): ("A_IN", "A_MEM", "W", "R", "T"),
    KIND_IR: ("IDF",), KIND_MF: ("P", "Q", "ITEMS"),
}


def _check_shapes(path, kind: str, matrices: dict[str, np.ndarray], header: dict) -> None:
    """Every matrix the model needs is present with the shape the header
    gives (None: any number of rows)."""
    d, V, K, w = header["d"], header["V"], header["K"], header["w"]
    names = _NEEDED.get((kind, w), _NEEDED.get(kind))
    if names is None:
        raise DataError(f"{path}: no {kind!r} model has w={w}")
    shapes = {"U_IN": (d, V), "U_OUT": (d, V), "A_IN": (d, V), "A_MEM": (d, V),
              "W": (V, d), "R": (K * d, d), "T": (None, d), "IDF": (1, V),
              "P": (None, d), "Q": (V, d), "ITEMS": (1, V)}
    for name in names:
        arr = matrices.get(name)
        if arr is None:
            raise DataError(f"{path}: missing matrix {name}")
        rows, cols = shapes[name]
        if arr.shape[1] != cols or rows is not None and arr.shape[0] != rows:
            raise DataError(f"{path}: matrix {name} is {arr.shape[0]}x{arr.shape[1]}, "
                            f"but the header (d={d}, V={V}, K={K}, w={w}) needs "
                            f"{'*' if rows is None else rows}x{cols}")


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
