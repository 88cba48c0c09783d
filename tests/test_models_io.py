import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from dialeval import DataError
from dialeval.models import TrainConfig
from dialeval.models.embeddings import SINGLE_DICT, TWO_DICT, EmbedParams, init_embed
from dialeval.models.io import (
    KIND_IR, KIND_MEMN2N, KIND_MF, KIND_SUPEMB,
    load_for_ranking, load_model, save_ir, save_memn2n, save_mf, save_supemb,
)
from dialeval.models.memn2n import MemN2NParams, init_memn2n
from dialeval.models.mf import MFParams
from dialeval.models.tfidf import TfIdfModel


@pytest.mark.parametrize("variant,w", [(SINGLE_DICT, 1), (TWO_DICT, 2)])
def test_supemb_roundtrip(tmp_path, variant, w):
    path = tmp_path / "model.bin"
    params = init_embed(9, 4, variant, seed=3)
    cfg = TrainConfig(dim=4, n_dicts=w)
    save_supemb(path, params, cfg)
    kind, loaded, loaded_cfg, header = load_model(path)
    assert kind == KIND_SUPEMB
    assert header == {"d": 4, "V": 9, "K": 0, "w": w}
    np.testing.assert_array_equal(loaded.U_in, params.U_in)
    np.testing.assert_array_equal(loaded.U_out, params.U_out)
    assert loaded.single_dict == (variant == SINGLE_DICT)
    assert loaded_cfg == cfg


@pytest.mark.parametrize("w", [1, 2, 3])
def test_memn2n_roundtrip(tmp_path, w):
    path = tmp_path / "model.bin"
    params = init_memn2n(11, 3, 2, 5, n_dicts=w, seed=1)
    cfg = TrainConfig(dim=3, hops=2, n_dicts=w)
    save_memn2n(path, params, cfg)
    kind, loaded, _, header = load_model(path)
    assert kind == KIND_MEMN2N
    assert header["K"] == 2 and header["w"] == w
    for name in ("A_in", "A_mem", "W", "R", "T"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(params, name))
    assert loaded.n_dicts == w


def test_memn2n_zero_hop_roundtrip(tmp_path):
    path = tmp_path / "model.bin"
    params = init_memn2n(7, 2, 0, 4, n_dicts=2, seed=0)
    save_memn2n(path, params, TrainConfig(dim=2, hops=0, n_dicts=2))
    _, loaded, _, _ = load_model(path)
    assert loaded.R.shape == (0, 2, 2)


def test_ir_roundtrip(tmp_path):
    path = tmp_path / "model.bin"
    model = TfIdfModel.fit([{2: 1, 3: 1}, {3: 1}], rf_weight=0.25)
    save_ir(path, model, V=6, cfg=TrainConfig())
    kind, loaded, _, _ = load_model(path)
    assert kind == KIND_IR
    assert loaded.rf_weight == 0.25
    assert loaded.idf == pytest.approx({t: w for t, w in model.idf.items() if w})


def test_mf_roundtrip(tmp_path):
    path = tmp_path / "model.bin"
    params = MFParams(np.arange(6.0).reshape(2, 3),
                      np.arange(12.0).reshape(4, 3), [5, 9, 2, 7])
    save_mf(path, params, TrainConfig(dim=3))
    kind, loaded, _, _ = load_model(path)
    assert kind == KIND_MF
    np.testing.assert_array_equal(loaded.user_factors, params.user_factors)
    np.testing.assert_array_equal(loaded.item_factors, params.item_factors)
    assert loaded.item_ids == params.item_ids
    assert loaded.item_index == params.item_index


def test_cfg_sidecar_written(tmp_path):
    path = tmp_path / "model.bin"
    cfg = TrainConfig(learning_rate=0.123, epochs=7)
    save_supemb(path, init_embed(4, 2, TWO_DICT), cfg)
    text = (tmp_path / "model.bin.cfg").read_text()
    assert text.startswith("kind=supemb\n")
    assert "learning_rate=0.123" in text


def test_rejects_not_a_model(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"GIF89a totally not a model")
    with pytest.raises(DataError, match="not a model"):
        load_model(path)


def test_rejects_truncated(tmp_path):
    path = tmp_path / "model.bin"
    save_supemb(path, init_embed(9, 4, TWO_DICT), TrainConfig())
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    with pytest.raises(DataError, match="truncated"):
        load_model(path)


def test_rejects_future_version(tmp_path):
    path = tmp_path / "model.bin"
    save_supemb(path, init_embed(4, 2, TWO_DICT), TrainConfig())
    data = bytearray(path.read_bytes())
    data[4] = 99  # bump the little-endian version field
    path.write_bytes(bytes(data))
    with pytest.raises(DataError, match="version"):
        load_model(path)


def test_deterministic_bytes(tmp_path):
    cfg = TrainConfig(dim=3, hops=1)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_memn2n(a, init_memn2n(8, 3, 1, 4, seed=5), cfg)
    save_memn2n(b, init_memn2n(8, 3, 1, 4, seed=5), cfg)
    assert a.read_bytes() == b.read_bytes()


SAVERS = {
    KIND_MEMN2N: lambda path: save_memn2n(path, init_memn2n(7, 3, 2, 3, n_dicts=3, seed=2),
                                          TrainConfig(dim=3, hops=2, n_dicts=3,
                                                      max_memories=2)),
    KIND_SUPEMB: lambda path: save_supemb(path, init_embed(7, 3, TWO_DICT, seed=2),
                                          TrainConfig(dim=3, n_dicts=2)),
    KIND_IR: lambda path: save_ir(path, TfIdfModel.fit([{2: 1, 3: 1}, {3: 1}], rf_weight=0.25),
                                  V=6, cfg=TrainConfig()),
    KIND_MF: lambda path: save_mf(path, MFParams(np.ones((2, 3)), np.ones((4, 3)),
                                                 [5, 9, 2, 7]), TrainConfig(dim=3)),
}


@pytest.mark.parametrize("kind", sorted(SAVERS))
def test_rejects_every_cut_and_a_trailing_byte(tmp_path, kind):
    """A file cut at any offset, the 36-byte header included, or with one
    byte appended, is a DataError naming the file."""
    full = tmp_path / "full.bin"
    SAVERS[kind](full)
    data = full.read_bytes()
    assert load_model(full)[0] == kind
    damaged = tmp_path / "damaged.bin"
    shutil.copy(f"{full}.cfg", f"{damaged}.cfg")
    for variant in [data[:n] for n in range(len(data))] + [data + b"\0"]:
        damaged.write_bytes(variant)
        with pytest.raises(DataError, match="damaged.bin"):
            load_model(damaged)


@pytest.mark.parametrize("start,message", [
    (36 + 8, "truncated model file"),  # first matrix: 2^32-1 rows and columns
    (8, "model.bin: no .* model"),     # kind: bytes that are not UTF-8
], ids=["size", "kind"])
def test_rejects_damaged_header_field(tmp_path, start, message):
    path = tmp_path / "model.bin"
    save_supemb(path, init_embed(4, 2, TWO_DICT), TrainConfig())
    data = bytearray(path.read_bytes())
    data[start:start + 8] = b"\xff" * 8
    path.write_bytes(bytes(data))
    with pytest.raises(DataError, match=message):
        load_model(path)


def test_rejects_cfg_value_of_the_wrong_type(tmp_path):
    path = tmp_path / "model.bin"
    save_supemb(path, init_embed(4, 2, TWO_DICT), TrainConfig())
    cfg = tmp_path / "model.bin.cfg"
    cfg.write_text(cfg.read_text().replace("dim=50\n", "dim=fifty\n"))
    with pytest.raises(DataError, match=r"model\.bin\.cfg: dim='fifty': expected int"):
        load_model(path)


@pytest.mark.parametrize("text,message", [
    ("<null>\t0\tU\n<unk>\t0\tU\nkelo\tmany\tE\n", r"model\.bin\.vocab:3: count 'many'"),
    ("kelo\t3\tE\n<null>\t0\tU\n<unk>\t0\tU\n", r"model\.bin\.vocab: must start"),
    ("", r"model\.bin\.vocab: must start"),
], ids=["count", "order", "empty"])
def test_rejects_damaged_vocab(tmp_path, text, message):
    path = tmp_path / "model.bin"
    save_supemb(path, init_embed(3, 2, TWO_DICT), TrainConfig())
    (tmp_path / "model.bin.vocab").write_text(text)
    with pytest.raises(DataError, match=message):
        load_for_ranking(path)


def _bits(a: np.ndarray) -> tuple:
    return a.shape, np.ascontiguousarray(a, dtype=np.float64).tobytes()


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from([KIND_SUPEMB, KIND_MEMN2N, KIND_IR, KIND_MF]),
       d=st.integers(1, 4), V=st.integers(1, 6), K=st.integers(0, 2),
       w=st.integers(1, 3), rows=st.integers(1, 5), data=st.data())
def test_save_then_load_returns_every_matrix_bit_for_bit(kind, d, V, K, w, rows, data):
    """Random shapes and values, nan payloads, infinities and signed zeros
    included: the loaded model's matrices are the saved ones, bit for bit."""
    def matrix(*shape, elements=st.floats(width=64) | st.just(-0.0)):
        return data.draw(npst.arrays(np.float64, shape, elements=elements))

    cfg = TrainConfig(dim=d, hops=K, n_dicts=w, max_memories=rows - 1)
    if kind == KIND_SUPEMB:
        params = EmbedParams(matrix(d, V), matrix(d, V) if w >= 2 else None)
        save, names = save_supemb, ["U_in", "U_out"]
    elif kind == KIND_MEMN2N:
        A_in = matrix(d, V)
        params = MemN2NParams(A_in, matrix(d, V) if w == 3 else A_in,
                              matrix(V, d) if w >= 2 else A_in.T,
                              matrix(K, d, d), matrix(rows, d))
        save, names = save_memn2n, ["A_in", "A_mem", "W", "R", "T"]
    elif kind == KIND_IR:
        # an idf is never negative, and a zero weight is a term the table lacks
        idf = np.abs(matrix(V, elements=st.floats(0.0, allow_nan=False, width=64)))
        params = TfIdfModel.from_idf_vector(idf)
        params.rf_weight = data.draw(st.floats(0.0, 1.0))
        names = []

        def save(path, p, cfg):
            save_ir(path, p, V, cfg)
    else:
        items = data.draw(st.lists(st.integers(0, 2**31), min_size=V, max_size=V, unique=True))
        params = MFParams(matrix(rows, d), matrix(V, d), items)
        save, names = save_mf, ["user_factors", "item_factors"]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.bin")
        save(path, params, cfg)
        loaded_kind, loaded, _, _ = load_model(path)
    assert loaded_kind == kind
    for name in names:
        assert _bits(getattr(loaded, name)) == _bits(getattr(params, name)), name
    if kind == KIND_IR:
        assert _bits(loaded.idf_vector(V)) == _bits(idf)
        assert loaded.rf_weight == params.rf_weight
    if kind == KIND_MF:
        assert loaded.item_ids == items
