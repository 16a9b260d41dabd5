import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctcbridge.checkpoint import (
    MAGIC,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)


@pytest.fixture
def sample(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "enc/w": rng.normal(size=(4, 3)).astype(np.float32),
        "dec/emb": rng.normal(size=(7, 2)).astype(np.float32),
        "scalarish": np.array([1.5], dtype=np.float32),
    }
    meta = {"kind": "encoder", "seed": 3, "nested": {"tau": 1.0}}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, tensors, meta)
    return path, tensors, meta


def test_round_trip_values(sample):
    path, tensors, meta = sample
    loaded, meta2 = load_checkpoint(path)
    assert meta2 == meta
    assert set(loaded) == set(tensors)
    for name in tensors:
        np.testing.assert_array_equal(loaded[name], tensors[name])
        assert loaded[name].dtype == np.float32


def test_load_save_is_byte_identical(sample, tmp_path):
    path, _, _ = sample
    tensors, meta = load_checkpoint(path)
    again = tmp_path / "again.ckpt"
    save_checkpoint(again, tensors, meta)
    assert again.read_bytes() == path.read_bytes()


def test_magic_and_version(sample):
    path, _, _ = sample
    blob = path.read_bytes()
    assert blob[:4] == MAGIC == b"LEGO"
    assert int.from_bytes(blob[4:8], "little") == 1


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "junk.ckpt"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def test_truncated_payload_rejected(sample, tmp_path):
    path, _, _ = sample
    blob = path.read_bytes()
    p = tmp_path / "cut.ckpt"
    p.write_bytes(blob[:-8])
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def test_payload_is_little_endian_float32(sample):
    path, tensors, _ = sample
    blob = path.read_bytes()
    header_len = int.from_bytes(blob[8:12], "little")
    payload = blob[12 + header_len:]
    total = sum(t.size for t in tensors.values())
    assert len(payload) == 4 * total
    # first manifest entry is the lexicographically first name
    first = np.frombuffer(payload[: tensors["dec/emb"].size * 4], dtype="<f4")
    np.testing.assert_array_equal(first.reshape(7, 2), tensors["dec/emb"])


def _with_header(blob: bytes, edit) -> bytes:
    """`blob` with its JSON header passed through `edit` and re-packed."""
    header_len = int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12:12 + header_len])
    edit(header)
    text = json.dumps(header).encode()
    return blob[:8] + len(text).to_bytes(4, "little") + text + blob[12 + header_len:]


MALFORMED = {
    "six-bytes": lambda blob: blob[:6],
    "cut-header": lambda blob: blob[:20],
    "negative-offset": lambda blob: _with_header(
        blob, lambda h: h["tensors"][0].update(offset=-4)),
    "entry-without-shape": lambda blob: _with_header(
        blob, lambda h: h["tensors"][0].pop("shape")),
    "float-shape": lambda blob: _with_header(
        blob, lambda h: h["tensors"][0].update(shape=[7.0, 2])),
    "meta-not-object": lambda blob: _with_header(blob, lambda h: h.update(meta=[1])),
    "header-not-utf8": lambda blob: blob[:12] + b"\xff" + blob[13:],
    "nan-tensor": lambda blob: blob[:-4] + np.float32(np.nan).tobytes(),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_file_raises_checkpoint_error(sample, tmp_path, case):
    path, _, _ = sample
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(MALFORMED[case](path.read_bytes()))
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    tensors = {"a": np.arange(6, dtype=np.float32).reshape(2, 3), "b": np.ones(1, np.float32)}
    save_checkpoint(d / "valid.ckpt", tensors, {"kind": "encoder", "step": 3})
    return d


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_cut_or_flipped_file_loads_or_raises_checkpoint_error(fuzz_dir, data):
    blob = bytearray((fuzz_dir / "valid.ckpt").read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        for i, flip in data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                                    st.integers(1, 255)),
                                          min_size=1, max_size=4), label="flips"):
            blob[i] ^= flip
    bad = fuzz_dir / "mutated.ckpt"
    bad.write_bytes(bytes(blob))
    try:
        load_checkpoint(bad)
    except CheckpointError:
        pass


def test_failed_write_keeps_previous_file(sample, monkeypatch):
    path, tensors, meta = sample
    before = path.read_bytes()

    def crash(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", crash)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, {"other": np.zeros(3, np.float32)}, {"kind": "new"})
    assert path.read_bytes() == before
    loaded, meta2 = load_checkpoint(path)
    assert meta2 == meta and set(loaded) == set(tensors)
    assert [p.name for p in path.parent.iterdir()] == [path.name]
