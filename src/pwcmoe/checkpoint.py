"""Binary checkpoint container: magic, version, text config block, named
float32 arrays. Little-endian throughout.

Layout:
  magic (4 bytes) | version u32 | config_len u32 | config utf-8 text
  | n_arrays u32 | per array: name_len u16, name, rank u8, dims u32..., f32 values
"""

from __future__ import annotations

import struct
from dataclasses import asdict, fields

import numpy as np

from .rng import RngStream

FORMAT_VERSION = 1
MAGIC_MODEL = b"PWCM"
MAGIC_PREDICTOR = b"PWCP"


class CheckpointError(ValueError):
    pass


def save_container(path: str, magic: bytes, config: dict, arrays: dict):
    """Write named arrays plus a key/value config block."""
    if len(magic) != 4:
        raise CheckpointError("magic must be 4 bytes")
    cfg_text = "".join(f"{k}={v}\n" for k, v in config.items()).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<I", len(cfg_text)))
        fh.write(cfg_text)
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            arr = np.asarray(arr, dtype="<f4")
            nb = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<I", d))
            fh.write(arr.tobytes(order="C"))


def load_container(path: str, magic: bytes):
    """Read a container; rejects wrong magic and version mismatches."""
    with open(path, "rb") as fh:
        got = fh.read(4)
        if got != magic:
            raise CheckpointError(f"{path}: bad magic {got!r}, expected {magic!r}")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != FORMAT_VERSION:
            raise CheckpointError(
                f"{path}: format version {version} unsupported (expected {FORMAT_VERSION})"
            )
        (cfg_len,) = struct.unpack("<I", fh.read(4))
        cfg_text = fh.read(cfg_len).decode("utf-8")
        config = {}
        for line in cfg_text.splitlines():
            if line:
                k, _, v = line.partition("=")
                config[k] = v
        (n_arrays,) = struct.unpack("<I", fh.read(4))
        arrays = {}
        for _ in range(n_arrays):
            (name_len,) = struct.unpack("<H", fh.read(2))
            name = fh.read(name_len).decode("utf-8")
            (rank,) = struct.unpack("<B", fh.read(1))
            dims = struct.unpack(f"<{rank}I", fh.read(4 * rank)) if rank else ()
            count = int(np.prod(dims)) if dims else 1
            buf = fh.read(4 * count)
            arrays[name] = np.frombuffer(buf, dtype="<f4").reshape(dims).astype(np.float64)
        return config, arrays


_CASTS = {"int": int, "float": float, "bool": lambda s: s == "True"}


def save_params(path: str, magic: bytes, model):
    """Write a model's dataclass config and its named parameters, in
    `model.parameters()` order."""
    save_container(path, magic, asdict(model.config),
                   {k: p.data for k, p in model.parameters().items()})


def load_params(path: str, magic: bytes, model_cls, config_cls):
    """Rebuild a model written by `save_params`: the config is cast field by
    field from the dataclass field types, then every parameter is loaded."""
    cfg_raw, arrays = load_container(path, magic)
    config = config_cls(**{f.name: _CASTS[str(f.type)](cfg_raw[f.name])
                           for f in fields(config_cls)})
    model = model_cls(config, RngStream(0, "load"))
    for k, p in model.parameters().items():
        if k not in arrays:
            raise KeyError(f"{path}: missing parameter array {k!r}")
        p.data = np.asarray(arrays[k], dtype=np.float64).reshape(p.data.shape)
    return model


def save_embeddings(path: str, matrix) -> None:
    """Array container holding a vocab x d embedding matrix."""
    save_container(path, MAGIC_MODEL, {"kind": "embeddings"}, {"embeddings": matrix})


def load_embeddings(path: str):
    _, arrays = load_container(path, MAGIC_MODEL)
    if "embeddings" not in arrays:
        raise CheckpointError(f"{path}: no 'embeddings' array")
    return arrays["embeddings"]
