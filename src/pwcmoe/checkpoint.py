"""Binary checkpoint container: magic, version, text config block, named
float32 arrays. Little-endian throughout.

Layout:
  magic (4 bytes) | version u32 | config_len u32 | config utf-8 text
  | n_arrays u32 | per array: name_len u16, name, rank u8, dims u32..., f32 values
"""

from __future__ import annotations

import math
import os
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
    """Read a container; rejects wrong magic, version mismatches and files
    that end early."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n: int, what: str) -> bytes:
            # checked before reading: a declared size is never allocated unread
            left = size - fh.tell()
            if n > left:
                raise CheckpointError(f"{path}: truncated: {what} needs {n} bytes, found {left}")
            return fh.read(n)

        got = read(4, "magic")
        if got != magic:
            raise CheckpointError(f"{path}: bad magic {got!r}, expected {magic!r}")
        (version,) = struct.unpack("<I", read(4, "version"))
        if version != FORMAT_VERSION:
            raise CheckpointError(
                f"{path}: format version {version} unsupported (expected {FORMAT_VERSION})"
            )
        (cfg_len,) = struct.unpack("<I", read(4, "config length"))
        cfg_text = read(cfg_len, "config").decode("utf-8")
        config = {}
        for line in cfg_text.splitlines():
            if line:
                k, _, v = line.partition("=")
                config[k] = v
        (n_arrays,) = struct.unpack("<I", read(4, "array count"))
        arrays = {}
        for i in range(n_arrays):
            (name_len,) = struct.unpack("<H", read(2, f"array {i} name length"))
            name = read(name_len, f"array {i} name").decode("utf-8")
            (rank,) = struct.unpack("<B", read(1, f"array {name!r} rank"))
            dims = struct.unpack(f"<{rank}I", read(4 * rank, f"array {name!r} shape"))
            # a Python int product: no shape overflows it
            buf = read(4 * math.prod(dims), f"array {name!r} of shape {dims}")
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
    field from the dataclass field types and checked before the model is
    built, then every parameter is loaded; the file holds exactly the model's
    parameters, each in its own shape."""
    cfg_raw, arrays = load_container(path, magic)
    values = {}
    for f in fields(config_cls):
        raw, kind = cfg_raw.get(f.name), str(f.type)
        if raw is None:
            raise CheckpointError(f"{path}: config block has no field {f.name!r}")
        try:
            values[f.name] = _CASTS[kind](raw)
        except ValueError:
            raise CheckpointError(
                f"{path}: config field {f.name!r}: cannot read {raw!r} as {kind}") from None
        # every int but the epoch count is a size; a model may be saved untrained
        if kind == "int" and f.name != "epochs" and values[f.name] < 1:
            raise CheckpointError(f"{path}: config field {f.name!r} must be >= 1, got {raw}")
    try:
        config = config_cls(**values)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    model = model_cls(config, RngStream(0, "load"))
    params = model.parameters()
    extra = [k for k in arrays if k not in params]
    if extra:
        raise CheckpointError(f"{path}: array {extra[0]!r} is not a parameter of the model")
    for k, p in params.items():
        if k not in arrays:
            raise CheckpointError(f"{path}: missing parameter array {k!r}")
        if arrays[k].shape != p.data.shape:
            raise CheckpointError(f"{path}: array {k!r} has shape {arrays[k].shape}, "
                                  f"the model needs {p.data.shape}")
        p.data = arrays[k]
    return model
