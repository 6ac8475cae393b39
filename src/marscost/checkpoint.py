"""Binary model checkpoints: the widths of the regressor, then its parameter vector.

Layout (all little-endian):
  magic   8 bytes  b"MCCKPT\\x02\\x00" (the bytes after "MCCKPT" are the version)
  widths  uint32 each, the fields of ``NetConfig`` in declaration order
  theta   float64 each, ``ModelParams.theta`` in the order of its layout

The widths fix the length of ``theta``; it round-trips bit-exactly.
"""

import struct
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from .io import atomic_write_bytes
from .net import ModelParams, NetConfig
from .types import FormatError

MAGIC = b"MCCKPT\x02\x00"
_WIDTHS = struct.Struct("<" + "I" * len(fields(NetConfig)))


def _version(blob: bytes) -> int:
    return int.from_bytes(blob[6:8], "little")


def save_checkpoint(params: ModelParams, path):
    blob = MAGIC + _WIDTHS.pack(*astuple(params.config)) + params.theta.astype("<f8").tobytes()
    atomic_write_bytes(path, blob)


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint; any damage raises a FormatError naming the file (and tensor)."""
    data = Path(path).read_bytes()
    if data[: len(MAGIC)] != MAGIC:
        if data[:6] == MAGIC[:6] and len(data) >= len(MAGIC):
            raise FormatError(f"{path}: model checkpoint version {_version(data)}, "
                              f"this program reads version {_version(MAGIC)}")
        raise FormatError(f"{path}: not a model checkpoint (bad magic)")
    header = len(MAGIC) + _WIDTHS.size
    if len(data) < header:
        raise FormatError(f"{path}: truncated in the widths header")
    try:
        config = NetConfig(*_WIDTHS.unpack_from(data, len(MAGIC)))
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from None
    size = 8 * config.n_parameters()
    if len(data) - header != size:
        raise FormatError(f"{path}: {len(data) - header} bytes of parameters, "
                          f"but the widths in its header take {size}")
    params = ModelParams(config, np.frombuffer(data, "<f8", offset=header).astype(np.float64))
    if not np.isfinite(params.theta).all():
        name = next(n for n, t in params.named_tensors() if not np.isfinite(t).all())
        raise FormatError(f"{path}: tensor {name!r} holds non-finite values")
    return params
