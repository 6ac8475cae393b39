"""Binary model checkpoints: versioned header plus named float64 tensors.

Layout (all integers little-endian):
  magic   8 bytes  b"MCCKPT\\x01\\x00"
  count   uint32   number of tensors
  per tensor:
    name_len uint16, name utf-8, ndim uint8, dims uint32 each,
    data row-major float64 little-endian

Tensor data round-trips bit-exactly.
"""

import math
import struct
from pathlib import Path

import numpy as np

from .io import atomic_write_bytes
from .net import ModelParams
from .types import FormatError

MAGIC = b"MCCKPT\x01\x00"
_MAX_POINTS_KEY = "max_points_per_pillar"


def _pack_tensor(name: str, arr: np.ndarray) -> bytes:
    name_b = name.encode("utf-8")
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    head = struct.pack("<H", len(name_b)) + name_b + struct.pack("<B", arr.ndim)
    head += b"".join(struct.pack("<I", d) for d in arr.shape)
    return head + arr.astype("<f8").tobytes()


def save_checkpoint(params: ModelParams, path):
    tensors = params.named_tensors() + [
        (_MAX_POINTS_KEY, np.array(float(params.config.max_points_per_pillar)))
    ]
    blob = MAGIC + struct.pack("<I", len(tensors))
    for name, arr in tensors:
        blob += _pack_tensor(name, arr)
    atomic_write_bytes(path, blob)


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint; any damage raises a FormatError naming the file (and tensor)."""
    data = Path(path).read_bytes()
    if data[: len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: not a model checkpoint (bad magic)")
    off = len(MAGIC)

    def take(size: int, what: str) -> bytes:
        nonlocal off
        if off + size > len(data):
            raise FormatError(f"{path}: truncated in {what}")
        off += size
        return data[off - size : off]

    (count,) = struct.unpack("<I", take(4, "the tensor count"))
    tensors = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "a tensor name"))
        # a name that is not UTF-8 keeps its bytes escaped and fails as an unknown tensor
        name = take(name_len, "a tensor name").decode("utf-8", "backslashreplace")
        if name in tensors:
            raise FormatError(f"{path}: repeated tensor {name!r}")
        (ndim,) = struct.unpack("<B", take(1, f"tensor {name!r}"))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, f"tensor {name!r}"))
        raw = take(8 * math.prod(shape), f"tensor {name!r}")
        tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(shape)
        if not np.all(np.isfinite(tensors[name])):
            raise FormatError(f"{path}: tensor {name!r} holds non-finite values")
    if off != len(data):
        raise FormatError(f"{path}: {len(data) - off} byte(s) after the last tensor")
    if _MAX_POINTS_KEY not in tensors:
        raise FormatError(f"{path}: tensor {_MAX_POINTS_KEY!r} is missing")
    max_points = tensors.pop(_MAX_POINTS_KEY).reshape(-1)
    if max_points.size != 1 or not float(max_points[0]).is_integer():
        raise FormatError(f"{path}: tensor {_MAX_POINTS_KEY!r} is not one whole number")
    try:
        return ModelParams.from_named(tensors, int(max_points[0]))
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from None
