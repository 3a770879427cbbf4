"""Flat binary key -> float64-array container.

Deterministic layout so identical contents always produce identical bytes:

    magic   b"DACKPT01"
    count   uint32 little-endian
    entry*  name_len:uint32, name:utf-8, ndim:uint32, shape:uint64*,
            payload: float64 little-endian, row-major

Entries are written in sorted key order. Round-trip is bit-exact.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import CompatibilityError

MAGIC = b"DACKPT01"


def dumps(arrays: dict) -> bytes:
    parts = [MAGIC, struct.pack("<I", len(arrays))]
    for name in sorted(arrays):
        arr = np.ascontiguousarray(np.asarray(arrays[name], dtype="<f8"))
        enc = name.encode("utf-8")
        parts.append(struct.pack("<I", len(enc)))
        parts.append(enc)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        parts.append(arr.tobytes())
    return b"".join(parts)


def _take(blob: bytes, off: int, size: int) -> int:
    """End offset of the next ``size`` bytes; a short blob is not a checkpoint."""
    end = off + size
    if end > len(blob):
        raise CompatibilityError(
            f"truncated checkpoint file: need {end} bytes, have {len(blob)}"
        )
    return end


def _unpack(fmt: str, blob: bytes, off: int):
    end = _take(blob, off, struct.calcsize(fmt))
    return struct.unpack_from(fmt, blob, off), end


def loads(blob: bytes) -> dict:
    if blob[:8] != MAGIC:
        raise CompatibilityError("not a checkpoint file (bad magic)")
    (count,), off = _unpack("<I", blob, 8)
    out = {}
    for _ in range(count):
        (nlen,), off = _unpack("<I", blob, off)
        end = _take(blob, off, nlen)
        try:
            name = blob[off:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CompatibilityError(f"corrupt entry name in checkpoint file: {exc}") from exc
        (ndim,), off = _unpack("<I", blob, end)
        shape, off = _unpack(f"<{ndim}Q", blob, off)
        n = math.prod(shape)
        end = _take(blob, off, 8 * n)
        arr = np.frombuffer(blob, dtype="<f8", count=n, offset=off).reshape(shape)
        off = end
        out[name] = arr.astype(np.float64)
    if off != len(blob):
        raise CompatibilityError("trailing bytes in checkpoint file")
    return out


def save(path, arrays: dict):
    with open(path, "wb") as fh:
        fh.write(dumps(arrays))


def load(path) -> dict:
    with open(path, "rb") as fh:
        return loads(fh.read())
