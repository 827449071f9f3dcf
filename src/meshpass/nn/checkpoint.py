"""Binary checkpoint files: named float64 blocks with shape metadata.

Layout (all integers little-endian unsigned 64-bit unless noted):

    bytes 0..7    magic "MPCKPT01"
    8..15         block count
    per block:
        name length (uint16), name bytes (utf-8)
        ndim (uint8), then ndim dims (uint64 each)
        data: prod(dims) float64 values, little-endian, C order
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

MAGIC = b"MPCKPT01"


class CheckpointError(IOError):
    pass


class Blocks(dict):
    """The blocks of the checkpoint at ``path``, by name. Looking up a
    block the file lacks raises CheckpointError naming the file and the
    block."""

    def __init__(self, path):
        super().__init__()
        self.path = path

    def __missing__(self, name):
        raise CheckpointError(f"checkpoint {self.path} has no block {name!r}")

    def shaped(self, name, shape):
        """Block ``name``; CheckpointError naming the file and the block if
        its shape is not ``shape``."""
        arr = self[name]
        if arr.shape != shape:
            raise CheckpointError(f"checkpoint {self.path}: block {name!r} has shape "
                                  f"{arr.shape}, expected {shape}")
        return arr


def save_blocks(path, blocks):
    """Write an ordered mapping of name -> float64 ndarray."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(blocks)))
        for name, arr in blocks.items():
            arr = np.ascontiguousarray(arr, dtype=np.float64)
            name_b = name.encode("utf-8")
            fh.write(struct.pack("<H", len(name_b)))
            fh.write(name_b)
            fh.write(struct.pack("<B", arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<Q", d))
            fh.write(arr.astype("<f8").tobytes())


def load_blocks(path):
    """Read a checkpoint back into :class:`Blocks` of float64 arrays, in
    file order.

    A file that is not a checkpoint, or that ends before its last block,
    raises CheckpointError naming the path.
    """
    blocks = Blocks(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def take(n):
            pos = fh.tell()
            if n > size - pos:
                raise CheckpointError(
                    f"truncated checkpoint {path}: wanted {n} bytes at offset {pos}, "
                    f"file has {size}"
                )
            return fh.read(n)

        def unpack(fmt):
            return struct.unpack(fmt, take(struct.calcsize(fmt)))[0]

        magic = fh.read(8)
        if magic != MAGIC:
            raise CheckpointError(f"bad checkpoint magic {magic!r} in {path}")
        for _ in range(unpack("<Q")):
            try:
                name = take(unpack("<H")).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"corrupt block name in {path}") from exc
            shape = tuple(unpack("<Q") for _ in range(unpack("<B")))
            data = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape)
            blocks[name] = np.array(data, dtype=np.float64)
    return blocks
