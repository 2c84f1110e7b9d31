"""Binary container for named float32 tensors.

Layout, all little-endian: magic ``RMA1``, u32 version (currently 1), u32
tensor count; then per tensor: u16 name length, UTF-8 name bytes, u8 rank,
one u32 per dimension, and the raw float32 payload.  Loading is strict: bad
magic, unknown versions, truncation, duplicate names, and trailing bytes all
fail with the byte offset.  Writes are atomic: a failed or interrupted save
leaves the previous file in place.
"""

import contextlib
import os
import struct

import numpy as np

from .errors import FormatError

MAGIC = b"RMA1"
VERSION = 1


@contextlib.contextmanager
def atomic_write(path, mode="wb", **open_args):
    """A temp file next to ``path`` that replaces it when the block completes and is removed if it raises."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **open_args) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def save_tensors(named, path):
    """Write an ordered list of (name, array) pairs."""
    with atomic_write(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(named)))
        for name, arr in named:
            a = np.asarray(arr, dtype="<f4")
            if not a.flags["C_CONTIGUOUS"]:
                a = np.ascontiguousarray(a)
            nb = name.encode("utf-8")
            if len(nb) > 0xFFFF:
                raise FormatError(f"tensor name too long: {name!r}")
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", a.ndim))
            if a.ndim:
                fh.write(struct.pack(f"<{a.ndim}I", *a.shape))
            fh.write(a.tobytes())


def load_tensors(path):
    """Read a checkpoint back into an ordered dict of float32 arrays."""
    with open(path, "rb") as fh:
        blob = fh.read()
    off = 0

    def need(n, what):
        nonlocal off
        if off + n > len(blob):
            raise FormatError(f"checkpoint truncated at offset {off}: needed {n} bytes for {what}")
        chunk = blob[off:off + n]
        off += n
        return chunk

    magic = need(4, "magic")
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r} at offset 0, expected {MAGIC!r}")
    version, count = struct.unpack("<II", need(8, "header"))
    if version != VERSION:
        raise FormatError(f"unsupported checkpoint version {version} at offset 4")

    out = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", need(2, "name length"))
        try:
            name = need(name_len, "name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"tensor name at offset {off - name_len} is not valid UTF-8") from exc
        if name in out:
            raise FormatError(f"duplicate tensor name {name!r} at offset {off}")
        (rank,) = struct.unpack("<B", need(1, "rank"))
        rank_off = off - 1
        dims = struct.unpack(f"<{rank}I", need(4 * rank, "dims")) if rank else ()
        n_vals = 1
        for d in dims:
            n_vals *= d
        raw = need(4 * n_vals, f"data of {name!r}")
        try:  # numpy caps the rank at 64 and the element count at the index range, even for no data
            out[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
        except ValueError as exc:
            raise FormatError(f"tensor {name!r} has a rank-{rank} shape at offset {rank_off} "
                              "that numpy cannot build") from exc
    if off != len(blob):
        raise FormatError(f"{len(blob) - off} trailing bytes at offset {off}")
    return out
