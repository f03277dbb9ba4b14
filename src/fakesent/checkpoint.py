"""Binary model checkpoints with a bit-exact round trip.

Layout (all integers little-endian):

    magic           8 bytes  b"FSENTCK1"
    header length   uint32
    header          UTF-8 JSON: format_version, d, H, V, precision
                    (float32 or float64, the dtype of every parameter),
                    mlp hidden widths
    vocab count     uint32   followed by count entries of
                             uint16 byte-length + UTF-8 token, in index order
    param count     uint32   followed by count blocks of
                             uint16 name length + name,
                             uint8 ndim, uint32 dims...,
                             2-byte dtype code (f4/f8),
                             raw row-major little-endian values

Parameters are saved in ``DetectorModel.all_parameters`` order: embedding
(V, d); fwd.w (4H, d), fwd.u (4H, H), fwd.b (4H,); the same for bwd; then
head.w1, head.b1 .. head.w3, head.b3 for widths 2H -> mlp[0] -> mlp[1] -> 2.
The loader finds them by name.
"""

from __future__ import annotations

import json
import math
import os
import struct
from typing import BinaryIO

import numpy as np

from . import numcore as nc
from .corpus import MAX_TOKEN_BYTES, Vocabulary
from .errors import CheckpointFormatError

MAGIC = b"FSENTCK1"
FORMAT_VERSION = 1

_DTYPES = {"f4": np.dtype("<f4"), "f8": np.dtype("<f8")}


def _write_str(f: BinaryIO, s: str) -> None:
    raw = s.encode("utf-8")
    if len(raw) > MAX_TOKEN_BYTES:
        raise CheckpointFormatError(f"string too long ({len(raw)} bytes)")
    f.write(struct.pack("<H", len(raw)))
    f.write(raw)


def _read_exact(f: BinaryIO, n: int) -> bytes:
    raw = f.read(n)
    if len(raw) != n:
        raise CheckpointFormatError("truncated checkpoint")
    return raw


def _bytes_left(f: BinaryIO) -> int:
    return os.fstat(f.fileno()).st_size - f.tell()


def _read_str(f: BinaryIO) -> str:
    (n,) = struct.unpack("<H", _read_exact(f, 2))
    try:
        return _read_exact(f, n).decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointFormatError("string is not UTF-8") from None


def _write_param(f: BinaryIO, p: nc.Parameter) -> None:
    _write_str(f, p.name)
    arr = p.value
    code = {dt: c for c, dt in _DTYPES.items()}.get(arr.dtype)
    if code is None:
        raise CheckpointFormatError(f"unsupported dtype {arr.dtype} for {p.name}")
    f.write(struct.pack("<B", arr.ndim))
    for dim in arr.shape:
        f.write(struct.pack("<I", dim))
    f.write(code.encode("ascii"))
    f.write(arr.tobytes())


def _read_param(f: BinaryIO) -> nc.Parameter:
    name = _read_str(f)
    (ndim,) = struct.unpack("<B", _read_exact(f, 1))
    shape = tuple(struct.unpack("<I", _read_exact(f, 4))[0] for _ in range(ndim))
    code = _read_exact(f, 2).decode("latin-1")
    if code not in _DTYPES:
        raise CheckpointFormatError(f"unknown dtype code {code!r}")
    dtype = _DTYPES[code]
    # in Python ints, so a corrupted shape cannot overflow, and checked before
    # reading, so it cannot ask for more memory than the file holds; no model
    # parameter is empty, and a zero dimension would hide the others' product
    nbytes = math.prod(shape) * dtype.itemsize
    if 0 in shape or nbytes > _bytes_left(f):
        raise CheckpointFormatError(f"parameter {name!r} of shape {shape} is empty or overruns the file")
    value = np.empty(shape, dtype=dtype)  # read in place: no second copy of a large table
    if f.readinto(value) != nbytes:
        raise CheckpointFormatError("truncated checkpoint")
    return nc.Parameter(name, value)


def save_model(path, model) -> None:
    """Serialize a DetectorModel (encoder + classifier head + vocabulary).

    The file is written beside ``path`` and then renamed onto it, so a save
    that fails leaves any previous checkpoint at ``path`` intact."""
    enc = model.encoder
    header = {
        "format_version": FORMAT_VERSION,
        "d": int(enc.dim),
        "H": int(enc.hidden),
        "V": len(enc.vocab),
        "precision": np.dtype(enc.dtype).name,
        "mlp": [int(w) for w in model.head.hidden_widths],
    }
    header_raw = json.dumps(header, sort_keys=True).encode("utf-8")
    partial = f"{path}.{os.getpid()}.partial"
    try:
        with open(partial, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", len(header_raw)))
            f.write(header_raw)
            tokens = enc.vocab.tokens
            f.write(struct.pack("<I", len(tokens)))
            for tok in tokens:
                _write_str(f, tok)
            params = model.all_parameters()
            f.write(struct.pack("<I", len(params)))
            for p in params:
                _write_param(f, p)
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.remove(partial)


def _read_header(f: BinaryIO, path) -> dict:
    (hlen,) = struct.unpack("<I", _read_exact(f, 4))
    if hlen > _bytes_left(f):
        raise CheckpointFormatError(f"{path}: header overruns the file")
    try:
        header = json.loads(_read_exact(f, hlen).decode("utf-8"))
    except (ValueError, RecursionError) as e:  # not UTF-8, not JSON, or nested too deep to parse
        raise CheckpointFormatError(f"{path}: bad header: {e}") from None
    if not isinstance(header, dict):
        raise CheckpointFormatError(f"{path}: header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointFormatError(f"{path}: unsupported version {header.get('format_version')}")
    mlp = header.get("mlp")
    sizes = [header.get(key) for key in ("d", "H", "V")]
    sizes += mlp if isinstance(mlp, list) and len(mlp) == 2 else [None]
    if not all(type(n) is int and n > 0 for n in sizes):
        raise CheckpointFormatError(f"{path}: header needs positive integers d, H, V and two mlp widths")
    if header.get("precision") not in ("float32", "float64"):
        raise CheckpointFormatError(f"{path}: header precision must be float32 or float64")
    return header


def load_model(path):
    """Rebuild the DetectorModel; arrays come back bit-identical. Every parameter
    must be there, finite, with the header's precision and the shape it implies."""
    from .classifier import DetectorModel, MlpHead
    from .encoder import GATES, SentenceEncoder

    with open(path, "rb") as f:
        if _read_exact(f, len(MAGIC)) != MAGIC:
            raise CheckpointFormatError(f"{path}: bad magic")
        header = _read_header(f, path)
        (vcount,) = struct.unpack("<I", _read_exact(f, 4))
        tokens = [_read_str(f) for _ in range(vcount)]
        vocab = Vocabulary(tokens)
        if vocab.tokens != tuple(tokens):  # reserved rows missing or moved, or a token repeated
            raise CheckpointFormatError(f"{path}: vocabulary is not the reserved rows then distinct words")
        (pcount,) = struct.unpack("<I", _read_exact(f, 4))
        params = {p.name: p for p in (_read_param(f) for _ in range(pcount))}
        if len(params) < pcount:
            raise CheckpointFormatError(f"{path}: a parameter name appears twice")
        if _bytes_left(f):
            raise CheckpointFormatError(f"{path}: data after the last parameter")

    d, hidden, v, dtype = header["d"], header["H"], header["V"], np.dtype(header["precision"])
    if len(vocab) != v:
        raise CheckpointFormatError(f"{path}: vocab size {len(vocab)} != header V {v}")

    def take(name, shape):
        p = params.pop(name, None)
        if p is None:
            raise CheckpointFormatError(f"{path}: missing parameter {name}")
        if p.value.shape != shape:
            raise CheckpointFormatError(f"{path}: {name} has shape {p.value.shape}, want {shape}")
        if p.value.dtype != dtype:
            raise CheckpointFormatError(f"{path}: {name} is {p.value.dtype}, header says {dtype}")
        if not np.isfinite(p.value).all():
            raise CheckpointFormatError(f"{path}: {name} holds a NaN or Inf value")
        return p

    embedding = take("embedding", (v, d))
    g = GATES * hidden
    fwd, bwd = (
        (take(f"{k}.w", (g, d)), take(f"{k}.u", (g, hidden)), take(f"{k}.b", (g,)))
        for k in ("fwd", "bwd")
    )
    encoder = SentenceEncoder(vocab, embedding, fwd, bwd)
    widths = [2 * hidden, *header["mlp"], 2]
    head = MlpHead(
        (take(f"head.w{k}", (n_in, n_out)), take(f"head.b{k}", (n_out,)))
        for k, (n_in, n_out) in enumerate(zip(widths, widths[1:]), 1)
    )
    if params:
        raise CheckpointFormatError(f"{path}: unexpected parameters {sorted(params)}")
    return DetectorModel(encoder, head)
