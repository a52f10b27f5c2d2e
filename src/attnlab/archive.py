"""Flat-file tensor archive for weight sets. Bit-exact round trips.

Layout, all little-endian:

    bytes 0..7    header length N (unsigned 64-bit)
    bytes 8..8+N  UTF-8 JSON header
    the rest      raw tensor blob

The header carries ``format_version``, a CRC-32 of the blob, the attention
config (field-for-field JSON), and a tensor manifest: name, dtype ("f32" or
"f64"), row-major shape, byte offset into the blob, and byte length. Reads
validate the version, name uniqueness, offset/length consistency, blob size,
and checksum before any tensor is materialized; every failure names the
offending field. The names and shapes must be the config's layout
(``weights.flat_shapes``): a stacked field such as ``wq`` is stored as its
matrices ``wq.0`` ... ``wq.{H-1}``. Tensors are stored and loaded as
little-endian regardless of host byte order, so an archive means the same
floats everywhere. A read copies each field into one aligned buffer
(``weights.aligned_empty``), as ``init_weights`` allocates it.
"""

from __future__ import annotations

import json
import math
import struct
import zlib

import numpy as np

from .config import AttentionConfig
from .errors import ArchiveError, ConfigurationError
from .weights import WeightSet, aligned_empty, flat_shapes, tensor_shapes

FORMAT_VERSION = 1

_DTYPE_CODES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}


def _dtype_code(arr: np.ndarray) -> str:
    if arr.dtype == np.float32:
        return "f32"
    if arr.dtype == np.float64:
        return "f64"
    raise ArchiveError(f"unsupported tensor dtype {arr.dtype}; use float32 or float64")


def write_archive(weights: WeightSet, path) -> None:
    """Serialize a WeightSet (its config included) to ``path``."""
    if weights.config is None:
        raise ArchiveError("weights carry no config; cannot serialize")
    manifest = []
    chunks = []
    offset = 0
    for name, arr in weights.named_tensors().items():
        code = _dtype_code(arr)
        raw = np.ascontiguousarray(arr).astype(_DTYPE_CODES[code], copy=False).tobytes()
        manifest.append({
            "name": name,
            "dtype": code,
            "shape": list(arr.shape),
            "offset": offset,
            "length": len(raw),
        })
        chunks.append(raw)
        offset += len(raw)
    blob = b"".join(chunks)
    header = {
        "format_version": FORMAT_VERSION,
        "checksum": zlib.crc32(blob) & 0xFFFFFFFF,
        "config": weights.config.to_json_dict(),
        "tensors": manifest,
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:  # as given: Path('') would name '.'
        f.write(struct.pack("<Q", len(header_bytes)))
        f.write(header_bytes)
        f.write(blob)


def read_archive(path) -> WeightSet:
    """Load a WeightSet; validates structure and checksum before decoding."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 8:
        raise ArchiveError("truncated archive: missing header length")
    (header_len,) = struct.unpack("<Q", data[:8])
    if len(data) < 8 + header_len:
        raise ArchiveError("truncated archive: header shorter than declared")
    try:
        header = json.loads(data[8 : 8 + header_len].decode("utf-8"))
    except (ValueError, RecursionError) as e:  # bad UTF-8 or JSON, or nested too deep
        raise ArchiveError(f"unreadable header: {e}") from e
    if not isinstance(header, dict):
        raise ArchiveError(f"header is a JSON {type(header).__name__}, not an object")
    blob = memoryview(data)[8 + header_len :]

    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise ArchiveError(
            f"format_version mismatch: archive has {version!r}, expected {FORMAT_VERSION}"
        )
    try:
        config = AttentionConfig.from_json_dict(header["config"])
    except (KeyError, ConfigurationError) as e:
        raise ArchiveError(f"bad config block: {e}") from e

    manifest = header.get("tensors")
    if not isinstance(manifest, list):
        raise ArchiveError("manifest missing or not a list")
    prev_end = 0
    tensors: dict[str, np.ndarray] = {}
    for entry in manifest:
        if not isinstance(entry, dict):
            raise ArchiveError(f"manifest entry is not an object: {entry!r}")
        name = entry.get("name")
        if not isinstance(name, str):
            raise ArchiveError(f"manifest entry without a valid name: {entry!r}")
        if name in tensors:
            raise ArchiveError(f"duplicate tensor name: {name}")
        code = entry.get("dtype")
        if not isinstance(code, str) or code not in _DTYPE_CODES:
            raise ArchiveError(f"tensor {name}: unknown dtype {code!r}")
        dtype = _DTYPE_CODES[code]
        shape = entry.get("shape", [])
        if not isinstance(shape, list) or any(type(n) is not int or n < 0 for n in shape):
            raise ArchiveError(f"tensor {name}: shape {shape!r} is not a list of sizes")
        offset, length = entry.get("offset"), entry.get("length")
        if not isinstance(offset, int) or not isinstance(length, int) or offset < 0:
            raise ArchiveError(f"tensor {name}: invalid offset/length")
        count = math.prod(shape)
        if length != count * dtype.itemsize:
            raise ArchiveError(
                f"tensor {name}: length {length} does not match shape {tuple(shape)} "
                f"at {dtype.itemsize} bytes/element"
            )
        if offset < prev_end:
            raise ArchiveError(f"tensor {name}: offset {offset} overlaps previous tensor")
        prev_end = offset + length
        if prev_end > len(blob):
            raise ArchiveError(f"truncated blob: tensor {name} extends past end of file")
        tensors[name] = np.frombuffer(blob, dtype=dtype, count=count,
                                      offset=offset).reshape(shape)

    stored = header.get("checksum")
    if stored != (zlib.crc32(blob) & 0xFFFFFFFF):
        raise ArchiveError("checksum mismatch: blob corrupted")

    # Counts first: the header is unchecked, its config may claim 10^6 heads.
    shapes = tensor_shapes(config)
    count = sum(shape[0] if len(shape) == 3 else 1 for shape in shapes.values())
    if len(tensors) != count:
        raise ArchiveError(
            f"manifest lists {len(tensors)} tensors, the config's layout has {count}")
    expected = flat_shapes(config)
    missing = sorted(set(expected) - set(tensors))
    if missing:  # as many names are unexpected: the counts are equal
        extra = sorted(set(tensors) - set(expected))
        raise ArchiveError(f"missing tensors ({len(missing)}): {', '.join(missing[:8])}; "
                           f"unexpected tensors: {', '.join(extra[:8])}")
    for name, shape in expected.items():
        if tensors[name].shape != shape:
            raise ArchiveError(
                f"tensor {name}: shape {tensors[name].shape}, expected {shape}"
            )

    # One aligned buffer per field, in host byte order, filled by flat name.
    dtypes: dict[str, list[np.dtype]] = {}
    for name, arr in tensors.items():
        dtypes.setdefault(name.partition(".")[0], []).append(arr.dtype)
    weights = WeightSet(config=config, **{
        field: aligned_empty(shape, np.result_type(*dtypes[field]).newbyteorder("="))
        for field, shape in shapes.items()
    })
    for name, matrix in weights.named_tensors().items():
        matrix[...] = tensors[name]
    return weights
