"""Flat-file tensor archive for weight sets. Bit-exact round trips.

Layout, all little-endian:

    bytes 0..7    header length N (unsigned 64-bit)
    bytes 8..8+N  UTF-8 JSON header
    the rest      raw tensor blob

The header carries ``format_version``, a CRC-32 of the blob, the attention
config (field-for-field JSON), and a tensor manifest: name, dtype ("f32" or
"f64"), row-major shape, byte offset into the blob, and byte length. Tensors
are stored and loaded as little-endian regardless of host byte order, so an
archive means the same floats everywhere.

A readable archive is laid out exactly as ``write_archive`` lays it out:
the matrices of ``weights.flat_shapes`` in that order (a stacked field such
as ``wq`` is stored as its matrices ``wq.0`` ... ``wq.{H-1}``), each tensor
starting where the previous one ends and the first at 0, one dtype for all
matrices of a field, and no byte after the last tensor. A read validates in
this order, and every failure names the offending field:

1. the header: its declared length against the file's size, then its JSON,
   version and config;
2. the manifest: name uniqueness, dtypes, shapes, and offsets and lengths
   against each other (no overlap, no gap) and against the blob's size (the
   file's size from ``os.fstat``, so a huge claimed shape fails before
   anything is allocated), then trailing bytes;
3. the layout: the names and shapes must be the config's, in its order, and
   a field's matrices must share one dtype;
4. the checksum, last, as the blob streams in.

So an archive that is both corrupt and mis-laid-out is named for its layout.
Only then is each field allocated, one aligned buffer (``weights.aligned_empty``)
as ``init_weights`` allocates it, and filled by one read of its bytes, which
also updates the CRC; on a big-endian host it is then byte-swapped in place.
A checksum mismatch raises before anything is returned. The file is never
held whole, so a read peaks at about one copy of the payload. A write
streams the same way: one CRC pass over the tensors, then the header, then
each tensor from its own buffer.

The archive is not memory-mapped: mapped page-cache pages count in a
process's resident set, so a mapped read held the file once more in RSS
than a read into the fields does.
"""

from __future__ import annotations

import json
import math
import os
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
    """Serialize a WeightSet (its config included) to ``path``.

    Each tensor is written from its own buffer (a little-endian C-contiguous
    field is not copied); the checksum is one pass over them first.
    """
    if weights.config is None:
        raise ArchiveError("weights carry no config; cannot serialize")
    manifest = []
    tensors = []
    offset = checksum = 0
    for name, arr in weights.named_tensors().items():
        code = _dtype_code(arr)
        raw = np.ascontiguousarray(arr).astype(_DTYPE_CODES[code], copy=False)
        manifest.append({
            "name": name,
            "dtype": code,
            "shape": list(arr.shape),
            "offset": offset,
            "length": raw.nbytes,
        })
        checksum = zlib.crc32(raw, checksum)
        tensors.append(raw)
        offset += raw.nbytes
    header = {
        "format_version": FORMAT_VERSION,
        "checksum": checksum & 0xFFFFFFFF,
        "config": weights.config.to_json_dict(),
        "tensors": manifest,
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:  # as given: Path('') would name '.'
        f.write(struct.pack("<Q", len(header_bytes)))
        f.write(header_bytes)
        for raw in tensors:
            f.write(raw)


def _read_exactly(f, buf) -> None:
    """Fill the writable buffer ``buf`` from ``f``; a short read means the
    file shrank after its size was taken."""
    if f.readinto(buf) != len(buf):
        raise ArchiveError("truncated archive: file ended while reading the blob")


def read_archive(path) -> WeightSet:
    """Load a WeightSet; validates header, manifest and layout before it
    allocates a field, and the checksum before it returns."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        raw = f.read(8)
        if len(raw) < 8:
            raise ArchiveError("truncated archive: missing header length")
        (header_len,) = struct.unpack("<Q", raw)
        if size < 8 + header_len:
            raise ArchiveError("truncated archive: header shorter than declared")
        raw = f.read(header_len)
        if len(raw) < header_len:
            raise ArchiveError("truncated archive: header shorter than declared")
        try:
            header = json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as e:  # bad UTF-8 or JSON, or nested too deep
            raise ArchiveError(f"unreadable header: {e}") from e
        if not isinstance(header, dict):
            raise ArchiveError(f"header is a JSON {type(header).__name__}, not an object")
        config, dtypes = _validate(header, size - 8 - header_len)
        fields = {}
        crc = 0
        for field, shape in tensor_shapes(config).items():  # the blob's order
            fields[field] = arr = aligned_empty(shape, dtypes[field].newbyteorder("="))
            view = arr.reshape(-1).view(np.uint8)  # the same memory, as bytes
            _read_exactly(f, view)
            crc = zlib.crc32(view, crc)
            if not dtypes[field].isnative:  # stored little-endian, read on a big-endian host
                arr.byteswap(inplace=True)
    if header.get("checksum") != crc & 0xFFFFFFFF:
        raise ArchiveError("checksum mismatch: blob corrupted")
    return WeightSet(config=config, **fields)


def _validate(header: dict, blob_len: int) -> tuple[AttentionConfig, dict[str, np.dtype]]:
    """The header's config and each field's stored dtype, once the version,
    every manifest entry and the config's layout have been checked; the blob
    itself is not read."""
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
    end = 0
    entries: dict[str, tuple[str, tuple[int, ...]]] = {}  # name -> (dtype code, shape)
    for entry in manifest:
        if not isinstance(entry, dict):
            raise ArchiveError(f"manifest entry is not an object: {entry!r}")
        name = entry.get("name")
        if not isinstance(name, str):
            raise ArchiveError(f"manifest entry without a valid name: {entry!r}")
        if name in entries:
            raise ArchiveError(f"duplicate tensor name: {name}")
        code = entry.get("dtype")
        if not isinstance(code, str) or code not in _DTYPE_CODES:
            raise ArchiveError(f"tensor {name}: unknown dtype {code!r}")
        itemsize = _DTYPE_CODES[code].itemsize
        shape = entry.get("shape", [])
        if not isinstance(shape, list) or any(type(n) is not int or n < 0 for n in shape):
            raise ArchiveError(f"tensor {name}: shape {shape!r} is not a list of sizes")
        offset, length = entry.get("offset"), entry.get("length")
        if not isinstance(offset, int) or not isinstance(length, int) or offset < 0:
            raise ArchiveError(f"tensor {name}: invalid offset/length")
        if length != math.prod(shape) * itemsize:
            raise ArchiveError(
                f"tensor {name}: length {length} does not match shape {tuple(shape)} "
                f"at {itemsize} bytes/element"
            )
        if offset < end:
            raise ArchiveError(f"tensor {name}: offset {offset} overlaps previous tensor")
        if offset > end:
            raise ArchiveError(f"tensor {name}: offset {offset} leaves a gap of "
                               f"{offset - end} bytes after the previous tensor")
        end = offset + length
        if end > blob_len:
            raise ArchiveError(f"truncated blob: tensor {name} extends past end of file")
        entries[name] = (code, tuple(shape))
    if end != blob_len:
        raise ArchiveError(f"{blob_len - end} trailing bytes after the last tensor")

    # Counts first: the header is unchecked, its config may claim 10^6 heads.
    count = sum(shape[0] if len(shape) == 3 else 1 for shape in tensor_shapes(config).values())
    if len(entries) != count:
        raise ArchiveError(
            f"manifest lists {len(entries)} tensors, the config's layout has {count}")
    expected = flat_shapes(config)
    missing = sorted(set(expected) - set(entries))
    if missing:  # as many names are unexpected: the counts are equal
        extra = sorted(set(entries) - set(expected))
        raise ArchiveError(f"missing tensors ({len(missing)}): {', '.join(missing[:8])}; "
                           f"unexpected tensors: {', '.join(extra[:8])}")
    codes: dict[str, str] = {}  # field -> the dtype code of its first matrix
    for listed, (name, shape) in zip(entries, expected.items()):
        if listed != name:
            raise ArchiveError(f"tensor {listed}: out of order, the layout lists {name} here")
        code, stored = entries[name]
        if stored != shape:
            raise ArchiveError(f"tensor {name}: shape {stored}, expected {shape}")
        field = name.partition(".")[0]
        if codes.setdefault(field, code) != code:
            raise ArchiveError(f"tensor {name}: dtype {code}, but {field}.0 is "
                               f"{codes[field]}; a field's matrices share one dtype")
    return config, {field: _DTYPE_CODES[code] for field, code in codes.items()}
