import json
import re
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attnlab import (
    ArchiveError,
    AttentionConfig,
    ConfigurationError,
    Mechanism,
    RngSpec,
    init_weights,
    read_archive,
    write_archive,
)
from attnlab.weights import ALIGNMENT, tensor_shapes


def cfg(mechanism, **kw):
    base = dict(d=24, H=2, d_h=12)
    base.update(kw)
    return AttentionConfig(mechanism=mechanism, **base)


ALL = [
    cfg(Mechanism.MHA),
    cfg(Mechanism.MQA),
    cfg(Mechanism.GQA, G=2),
    cfg(Mechanism.MLA, d_c=7),
    cfg(Mechanism.LRKV, r=3),
    cfg(Mechanism.LRKV, r=0),
]


def rewrite_header(path, mutate_header=None, mutate_blob=None):
    """Surgically edit an archive on disk for corruption tests."""
    data = path.read_bytes()
    (n,) = struct.unpack("<Q", data[:8])
    header = json.loads(data[8 : 8 + n])
    blob = bytearray(data[8 + n :])
    if mutate_header:
        mutate_header(header)
    if mutate_blob:
        mutate_blob(blob)
    raw = json.dumps(header, separators=(",", ":")).encode()
    path.write_bytes(struct.pack("<Q", len(raw)) + raw + bytes(blob))


@pytest.mark.parametrize("config", ALL, ids=lambda c: f"{c.mechanism.value}-r{c.r}")
def test_round_trip_is_bit_exact(config, tmp_path):
    w = init_weights(config, RngSpec(seed=21))
    p = tmp_path / "w.bin"
    write_archive(w, p)
    again = read_archive(p)
    assert again.config == config
    a, b = w.named_tensors(), again.named_tensors()
    assert set(a) == set(b)
    for name in a:
        assert np.array_equal(a[name], b[name]), name
        assert a[name].dtype == b[name].dtype


def test_float32_round_trip(tmp_path):
    config = cfg(Mechanism.LRKV, r=3)
    w = init_weights(config, RngSpec(seed=0)).astype(np.float32)
    p = tmp_path / "w32.bin"
    write_archive(w, p)
    again = read_archive(p)
    assert again.wk_shared.dtype == np.float32
    assert np.array_equal(again.wk_shared, w.wk_shared)


def test_header_is_plain_json(tmp_path):
    p = tmp_path / "w.bin"
    write_archive(init_weights(cfg(Mechanism.MQA), RngSpec(seed=1)), p)
    data = p.read_bytes()
    (n,) = struct.unpack("<Q", data[:8])
    header = json.loads(data[8 : 8 + n])
    assert header["format_version"] == 1
    assert header["config"]["mechanism"] == "mqa"
    blob = data[8 + n :]
    assert header["checksum"] == zlib.crc32(blob) & 0xFFFFFFFF
    names = [t["name"] for t in header["tensors"]]
    assert names[0] == "wq.0"


def test_truncated_header_and_blob(tmp_path):
    p = tmp_path / "w.bin"
    write_archive(init_weights(cfg(Mechanism.MQA), RngSpec(seed=2)), p)
    whole = p.read_bytes()
    p.write_bytes(whole[:4])
    with pytest.raises(ArchiveError, match="header length"):
        read_archive(p)
    p.write_bytes(whole[:20])
    with pytest.raises(ArchiveError, match="header"):
        read_archive(p)
    p.write_bytes(whole[:-5])
    with pytest.raises(ArchiveError, match="past end"):
        read_archive(p)


def test_flipped_blob_byte_fails_checksum(tmp_path):
    p = tmp_path / "w.bin"
    write_archive(init_weights(cfg(Mechanism.MQA), RngSpec(seed=3)), p)

    def flip(blob):
        blob[11] ^= 0xFF

    rewrite_header(p, mutate_blob=flip)
    with pytest.raises(ArchiveError, match="checksum"):
        read_archive(p)


def test_version_mismatch(tmp_path):
    p = tmp_path / "w.bin"
    write_archive(init_weights(cfg(Mechanism.MQA), RngSpec(seed=4)), p)
    rewrite_header(p, lambda h: h.update(format_version=2))
    with pytest.raises(ArchiveError, match="format_version"):
        read_archive(p)


def test_bad_config_block(tmp_path):
    p = tmp_path / "w.bin"
    write_archive(init_weights(cfg(Mechanism.MQA), RngSpec(seed=5)), p)
    rewrite_header(p, lambda h: h["config"].update(d=23))
    with pytest.raises(ArchiveError, match="config"):
        read_archive(p)


def test_duplicate_tensor_name(tmp_path):
    p = tmp_path / "w.bin"
    write_archive(init_weights(cfg(Mechanism.MQA), RngSpec(seed=6)), p)
    rewrite_header(p, lambda h: h["tensors"].__setitem__(
        1, dict(h["tensors"][0])))
    with pytest.raises(ArchiveError, match="duplicate"):
        read_archive(p)


def test_unknown_dtype_code(tmp_path):
    p = tmp_path / "w.bin"
    write_archive(init_weights(cfg(Mechanism.MQA), RngSpec(seed=7)), p)
    rewrite_header(p, lambda h: h["tensors"][0].update(dtype="f16"))
    with pytest.raises(ArchiveError, match="dtype"):
        read_archive(p)


def test_length_inconsistent_with_shape(tmp_path):
    p = tmp_path / "w.bin"
    write_archive(init_weights(cfg(Mechanism.MQA), RngSpec(seed=8)), p)
    rewrite_header(p, lambda h: h["tensors"][0].update(length=8))
    with pytest.raises(ArchiveError, match="does not match shape"):
        read_archive(p)


def test_overlapping_offsets(tmp_path):
    p = tmp_path / "w.bin"
    write_archive(init_weights(cfg(Mechanism.MQA), RngSpec(seed=9)), p)
    rewrite_header(p, lambda h: h["tensors"][1].update(offset=0))
    with pytest.raises(ArchiveError, match="overlap"):
        read_archive(p)


def test_missing_and_unexpected_tensors(tmp_path):
    p = tmp_path / "w.bin"
    write_archive(init_weights(cfg(Mechanism.MQA), RngSpec(seed=10)), p)
    rewrite_header(p, lambda h: h["tensors"][-1].update(name="wz_shared"))
    with pytest.raises(ArchiveError, match="wv_shared"):
        read_archive(p)


def test_manifest_shape_must_match_config(tmp_path):
    p = tmp_path / "w.bin"
    config = cfg(Mechanism.LRKV, r=3)
    write_archive(init_weights(config, RngSpec(seed=11)), p)
    # claim a different rank in the config: uk/bk shapes no longer line up
    rewrite_header(p, lambda h: h["config"].update(r=2))
    with pytest.raises(ArchiveError):
        read_archive(p)


def test_write_requires_config(tmp_path):
    from attnlab import WeightSet
    bare = WeightSet(wq=np.zeros((1, 4, 2)), wk_shared=np.zeros((4, 2)),
                     wv_shared=np.zeros((4, 2)), config=None)
    with pytest.raises(ArchiveError, match="config"):
        write_archive(bare, tmp_path / "x.bin")


def test_write_rejects_a_tensor_that_is_neither_f32_nor_f64(tmp_path):
    w = init_weights(cfg(Mechanism.MQA), RngSpec(seed=0)).astype(np.float16)
    with pytest.raises(ArchiveError, match="unsupported tensor dtype float16"):
        write_archive(w, tmp_path / "x.bin")


@pytest.mark.parametrize("field", ["r", "d_c", "G"])
def test_unread_numpy_int_field_is_stored_as_int_and_archived(field, tmp_path):
    """An MHA config never reads r, d_c or G, yet a numpy integer there is
    kept as a Python int, so the header encodes and reads back."""
    config = AttentionConfig(mechanism=Mechanism.MHA, d=8, H=2, d_h=4, **{field: np.int64(2)})
    assert type(getattr(config, field)) is int and getattr(config, field) == 2
    write_archive(init_weights(config, RngSpec(seed=0)), tmp_path / "w.bin")
    assert read_archive(tmp_path / "w.bin").config == config


def test_unencodable_unread_field_is_a_config_error():
    """An unread field is checked as a read one is, so a value the JSON
    header could not hold never reaches an archive."""
    mha = dict(mechanism=Mechanism.MHA, d=8, H=2, d_h=4)
    with pytest.raises(ConfigurationError, match=re.escape("r must be an int, got np.float32(2.5)")):
        AttentionConfig(**mha, r=np.float32(2.5))
    with pytest.raises(ConfigurationError, match="G must be an int, got True"):
        AttentionConfig(**mha, G=True)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       mechanism=st.sampled_from(list(Mechanism)))
def test_round_trip_property(seed, mechanism, tmp_path_factory):
    kw = {"r": 3} if mechanism is Mechanism.LRKV else {}
    if mechanism is Mechanism.GQA:
        kw["G"] = 2
    if mechanism is Mechanism.MLA:
        kw["d_c"] = 5
    config = cfg(mechanism, **kw)
    w = init_weights(config, RngSpec(seed=seed))
    p = tmp_path_factory.mktemp("arc") / "w.bin"
    write_archive(w, p)
    again = read_archive(p)
    for name, t in w.named_tensors().items():
        assert np.array_equal(t, again.named_tensors()[name])


# Pinned archive layout at d=6, H=2, d_h=3 (float64): per tensor its name,
# shape, byte offset and byte length, then the header's config JSON.
PINNED_CONFIG_JSON = (
    '{{"mechanism":"{m}","d":6,"H":2,"d_h":3,"n_layers":1,"r":{r},"d_c":{d_c},'
    '"G":1,"qk_norm":false,"softmax_scale":0.5773502691896258}}'
)
PINNED_WQ = [("wq.0", (6, 3), 0, 144), ("wq.1", (6, 3), 144, 144)]
PINNED_SHARED = [("wk_shared", (6, 3), 288, 144), ("wv_shared", (6, 3), 432, 144)]
PINNED_LAYOUTS = [
    (cfg(Mechanism.MHA, d=6, H=2, d_h=3), PINNED_WQ + [
        ("wk.0", (6, 3), 288, 144), ("wk.1", (6, 3), 432, 144),
        ("wv.0", (6, 3), 576, 144), ("wv.1", (6, 3), 720, 144)]),
    (cfg(Mechanism.MQA, d=6, H=2, d_h=3), PINNED_WQ + PINNED_SHARED),
    (cfg(Mechanism.GQA, d=6, H=2, d_h=3, G=1), PINNED_WQ + [
        ("wk.0", (6, 3), 288, 144), ("wv.0", (6, 3), 432, 144)]),
    (cfg(Mechanism.MLA, d=6, H=2, d_h=3, d_c=2), PINNED_WQ + [
        ("wdown", (6, 2), 288, 96),
        ("wup_k.0", (2, 3), 384, 48), ("wup_k.1", (2, 3), 432, 48),
        ("wup_v.0", (2, 3), 480, 48), ("wup_v.1", (2, 3), 528, 48)]),
    (cfg(Mechanism.LRKV, d=6, H=2, d_h=3, r=2), PINNED_WQ + PINNED_SHARED + [
        ("uk.0", (6, 2), 576, 96), ("uk.1", (6, 2), 672, 96),
        ("bk.0", (3, 2), 768, 48), ("bk.1", (3, 2), 816, 48),
        ("uv.0", (6, 2), 864, 96), ("uv.1", (6, 2), 960, 96),
        ("bv.0", (3, 2), 1056, 48), ("bv.1", (3, 2), 1104, 48)]),
    (cfg(Mechanism.LRKV, d=6, H=2, d_h=3, r=0), PINNED_WQ + PINNED_SHARED + [
        (f"{name}.{h}", (rows, 0), 576, 0)
        for name, rows in (("uk", 6), ("bk", 3), ("uv", 6), ("bv", 3))
        for h in range(2)]),
]


@pytest.mark.parametrize("config,layout", PINNED_LAYOUTS,
                         ids=[f"{c.mechanism.value}-r{c.r}" for c, _ in PINNED_LAYOUTS])
def test_archive_layout_and_draw_order_are_pinned(config, layout, tmp_path):
    """Archive v1 bytes and the init draw order, spelled out.

    Tensor names, order, shapes, offsets and lengths of the manifest and
    the config JSON are fixed by format version 1. For the mechanisms
    without calibrated factors, init_weights draws every tensor from one
    fresh PCG64(seed) stream in manifest order, each N(0, 2/rows).
    """
    w = init_weights(config, RngSpec(seed=5))
    p = tmp_path / "w.bin"
    write_archive(w, p)
    data = p.read_bytes()
    (n,) = struct.unpack("<Q", data[:8])
    header = json.loads(data[8 : 8 + n])
    got = [(t["name"], tuple(t["shape"]), t["offset"], t["length"])
           for t in header["tensors"]]
    assert got == layout
    assert {t["dtype"] for t in header["tensors"]} == {"f64"}
    assert json.dumps(header["config"], separators=(",", ":")) == PINNED_CONFIG_JSON.format(
        m=config.mechanism.value, r=config.r, d_c=config.d_c)
    assert len(data) == 8 + n + layout[-1][2] + layout[-1][3]

    if config.mechanism is not Mechanism.LRKV:
        gen = np.random.Generator(np.random.PCG64(5))
        tensors = w.named_tensors()
        assert list(tensors) == [name for name, *_ in layout]
        for name, shape, _, _ in layout:
            want = gen.normal(0.0, np.sqrt(2.0 / shape[0]), size=shape)
            assert np.array_equal(tensors[name], want), name


def replace_header(path, transform):
    """Rewrite an archive's header as ``transform(header)``, blob unchanged;
    a transform that returns bytes gives the raw header itself."""
    data = path.read_bytes()
    (n,) = struct.unpack("<Q", data[:8])
    raw = transform(json.loads(data[8 : 8 + n]))
    if not isinstance(raw, bytes):
        raw = json.dumps(raw).encode()
    path.write_bytes(struct.pack("<Q", len(raw)) + raw + data[8 + n :])


def _first_entry(**fields):
    return lambda h: {**h, "tensors": [{**h["tensors"][0], **fields}, *h["tensors"][1:]]}


def _config_field(**fields):
    return lambda h: {**h, "config": {**h["config"], **fields}}


# Malformed headers that once escaped read_archive as AttributeError,
# TypeError or ValueError; each must be an ArchiveError naming the field.
BAD_HEADERS = {
    "header-array": (lambda h: [h], "header"),
    "entry-not-object": (lambda h: {**h, "tensors": [5, *h["tensors"][1:]]},
                         "manifest entry"),
    "shape-int": (_first_entry(shape=7), "shape"),
    "shape-str": (_first_entry(shape="ab"), "shape"),
    "shape-negative": (_first_entry(shape=[-1, -32]), "shape"),
    "dtype-list": (_first_entry(dtype=["f64"]), "dtype"),
    "config-list": (lambda h: {**h, "config": ["mechanism"]}, "config"),
    "manifest-object": (lambda h: {**h, "tensors": {"wq.0": h["tensors"][0]}},
                        "manifest missing or not a list"),
    "softmax-scale-str": (_config_field(softmax_scale="x"), "softmax_scale"),
    "qk-norm-str": (_config_field(qk_norm="yes"), "qk_norm"),
    # a config that claims a million heads for a four-tensor manifest
    "million-heads": (_config_field(d=4_000_000, H=1_000_000, d_h=4),
                      "4 tensors, the config's layout has 1000002"),
    "nested-too-deep": (lambda h: b"[" * 100_000, "header"),
}


@pytest.mark.parametrize("mutation", BAD_HEADERS, ids=str)
def test_malformed_header_raises_archive_error(mutation, tmp_path):
    transform, field = BAD_HEADERS[mutation]
    p = tmp_path / "w.bin"
    # wq.0 is (8, 4): 32 elements, so shape [-1, -32] passes the length check
    write_archive(init_weights(cfg(Mechanism.MQA, d=8, H=2, d_h=4), RngSpec(seed=12)), p)
    replace_header(p, transform)
    with pytest.raises(ArchiveError, match=field) as info:
        read_archive(p)
    assert len(str(info.value)) < 1000


def test_missing_and_unexpected_names_are_capped(tmp_path):
    p = tmp_path / "w.bin"
    write_archive(init_weights(cfg(Mechanism.MHA, d=24, H=12, d_h=2), RngSpec(seed=14)), p)

    def rename_all(header):
        for i, entry in enumerate(header["tensors"]):
            entry["name"] = f"x{i}"

    rewrite_header(p, rename_all)
    with pytest.raises(ArchiveError, match=r"missing tensors \(36\)") as info:
        read_archive(p)
    assert str(info.value).count(",") == 2 * 7  # eight names of each kind


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("config", ALL, ids=lambda c: f"{c.mechanism.value}-r{c.r}")
def test_read_fields_are_aligned_and_equal_to_init(config, dtype, tmp_path):
    w = init_weights(config, RngSpec(seed=22)).astype(dtype)
    p = tmp_path / "w.bin"
    write_archive(w, p)
    again = read_archive(p)
    for field in tensor_shapes(config):
        t = getattr(again, field)
        assert t.flags.c_contiguous and t.flags.writeable, field
        assert t.ctypes.data % ALIGNMENT == 0, field
        assert t.dtype == dtype and t.tobytes() == getattr(w, field).tobytes(), field


@pytest.fixture(scope="module")
def small_archive(tmp_path_factory):
    p = tmp_path_factory.mktemp("small") / "w.bin"
    write_archive(init_weights(cfg(Mechanism.LRKV, d=8, H=2, d_h=4, r=1),
                               RngSpec(seed=15)), p)
    return p.read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_flipped_or_truncated_bytes_raise_only_archive_error(
        data, small_archive, tmp_path_factory):
    """A single-byte flip or a truncation anywhere reads back or raises
    ArchiveError; nothing else escapes."""
    raw = bytearray(small_archive)
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        i = data.draw(st.integers(0, len(raw) - 1), label="index")
        raw[i] ^= data.draw(st.integers(1, 255), label="mask")
    p = tmp_path_factory.getbasetemp() / "fuzz.bin"
    p.write_bytes(bytes(raw))
    try:
        read_archive(p)
    except ArchiveError:
        pass


def test_cli_reports_malformed_archive_with_exit_1(tmp_path, capsys):
    from attnlab.cli import run_cli

    p = tmp_path / "w.bin"
    write_archive(init_weights(cfg(Mechanism.LRKV, r=3), RngSpec(seed=13)), p)
    replace_header(p, BAD_HEADERS["entry-not-object"][0])
    code = run_cli(["diversity", "--weights", str(p), "--out-prefix", str(tmp_path / "d")])
    assert code == 1
    assert "manifest entry" in capsys.readouterr().err


def test_empty_path_is_named_as_given(tmp_path, capsys, monkeypatch):
    """'' is opened as given in both directions, not as Path('') == '.'."""
    from attnlab.cli import run_cli

    monkeypatch.chdir(tmp_path)  # '.' is a directory here, '' names nothing
    w = init_weights(cfg(Mechanism.LRKV, r=3), RngSpec(seed=14))
    with pytest.raises(FileNotFoundError) as info:
        write_archive(w, "")
    assert info.value.filename == ""
    with pytest.raises(FileNotFoundError) as info:
        read_archive("")
    assert info.value.filename == ""
    write_archive(w, "w.bin")
    for argv in (["gen-weights", "--mechanism", "lrkv", "--preset", "128M",
                  "--set", "n_layers=1", "--out", ""],
                 ["diversity", "--weights", "", "--out-prefix", "d"],
                 ["svd-compare", "--weights", "", "--reference", "w.bin", "--out", "-"]):
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert "''" in err and "Is a directory" not in err, (argv, err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["w.bin"]


def test_header_length_past_end_of_file_is_not_allocated(tmp_path, traced_peak):
    p = tmp_path / "w.bin"
    p.write_bytes(struct.pack("<Q", 1 << 40) + b"{}" * 100)
    info, peak = traced_peak(lambda: pytest.raises(ArchiveError, read_archive, p))
    assert info.match("header shorter than declared")
    assert peak < 64 * 1024


def test_huge_claimed_shape_fails_before_any_allocation(tmp_path, traced_peak):
    """A consistent manifest for d = 2**31 in a 1 KB file: every length
    matches its shape and the offsets abut, so only the file's size stops it."""
    d = d_h = 2**31
    config = cfg(Mechanism.MQA, d=d, H=1, d_h=d_h)
    length = d * d_h * 8
    header = {
        "format_version": 1, "checksum": 0, "config": config.to_json_dict(),
        "tensors": [{"name": name, "dtype": "f64", "shape": [d, d_h],
                     "offset": i * length, "length": length}
                    for i, name in enumerate(("wq.0", "wk_shared", "wv_shared"))],
    }
    raw = json.dumps(header).encode()
    p = tmp_path / "w.bin"
    p.write_bytes(struct.pack("<Q", len(raw)) + raw + bytes(1024 - 8 - len(raw)))
    assert p.stat().st_size == 1024
    info, peak = traced_peak(lambda: pytest.raises(ArchiveError, read_archive, p))
    assert info.match("wq.0 extends past end")
    assert peak < 64 * 1024


def _rewrite_blob(p, header, blob):
    header["checksum"] = zlib.crc32(blob) & 0xFFFFFFFF
    raw = json.dumps(header).encode()
    p.write_bytes(struct.pack("<Q", len(raw)) + raw + blob)


def _write_with_gap_and_tail(w, p, gap, tail):
    """Archive ``w`` with ``gap`` between its first two tensors and ``tail``
    after the last, checksummed over the whole blob."""
    write_archive(w, p)
    data = p.read_bytes()
    (n,) = struct.unpack("<Q", data[:8])
    header = json.loads(data[8 : 8 + n])
    blob = data[8 + n :]
    cut = header["tensors"][1]["offset"]
    for entry in header["tensors"][1:]:
        entry["offset"] += len(gap)
    _rewrite_blob(p, header, blob[:cut] + gap + blob[cut:] + tail)


@pytest.mark.parametrize("gap, tail, message", [
    (b"\x01" * 13, b"", "tensor wq.1: offset 2317 leaves a gap of 13 bytes"),
    (b"", b"\x02" * 7, "7 trailing bytes after the last tensor"),
], ids=["gap", "tail"])
def test_gap_or_trailing_bytes_are_rejected(gap, tail, message, tmp_path):
    """Bytes that belong to no tensor are never written, so a read rejects
    them, checksum intact, before it allocates a field."""
    p = tmp_path / "w.bin"
    _write_with_gap_and_tail(init_weights(cfg(Mechanism.LRKV, r=3), RngSpec(seed=16)),
                             p, gap, tail)
    with pytest.raises(ArchiveError, match=message):
        read_archive(p)


def test_mixed_dtype_field_is_rejected(tmp_path):
    """wq.0 stored as f32 beside an f64 wq.1, checksum intact: a field's
    matrices share one dtype, so the read names wq.1 against wq.0."""
    w = init_weights(cfg(Mechanism.MQA), RngSpec(seed=23))
    p = tmp_path / "w.bin"
    write_archive(w, p)
    data = p.read_bytes()
    (n,) = struct.unpack("<Q", data[:8])
    header = json.loads(data[8 : 8 + n])
    first = header["tensors"][0]
    narrow = w.wq[0].astype("<f4").tobytes()
    for entry in header["tensors"][1:]:
        entry["offset"] -= first["length"] - len(narrow)
    blob = narrow + data[8 + n + first["length"] :]
    first.update(dtype="f32", length=len(narrow))
    _rewrite_blob(p, header, blob)
    with pytest.raises(ArchiveError, match=r"tensor wq\.1: dtype f64, but wq\.0 is f32"):
        read_archive(p)


def test_out_of_order_manifest_is_rejected(tmp_path):
    """wq.1 listed first at offset 0, then wq.0, checksum intact: the
    layout's order is part of the format."""
    p = tmp_path / "w.bin"
    write_archive(init_weights(cfg(Mechanism.MQA), RngSpec(seed=24)), p)
    data = p.read_bytes()
    (n,) = struct.unpack("<Q", data[:8])
    header = json.loads(data[8 : 8 + n])
    header["tensors"][0]["name"], header["tensors"][1]["name"] = "wq.1", "wq.0"
    _rewrite_blob(p, header, data[8 + n :])
    with pytest.raises(ArchiveError, match="tensor wq.1: out of order, the layout lists wq.0"):
        read_archive(p)


def test_corrupt_and_mislaid_archive_names_the_layout(tmp_path):
    """Layout is checked before the checksum: both faults name the layout."""
    p = tmp_path / "w.bin"
    write_archive(init_weights(cfg(Mechanism.MQA), RngSpec(seed=17)), p)

    def corrupt(blob):
        blob[3] ^= 0xFF

    rewrite_header(p, lambda h: h["tensors"][-1].update(name="wz_shared"), corrupt)
    with pytest.raises(ArchiveError, match="missing tensors"):
        read_archive(p)


# Large enough that fixed costs (the header, its parse) are small beside it.
PAYLOAD_CONFIG = cfg(Mechanism.LRKV, d=256, H=4, d_h=64, r=16)


def test_read_peak_is_one_copy_of_the_payload(tmp_path, traced_peak):
    w = init_weights(PAYLOAD_CONFIG, RngSpec(seed=18))
    payload = sum(t.nbytes for t in w.named_tensors().values())
    p = tmp_path / "w.bin"
    write_archive(w, p)
    again, peak = traced_peak(read_archive, p)
    assert again.wq.tobytes() == w.wq.tobytes()
    assert peak <= 1.1 * payload, peak / payload


def test_write_peak_holds_no_copy_of_the_payload(tmp_path, traced_peak):
    w = init_weights(PAYLOAD_CONFIG, RngSpec(seed=19))
    payload = sum(t.nbytes for t in w.named_tensors().values())
    _, peak = traced_peak(write_archive, w, tmp_path / "w.bin")
    assert peak <= 0.1 * payload, peak / payload
