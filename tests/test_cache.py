import copy
import dataclasses
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from attnlab import (
    AttentionConfig,
    CapacityError,
    ConfigurationError,
    CostQuery,
    DimensionError,
    Mechanism,
    NumericalError,
    RngSpec,
    UnsupportedMechanismError,
    WeightSet,
    append_token,
    decode_explicit,
    decode_factored,
    decode_flops,
    empty_cache,
    equivalence_report,
    get_preset,
    init_weights,
    prefill,
    set_alloc_hook,
)
from attnlab.cache import FACTORED, GEMV_ROWS, STREAMS, _scores
from attnlab.weights import ALIGNMENT, tensor_shapes


def cfg(mechanism, **kw):
    base = dict(d=48, H=4, d_h=12)
    base.update(kw)
    return AttentionConfig(mechanism=mechanism, **base)


class EventLog:
    def __init__(self):
        self.events = []

    def __call__(self, tag, shape):
        self.events.append((tag, shape))

    def drain(self):
        out, self.events = self.events, []
        return out


def stream_bytes(cache):
    """Stream weight -> the shape and bytes of its whole buffer (held rows
    past length too)."""
    return {name: (buf.shape, buf.tobytes()) for name, buf in cache.streams.items()}


def held_rows(cache):
    """The row count of every buffer (one number: they all hold the same)."""
    (rows,) = {buf.shape[-2] for buf in cache.streams.values()}
    return rows


def rows_for(n, capacity):
    """The rows a cache of ``capacity`` holds for n tokens: the next power of
    two, at most the capacity, none for no tokens."""
    return 0 if n == 0 else min(capacity, 2 ** math.ceil(math.log2(n)))


def assert_aligned(cache):
    for name, buf in cache.streams.items():
        assert buf.ctypes.data % ALIGNMENT == 0, (name, buf.ctypes.data % ALIGNMENT)


@pytest.fixture
def log():
    logger = EventLog()
    prev = set_alloc_hook(logger)
    yield logger
    set_alloc_hook(prev)


@pytest.mark.parametrize("mechanism,kw,fields", [
    (Mechanism.MHA, {}, ("wk", "wv")),
    (Mechanism.MQA, {}, ("wk_shared", "wv_shared")),
    (Mechanism.GQA, {"G": 2}, ("wk", "wv")),
    (Mechanism.MLA, {"d_c": 10}, ("wdown",)),
    (Mechanism.LRKV, {"r": 5}, ("wk_shared", "wv_shared", "uk", "uv")),
])
def test_empty_cache_allocates_the_right_streams(mechanism, kw, fields):
    config = cfg(mechanism, **kw)
    cache = empty_cache(config, capacity=6, dtype=np.float32)
    assert cache.length == 0 and cache.capacity == 6
    assert cache.dtype == np.float32
    assert tuple(cache.streams) == fields and set(fields) <= set(STREAMS)
    expected = {
        Mechanism.MHA: 2 * config.H * 6 * config.d_h,
        Mechanism.MQA: 2 * 6 * config.d_h,
        Mechanism.GQA: 2 * config.G * 6 * config.d_h,
        Mechanism.MLA: 6 * config.d_c,
        Mechanism.LRKV: 2 * 6 * (config.d_h + config.H * config.r),
    }[mechanism]
    assert cache.payload_nbytes() == expected * 4


def test_append_validates_shape_and_capacity():
    config = cfg(Mechanism.MQA)
    w = init_weights(config, RngSpec(seed=0))
    cache = empty_cache(config, capacity=1)
    with pytest.raises(DimensionError):
        append_token(cache, w, config, np.zeros(config.d + 1))
    append_token(cache, w, config, np.zeros(config.d))
    with pytest.raises(CapacityError):
        append_token(cache, w, config, np.zeros(config.d))


@pytest.mark.parametrize("mechanism,kw", [
    (Mechanism.MHA, {}),
    (Mechanism.GQA, {"G": 2}),
    (Mechanism.MLA, {"d_c": 10}),
    (Mechanism.LRKV, {"r": 5}),
])
def test_prefill_is_bitwise_identical_to_appends(mechanism, kw):
    config = cfg(mechanism, **kw)
    w = init_weights(config, RngSpec(seed=1))
    X = np.random.default_rng(2).standard_normal((11, config.d))
    a = prefill(w, config, X)
    b = empty_cache(config, capacity=11, dtype=X.dtype)
    for row in X:
        append_token(b, w, config, row)
    assert stream_bytes(a) == stream_bytes(b)  # bytes, not values: -0.0 and 0.0 differ


FIVE = [(Mechanism.MHA, {}), (Mechanism.MQA, {}), (Mechanism.GQA, {"G": 3}),
        (Mechanism.MLA, {"d_c": 128}), (Mechanism.LRKV, {"r": 64})]
FIVE_IDS = ["mha", "mqa", "gqa", "mla", "lrkv"]


def _unaligned(w, offset=16):
    """A copy of w with every tensor starting ``offset`` bytes past an
    ALIGNMENT boundary, where init_weights never puts one."""
    def shifted(t):
        raw = np.empty(t.nbytes + ALIGNMENT + offset, dtype=np.uint8)
        start = -raw.ctypes.data % ALIGNMENT + offset
        out = raw[start:start + t.nbytes].view(t.dtype).reshape(t.shape)
        out[...] = t
        assert out.size == 0 or out.ctypes.data % ALIGNMENT == offset
        return out
    return dataclasses.replace(
        w, **{f: shifted(getattr(w, f)) for f in tensor_shapes(w.config)})


@pytest.mark.parametrize("aligned", [True, False], ids=["aligned", "unaligned"])
@pytest.mark.parametrize("case", ["f64", "f32", "f32-cache-f64-weights"])
@pytest.mark.parametrize("mechanism,kw", FIVE, ids=FIVE_IDS)
def test_prefill_equals_appends_at_the_128m_shape(mechanism, kw, case, aligned):
    """At the 128M layer shape, where prefill's blocked projection and the
    appends' gemvs run real BLAS kernels, the two fill identical bytes."""
    config = AttentionConfig(mechanism=mechanism, d=768, H=6, d_h=128, **kw)
    w = init_weights(config, RngSpec(seed=30))
    X = np.random.default_rng(31).standard_normal((40, config.d))
    dtype = np.float64
    if case != "f64":
        dtype = np.float32
    if case == "f32":
        w, X = w.astype(np.float32), X.astype(np.float32)
    if not aligned:
        w = _unaligned(w)
    a = prefill(w, config, X, capacity=43, dtype=dtype)
    b = empty_cache(config, capacity=43, dtype=dtype)
    for row in X:
        append_token(b, w, config, row)
    assert a.length == b.length == 40 and a.dtype == b.dtype == dtype
    assert stream_bytes(a) == stream_bytes(b)


PREFILL_EVENT_CASES = [
    (Mechanism.MHA, {}), (Mechanism.MQA, {}), (Mechanism.GQA, {"G": 2}),
    (Mechanism.MLA, {"d_c": 10}), (Mechanism.LRKV, {"r": 5}), (Mechanism.LRKV, {"r": 0}),
]
PREFILL_EVENT_IDS = ["mha", "mqa", "gqa", "mla", "lrkv", "lrkv-r0"]


def _elements_by_tag(events):
    totals = Counter()
    for tag, shape in events:
        totals[tag] += math.prod(shape)
    return totals


@pytest.mark.parametrize("mechanism,kw", PREFILL_EVENT_CASES, ids=PREFILL_EVENT_IDS)
def test_prefill_reports_the_alloc_events_of_its_appends(log, mechanism, kw):
    """Per tag, a prefill covers the elements of its T appends, in one event
    per stream where the appends report one per stream per token."""
    config = cfg(mechanism, **kw)
    w = init_weights(config, RngSpec(seed=22))
    X = np.random.default_rng(23).standard_normal((7, config.d))
    log.drain()
    cache = prefill(w, config, X)
    blocked = log.drain()
    appended = empty_cache(config, capacity=7)
    for row in X:
        append_token(appended, w, config, row)
    rowwise = log.drain()
    streams = len(cache.streams)
    assert len(blocked) == streams and len(rowwise) == 7 * streams
    assert _elements_by_tag(blocked) == _elements_by_tag(rowwise)


@pytest.mark.parametrize("mechanism,kw", PREFILL_EVENT_CASES, ids=PREFILL_EVENT_IDS)
def test_prefill_calls_the_hook_once_per_stream(log, mechanism, kw):
    """A T-token prefill reports each stream's (..., T, cols) block once, not
    one event per row per head."""
    config = cfg(mechanism, **kw)
    w = init_weights(config, RngSpec(seed=26))
    X = np.random.default_rng(27).standard_normal((9, config.d))
    log.drain()
    cache = prefill(w, config, X, capacity=12)
    want = [(f"append.{name}", buf[..., :9, :].shape) for name, buf in cache.streams.items()]
    assert log.drain() == want


@pytest.mark.parametrize("mechanism,kw", [
    (Mechanism.MHA, {}), (Mechanism.MQA, {}), (Mechanism.GQA, {"G": 2}),
    (Mechanism.MLA, {"d_c": 3}), (Mechanism.LRKV, {"r": 2}),
], ids=["mha", "mqa", "gqa", "mla", "lrkv"])
def test_token_whose_rows_overflow_is_rejected(mechanism, kw):
    """A finite token whose projected rows overflow writes nothing: the cache
    keeps its bytes and length, and the next step equals a clean cache's."""
    config = AttentionConfig(mechanism=mechanism, d=8, H=2, d_h=4, **kw)
    w = init_weights(config, RngSpec(seed=20))
    X = np.random.default_rng(21).standard_normal((4, config.d))
    huge = np.full(config.d, 1e308)
    hit = prefill(w, config, X[:3], capacity=5)
    clean = prefill(w, config, X[:3], capacity=5)
    before = stream_bytes(hit)
    with pytest.raises(NumericalError):
        append_token(hit, w, config, huge)
    with pytest.raises(NumericalError):
        decode_explicit(hit, w, config, huge)
    with pytest.raises(NumericalError):
        prefill(w, config, np.vstack([X[:2], huge]))
    assert hit.length == 3
    assert stream_bytes(hit) == before
    got = decode_explicit(hit, w, config, X[3])
    want = decode_explicit(clean, w, config, X[3])
    assert np.array_equal(got.logits, want.logits)
    assert np.array_equal(got.out, want.out)

    # Rows finite in float64 can still overflow a float32 cache.
    big = np.full(config.d, 1e39)
    c32 = prefill(w, config, X[:3], capacity=5, dtype=np.float32)
    before32 = stream_bytes(c32)
    with pytest.raises(NumericalError):
        append_token(c32, w, config, big)
    assert c32.length == 3
    assert stream_bytes(c32) == before32
    append_token(clean, w, config, big)  # positive control: fits float64
    assert clean.length == 5


def test_accepted_rows_whose_screen_sum_overflows_warn_nothing():
    """Finite rows whose screening sum passes the float64 maximum are
    accepted with no RuntimeWarning, and a step whose logits then overflow
    raises NumericalError, not a warning turned error."""
    config = AttentionConfig(mechanism=Mechanism.MHA, d=32, H=2, d_h=16)
    w = init_weights(config, RngSpec(seed=38))
    w = dataclasses.replace(w, wk=np.abs(w.wk), wv=np.abs(w.wv))
    X = np.abs(np.random.default_rng(39).standard_normal((3, config.d))) * 1e306
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cache = prefill(w, config, X[:2], capacity=3)
        assert cache.length == 2
        assert all(np.isfinite(buf).all() for buf in cache.streams.values())
        # Summed as Python floats: the rows' total is past the float64 maximum.
        assert sum(sum(buf.ravel().tolist()) for buf in cache.streams.values()) == math.inf
        with pytest.raises(NumericalError):
            decode_explicit(cache, w, config, X[2])
        append_token(cache, w, config, X[2])
    assert cache.length == 3


def test_prefill_capacity_and_empty_prompt():
    config = cfg(Mechanism.MQA)
    w = init_weights(config, RngSpec(seed=0))
    X = np.zeros((4, config.d))
    with pytest.raises(CapacityError):
        prefill(w, config, X, capacity=3)
    empty = prefill(w, config, X[:0])
    assert empty.length == 0 and empty.capacity == 0
    roomy = prefill(w, config, X[:0], capacity=8)
    assert roomy.capacity == 8


def test_prefill_rejects_bad_prompt_shape():
    config = cfg(Mechanism.MQA)
    w = init_weights(config, RngSpec(seed=0))
    with pytest.raises(DimensionError):
        prefill(w, config, np.zeros((4, config.d + 2)))


def test_decode_factored_rejections_leave_cache_untouched():
    mha = cfg(Mechanism.MHA)
    w = init_weights(mha, RngSpec(seed=0))
    cache = empty_cache(mha, capacity=4)
    with pytest.raises(UnsupportedMechanismError):
        decode_factored(cache, w, mha, np.zeros(mha.d))
    assert cache.length == 0  # rejected before any state was written

    normed = cfg(Mechanism.LRKV, r=5, qk_norm=True)
    wn = init_weights(normed, RngSpec(seed=0))
    cache_n = empty_cache(normed, capacity=4)
    with pytest.raises(UnsupportedMechanismError):
        decode_factored(cache_n, wn, normed, np.zeros(normed.d))
    assert cache_n.length == 0


@pytest.mark.parametrize("mechanism,kw", [
    (Mechanism.MHA, {}),
    (Mechanism.LRKV, {"r": 5, "qk_norm": True}),
    (Mechanism.MLA, {"d_c": 10, "qk_norm": True}),
], ids=["mha", "lrkv-qk_norm", "mla-qk_norm"])
def test_configs_without_a_factored_step_are_rejected_untouched(mechanism, kw):
    """mha, and lrkv and mla with qk_norm on, have no factored step: it raises
    UnsupportedMechanismError and leaves a prefilled cache's bytes, buffer
    shapes and length as they were; the explicit step still runs."""
    config = cfg(mechanism, **kw)
    w = init_weights(config, RngSpec(seed=40))
    X = np.random.default_rng(41).standard_normal((4, config.d))
    cache = prefill(w, config, X[:3], capacity=4)
    before = stream_bytes(cache), cache.length
    with pytest.raises(UnsupportedMechanismError):
        decode_factored(cache, w, config, X[3])
    assert (stream_bytes(cache), cache.length) == before
    decode_explicit(cache, w, config, X[3])
    assert cache.length == 4


def test_decode_raises_on_nonfinite_input():
    config = cfg(Mechanism.MQA)
    w = init_weights(config, RngSpec(seed=0))
    cache = empty_cache(config, capacity=4)
    x = np.zeros(config.d)
    x[0] = np.inf
    with pytest.raises(NumericalError):
        decode_explicit(cache, w, config, x)


@pytest.mark.parametrize("mechanism,kw,decode", [
    (Mechanism.MHA, {}, decode_explicit),
    (Mechanism.LRKV, {"r": 5}, decode_explicit),
    (Mechanism.LRKV, {"r": 5}, decode_factored),
    (Mechanism.MLA, {"d_c": 10}, decode_explicit),
    (Mechanism.MLA, {"d_c": 10}, decode_factored),
], ids=["mha-explicit", "lrkv-explicit", "lrkv-factored", "mla-explicit",
        "mla-factored"])
def test_failed_step_leaves_cache_usable(mechanism, kw, decode):
    """A step that raises keeps the cache length; the next step is unaffected."""
    config = cfg(mechanism, **kw)
    w = init_weights(config, RngSpec(seed=12))
    X = np.random.default_rng(13).standard_normal((5, config.d))
    hit = prefill(w, config, X[:4], capacity=6)
    clean = prefill(w, config, X[:4], capacity=6)
    with pytest.raises(NumericalError):
        decode(hit, w, config, np.full(config.d, np.nan))
    assert hit.length == 4
    got = decode(hit, w, config, X[4])
    want = decode(clean, w, config, X[4])
    assert np.array_equal(got.logits, want.logits)
    assert np.array_equal(got.out, want.out)


@pytest.mark.parametrize("decode", [decode_explicit, decode_factored],
                         ids=["explicit", "factored"])
def test_failed_step_restores_the_cache_bytes(decode):
    """A step whose token is written but whose logits overflow zeroes the
    row again: the cache is bit for bit what it was, rows past length zero."""
    config = cfg(Mechanism.LRKV, r=5)
    w = init_weights(config, RngSpec(seed=24))
    X = np.random.default_rng(25).standard_normal((4, config.d))
    cache = prefill(w, config, X[:3], capacity=6)
    before = stream_bytes(cache)
    loud = dataclasses.replace(w, wq=np.full_like(w.wq, 1e308))  # K/V rows stay finite
    with pytest.raises(NumericalError):
        decode(cache, loud, config, X[3])
    assert cache.length == 3
    assert stream_bytes(cache) == before


@pytest.mark.parametrize("step", ["append", "explicit", "factored"])
def test_failed_growing_step_puts_the_old_buffers_back(step):
    """A step whose append outgrows the held rows and then fails leaves the
    cache's buffers, their shapes and bytes, and its length as they were:
    a token whose rows overflow at the boundary, or a decode step whose
    logits overflow once the grown buffers hold its row."""
    config = cfg(Mechanism.LRKV, r=5)
    w = init_weights(config, RngSpec(seed=24))
    X = np.random.default_rng(25).standard_normal((5, config.d))
    cache = prefill(w, config, X[:4], capacity=6)
    assert held_rows(cache) == 4  # full: the next row grows the buffers to 6
    buffers = dict(cache.streams)
    before = stream_bytes(cache)
    loud = dataclasses.replace(w, wq=np.full_like(w.wq, 1e308))  # K/V rows stay finite
    with pytest.raises(NumericalError):
        if step == "append":
            append_token(cache, w, config, np.full(config.d, 1e308))
        else:
            decode = decode_explicit if step == "explicit" else decode_factored
            decode(cache, loud, config, X[4])
    assert cache.length == 4
    assert stream_bytes(cache) == before
    assert all(cache.streams[name] is buf for name, buf in buffers.items())
    assert_aligned(cache)
    got = decode_factored(cache, w, config, X[4])  # positive control: now it grows
    assert held_rows(cache) == 6 and cache.length == 5
    want = decode_factored(prefill(w, config, X[:4], capacity=5), w, config, X[4])
    assert np.array_equal(got.logits, want.logits)
    assert np.array_equal(got.out, want.out)


@pytest.mark.parametrize("mechanism,kw", FIVE, ids=FIVE_IDS)
def test_buffers_start_aligned_after_prefill_growth_and_rollback(mechanism, kw):
    config = AttentionConfig(mechanism=mechanism, d=96, H=6, d_h=16,
                             **{k: min(v, 8) for k, v in kw.items()})
    w = init_weights(config, RngSpec(seed=34))
    X = np.random.default_rng(35).standard_normal((6, config.d))
    cache = prefill(w, config, X[:3], capacity=7)
    assert held_rows(cache) == 4
    assert_aligned(cache)
    append_token(cache, w, config, X[3])
    append_token(cache, w, config, X[4])  # grows: 4 rows to 7, the capacity
    assert held_rows(cache) == 7
    assert_aligned(cache)
    rolled_back = prefill(w, config, X[:4], capacity=7)
    with pytest.raises(NumericalError):
        decode_explicit(rolled_back, w, config, np.full(config.d, 1e308))
    assert held_rows(rolled_back) == 4
    assert_aligned(rolled_back)


@st.composite
def growth_cases(draw):
    """A mechanism, a float dtype and a capacity that is not a power of two."""
    mechanism, kw = draw(st.sampled_from(FIVE))
    config = AttentionConfig(mechanism=mechanism, d=8, H=2, d_h=4,
                             **{k: min(v, 2) for k, v in kw.items()})
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    capacity = draw(st.integers(3, 48).filter(lambda c: c & (c - 1)))
    return config, dtype, capacity


@settings(deadline=None, max_examples=40)
@given(case=growth_cases(), seed=st.integers(0, 2**32 - 1))
def test_buffers_hold_the_next_power_of_two_rows(case, seed):
    """After each of n = 0..33 appends the buffers hold rows(n) rows, never
    more than the capacity or than max(1, 2n), and a prefill of the same n
    tokens has the same shapes and bytes."""
    config, dtype, capacity = case
    w = init_weights(config, RngSpec(seed=seed)).astype(dtype)
    X = np.random.default_rng(seed).standard_normal((33, config.d)).astype(dtype)
    cache = empty_cache(config, capacity, dtype=dtype)
    for n in range(min(33, capacity) + 1):
        if n:
            append_token(cache, w, config, X[n - 1])
        assert cache.length == n
        assert held_rows(cache) == rows_for(n, capacity)
        assert held_rows(cache) <= min(capacity, max(1, 2 * n))
        assert stream_bytes(cache) == stream_bytes(prefill(w, config, X[:n], capacity))


@pytest.mark.parametrize("dtype", [np.int64, np.bool_, np.int32])
def test_a_non_float_cache_dtype_is_a_configuration_error(dtype):
    config = cfg(Mechanism.LRKV, r=5)
    w = init_weights(config, RngSpec(seed=0))
    name = np.dtype(dtype).name
    with pytest.raises(ConfigurationError, match=f"got {name}$"):
        prefill(w, config, np.ones((3, config.d), dtype=dtype))
    with pytest.raises(ConfigurationError, match=f"got {name}$"):
        empty_cache(config, 4, dtype=dtype)
    with pytest.raises(ConfigurationError, match=f"got {name}$"):
        prefill(w, config, np.ones((3, config.d)), capacity=4, dtype=dtype)


def test_a_float16_cache_still_decodes():
    config = cfg(Mechanism.LRKV, r=5)
    w = init_weights(config, RngSpec(seed=0))
    X = np.random.default_rng(1).standard_normal((4, config.d)).astype(np.float16)
    cache = prefill(w, config, X[:3], capacity=4)
    step = decode_factored(cache, w, config, X[3])
    assert cache.dtype == step.logits.dtype == np.float16 and cache.length == 4
    assert np.isfinite(step.out).all()


@pytest.mark.parametrize("mechanism,kw,decode", [
    pytest.param(m, kw, decode, id=f"{i}-{path}")
    for (m, kw), i in zip(PREFILL_EVENT_CASES, PREFILL_EVENT_IDS)
    for path, decode in (("explicit", decode_explicit), ("factored", decode_factored))
    if path == "explicit" or m in FACTORED
])
def test_deep_copied_cache_is_independent(mechanism, kw, decode):
    """A deep copy of a prefilled cache (the serving benchmark's shadow check
    decodes on one) shares no buffer: a step on the copy leaves the original's
    bytes and length, and the same step on the original gives the same bits."""
    config = cfg(mechanism, **kw)
    w = init_weights(config, RngSpec(seed=32))
    X = np.random.default_rng(33).standard_normal((6, config.d))
    original = prefill(w, config, X[:5], capacity=6)
    before = stream_bytes(original)
    shadow = copy.deepcopy(original)
    got = decode(shadow, w, config, X[5])
    assert original.length == 5 and shadow.length == 6
    assert stream_bytes(original) == before
    want = decode(original, w, config, X[5])
    assert got.logits.tobytes() == want.logits.tobytes()
    assert got.out.tobytes() == want.out.tobytes()
    assert stream_bytes(original) == stream_bytes(shadow)


@pytest.mark.parametrize("mechanism,kw", FIVE, ids=FIVE_IDS)
def test_deep_copy_allocates_aligned_buffers(mechanism, kw):
    """``copy.deepcopy`` allocates through the cache allocator: at the 128M
    layer shape the copy's buffers start on an ALIGNMENT boundary, hold the
    original's shapes and bytes in memory of their own, and the same step
    on either gives the same bits."""
    config = AttentionConfig(mechanism=mechanism, d=768, H=6, d_h=128, **kw)
    w = init_weights(config, RngSpec(seed=34))
    X = np.random.default_rng(35).standard_normal((769, config.d))
    original = prefill(w, config, X[:768], capacity=800)
    shadow = copy.deepcopy(original)
    assert_aligned(shadow)
    assert stream_bytes(shadow) == stream_bytes(original)
    assert (shadow.capacity, shadow.length) == (original.capacity, original.length)
    assert not any(np.shares_memory(a, b)
                   for a in shadow.streams.values() for b in original.streams.values())
    decode = decode_factored if mechanism in FACTORED else decode_explicit
    got, want = (decode(c, w, config, X[768]) for c in (shadow, original))
    assert got.logits.tobytes() == want.logits.tobytes()
    assert got.out.tobytes() == want.out.tobytes()
    assert stream_bytes(shadow) == stream_bytes(original)


NAN_CASES = [(Mechanism.MHA, {}), (Mechanism.LRKV, {"r": 5}), (Mechanism.MLA, {"d_c": 10})]
NAN_IDS = ["mha", "lrkv", "mla"]


@pytest.mark.parametrize("mechanism,kw", NAN_CASES, ids=NAN_IDS)
def test_prefill_rejects_a_nonfinite_prompt_token(mechanism, kw):
    config = cfg(mechanism, **kw)
    w = init_weights(config, RngSpec(seed=14))
    X = np.random.default_rng(15).standard_normal((6, config.d))
    X[3, 2] = np.nan
    with pytest.raises(NumericalError):
        prefill(w, config, X)


@pytest.mark.parametrize("mechanism,kw", NAN_CASES, ids=NAN_IDS)
def test_nonfinite_append_writes_nothing(mechanism, kw):
    config = cfg(mechanism, **kw)
    w = init_weights(config, RngSpec(seed=16))
    X = np.random.default_rng(17).standard_normal((3, config.d))
    cache = prefill(w, config, X, capacity=5)
    before = stream_bytes(cache)
    for bad in (np.nan, np.inf, -np.inf):
        x = X[0].copy()
        x[-1] = bad
        with pytest.raises(NumericalError):
            append_token(cache, w, config, x)
        assert cache.length == 3
        assert stream_bytes(cache) == before
    append_token(cache, w, config, np.full(config.d, 1e160))
    assert cache.length == 4


@pytest.mark.parametrize("mechanism,kw", [
    (Mechanism.LRKV, {"r": 8}), (Mechanism.MLA, {"d_c": 16}),
], ids=["lrkv", "mla"])
def test_factored_step_peak_memory_is_below_one_head_matrix(mechanism, kw, traced_peak):
    """Measured by tracemalloc, not by the hook: a factored step at t = 2048
    allocates less than one (t, d_h) float64 matrix; the explicit step on the
    same cache allocates more (the positive control)."""
    config = AttentionConfig(mechanism=mechanism, d=128, H=2, d_h=64, **kw)
    w = init_weights(config, RngSpec(seed=18))
    X = np.random.default_rng(19).standard_normal((2048, config.d))
    cache = prefill(w, config, X[:-1], capacity=2048)
    head_matrix = cache.capacity * config.d_h * 8

    def step_peak(decode):
        _, peak = traced_peak(decode, cache, w, config, X[-1])
        cache.length -= 1  # decode the same token again on the same prefix
        return peak

    assert step_peak(decode_factored) < head_matrix
    assert step_peak(decode_explicit) > head_matrix


def _assert_small_transients(events, config, t, allowed):
    """Every decode transient is (H, k) with k in ``allowed``; the step's own
    append writes one row of k columns per stream, k not t."""
    assert events, "hook saw no traffic"
    for tag, shape in events:
        assert not tag.startswith("explicit."), tag
        if tag.startswith("append."):
            assert shape[-2] == 1 and shape[-1] in allowed - {t}, (tag, shape)
            assert shape[:-2] in ((), (config.H,)), (tag, shape)
        else:
            assert len(shape) == 2 and shape[0] == config.H, (tag, shape)
            assert shape[1] in allowed, (tag, shape)


@pytest.mark.parametrize("mechanism,kw,seed,T", [
    (Mechanism.LRKV, {"r": 5}, 3, 10),
    (Mechanism.MLA, {"d_c": 10}, 5, 8),
], ids=["lrkv", "mla"])
def test_factored_transients_are_small_vectors(log, mechanism, kw, seed, T):
    """The factored decode path must never build a (t, d_h) matrix: its
    transients are (H, k) with k in {t, d_h} and the factor width (r or d_c)."""
    config = cfg(mechanism, **kw)
    w = init_weights(config, RngSpec(seed=seed))
    X = np.random.default_rng(seed + 1).standard_normal((T, config.d))
    cache = prefill(w, config, X[:-1], capacity=T)
    log.drain()
    decode_factored(cache, w, config, X[-1])
    t = cache.length
    width = config.d_c if mechanism is Mechanism.MLA else config.r
    _assert_small_transients(log.drain(), config, t, {t, width, config.d_h})


def test_explicit_path_visibly_materializes_per_head(log):
    """Positive control: the hook does see (t, d_h) buffers when they exist."""
    config = cfg(Mechanism.LRKV, r=5)
    w = init_weights(config, RngSpec(seed=3))
    X = np.random.default_rng(4).standard_normal((6, config.d))
    cache = prefill(w, config, X[:5], capacity=6)
    log.drain()
    decode_explicit(cache, w, config, X[5])
    shapes = [shape for tag, shape in log.drain() if tag == "explicit.k_head"]
    assert shapes == [(config.H, 6, config.d_h)]


def test_factored_non_t_traffic_is_length_independent(log):
    """Per-step factor work must not grow with the cache length."""
    config = cfg(Mechanism.LRKV, r=5)
    w = init_weights(config, RngSpec(seed=7))
    totals = []
    for T in (6, 24):
        X = np.random.default_rng(8).standard_normal((T, config.d))
        cache = prefill(w, config, X[:-1], capacity=T)
        log.drain()
        decode_factored(cache, w, config, X[-1])
        events = log.drain()
        assert any(s[-1] == cache.length for tag, s in events)
        totals.append(sum(math.prod(s) for tag, s in events if s[-1] != cache.length))
    assert totals[0] == totals[1] > 0


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("H,d_h", [(6, 128), (5, 16), (2, 128), (3, 16), (4, 64)],
                         ids=["128M", "16-wide", "2-heads", "3-heads", "4-heads"])
def test_rank_zero_decodes_as_mqa_bit_for_bit(H, d_h, dtype):
    """At r = 0 both lrkv decode paths are MQA's explicit step: the factored
    step runs its rank-r lines on (H, 0) factors, whose products are zeros
    that leave the shared-stream scores and outputs bit for bit. Both paths
    score the shared keys through ``_scores``: per head up to GEMV_ROWS
    heads, one GEMM past it."""
    d = H * d_h
    cfg0 = AttentionConfig(mechanism=Mechanism.LRKV, d=d, H=H, d_h=d_h, r=0)
    w0 = init_weights(cfg0, RngSpec(seed=3)).astype(dtype)
    mqa_cfg = AttentionConfig(mechanism=Mechanism.MQA, d=d, H=H, d_h=d_h)
    mqa_w = WeightSet(wq=w0.wq, wk_shared=w0.wk_shared, wv_shared=w0.wv_shared,
                      config=mqa_cfg)
    X = np.random.default_rng(10).standard_normal((24, d)).astype(dtype)
    caches = [prefill(weights, config, X[:12], capacity=24)
              for weights, config in ((w0, cfg0), (w0, cfg0), (mqa_w, mqa_cfg))]
    for x in X[12:]:
        steps = (decode_factored(caches[0], w0, cfg0, x),
                 decode_explicit(caches[1], w0, cfg0, x),
                 decode_explicit(caches[2], mqa_w, mqa_cfg, x))
        want = steps[-1]
        assert want.logits.dtype == want.out.dtype == dtype
        for got in steps[:2]:
            assert got.logits.dtype == got.out.dtype == dtype
            assert np.array_equal(got.logits, want.logits)
            assert np.array_equal(got.out, want.out)


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 16])
def test_scores_branches_equal_their_reference_bit_for_bit(m, dtype):
    """Up to GEMV_ROWS query rows per key head, each row's scores are its own
    ``q @ K.T``; past it they are the GEMM ``Q @ K^T``. The keys are a cache
    view: t of a buffer's held rows."""
    rng = np.random.default_rng(m)
    Q = rng.standard_normal((3, m, 128)).astype(dtype)
    K = rng.standard_normal((3, 256, 128)).astype(dtype)[:, :200]
    got = _scores(Q, K)
    if m <= GEMV_ROWS:
        want = np.stack([[q @ K[g].T for q in Q[g]] for g in range(len(Q))])
    else:
        want = Q @ K.transpose(0, 2, 1)
    assert got.shape == (3, m, 200) and got.dtype == dtype
    assert got.tobytes() == want.tobytes()


def test_gemv_rows_sends_only_the_128m_gqa_groups_per_head():
    """The measured crossover at the 128M shape: gqa's 2 query heads per K/V
    head run as per-head gemvs, the 6 heads on the one shared stream of mqa
    and lrkv stay one GEMM, and mha's lone heads are one gemv either way."""
    p = get_preset("128M")
    assert p.H // p.G <= GEMV_ROWS < p.H


@pytest.mark.parametrize("mechanism,kw,path", [
    pytest.param(Mechanism.GQA, {"G": 2}, "explicit", id="gqa-2-per-group"),
    pytest.param(Mechanism.GQA, {"d": 128, "H": 16, "d_h": 8, "G": 1}, "explicit",
                 id="gqa-16-per-group"),
    pytest.param(Mechanism.LRKV, {"r": 0}, "factored", id="lrkv-r0-4-heads"),
    pytest.param(Mechanism.LRKV, {"d": 72, "H": 6, "r": 3}, "factored", id="lrkv-6-heads"),
])
def test_a_step_notes_one_scores_event_and_its_closed_form_flops(
        log, instrumented_step_flops, mechanism, kw, path):
    """On either side of GEMV_ROWS a step reports its scores as one (H, t)
    event, and its hook tally is the closed form's FLOPs."""
    config = cfg(mechanism, **kw)
    w = init_weights(config, RngSpec(seed=36))
    X = np.random.default_rng(37).standard_normal((9, config.d))
    cache = prefill(w, config, X[:8], capacity=9)
    log.drain()
    (decode_factored if path == "factored" else decode_explicit)(cache, w, config, X[8])
    scores = [shape for tag, shape in log.drain() if tag == "decode.scores"]
    assert scores == [(config.H, 9)]
    assert instrumented_step_flops(config, 9, path) == decode_flops(CostQuery(config, T=9))[0]


def test_set_alloc_hook_returns_previous():
    first = EventLog()
    prev = set_alloc_hook(first)
    try:
        second = EventLog()
        assert set_alloc_hook(second) is first
    finally:
        set_alloc_hook(prev)


def test_equivalence_report_rows_and_validation():
    config = cfg(Mechanism.LRKV, r=5)
    with pytest.raises(ConfigurationError):
        equivalence_report(config, RngSpec(seed=0), T=0, trials=1)
    with pytest.raises(ConfigurationError):
        equivalence_report(config, RngSpec(seed=0), T=4, trials=0)
    rows = equivalence_report(config, RngSpec(seed=0), T=12, trials=2)
    assert len(rows) == 2
    for row in rows:
        assert row["mechanism"] == "lrkv" and row["dtype"] == "float64"
        assert row["max_logit_diff"] <= 1e-9
        assert row["max_out_diff"] <= 1e-9
        assert 0 < row["factored_elems_touched"] < row["explicit_elems_touched"]


def test_equivalence_report_marks_unfactorable_mechanisms():
    rows = equivalence_report(cfg(Mechanism.GQA, G=2), RngSpec(seed=0), T=6, trials=1)
    (row,) = rows
    assert row["max_logit_diff"] is None
    assert row["factored_elems_touched"] is None
    assert row["explicit_elems_touched"] > 0


@st.composite
def factored_configs(draw):
    """A low-rank or latent config: 2..8 heads of width 8..64, any rank up to
    d_h, and a latent no wider than the model."""
    mechanism = draw(st.sampled_from([Mechanism.LRKV, Mechanism.MLA]))
    H = draw(st.integers(2, 8))
    d_h = draw(st.sampled_from([8, 16, 32, 64]))
    d = H * d_h
    if mechanism is Mechanism.LRKV:
        kw = {"r": draw(st.integers(0, d_h))}
    else:
        kw = {"d_c": draw(st.sampled_from([c for c in (8, 16, 32, 64) if c <= d]))}
    return AttentionConfig(mechanism=mechanism, d=d, H=H, d_h=d_h, **kw)


@settings(deadline=None)
@given(config=factored_configs(), T=st.integers(1, 96), seed=st.integers(0, 2**64 - 1))
def test_factored_decode_matches_explicit_on_any_shape(config, T, seed):
    """Every step from an empty cache, in float64: the factored path is an
    exact rewrite of explicit reconstruction, so both agree to roundoff."""
    (row,) = equivalence_report(config, RngSpec(seed=seed), T=T, trials=1,
                                dtype=np.float64)
    assert row["max_logit_diff"] <= 1e-9 and row["max_out_diff"] <= 1e-9


@st.composite
def machine_setups(draw):
    """A small config of any mechanism, a float dtype, a capacity and a seed."""
    mechanism = draw(st.sampled_from(list(Mechanism)))
    H = draw(st.sampled_from([1, 2, 3, 4, 6]))
    d_h = draw(st.sampled_from([2, 4, 8]))
    d = H * d_h
    kw = {}
    if mechanism is Mechanism.LRKV:
        kw["r"] = draw(st.integers(0, min(3, d)))
    elif mechanism is Mechanism.MLA:
        kw["d_c"] = draw(st.integers(1, min(5, d)))
    elif mechanism is Mechanism.GQA:
        kw["G"] = draw(st.sampled_from([g for g in range(1, H + 1) if H % g == 0]))
    config = AttentionConfig(mechanism=mechanism, d=d, H=H, d_h=d_h, **kw)
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    return config, dtype, draw(st.integers(1, 24)), draw(st.integers(0, 2**32 - 1))


# A float64 token: a seed for its normal draw, a scale (squares overflow
# float32 past ~1.8e19 and float64 past ~1.3e154), and an entry to poison.
TOKENS = st.tuples(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1.0] * 6 + [1e3, 1e19, 1e20, 1e38, 1e39, 1e154, 1e155, 1e300]),
    st.sampled_from([None] * 6 + [np.nan, np.inf, -np.inf]),
)


class CacheMachine(RuleBasedStateMachine):
    """Appends, both decode paths and deep copies on one DecodeCache.

    After every rule the cache equals a prefill of the tokens it accepted,
    at the same capacity, bit for bit and in buffer shapes, and every
    buffer (an empty one too) starts on an ALIGNMENT boundary. A rejected
    token or a failed step leaves shapes, bytes and length as they were.
    """

    @initialize(setup=machine_setups())
    def start(self, setup):
        self.config, self.dtype, self.capacity, seed = setup
        self.w = init_weights(self.config, RngSpec(seed=seed)).astype(self.dtype)
        self.cache = empty_cache(self.config, self.capacity, dtype=self.dtype)
        self.accepted = []

    def _run(self, op, spec):
        seed, scale, poison = spec
        x = np.random.default_rng(seed).standard_normal(self.config.d) * scale
        if poison is not None:
            x[seed % self.config.d] = poison
        before = stream_bytes(self.cache), self.cache.length
        try:
            op(self.cache, self.w, self.config, x)
        except (NumericalError, CapacityError):
            assert (stream_bytes(self.cache), self.cache.length) == before
        else:
            self.accepted.append(x)

    @rule(spec=TOKENS)
    def append(self, spec):
        self._run(append_token, spec)

    @rule(spec=TOKENS)
    def explicit_step(self, spec):
        self._run(decode_explicit, spec)

    @precondition(lambda self: self.config.mechanism in FACTORED)
    @rule(spec=TOKENS)
    def factored_step(self, spec):
        self._run(decode_factored, spec)

    @rule()
    def deep_copy(self):
        dup = copy.deepcopy(self.cache)
        assert not any(np.shares_memory(a, b) for a in dup.streams.values()
                       for b in self.cache.streams.values())
        self.cache = dup

    @invariant()
    def equals_a_prefill_of_the_accepted_tokens(self):
        X = np.array(self.accepted).reshape(-1, self.config.d)
        want = prefill(self.w, self.config, X, self.capacity, dtype=self.dtype)
        assert (self.cache.capacity, self.cache.length) == (self.capacity, len(X))
        assert stream_bytes(self.cache) == stream_bytes(want)
        assert_aligned(self.cache)


TestCacheMachine = CacheMachine.TestCase
TestCacheMachine.settings = settings(max_examples=60, stateful_step_count=20, deadline=None)
