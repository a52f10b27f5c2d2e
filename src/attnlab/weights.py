"""Weight parameterizations for the five attention mechanisms.

Every mechanism keeps full-rank per-head query projections Wq[h] (d, d_h).
The K/V side is where they differ:

    MHA   Wk[h], Wv[h]            independent per head
    MQA   Wk_shared, Wv_shared    one pair for all heads
    GQA   Wk[g], Wv[g]            one pair per group, head -> group g(h)
    MLA   Wdown (d, d_c) with per-head up-projections WupK[h], WupV[h] (d_c, d_h)
    LRKV  Wk_shared + Uk[h] Bk[h]^T  (and the same for V):
          a dense shared base plus a head-specific rank-r residual

MHA, MQA and GQA are grouped K/V with ``kv_heads`` = H, 1 and G (Ainslie et
al. 2023, "GQA"); LRKV adds a rank-r residual per head to MQA's one shared
K/V head (``residual_rank``), so at r = 0 it is MQA.

The LRKV residual keeps the projection shape (d, d_h): Uk[h] is (d, r) and
Bk[h] is (d_h, r), so Uk[h] @ Bk[h].T is a (d, d_h) update of rank <= r.
``effective_weights`` expands every head's K or V, from the weights or from
a decode cache's rows, one path per call.

``tensor_shapes`` is the one layout table: each populated WeightSet field and
its shape, in draw order, which is also archive order. Per-head and per-group
tensors are stacked (n, rows, cols) arrays; the archive stores slice i of
``wq`` as the matrix ``wq.i``. Weights, archive and decode cache follow it.

Initialization is Kaiming-style N(0, 2/fan_in) with fan_in the row count of
each matrix: d, or d_c for the MLA up-projections. The LRKV factor pair is
drawn and then U is rescaled so that ||U_h B_h^T||_F = 0.1 * ||W_shared||_F
holds exactly per head and per path: the model starts close to the fully
shared baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from .config import AttentionConfig, Mechanism, RngSpec, require_mechanism
from .errors import ConfigurationError, DimensionError

DTYPE = np.float64

# Fraction of the shared base's Frobenius norm given to each initial residual.
RESIDUAL_INIT_FRACTION = 0.1

# Byte boundary weight tensors start on. numpy's allocator only promises 16
# bytes; a gemv against a (768, 128) float64 slice (OpenBLAS, one thread, a
# 2-vCPU Xeon host) runs ~1.7x faster when it starts on a 64-byte boundary.
ALIGNMENT = 64


def aligned_empty(shape: tuple[int, ...], dtype=DTYPE, alloc=np.empty) -> np.ndarray:
    """An uninitialized C-contiguous array whose data starts ALIGNMENT-aligned.

    ``alloc=np.zeros`` gives an all-zero one instead, zeroed as numpy's
    zeros are (calloc), with no second pass over the bytes. A size numpy
    refuses raises ``ConfigurationError`` naming the shape.
    """
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    try:
        raw = alloc(nbytes + ALIGNMENT, dtype=np.uint8)
    except (MemoryError, ValueError) as e:  # out of memory, or past numpy's dimension limit
        raise ConfigurationError(f"cannot allocate a {dtype} array of shape {shape}: {e}") from e
    start = -raw.ctypes.data % ALIGNMENT
    # Cut from the non-empty aligned view: numpy leaves a zero-length slice
    # at its base's pointer, so raw[start:start] would not be aligned.
    return raw[start:][:nbytes].view(dtype).reshape(shape)


def gqa_group(head: int, H: int, G: int) -> int:
    """Head -> KV-group map for GQA: contiguous blocks, g(h) = floor(h*G/H)."""
    return (head * G) // H


def kv_heads(config: AttentionConfig) -> int:
    """Full-rank K/V heads: H for MHA, G for GQA, 1 for MQA and LRKV's base.

    Head h reads K/V head ``gqa_group(h, H, kv_heads(config))``. Not
    meaningful for MLA, whose per-head K/V come from one shared latent.
    """
    return {Mechanism.MHA: config.H, Mechanism.GQA: config.G}.get(config.mechanism, 1)


def residual_rank(config: AttentionConfig) -> int:
    """Rank of each head's K/V residual: r for LRKV, 0 for every other mechanism."""
    return config.r if config.mechanism is Mechanism.LRKV else 0


def tensor_shapes(config: AttentionConfig) -> dict[str, tuple[int, ...]]:
    """Populated WeightSet field -> shape, in draw order (= archive order).

    A 3-D shape (n, rows, cols) is a stack of one (rows, cols) matrix per
    head or group; rows is each matrix's fan-in.
    """
    d, H, d_h = config.d, config.H, config.d_h
    shapes = {"wq": (H, d, d_h)}
    m = config.mechanism
    if m is Mechanism.MLA:
        shapes.update(wdown=(d, config.d_c), wup_k=(H, config.d_c, d_h),
                      wup_v=(H, config.d_c, d_h))
    elif m in (Mechanism.MHA, Mechanism.GQA):
        shapes.update(wk=(kv_heads(config), d, d_h), wv=(kv_heads(config), d, d_h))
    else:  # one shared K/V head: MQA, and LRKV's base
        shapes.update(wk_shared=(d, d_h), wv_shared=(d, d_h))
        if m is Mechanism.LRKV:
            r = config.r
            shapes.update(uk=(H, d, r), bk=(H, d_h, r), uv=(H, d, r), bv=(H, d_h, r))
    return shapes


def flat_shapes(config: AttentionConfig) -> dict[str, tuple[int, ...]]:
    """Names, shapes and order of ``named_tensors`` and of the archive's entries:
    ``tensor_shapes`` with each stack split into matrices ``field.0``, ``field.1``, ..."""
    out: dict[str, tuple[int, ...]] = {}
    for field, shape in tensor_shapes(config).items():
        if len(shape) == 3:
            out.update((f"{field}.{i}", shape[1:]) for i in range(shape[0]))
        else:
            out[field] = shape
    return out


@dataclass(frozen=True)
class WeightSet:
    """Projection weights for one attention layer.

    ``wq`` is always present, a (H, d, d_h) stack of per-head matrices.
    Exactly one mechanism payload is populated (see ``tensor_shapes``); the
    rest stay None. A stacked field is one (n, rows, cols) array; build one
    from per-head matrices with ``np.stack``. ``config``
    records the configuration the weights were generated for
    (serialization convenience; operations take their config explicitly).
    """

    wq: np.ndarray
    # MHA (per head) / GQA (per group)
    wk: np.ndarray | None = None
    wv: np.ndarray | None = None
    # MQA / LRKV shared base
    wk_shared: np.ndarray | None = None
    wv_shared: np.ndarray | None = None
    # LRKV low-rank factors, per head
    uk: np.ndarray | None = None
    bk: np.ndarray | None = None
    uv: np.ndarray | None = None
    bv: np.ndarray | None = None
    # MLA latent projections
    wdown: np.ndarray | None = None
    wup_k: np.ndarray | None = None
    wup_v: np.ndarray | None = None
    config: AttentionConfig | None = None

    def astype(self, dtype) -> "WeightSet":
        """Return a copy with every tensor cast to ``dtype`` (aligned, see
        ``aligned_empty``)."""
        def cast(t: np.ndarray) -> np.ndarray:
            out = aligned_empty(t.shape, dtype)
            np.copyto(out, t, casting="unsafe")
            return out

        return replace(self, **{
            f.name: cast(getattr(self, f.name)) for f in fields(self)
            if isinstance(getattr(self, f.name), np.ndarray)
        })

    def named_tensors(self) -> dict[str, np.ndarray]:
        """Flat name -> matrix view of the payload, in archive order (``flat_shapes``)."""
        out: dict[str, np.ndarray] = {}
        for name in flat_shapes(self.config):
            field, _, i = name.partition(".")
            tensor = getattr(self, field)
            out[name] = tensor[int(i)] if i else tensor
        return out


def init_weights(config: AttentionConfig, rng: RngSpec) -> WeightSet:
    """Draw a WeightSet deterministically from (seed, config).

    Draw order is fixed (``tensor_shapes`` order; LRKV's factors last, as
    per-head (U, B) pairs, K path then V path), so identical (seed, config)
    pairs produce byte-identical weights. A stack is one draw: it takes the
    same values as its matrices drawn one after another. Each draw is
    standard normals scaled in place, which gives the bytes of
    ``gen.normal(0, scale, shape)`` in an aligned buffer.
    """
    gen = np.random.Generator(np.random.PCG64(rng.seed))

    def draw(out: np.ndarray, scale: float) -> np.ndarray:
        gen.standard_normal(out=out)
        out *= scale
        return out

    shapes = tensor_shapes(config)
    tensors = {
        name: draw(aligned_empty(shape), np.sqrt(2.0 / shape[-2]))
        for name, shape in shapes.items()
        if name not in ("uk", "bk", "uv", "bv")  # LRKV's factors: drawn in pairs below
    }
    if config.mechanism is not Mechanism.LRKV:
        return WeightSet(config=config, **tensors)

    r = config.r
    for u_name, b_name, shared in (("uk", "bk", tensors["wk_shared"]),
                                   ("uv", "bv", tensors["wv_shared"])):
        us = aligned_empty(shapes[u_name])  # every slice is written below
        bs = aligned_empty(shapes[b_name])  # (r = 0: the stacks are empty)
        target = RESIDUAL_INIT_FRACTION * np.linalg.norm(shared)
        for h in range(config.H if r > 0 else 0):  # r = 0: empty factors, no draws
            u = draw(us[h], np.sqrt(2.0 / config.d))
            draw(bs[h], np.sqrt(1.0 / r))
            # Rescale U (only U) so the residual magnitude is exact, not approximate.
            u *= target / np.linalg.norm(u @ bs[h].T)
        tensors[u_name], tensors[b_name] = us, bs
    return WeightSet(config=config, **tensors)


def _check_path(path: str) -> None:
    if path not in ("k", "v"):
        raise DimensionError(f"path must be 'k' or 'v', got {path!r}")


def effective_weights(
    w: WeightSet,
    config: AttentionConfig,
    path: str,
    rows: Callable[[str], np.ndarray] | None = None,
) -> np.ndarray:
    """K (``path`` "k") or V ("v") of every head as an (n, rows, d_h) stack:
    the one K/V expansion, one path per call.

    Head h reads slice ``gqa_group(h, H, n)``; n is H where each head has
    its own K/V (MHA, MLA, LRKV at r > 0), G for GQA and 1 for one shared
    K/V head (MQA, LRKV at r = 0). Without ``rows`` it expands the weights
    (rows = d). ``rows(name)`` instead gives the cached rows of the stream
    that weight ``name`` projects into (``cache.STREAMS``: ``wk``, ``wdown``,
    ``uk``, ...); only the streams the taken branch reads are asked for.
    Stored streams come back as views, so complete sharing is bitwise
    identical to MQA; reconstructed heads (MLA, LRKV at r > 0) are fresh.
    A caller that needs only K (``bilinear_forms``) never builds V.
    """
    _check_path(path)
    rows = rows or (lambda name: getattr(w, name))
    if config.mechanism is Mechanism.MLA:
        return rows("wdown") @ getattr(w, f"wup_{path}")
    if residual_rank(config) > 0:  # the base is added in place: one stack allocated
        out = rows(f"u{path}") @ getattr(w, f"b{path}").transpose(0, 2, 1)
        return np.add(out, rows(f"w{path}_shared"), out=out)
    if w.wk is None:  # one shared K/V head: MQA, LRKV at r = 0
        return rows(f"w{path}_shared")[None]
    return rows(f"w{path}")  # per-group K/V: MHA (G = H), GQA


def projection_backward(
    w: WeightSet,
    config: AttentionConfig,
    X: np.ndarray,
    dK: np.ndarray,
    path: str = "k",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of every head's K_h = X @ (W_shared + U_h B_h^T) w.r.t. the
    factors, given the (H, T, d_h) stack of cotangents dK_h, as the tuple
    (dWshared (d, d_h), dU (H, d, r), dB (H, d_h, r)):

        dWshared = sum_h X^T dK_h
        dU_h     = X^T dK_h B_h
        dB_h     = dK_h^T X U_h

    The shared and residual paths see the same upstream gradient because the
    parameterization is additive, and the shared base receives every head's
    contribution; the head sum runs in head order, as a ``+=`` loop would.
    ``path`` selects the K or V factor stacks (the structure is identical).
    """
    require_mechanism(config, "projection_backward", Mechanism.LRKV)
    _check_path(path)
    U, B = getattr(w, f"u{path}"), getattr(w, f"b{path}")
    X = np.asarray(X)
    dK = np.asarray(dK)
    if X.ndim != 2:
        raise DimensionError(f"X must be 2-D (T, d), got shape {X.shape}")
    T, d = X.shape
    if d != config.d:
        raise DimensionError(f"X has width {d}, config.d={config.d}")
    if dK.shape != (config.H, T, config.d_h):
        raise DimensionError(
            f"dK shape {dK.shape} does not match (H={config.H}, T={T}, d_h={config.d_h})"
        )
    dWshared = np.add.reduce(X.T @ dK, axis=0)
    dU = X.T @ (dK @ B)
    dB = dK.transpose(0, 2, 1) @ (X @ U)
    return dWshared, dU, dB
