"""Closed-form cost accounting: cache bytes, decode FLOPs, parameter counts.

All formulas are exact counts, not asymptotics. Conventions, used everywhere
and echoed in CLI output:

    - A reported "MiB" is 2**20 bytes.
    - One multiply-add is 2 FLOPs; softmax costs 5 FLOPs per position
      (max-scan, subtract, exp, sum, divide).
    - Every product that reads weights or cached state is counted, and the
      softmax. The logit scale is not, nor an add that joins two partial
      results (shared plus residual, scores plus their rank-r correction),
      so rank 0 costs exactly what MQA does.
    - FLOP counts are per decode step, per layer, attention only, with the
      new token's Q/K/V (or latent) projections included. T is the number
      of cached positions the step attends over, the new token included.
    - The latent mechanism can be costed along either decode path:
      "reconstruct" (materialize per-head K/V from the latent each step)
      or "factored" (fold the up-projections into query and weights).
      The low-rank mechanism is always costed along its factored path.
    - ``flops_overhead_vs_mha`` compares only the attention-scan arithmetic
      (dot products over cached state, per-step reconstruction, and factor
      lifts) against the full-cache baseline's scan; new-token projections
      and softmax are excluded. For the low-rank mechanism this overhead is
      r/d_h + r/T, which converges to r/d_h for long prefixes.

The number of latent streams the latent mechanism caches (one shared or
separate K and V streams) is an accounting knob of ``CostQuery``; two
streams is the default, and the one ``cache_ratio`` prices. A DecodeCache
always holds the single shared stream, so its ``payload_nbytes`` matches
single-stream queries.

Results are plain: ``cost_report`` and ``decode_flops_breakdown`` return
dicts, ``ablation_table`` a list of dict rows, ``decode_flops`` a tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .config import AttentionConfig, Mechanism, require_int, require_mechanism
from .errors import ConfigurationError
from .weights import kv_heads, residual_rank, tensor_shapes

MIB = 2**20
VALID_BYTES_PER_ELEMENT = (1, 2, 4, 8)
DEFAULT_MLA_STREAMS = 2

FLOPS_PER_MULTIPLY_ADD = 2
SOFTMAX_FLOPS_PER_POSITION = 5

MLA_PATHS = ("reconstruct", "factored")


@dataclass(frozen=True)
class CostQuery:
    """A cache/FLOP accounting question: config plus deployment shape."""

    config: AttentionConfig
    T: int
    batch: int = 1
    bytes_per_element: int = 2
    mla_latent_streams: int = DEFAULT_MLA_STREAMS

    def __post_init__(self) -> None:
        for name, lo, hi in (("T", 0, None), ("batch", 1, None),
                             ("bytes_per_element", 1, None), ("mla_latent_streams", 1, 2)):
            object.__setattr__(self, name, require_int(name, getattr(self, name), lo, hi))
        if self.bytes_per_element not in VALID_BYTES_PER_ELEMENT:
            raise ConfigurationError(
                f"bytes_per_element must be one of {VALID_BYTES_PER_ELEMENT}, "
                f"got {self.bytes_per_element}"
            )


def cache_bytes(q: CostQuery) -> int:
    """KV-cache footprint in bytes for the whole model (all layers)."""
    c = q.config
    n = c.n_layers * q.batch * q.T * q.bytes_per_element
    if c.mechanism is Mechanism.MLA:
        return q.mla_latent_streams * n * c.d_c
    # K and V: a d_h row per K/V head, plus LRKV's rank-r latent per head.
    return 2 * n * (kv_heads(c) * c.d_h + c.H * residual_rank(c))


def cache_ratio(config: AttentionConfig) -> float:
    """Cache size relative to the full-cache baseline, in closed form.

    T, batch, and precision cancel, so this is a pure function of the
    config: 1 for MHA, 1/H for MQA, G/H for GQA, d_c/(H*d_h) for the latent
    mechanism (``DEFAULT_MLA_STREAMS`` = 2 streams of d_c against K and V),
    and 1/H + r/d_h for the low-rank mechanism.
    """
    if config.mechanism is Mechanism.MLA:
        return DEFAULT_MLA_STREAMS * config.d_c / (2.0 * config.H * config.d_h)
    return kv_heads(config) / config.H + residual_rank(config) / config.d_h


def kv_param_count(config: AttentionConfig) -> int:
    """K/V projection parameters per layer (queries excluded)."""
    return sum(math.prod(s) for name, s in tensor_shapes(config).items() if name != "wq")


def decode_flops_breakdown(q: CostQuery, mla_path: str = "reconstruct") -> dict[str, int]:
    """Per-layer FLOPs of one decode step, split by role.

    Components (each already summed over heads):
      proj_new_token  projecting the incoming token (queries, K/V rows,
                      latent rows)
      reconstruct     per-step materialization of per-head K/V from cached
                      latents (the latent mechanism's explicit path only)
      scan            Q.K and attn.V dot products over cached state, at the
                      width actually scanned
      lift            T-independent factor work (query/weight pushes through
                      the small factors)
      softmax         5 FLOPs per cached position per head

    The sum over components is the total returned by ``decode_flops``.
    """
    if mla_path not in MLA_PATHS:
        raise ConfigurationError(f"mla_path must be one of {MLA_PATHS}, got {mla_path!r}")
    c = q.config
    T, H, d, d_h = q.T, c.H, c.d, c.d_h
    ma = FLOPS_PER_MULTIPLY_ADD
    softmax = SOFTMAX_FLOPS_PER_POSITION * T * H
    if c.mechanism is Mechanism.MLA:
        proj = H * ma * d * d_h + ma * d * c.d_c
        if mla_path == "reconstruct":
            rec = H * 2 * ma * T * c.d_c * d_h
            scan = H * 2 * ma * T * d_h
            lift = 0
        else:
            rec = 0
            scan = H * 2 * ma * T * c.d_c
            lift = H * 2 * ma * c.d_c * d_h
    else:  # grouped K/V, explicit path; LRKV adds its rank-r terms, factored path
        r = residual_rank(c)
        proj = H * ma * d * d_h + 2 * ma * kv_heads(c) * d * d_h + H * 2 * ma * d * r
        rec = 0
        scan = H * (2 * ma * T * d_h + 2 * ma * T * r)
        lift = H * 2 * ma * r * d_h
    return {
        "proj_new_token": proj,
        "reconstruct": rec,
        "scan": scan,
        "lift": lift,
        "softmax": softmax,
    }


def decode_flops(q: CostQuery, mla_path: str = "reconstruct") -> tuple[int, float]:
    """(total FLOPs per decode step per layer, scan overhead vs baseline).

    The overhead compares scan + reconstruct + lift against the full-cache
    baseline's scan (2*ma*T*d_h per head); projections and softmax are
    excluded from the ratio. See the module docstring for why.
    """
    parts = decode_flops_breakdown(q, mla_path=mla_path)
    total = sum(parts.values())
    if q.T == 0:
        return total, 0.0
    mha_scan = q.config.H * 2 * FLOPS_PER_MULTIPLY_ADD * q.T * q.config.d_h
    attn_only = parts["scan"] + parts["reconstruct"] + parts["lift"]
    return total, (attn_only - mha_scan) / mha_scan


def ablation_table(
    base: AttentionConfig, ranks: list[int], T: int
) -> list[dict]:
    """Sweep the residual rank of a low-rank config; one row per rank.

    Rows carry the closed-form cache ratio (and its percent form), cache
    bytes at (T, batch 1, 2-byte elements), K/V parameter count, and the
    long-prefix scan overhead. Rank 0 is the fully shared end of the
    family; ranks above d_h buy nothing but are costed faithfully.
    """
    require_mechanism(base, "ablation_table", Mechanism.LRKV)
    rows: list[dict] = []
    for r in ranks:
        cfg = replace(base, r=r)
        q = CostQuery(config=cfg, T=T, batch=1, bytes_per_element=2)
        ratio = cache_ratio(cfg)
        flops, overhead = decode_flops(q)
        rows.append({
            "r": r,
            "cache_ratio": ratio,
            "cache_pct": 100.0 * ratio,
            "cache_bytes": cache_bytes(q),
            "kv_param_count": kv_param_count(cfg),
            "decode_flops": flops,
            "flops_overhead_vs_mha": overhead,
        })
    return rows


def cost_report(q: CostQuery) -> dict:
    """Cache bytes, byte ratio vs baseline and K/V parameters for one query:
    a dict of ``cache_bytes``, ``cache_ratio_vs_mha`` (against the full-cache
    baseline under the identical query) and ``kv_param_count``."""
    bytes_self = cache_bytes(q)
    mha_q = replace(q, config=replace(q.config, mechanism=Mechanism.MHA))
    bytes_mha = cache_bytes(mha_q)
    return {
        "cache_bytes": bytes_self,
        "cache_ratio_vs_mha": bytes_self / bytes_mha if bytes_mha else 0.0,
        "kv_param_count": kv_param_count(q.config),
    }
