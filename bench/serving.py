"""Serving: prefill a prompt, then decode, through every layer cache of the 128M preset.

Each of the preset's layers has its own seeded weights and its own cache, so
a decode step streams every layer's weights, as a real model does. Every
layer sees the same token stream: prefill returns no layer outputs that
could feed the next layer, so the layers are not chained.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass

import numpy as np

import attnlab.attention as attention
import attnlab.cache as kv
import attnlab.presets as presets
import attnlab.weights as wts
from attnlab.config import AttentionConfig, RngSpec
from attnlab.errors import LabError
from attnlab.weights import WeightSet

from common import derive_seed, max_abs_diff, median, percentile

PRESET = "128M"
MECHANISMS = ("mha", "mqa", "gqa", "mla", "lrkv")
# Served on decode_factored; the rest are served on decode_explicit.
FACTORED = ("mla", "lrkv")
TOL = 1e-9
# Prompt tokens of a prefill turn: a prefix of the workload's prompt, short
# enough that a turn is a few tens of milliseconds (see prefill_turn).
PREFILL_TURN_TOKENS = 32
# The K/V-side tensors an append reads for every token (queries are read by decode).
APPEND_TENSORS = ("wk", "wv", "wk_shared", "wv_shared", "wdown", "uk", "uv")


@dataclass
class Model:
    configs: dict[str, AttentionConfig]
    layers: dict[str, list[WeightSet]]
    tokens: np.ndarray  # (prompt + steps, d)
    prompt: int
    checked_layer: dict[str, int]  # the layer whose outputs are checked, per mechanism


def build(seed: int, prompt: int, steps: int) -> Model:
    """Weights for every layer of every mechanism, plus the token stream."""
    p = presets.get_preset(PRESET)
    configs = {m: presets.config_for(p, m) for m in MECHANISMS}
    gen = np.random.Generator(np.random.PCG64(derive_seed(seed, "tokens")))
    tokens = gen.standard_normal((prompt + steps, p.d))
    layers, checked = {}, {}
    for m, c in configs.items():
        layers[m] = [wts.init_weights(c, RngSpec(seed=derive_seed(seed, "weights", m, i)))
                     for i in range(p.n_layers)]
        checked[m] = derive_seed(seed, "checked-layer", m) % p.n_layers
    return Model(configs, layers, tokens, prompt, checked)


@dataclass
class Request:
    prefill_tokens: int     # prompt tokens of each layer prefill
    prefill_s: list[float]  # one per layer
    step_s: list[float]     # one per generated token, through every layer
    cache_bytes: int | None  # cache payload over all layers (None: prefill turn, cut short)


def serve(model: Model, tally, tracer, every=0, between=None, stop=None) -> dict[str, Request]:
    """One request per mechanism: prefill the prompt into every layer, then decode.

    The mechanisms take turns, one layer prefill or one decode step at a
    time, so a burst of noise on the machine lands on all of them alike
    instead of on one mechanism's whole sample. With ``every`` > 0,
    ``between()`` runs after every ``every`` turns, outside the timed
    regions. Once ``stop()`` is true after a turn, the request ends there:
    it keeps its samples, but is not checked and has no ``cache_bytes``. A
    mechanism whose call raises LabError counts one failed operation and
    drops out of the request.

    The final step is checked, outside the timed regions, against
    forward_attention and (factored paths) against decode_explicit on a copy
    of the cache taken just before the step.
    """
    X, P = model.tokens, model.prompt
    K = len(X) - P
    live = list(MECHANISMS)
    caches = {m: [] for m in MECHANISMS}
    prefill_s = {m: [] for m in MECHANISMS}
    step_s = {m: [] for m in MECHANISMS}
    outs, shadows = {}, {}

    def attempt(m, fn):
        try:
            with tracer.request(f"serve/{m}"):
                fn()
        except LabError as e:
            tally.fail(f"serve {m}: {type(e).__name__}: {e}")
            live.remove(m)

    def prefill_layer(m, i):
        caches[m].append(_timed_prefill(model, m, i, P, prefill_s[m]))
        tally.done()

    def decode_step(m, k):
        ws, c = model.layers[m], model.configs[m]
        decode = kv.decode_factored if m in FACTORED else kv.decode_explicit
        x = X[P + k]
        if k == K - 1 and m in FACTORED:
            shadows[m] = copy.deepcopy(caches[m][model.checked_layer[m]])
        with tracer.counting_allocs(m):
            t0 = time.perf_counter()
            out = [decode(cache, w, c, x) for cache, w in zip(caches[m], ws)]
            step_s[m].append(time.perf_counter() - t0)
        outs[m] = out[model.checked_layer[m]]
        tally.done()

    turns = 0

    def turn_done() -> bool:
        """Run ``between`` when due; true when the request is to stop here."""
        nonlocal turns
        turns += 1
        if every and turns % every == 0:
            between()
        return stop is not None and stop()

    def cut_short():
        return {m: Request(P, prefill_s[m], step_s[m], None) for m in live}

    for i in range(len(model.layers[MECHANISMS[0]])):
        for m in list(live):
            attempt(m, lambda: prefill_layer(m, i))
        if turn_done():
            return cut_short()
    cache_bytes = {m: sum(cache.payload_nbytes() for cache in caches[m]) for m in live}
    for k in range(K):
        for m in list(live):
            attempt(m, lambda: decode_step(m, k))
        if turn_done() and k < K - 1:
            return cut_short()
    caches.clear()

    with tracer.request("check"):
        for m in live:
            _check(model, m, outs[m], shadows.get(m), tally)
    return {m: Request(P, prefill_s[m], step_s[m], cache_bytes[m]) for m in live}


def prefill_turn(model: Model, tally, tracer, i: int) -> dict[str, Request]:
    """Prefill a prompt prefix into a fresh cache of layer ``i``, once per mechanism.

    A workload runs these between the turns of its requests, so its prefill
    samples are many, short and spread over the whole run instead of a few
    long ones bunched at each request's start. An append costs the same at
    any cache length, so a prefix prefills at the prompt's rate per token.
    The caches are dropped; a returned request holds only its one sample.
    """
    P = min(model.prompt, PREFILL_TURN_TOKENS)
    done = {}
    for m in MECHANISMS:
        prefill_s = []
        try:
            with tracer.request(f"prefill/{m}"):
                _timed_prefill(model, m, i, P, prefill_s)
        except LabError as e:
            tally.fail(f"prefill {m}: {type(e).__name__}: {e}")
            continue
        tally.done()
        done[m] = Request(P, prefill_s, [], None)
    return done


def _timed_prefill(model: Model, m: str, i: int, P: int, into: list[float]):
    """Prefill the first ``P`` prompt tokens into a cache with room for the whole request."""
    w, c = model.layers[m][i], model.configs[m]
    t0 = time.perf_counter()
    cache = kv.prefill(w, c, model.tokens[:P], capacity=len(model.tokens))
    into.append(time.perf_counter() - t0)
    return cache


def _prefill_s_per_token(requests: list[Request]) -> list[float]:
    return [t / r.prefill_tokens for r in requests for t in r.prefill_s]


def _check(model: Model, m: str, final, shadow, tally) -> None:
    i, c, X = model.checked_layer[m], model.configs[m], model.tokens
    w = model.layers[m][i]
    ref = attention.forward_attention(w, c, X)[-1]
    tally.check(max_abs_diff(final.concat_out(), ref) <= TOL,
                f"{m} layer {i}: last decode step differs from forward_attention")
    if shadow is not None:
        explicit = kv.decode_explicit(shadow, w, c, X[-1])
        diff = max(max_abs_diff(explicit.logits, final.logits),
                   max_abs_diff(explicit.out, final.out))
        tally.check(diff <= TOL,
                    f"{m} layer {i}: factored step differs from decode_explicit by {diff:g}")


def end_to_end(model: Model, requests: dict[str, list[Request]]) -> dict[str, float]:
    """Prompt and generated tokens per second through all layers, per mechanism.

    Prefill inverts the layer count times the median layer prefill per
    prompt token; decode inverts the median step (see common.median).
    """
    out = {}
    n_layers = len(next(iter(model.layers.values())))
    for m in MECHANISMS:
        token_s = median(_prefill_s_per_token(requests[m]))
        out[f"prefill_tok_per_s.{m}"] = 1.0 / (n_layers * token_s)
    for m in MECHANISMS:
        out[f"decode_tok_per_s.{m}"] = 1.0 / median([t for r in requests[m] for t in r.step_s])
    return out


def median_serving_s(requests: dict[str, list[Request]]) -> float:
    """Median layer prefill per token plus median decode step, summed over mechanisms."""
    return sum(median(_prefill_s_per_token(requests[m]))
               + median([t for r in requests[m] for t in r.step_s]) for m in MECHANISMS)


def layer_metrics(model: Model, tracer, requests: dict[str, list[Request]]) -> dict[str, float]:
    """Per-layer cache metrics from the traced serving requests."""
    out = {}
    for m in MECHANISMS:
        req = f"serve/{m}"
        w = model.layers[m][0]
        steps = sum(len(r.step_s) for r in requests[m])
        prefill_us = median([s.seconds for s in tracer.select("cache.prefill", req)]) \
            / model.prompt * 1e6
        decodes = tracer.select("cache.decode_factored" if m in FACTORED
                                else "cache.decode_explicit", req)
        decode_us = [s.seconds * 1e6 for s in decodes]
        flops = sum(sum(s.attrs["flops"].values()) for s in decodes)
        append_bytes = _append_bytes(w)
        out[f"cache.prefill_us_per_tok.{m}"] = prefill_us
        out[f"cache.append_us_p50.{m}"] = median(
            [s.seconds * 1e6 for s in tracer.select("cache.append_token", req)])
        out[f"cache.prefill_gbps_computed.{m}"] = append_bytes / prefill_us * 1e-3
        out[f"cache.decode_step_us_p50.{m}"] = median(decode_us)
        out[f"cache.decode_step_us_p95.{m}"] = percentile(decode_us, 95)
        out[f"cache.decode_gflops.{m}"] = flops / (sum(decode_us) * 1e3)
        out[f"cache.decode_flops_per_tok.{m}"] = flops / steps
        out[f"cache.transient_elems_per_step.{m}"] = tracer.allocs[m] / len(decodes)
        out[f"cache.bytes.{m}"] = float(next(
            r.cache_bytes for r in requests[m] if r.cache_bytes is not None))
    return out


def _append_bytes(w: WeightSet) -> int:
    """Weight bytes one append reads, computed from the tensors' sizes."""
    total = 0
    for name in APPEND_TENSORS:
        value = getattr(w, name)
        if value is None:
            continue
        for t in value if isinstance(value, tuple) else (value,):
            total += t.nbytes
    return total
