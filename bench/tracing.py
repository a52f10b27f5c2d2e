"""Spans for the traced run, recorded around the calls one attnlab layer makes into another.

Only the traced run builds a ``Tracer`` and installs its wrappers; the
untraced run gets a ``NullTracer``, whose request and allocation-count
contexts do nothing, so no wrapper and no alloc hook is ever in place while
end-to-end metrics are measured.

Wrappers replace module attributes, so they see every call that goes through
the module namespace: the benchmark's own calls (``cache.prefill``) and the
library's internal ones (``prefill`` calling ``append_token``, the CLI calling
``read_archive``). Spans stay in memory and are written out once, when the
run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from contextlib import contextmanager, nullcontext

import attnlab.costs as costs

# Cost-model phase names, keyed by the names decode_flops_breakdown uses.
PHASES = {"proj_new_token": "project", "reconstruct": "reconstruct",
          "scan": "scan", "lift": "lift", "softmax": "softmax"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "attrs")

    def __init__(self, name: str, start: int, parent: int, request: str | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.attrs = None

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * 1e-9


@functools.lru_cache(maxsize=8192)
def _phase_flops(config, T: int, mla_path: str) -> dict[str, int]:
    parts = costs.decode_flops_breakdown(costs.CostQuery(config=config, T=T), mla_path)
    return {PHASES[k]: v for k, v in parts.items()}


def _decode_attrs(name: str, args: tuple, result) -> dict:
    """T, path and the closed-form FLOPs of each phase of one decode step."""
    cache, config = args[0], args[2]
    path = "factored" if name == "cache.decode_factored" else "explicit"
    attrs = {"T": cache.length, "path": path}
    # The cost model prices lrkv along its factored path only.
    if not (path == "explicit" and config.mechanism.value == "lrkv"):
        mla_path = "factored" if path == "factored" else "reconstruct"
        attrs["flops"] = _phase_flops(config, cache.length, mla_path)
    return attrs


def _read_attrs(name: str, args: tuple, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _write_attrs(name: str, args: tuple, result) -> dict:
    return {"bytes": os.path.getsize(args[1])}


# (module, attribute, span name, attributes computed after the call)
TRACED = (
    ("attnlab.weights", "init_weights", "weights.init_weights", None),
    ("attnlab.cache", "init_weights", "weights.init_weights", None),
    ("attnlab.cli", "init_weights", "weights.init_weights", None),
    ("attnlab.cache", "prefill", "cache.prefill", None),
    ("attnlab.cache", "append_token", "cache.append_token", None),
    ("attnlab.cache", "decode_explicit", "cache.decode_explicit", _decode_attrs),
    ("attnlab.cache", "decode_factored", "cache.decode_factored", _decode_attrs),
    ("attnlab.cli", "equivalence_report", "cache.equivalence_report", None),
    ("attnlab.cli", "read_archive", "archive.read_archive", _read_attrs),
    ("attnlab.cli", "write_archive", "archive.write_archive", _write_attrs),
    ("attnlab.cli", "diversity_report", "diversity.diversity_report", None),
    ("attnlab.cli", "factorization_gap", "diversity.factorization_gap", None),
    ("attnlab.diversity", "gram", "diversity.gram", None),
    ("attnlab.diversity", "spectrum", "diversity.spectrum", None),
    ("attnlab.diversity", "svd_truncate", "diversity.svd_truncate", None),
    ("attnlab.diversity", "jacobi_eigh", "jacobi.jacobi_eigh", None),
    ("attnlab.cli", "run_cli", "cli.run_cli", None),
)


class _ElementCounter:
    """Alloc hook: counts the elements of every transient a decode step reports."""

    def __init__(self) -> None:
        self.elements = 0

    def __call__(self, tag: str, shape: tuple) -> None:
        n = 1
        for s in shape:
            n *= int(s)
        self.elements += n


class NullTracer:
    """Stands in for the tracer in the untraced run: records nothing."""

    def request(self, name: str):
        return nullcontext()

    def counting_allocs(self, key: str):
        return nullcontext()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.allocs: dict[str, int] = {}
        self._stack: list[int] = []
        self._request: str | None = None

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter_ns(), parent, self._request)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def request(self, name: str):
        """Attribute every span opened inside to request ``name``."""
        prev = self._request
        self._request = name
        span = self._open("bench.request")
        try:
            yield
        finally:
            self._close(span)
            self._request = prev

    @contextmanager
    def counting_allocs(self, key: str):
        """Count transient elements with attnlab's alloc hook while inside."""
        import attnlab.cache as kv

        counter = _ElementCounter()
        prev = kv.set_alloc_hook(counter)
        try:
            yield
        finally:
            kv.set_alloc_hook(prev)
            self.allocs[key] = self.allocs.get(key, 0) + counter.elements

    def _wrap(self, fn, name: str, attrs_fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if attrs_fn is not None:
                span.attrs = attrs_fn(name, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Replace the traced functions with span-recording wrappers while inside."""
        saved = []
        try:
            for module_name, attr, name, attrs_fn in TRACED:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, attrs_fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    # -- reading the spans ------------------------------------------------

    def select(self, name: str, request=None) -> list[Span]:
        """Spans called ``name`` whose request is ``request`` or starts with it + '/'."""
        out = []
        for s in self.spans:
            if s.name != name:
                continue
            if request is not None and s.request != request and not (
                s.request or ""
            ).startswith(request + "/"):
                continue
            out.append(s)
        return out

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [(s.end - s.start - c) * 1e-9 for s, c in zip(self.spans, child)]

    def parent_name(self, span: Span) -> str | None:
        return self.spans[span.parent].name if span.parent >= 0 else None

    def write(self, path) -> None:
        self_s = self.self_seconds()
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": s.name, "start_ns": s.start, "end_ns": s.end,
                    "parent": s.parent, "request": s.request,
                    "self_s": self_s[i], "attrs": s.attrs,
                }, separators=(",", ":")) + "\n")
