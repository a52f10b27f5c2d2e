"""Attention mechanism configuration: the single source of shape truth.

Five mechanisms share one config record. A field is only meaningful for the
mechanisms that use it (r for LRKV, d_c for MLA, G for GQA), and operations
never read a field that is irrelevant to the configured mechanism; but every
field is checked whatever the mechanism, so a config holds no junk, each
integer field is stored as a Python int and the whole record serializes.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass, fields
from enum import Enum

from .errors import ConfigurationError, UnsupportedMechanismError


class Mechanism(str, Enum):
    MHA = "mha"
    MQA = "mqa"
    GQA = "gqa"
    MLA = "mla"
    LRKV = "lrkv"

    @classmethod
    def parse(cls, name: str) -> "Mechanism":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ConfigurationError(
                f"unknown mechanism {name!r}; expected one of "
                f"{[m.value for m in cls]}"
            ) from None


def require_mechanism(config: AttentionConfig, operation: str, *allowed: Mechanism) -> None:
    """Raise UnsupportedMechanismError unless ``config`` has one of the
    ``allowed`` mechanisms: the guard of every mechanism-only operation."""
    if config.mechanism not in allowed:
        raise UnsupportedMechanismError(
            f"{operation} is defined for {' or '.join(m.value for m in allowed)} only, "
            f"got {config.mechanism.value}"
        )


def require_int(name: str, value, lo: int, hi: int | None = None) -> int:
    """``value`` as an int in [lo, hi] (``hi`` None: unbounded), else a
    ConfigurationError naming ``name``. Rejects bools (``True`` is never a
    size); a numpy integer comes back as a Python int, for callers to store."""
    try:
        if isinstance(value, bool):
            raise TypeError
        v = operator.index(value)
    except TypeError:
        raise ConfigurationError(f"{name} must be an int, got {value!r}") from None
    if v < lo or (hi is not None and v > hi):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ConfigurationError(f"{name} must be {bound}, got {v}")
    return v


@dataclass(frozen=True)
class AttentionConfig:
    """Dimensions and flags for one attention layer.

    d:     model width
    H:     head count
    d_h:   head dimension (d = H * d_h)
    n_layers: layer count N — read only by the cost model
    r:     LRKV residual rank (0 = complete KV sharing)
    d_c:   MLA latent dimension
    G:     GQA KV-head (group) count
    qk_norm: RMSNorm on Q and K rows after projection
    softmax_scale: logit scale, defaults to 1/sqrt(d_h)
    """

    mechanism: Mechanism
    d: int
    H: int
    d_h: int
    n_layers: int = 1
    r: int = 0
    d_c: int = 1
    G: int = 1
    qk_norm: bool = False
    softmax_scale: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.mechanism, Mechanism):
            object.__setattr__(self, "mechanism", Mechanism.parse(str(self.mechanism)))
        for name in ("d", "H", "d_h", "n_layers"):
            object.__setattr__(self, name, require_int(name, getattr(self, name), 1))
        if self.d != self.H * self.d_h:
            raise ConfigurationError(
                f"d must equal H * d_h: d={self.d}, H={self.H}, d_h={self.d_h}"
            )
        object.__setattr__(self, "r", require_int("r", self.r, 0, self.d))
        object.__setattr__(self, "d_c", require_int("d_c", self.d_c, 1, self.d))
        object.__setattr__(self, "G", require_int("G", self.G, 1))
        if self.H % self.G != 0:
            raise ConfigurationError(f"G must divide H: H={self.H}, G={self.G}")
        if not isinstance(self.qk_norm, bool):
            raise ConfigurationError(f"qk_norm must be a bool, got {self.qk_norm!r}")
        s = self.softmax_scale
        if s is None:
            object.__setattr__(self, "softmax_scale", 1.0 / math.sqrt(self.d_h))
        elif (isinstance(s, bool) or not isinstance(s, numbers.Real)
              or not 0.0 < s <= sys.float_info.max):  # NaN fails every comparison
            raise ConfigurationError(f"softmax_scale must be a finite positive number, got {s!r}")
        else:
            object.__setattr__(self, "softmax_scale", float(s))

    def to_json_dict(self) -> dict:
        """Every field, in declaration order; the mechanism by its name."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["mechanism"] = self.mechanism.value
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "AttentionConfig":
        if not isinstance(obj, dict):
            raise ConfigurationError(f"config JSON must be an object, got {obj!r}")
        if "mechanism" not in obj:
            raise ConfigurationError("config JSON is missing the 'mechanism' field")
        extra = set(obj) - {f.name for f in fields(cls)}
        if extra:
            raise ConfigurationError(f"unknown config fields: {sorted(extra)}")
        kwargs = dict(obj)
        kwargs["mechanism"] = Mechanism.parse(str(obj["mechanism"]))
        return cls(**kwargs)


@dataclass(frozen=True)
class RngSpec:
    """The seed of a PCG64 generator; (seed, config) fully determines a WeightSet."""

    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", require_int("seed", self.seed, 0, 2**64 - 1))
