"""Model-scale presets: layer/head/width settings plus per-mechanism knobs.

Two low-rank residual ranks are in play:

    ``table_rank``     each preset's deployed rank (what the scale actually
                       runs with; drives the closed-form cache-ratio column
                       in memory reports)
    ``MEASURED_RANK``  the rank used for the measured cache-size rows, one
                       constant for every scale so the byte columns compare
                       like for like

``config_for`` builds an AttentionConfig for any mechanism at a preset; for
the low-rank mechanism the rank defaults to ``MEASURED_RANK``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import AttentionConfig, Mechanism
from .errors import ConfigurationError

MEASURED_RANK = 64


@dataclass(frozen=True)
class ScalePreset:
    name: str
    n_layers: int
    H: int
    d: int
    d_h: int
    G: int
    d_c: int
    table_rank: int


PRESETS: dict[str, ScalePreset] = {
    p.name: p
    for p in (
        ScalePreset("128M", n_layers=12, H=6, d=768, d_h=128,
                    G=3, d_c=128, table_rank=46),
        ScalePreset("512M", n_layers=24, H=12, d=1536, d_h=128,
                    G=4, d_c=256, table_rank=51),
        ScalePreset("1.2B", n_layers=24, H=12, d=1536, d_h=128,
                    G=4, d_c=256, table_rank=51),
        ScalePreset("2.5B", n_layers=18, H=18, d=2304, d_h=128,
                    G=6, d_c=384, table_rank=55),
        ScalePreset("6.3B", n_layers=32, H=32, d=4096, d_h=128,
                    G=2, d_c=1024, table_rank=54),
    )
}

PRESET_NAMES = tuple(PRESETS)


def get_preset(name: str) -> ScalePreset:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}"
        ) from None


def config_for(
    preset: str | ScalePreset,
    mechanism: str | Mechanism,
    rank: int | None = None,
) -> AttentionConfig:
    """AttentionConfig for one mechanism at one scale.

    ``rank`` applies to the low-rank mechanism only (None picks
    MEASURED_RANK); other mechanisms take their knobs (G, d_c) straight
    from the preset.
    """
    p = get_preset(preset) if isinstance(preset, str) else preset
    m = Mechanism.parse(mechanism) if isinstance(mechanism, str) else mechanism
    r = 0
    if m is Mechanism.LRKV:
        r = MEASURED_RANK if rank is None else rank
    return AttentionConfig(
        mechanism=m,
        d=p.d,
        H=p.H,
        d_h=p.d_h,
        n_layers=p.n_layers,
        r=r,
        d_c=p.d_c,
        G=p.G,
    )
