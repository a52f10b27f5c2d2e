import pytest

from attnlab import (
    ConfigurationError,
    Mechanism,
    PRESET_NAMES,
    PRESETS,
    config_for,
    get_preset,
)
from attnlab.presets import MEASURED_RANK


def test_the_five_scale_points_exist():
    assert PRESET_NAMES == ("128M", "512M", "1.2B", "2.5B", "6.3B")
    assert set(PRESETS) == set(PRESET_NAMES)


@pytest.mark.parametrize("name,n_layers,H,d,G,d_c,table_rank", [
    ("128M", 12, 6, 768, 3, 128, 46),
    ("512M", 24, 12, 1536, 4, 256, 51),
    ("1.2B", 24, 12, 1536, 4, 256, 51),
    ("2.5B", 18, 18, 2304, 6, 384, 55),
    ("6.3B", 32, 32, 4096, 2, 1024, 54),
])
def test_preset_table(name, n_layers, H, d, G, d_c, table_rank):
    p = get_preset(name)
    assert (p.n_layers, p.H, p.d, p.G, p.d_c) == (n_layers, H, d, G, d_c)
    assert p.d_h == 128
    assert p.d == p.H * p.d_h
    assert p.table_rank == table_rank
    assert p.H % p.G == 0


def test_get_preset_rejects_unknown():
    with pytest.raises(ConfigurationError):
        get_preset("70B")


def test_config_for_each_mechanism():
    p = get_preset("128M")
    for mechanism in Mechanism:
        c = config_for(p, mechanism)
        assert (c.d, c.H, c.d_h, c.n_layers) == (768, 6, 128, 12)
        assert c.mechanism is mechanism
    assert config_for(p, Mechanism.GQA).G == 3
    assert config_for(p, Mechanism.MLA).d_c == 128


def test_config_for_rank_handling():
    p = get_preset("128M")
    assert MEASURED_RANK == 64
    assert config_for(p, Mechanism.LRKV).r == MEASURED_RANK
    assert config_for(p, Mechanism.LRKV, rank=46).r == 46
    # rank is a low-rank knob; other mechanisms never read r
    assert config_for(p, Mechanism.MHA).r == 0


def test_config_for_accepts_plain_strings():
    assert config_for("512M", "gqa").G == 4
