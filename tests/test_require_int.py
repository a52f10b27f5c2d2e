"""``config.require_int``: the one guard of every integer size.

Each guarded argument rejects a fraction and a bool with a ConfigurationError
that names it, and takes a numpy integer, which it stores as a Python int.
"""

import json

import numpy as np
import pytest

from attnlab import (
    AttentionConfig,
    ConfigurationError,
    CostQuery,
    Mechanism,
    RngSpec,
    empty_cache,
    equivalence_report,
    gradcheck_rows,
    init_weights,
    prefill,
)
from attnlab.config import require_int

LRKV = AttentionConfig(mechanism=Mechanism.LRKV, d=8, H=2, d_h=4, r=2)


def _config_field(mechanism, field):
    def build(v):
        kw = dict(mechanism=mechanism, d=8, H=2, d_h=4, n_layers=3, r=2, d_c=5, G=2)
        config = AttentionConfig(**{**kw, field: v})
        json.dumps(config.to_json_dict())  # stored as int: still serialisable
        return getattr(config, field)
    return build


def _prefill_capacity(v):
    X = np.ones((2, LRKV.d))
    return prefill(init_weights(LRKV, RngSpec(seed=0)), LRKV, X, capacity=v).capacity


# name in the message -> (call with the value, returns what was stored; a legal value)
GUARDED = {
    "d": (_config_field(Mechanism.MHA, "d"), 8),
    "H": (_config_field(Mechanism.MHA, "H"), 2),
    "d_h": (_config_field(Mechanism.MHA, "d_h"), 4),
    "n_layers": (_config_field(Mechanism.MHA, "n_layers"), 3),
    "G": (_config_field(Mechanism.GQA, "G"), 2),
    "r": (_config_field(Mechanism.LRKV, "r"), 2),
    "d_c": (_config_field(Mechanism.MLA, "d_c"), 5),
    "seed": (lambda v: RngSpec(seed=v).seed, 7),
    "T": (lambda v: CostQuery(config=LRKV, T=v).T, 4),
    "batch": (lambda v: CostQuery(config=LRKV, T=4, batch=v).batch, 3),
    "bytes_per_element": (lambda v: CostQuery(config=LRKV, T=4, bytes_per_element=v)
                          .bytes_per_element, 4),
    "mla_latent_streams": (lambda v: CostQuery(config=LRKV, T=4, mla_latent_streams=v)
                           .mla_latent_streams, 1),
    "capacity": (lambda v: empty_cache(LRKV, v).capacity, 5),
    "capacity-prefill": (_prefill_capacity, 5),
    "T-equivalence": (lambda v: equivalence_report(LRKV, RngSpec(seed=0), T=v, trials=1)
                      [0]["T"], 2),
    "trials": (lambda v: len(equivalence_report(LRKV, RngSpec(seed=0), T=2, trials=v)), 2),
    "instances": (lambda v: len({row["instance"] for row in gradcheck_rows(
        LRKV, RngSpec(seed=0), instances=v)}), 1),
}


@pytest.mark.parametrize("bad", [2.5, True], ids=["fraction", "bool"])
@pytest.mark.parametrize("key", GUARDED)
def test_guarded_size_rejects_fractions_and_bools(key, bad):
    build, _ = GUARDED[key]
    name = key.partition("-")[0]
    with pytest.raises(ConfigurationError, match=rf"^{name} must be an int, got {bad!r}$"):
        build(bad)


@pytest.mark.parametrize("key", GUARDED)
def test_guarded_size_stores_numpy_ints_as_int(key):
    build, legal = GUARDED[key]
    got = build(np.int64(legal))
    assert type(got) is int and got == legal


def test_require_int_bounds_and_types():
    assert require_int("n", np.uint64(2**64 - 1), 0) == 2**64 - 1
    assert require_int("n", 3, 3, 3) == 3
    with pytest.raises(ConfigurationError, match=r"^n must be >= 1, got 0$"):
        require_int("n", 0, 1)
    with pytest.raises(ConfigurationError, match=r"^n must be in \[0, 4\], got 5$"):
        require_int("n", 5, 0, 4)
    for bad in ("3", 3.0, np.float64(3.0), np.True_, None):
        with pytest.raises(ConfigurationError, match="^n must be an int"):
            require_int("n", bad, 0)
