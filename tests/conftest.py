import pytest

from attnlab import Mechanism, gqa_group


def _per_head_kv(w, config, h):
    """Head h's (d, d_h) K/V projections by the per-head formulas, one head
    at a time: the reference for the stacked K/V expansion."""
    if config.mechanism is Mechanism.MLA:
        return w.wdown @ w.wup_k[h], w.wdown @ w.wup_v[h]
    if config.mechanism is Mechanism.LRKV and config.r > 0:
        return w.wk_shared + w.uk[h] @ w.bk[h].T, w.wv_shared + w.uv[h] @ w.bv[h].T
    if w.wk is None:
        return w.wk_shared, w.wv_shared
    g = gqa_group(h, config.H, len(w.wk))
    return w.wk[g], w.wv[g]


@pytest.fixture
def per_head_kv():
    return _per_head_kv
