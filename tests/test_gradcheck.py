import numpy as np
import pytest

from attnlab import (
    AttentionConfig,
    ConfigurationError,
    Mechanism,
    RngSpec,
    UnsupportedMechanismError,
    effective_weights,
    gradcheck_rows,
    init_weights,
)
from attnlab.gradcheck import GRADCHECK_TOL, _loss


def test_small_instance_passes_at_tolerance():
    config = AttentionConfig(mechanism=Mechanism.LRKV, d=24, H=2, d_h=12, r=3)
    rows = gradcheck_rows(config, RngSpec(seed=0), instances=3)
    assert rows
    targets = {row["target"] for row in rows}
    assert "w_shared" in targets and "u.0" in targets and "b.1" in targets
    for row in rows:
        assert row["path"] in ("k", "v")
        assert row["rel_err"] <= GRADCHECK_TOL, row


def test_small_parameters_use_elementwise_differences():
    config = AttentionConfig(mechanism=Mechanism.LRKV, d=24, H=2, d_h=12, r=3)
    rows = gradcheck_rows(config, RngSpec(seed=1), instances=1)
    modes = {row["target"]: row["fd_mode"] for row in rows}
    assert modes["u.0"] == "elementwise"  # 24*3 = 72 elements, well under cap


def test_large_shared_base_switches_to_directional():
    config = AttentionConfig(mechanism=Mechanism.LRKV, d=96, H=2, d_h=48, r=2)
    rows = gradcheck_rows(config, RngSpec(seed=2), instances=1)
    modes = {row["target"]: row["fd_mode"] for row in rows}
    assert modes["w_shared"] == "directional"  # 96*48 elements over the cap
    for row in rows:
        assert row["rel_err"] <= GRADCHECK_TOL


def test_rank_zero_skips_empty_factors():
    config = AttentionConfig(mechanism=Mechanism.LRKV, d=24, H=2, d_h=12, r=0)
    rows = gradcheck_rows(config, RngSpec(seed=3), instances=1)
    targets = {row["target"] for row in rows}
    assert targets == {"w_shared"}  # zero-size U/B carry no gradient to check
    for row in rows:
        assert row["rel_err"] <= GRADCHECK_TOL


def test_rejects_other_mechanisms():
    config = AttentionConfig(mechanism=Mechanism.MHA, d=24, H=2, d_h=12)
    with pytest.raises(UnsupportedMechanismError):
        gradcheck_rows(config, RngSpec(seed=0))


@pytest.mark.parametrize("instances", [0, -3])
def test_no_instances_is_a_configuration_error(instances):
    config = AttentionConfig(mechanism=Mechanism.LRKV, d=24, H=2, d_h=12, r=3)
    with pytest.raises(ConfigurationError, match="instances"):
        gradcheck_rows(config, RngSpec(seed=0), instances=instances)


def _per_head_loss(X, cotangents, shared, us, bs):
    """The probed loss one head at a time, summed by ``+=`` in head order."""
    total = 0.0
    for h in range(len(cotangents)):
        K = X @ (shared + us[h] @ bs[h].T)
        total += float(np.sum(cotangents[h] * K))
    return total


@pytest.mark.parametrize("r", [0, 3])
@pytest.mark.parametrize("H", [2, 9, 12])
def test_stacked_loss_matches_per_head_sum_bitwise(H, r):
    config = AttentionConfig(mechanism=Mechanism.LRKV, d=H * 4, H=H, d_h=4, r=r)
    w = init_weights(config, RngSpec(seed=6))
    gen = np.random.default_rng(7)
    X = gen.standard_normal((5, config.d))
    cotangents = gen.standard_normal((H, 5, config.d_h))
    for path, factors in (("k", (w.wk_shared, w.uk, w.bk)), ("v", (w.wv_shared, w.uv, w.bv))):
        K = X @ effective_weights(w, config, path)
        assert _loss(K, cotangents) == _per_head_loss(X, cotangents, *factors)
