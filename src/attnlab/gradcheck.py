"""Finite-difference validation of the factorized-projection gradients.

The loss probed here is the generic linear functional

    f = sum_h <G_h, X (W_shared + U_h B_h^T)>_F

with fixed random cotangents G_h — exactly the contraction any downstream
gradient flows through, so agreement on it validates projection_backward
for arbitrary upstream gradients. Heads are handled as stacks: the loss is
X times the one K/V expansion (``effective_weights``) of the perturbed
factors, the cotangents one (H, T, d_h) draw and the analytic gradients one
projection_backward call. The shared base receives the sum of all heads'
contributions, which is checked as a whole; each head's U_h and B_h is
checked on its own row.

Small tensors are checked entry by entry with central differences; tensors
above ``MAX_ELEMENTS`` fall back to directional derivatives along random
unit directions (still central differences, just projected), which keeps
the check tractable at large widths. Each row reports which mode ran.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .config import AttentionConfig, Mechanism, RngSpec, require_int, require_mechanism
from .weights import effective_weights, init_weights, projection_backward

_MASK64 = (1 << 64) - 1

GRADCHECK_TOL = 1e-4
DEFAULT_EPS = 1e-6
DEFAULT_T = 4
MAX_ELEMENTS = 4096  # larger tensors are checked along random directions
N_DIRECTIONS = 8


def _loss(K, cotangents):
    # Heads are summed in order (cumsum is sequential; np.sum and the builtin
    # sum need not be), which keeps the bits of a per-head ``+=`` loop.
    return float(np.cumsum(np.sum(cotangents * K, axis=(1, 2)))[-1])


def _fd_elementwise(loss_at, param):
    grad = np.zeros_like(param)
    it = np.nditer(param, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = param[idx]
        param[idx] = orig + DEFAULT_EPS
        up = loss_at()
        param[idx] = orig - DEFAULT_EPS
        down = loss_at()
        param[idx] = orig
        grad[idx] = (up - down) / (2.0 * DEFAULT_EPS)
    return grad


def _relative_error(analytic, fd):
    denom = max(float(np.linalg.norm(fd)), 1e-12)
    return float(np.linalg.norm(analytic - fd)) / denom


def _directional_error(loss_at, param, analytic, gen):
    base = param.copy()
    worst = 0.0
    for _ in range(N_DIRECTIONS):
        delta = gen.standard_normal(param.shape)
        delta /= np.linalg.norm(delta)
        analytic_dd = float(np.sum(analytic * delta))
        param[...] = base + DEFAULT_EPS * delta
        up = loss_at()
        param[...] = base - DEFAULT_EPS * delta
        down = loss_at()
        param[...] = base
        fd_dd = (up - down) / (2.0 * DEFAULT_EPS)
        worst = max(worst, abs(analytic_dd - fd_dd) / max(abs(fd_dd), 1e-12))
    return worst


def gradcheck_rows(
    config: AttentionConfig, seed: RngSpec, instances: int = 20
) -> list[dict]:
    """Compare projection_backward against central differences.

    One row per (instance, path, parameter tensor) with the relative error
    and the finite-difference mode used. The shared-base row checks the
    per-head-summed gradient.
    """
    require_mechanism(config, "gradcheck_rows", Mechanism.LRKV)
    instances = require_int("instances", instances, 1)
    rows: list[dict] = []
    for instance in range(instances):
        inst_seed = (seed.seed + instance) & _MASK64
        w = init_weights(config, RngSpec(seed=inst_seed))
        gen = np.random.Generator(np.random.PCG64(inst_seed).jumped())
        X = gen.standard_normal((DEFAULT_T, config.d))
        for path in ("k", "v"):
            # The perturbations write into these copies, held by ``perturbed``.
            names = (f"w{path}_shared", f"u{path}", f"b{path}")
            perturbed = replace(w, **{name: getattr(w, name).copy() for name in names})
            shared, us, bs = (getattr(perturbed, name) for name in names)
            cotangents = gen.standard_normal((config.H, DEFAULT_T, config.d_h))
            dWshared, dU, dB = projection_backward(w, config, X, cotangents, path=path)

            def loss_at():
                return _loss(X @ effective_weights(perturbed, config, path), cotangents)

            # This order fixes _directional_error's draws: w_shared, u.0, b.0, u.1, ...
            targets = [("w_shared", shared, dWshared)] + [
                target for h, (u, du, b, db) in enumerate(zip(us, dU, bs, dB))
                for target in ((f"u.{h}", u, du), (f"b.{h}", b, db))
            ]
            for name, param, analytic in targets:
                if param.size == 0:
                    continue
                if param.size <= MAX_ELEMENTS:
                    fd = _fd_elementwise(loss_at, param)
                    rel = _relative_error(analytic, fd)
                    mode = "elementwise"
                else:
                    rel = _directional_error(loss_at, param, analytic, gen)
                    mode = "directional"
                rows.append({
                    "instance": instance,
                    "path": path,
                    "target": name,
                    "fd_mode": mode,
                    "rel_err": rel,
                })
    return rows
