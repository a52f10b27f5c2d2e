"""Sweep random attention configs and check factored-vs-explicit decode agreement.

For every sampled config the cache is prefilled, then a few tokens are decoded
through both the explicit-reconstruction path and the factored path in
lockstep; the script reports the worst logit/output discrepancy seen per
mechanism and dtype. Everything here should sit at float-roundoff level --
any value near 1e-6 for float64 means a real bug, not noise.
"""

import argparse
import time

import numpy as np

from attnlab import (
    AttentionConfig,
    Mechanism,
    RngSpec,
    equivalence_report,
)


def sample_config(rng: np.random.Generator, mechanism: Mechanism) -> AttentionConfig:
    H = int(rng.integers(2, 9))
    d_h = int(rng.choice([8, 16, 32, 64]))
    d = H * d_h
    kwargs = {}
    if mechanism is Mechanism.LRKV:
        kwargs["r"] = int(rng.integers(0, d_h + 1))
    if mechanism is Mechanism.MLA:  # the latent is no wider than the model
        kwargs["d_c"] = int(rng.choice([c for c in (8, 16, 32, 64) if c <= d]))
    return AttentionConfig(mechanism=mechanism, d=d, H=H, d_h=d_h, **kwargs)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--configs", type=int, default=20, help="configs per mechanism")
    ap.add_argument("--tokens", type=int, default=96)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    t0 = time.perf_counter()
    print(f"{'mechanism':>10} {'dtype':>8} {'configs':>8} {'worst logit':>12} {'worst out':>12}")
    for mechanism in (Mechanism.LRKV, Mechanism.MLA):
        for dtype in (np.float64, np.float32):
            worst_logit = 0.0
            worst_out = 0.0
            for _ in range(args.configs):
                config = sample_config(rng, mechanism)
                rows = equivalence_report(
                    config,
                    seed=RngSpec(seed=int(rng.integers(0, 2**31))),
                    T=args.tokens,
                    trials=1,
                    dtype=dtype,
                )
                for row in rows:
                    worst_logit = max(worst_logit, row["max_logit_diff"])
                    worst_out = max(worst_out, row["max_out_diff"])
            name = np.dtype(dtype).name
            print(
                f"{mechanism.value:>10} {name:>8} {args.configs:>8} "
                f"{worst_logit:>12.3e} {worst_out:>12.3e}"
            )
    print(f"done in {time.perf_counter() - t0:.1f}s")


if __name__ == "__main__":
    main()
