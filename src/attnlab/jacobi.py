"""Round-robin Jacobi eigendecomposition for small symmetric matrices.

The spectral analysis in this package runs on matrices no bigger than a few
hundred on a side (head-count Gram matrices, d_h x d_h squares of
projections), where Jacobi sweeps are plenty fast, fully deterministic, and
easy to audit.

A sweep visits every off-diagonal pair (p, q) once, in the round-robin order
of Brent & Luk (1985, "The solution of singular-value and symmetric
eigenvalue problems on multiprocessor arrays"): the pairs are split into
rounds whose pairs are disjoint (``round_robin``). Disjoint rotations
commute, so a round's rotations form one orthogonal J, and the round applies
all of them at once as J^T A J. The matrix is kept in the current round's
order, with each pair on adjacent rows and columns, so J is block diagonal
with 2x2 blocks: a round is one batched 2x2 product on the rows (of A and of
the transposed eigenvectors), one on the columns of A, and a symmetric
permutation into the next round's order. Convergence is declared when the
off-diagonal Frobenius norm, tested once per sweep, drops below a relative
threshold.

Written by hand on purpose — the rest of the package treats this as its
eigensolver of record, and the test suite cross-checks it against an
independent library implementation.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DimensionError, NumericalError

REL_TOL = 1e-12
MAX_SWEEPS = 60
# Asymmetry beyond this (relative to the largest entry) is a caller bug,
# not roundoff, and is rejected rather than silently symmetrized.
SYMMETRY_SLACK = 1e-8


def off_diagonal_norm(a: np.ndarray) -> float:
    """Frobenius norm of the off-diagonal part."""
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


@lru_cache(maxsize=None)
def round_robin(n: int) -> tuple[np.ndarray, np.ndarray]:
    """One sweep's rounds for an n x n matrix, as index arrays (P, Q).

    Round i rotates the pairs (P[i, j], Q[i, j]), with P < Q elementwise. No
    index occurs twice in a round, and every pair p < q of range(n) occurs in
    exactly one round; the first round is (0, 1), (2, 3), .... Circle
    method: n is rounded up to an even m and the indices sit on m seats,
    seat j facing seat m - 1 - j. Seat 0 stays put while the other seats
    turn by one place per round. An odd n thus has a dummy index n, and the
    index facing it sits the round out. Both arrays are read-only, of shape
    (m - 1, n // 2), and computed once per n.
    """
    m = n + n % 2
    seats = list(range(0, m, 2)) + list(range(m - 1, 0, -2))
    rounds = []
    for _ in range(m - 1):
        rounds.append(sorted(
            (min(a, b), max(a, b))
            for a, b in zip(seats[: m // 2], seats[::-1])
            if max(a, b) < n
        ))
        seats = seats[:1] + seats[-1:] + seats[1:-1]
    pairs = np.array(rounds, dtype=np.intp).reshape(max(m - 1, 0), n // 2, 2)
    P, Q = pairs[..., 0].copy(), pairs[..., 1].copy()
    P.flags.writeable = Q.flags.writeable = False
    return P, Q


@lru_cache(maxsize=None)
def _sweep(m: int) -> tuple[np.ndarray, ...]:
    """Index arrays for the sweeps over an even m, computed once per m.

    Every round keeps its pairs at positions (p[j], q[j]) = (2j, 2j + 1) and
    ends with ``steps[i]``, the permutation of positions from round i's order
    into round i + 1's; round 0's order is range(m), and the last round
    leads back to it. ``pq`` and ``qp`` index the entries (p, q) and (q, p).
    """
    P, Q = round_robin(m)
    orders = np.stack((P, Q), axis=-1).reshape(m - 1, m)
    positions = np.argsort(orders, axis=1)
    steps = np.take_along_axis(positions, np.roll(orders, -1, axis=0), axis=1)
    p = np.arange(0, m, 2)
    q = p + 1
    plan = steps, p, q, np.concatenate((p, q)), np.concatenate((q, p))
    for x in plan:
        x.flags.writeable = False
    return plan


def _rotations(apq: np.ndarray, diff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cosines and sines of the rotations that zero each a[p, q].

    t = tan(angle) is the smaller root of t^2 + 2 theta t - 1 = 0 with
    theta = diff / (2 apq), diff = a[q, q] - a[p, p]: the stable tan formula
    t = sign(theta) / (|theta| + hypot(theta, 1)), multiplied through by
    2 |apq| to read t = 2 apq / (diff + sign(diff) hypot(diff, 2 apq)). It
    never divides by apq, so a tiny apq against a large diff gives
    t ~ apq / diff instead of an overflowing theta. apq = 0 gives t = 0 (no
    rotation), and diff = 0 a rotation by 45 degrees (t = 1).
    """
    two = 2.0 * apq
    t = np.divide(two, diff + np.copysign(np.hypot(diff, two), diff),
                  out=(apq != 0.0).astype(np.float64), where=diff != 0.0)
    c = 1.0 / np.hypot(t, 1.0)
    return c, t * c


def jacobi_eigh(
    A: np.ndarray, rel_tol: float = REL_TOL, max_sweeps: int = MAX_SWEEPS
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of symmetric A.

    Returns (evals, V) with A ≈ V @ diag(evals) @ V.T and V's columns the
    eigenvectors. Convergence: off-diagonal Frobenius norm below
    rel_tol * ||A||_F (exact zero for the empty and 1x1 cases). A NaN or
    infinite entry raises NumericalError, ahead of the symmetry check, and so
    does a Frobenius norm that overflows float64 (entries near 1e154 and up).
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise NumericalError("matrix has non-finite entries")
    n = A.shape[0]
    if n > 0:
        scale = max(1.0, float(np.max(np.abs(A))))
        asym = float(np.max(np.abs(A - A.T)))
        if asym > SYMMETRY_SLACK * scale:
            raise DimensionError(
                f"matrix is not symmetric: max |A - A.T| = {asym:g}"
            )
    a = (A + A.T) / 2.0
    if n <= 1:
        return np.diag(a).copy(), np.eye(n)

    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
    if not np.isfinite(norm):
        # Finite entries whose squares overflow: the threshold would be inf
        # and the unrotated diagonal would pass as converged.
        raise NumericalError(f"matrix norm overflows float64 (|A|_max = {scale:g})")
    if norm == 0.0:
        return np.zeros(n), np.eye(n)
    threshold = rel_tol * norm

    # An odd n gets a zero last row and column, the dummy index: its
    # rotations have apq = 0 and change nothing.
    m = n + n % 2
    k = m // 2
    steps, p, q, pq, qp = _sweep(m)
    # [a | V^T], rows and columns of a in the current round's order, so that
    # the round's rotation J is block diagonal with 2x2 blocks.
    aw = np.zeros((m, 2 * m))
    aw[:n, :n] = a
    aw[:, m:] = np.eye(m)
    cols = np.empty((m, k, 2))
    for _ in range(max_sweeps):
        if off_diagonal_norm(aw[:, :m]) <= threshold:
            break
        for step in steps:
            diag = np.diagonal(aw)
            c, s = _rotations(aw[p, q], diag[q] - diag[p])
            rot = np.array([[c, s], [-s, c]]).transpose(2, 0, 1)
            # J^T on the rows of a and of V^T, then J on the columns of a.
            aw = (rot.transpose(0, 2, 1) @ aw.reshape(k, 2, 2 * m)).reshape(m, 2 * m)
            np.matmul(aw[:, :m].reshape(m, k, 2).transpose(1, 0, 2), rot,
                      out=cols.transpose(1, 0, 2))
            aw[:, :m] = cols.reshape(m, m)
            aw[pq, qp] = 0.0
            # Into the next round's order.
            aw = aw[step]
            aw[:, :m] = aw[:, step]
    else:
        if off_diagonal_norm(aw[:, :m]) > threshold:
            raise NumericalError(
                f"Jacobi sweeps did not converge in {max_sweeps} sweeps "
                f"(off-diagonal norm {off_diagonal_norm(aw[:, :m]):g}, "
                f"threshold {threshold:g})"
            )

    # Every sweep ends in round 0's order, range(m); the dummy is last.
    evals = np.diagonal(aw)[:n]
    order = np.argsort(evals)[::-1]
    return evals[order], np.ascontiguousarray(aw[order, m:m + n].T)
