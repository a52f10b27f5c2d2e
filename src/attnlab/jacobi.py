"""Round-robin Jacobi eigendecomposition for small symmetric matrices and
stacks of them.

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

The rounds depend only on n, so a (..., n, n) stack goes through them in
lockstep: each round's products and permutations carry a leading member
axis, and one numpy call serves every member. A lone matrix is a stack of
one. Convergence is tested per member once per sweep, and a converged
member leaves the working stack before the next sweep, so each member gets
exactly the rotations of its own solve. Its bits are those of its own solve
too: every step is elementwise, an exact copy, or a 2x2 product or dot of
one member's numbers whose operand layout is the same in a stack as alone
(so numpy takes the same BLAS or non-BLAS route), and the stacked norms are
the same dots ``np.linalg.norm`` takes. Stacks run in groups whose working
set stays inside a core's L2 (``LOCKSTEP_BYTES``).

Written by hand on purpose — the rest of the package treats this as its
eigensolver of record, and the test suite cross-checks it against an
independent library implementation.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DimensionError, NumericalError

REL_TOL = 1e-12
MAX_SWEEPS = 60
# Asymmetry beyond this (relative to the largest entry) is a caller bug,
# not roundoff, and is rejected rather than silently symmetrized.
SYMMETRY_SLACK = 1e-8
# Most [a | V^T] bytes in one lockstep group. A round also writes a work
# copy and the column products, about three times this in all, which stays
# in a 2 MiB L2. Measured per round against as many lone solves (one BLAS
# thread, 2 MiB L2): inside the bound 64 x 16x16 took 0.11x, 16 x 32x32
# 0.25x and 4 x 64x64 0.53x; past it 8 x 64x64 took 0.62x and 4 or 12 x
# 128x128 1.0-1.2x. A 128x128 group is one matrix.
LOCKSTEP_BYTES = 256 * 1024


def off_diagonal_norm(a: np.ndarray) -> float | np.ndarray:
    """Frobenius norm of the off-diagonal part of a matrix, or of each
    member of a (..., n, n) stack, computed as ``np.linalg.norm`` computes
    it: the root of one dot over the flat matrix."""
    batch, n = a.shape[:-2], a.shape[-1]
    off = np.array(a, dtype=np.float64).reshape(math.prod(batch), n * n)
    off[:, ::n + 1] = 0.0
    norms = np.sqrt(np.vecdot(off, off))
    return norms.reshape(batch) if batch else float(norms[0])


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
def _steps(m: int) -> np.ndarray:
    """The round-to-round permutations of a sweep over an even m, computed
    once per m.

    Every round keeps its pairs at positions (2j, 2j + 1) and ends with
    ``steps[i]``, the permutation of positions from round i's order into
    round i + 1's; round 0's order is range(m), and the last round leads
    back to it.
    """
    P, Q = round_robin(m)
    orders = np.stack((P, Q), axis=-1).reshape(m - 1, m)
    positions = np.argsort(orders, axis=1)
    steps = np.take_along_axis(positions, np.roll(orders, -1, axis=0), axis=1)
    steps.flags.writeable = False
    return steps


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
                  out=(two != 0.0).astype(np.float64), where=diff != 0.0)
    c = 1.0 / np.hypot(t, 1.0)
    return c, t * c


def _sweep(aw: np.ndarray) -> None:
    """One sweep, in place, on a (b, m, 2m) stack of [a | V^T], m even.

    Rows and columns of each a are in the current round's order, so the
    round's rotation J is block diagonal with 2x2 blocks, and every member
    goes through the same products and permutations.
    """
    b, m = aw.shape[:2]
    k = m // 2
    # Flat offsets in a member's m x 2m [a | V^T]: a[2j, 2j + 1] (the round's
    # a[p, q]) at j * pair + 1, a[2j, 2j] at j * pair and a[2j + 1, 2j + 1]
    # at j * pair + 2m + 1. In its m x m product on the columns, a[p, q] and
    # a[q, p] sit at j * (2m + 2) + 1 and j * (2m + 2) + m.
    pair = 4 * m + 2
    flat = aw.reshape(b, -1)
    work = np.empty(aw.shape)
    cols = np.empty((b, m, m))
    cols_flat = cols.reshape(b, -1)
    # The 2x2 products' operands: row pairs of [a | V^T], then column pairs
    # of a; all views, made once per sweep.
    rows_in, rows_out = aw.reshape(b, k, 2, 2 * m), work.reshape(b, k, 2, 2 * m)
    work_a = work[:, :, :m]
    cols_in = work_a.reshape(b, m, k, 2).transpose(0, 2, 1, 3)
    cols_out = cols.reshape(b, m, k, 2).transpose(0, 2, 1, 3)
    for step in _steps(m):
        c, s = _rotations(flat[:, 1::pair], flat[:, 2 * m + 1::pair] - flat[:, ::pair])
        rot = np.concatenate((c, s, -s, c), axis=1).reshape(b, 2, 2, k).transpose(0, 3, 1, 2)
        # J^T on the rows of a and of V^T, then J on the columns of a.
        np.matmul(rot.mT, rows_in, out=rows_out)
        np.matmul(cols_in, rot, out=cols_out)
        cols_flat[:, 1::2 * m + 2] = 0.0
        cols_flat[:, m::2 * m + 2] = 0.0
        # Into the next round's order: the columns of a, then the rows of
        # [a | V^T]. The indices are in range, so "wrap" only skips the
        # bounds check's buffer.
        cols.take(step, axis=2, out=work_a, mode="wrap")
        work.take(step, axis=1, out=aw, mode="wrap")


def _member(batch: tuple[int, ...], i: int) -> str:
    """Name member i (a flat index) of a stack: "matrix" for a lone matrix,
    "matrix 3" or "matrix (1, 2)" for a member of a stack."""
    if not batch:
        return "matrix"
    index = tuple(int(j) for j in np.unravel_index(i, batch))
    return f"matrix {index[0] if len(batch) == 1 else index}"


def _check_finite(a: np.ndarray, batch: tuple[int, ...], what: str) -> None:
    """Raise NumericalError naming the first member of a with a NaN or
    infinite entry."""
    if not np.isfinite(a).all():
        bad = ~np.isfinite(a).all(axis=(1, 2))
        raise NumericalError(f"{_member(batch, np.argmax(bad))} {what}")


def jacobi_eigh(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of symmetric A.

    A is one n x n matrix or a (..., n, n) stack of them. Returns (evals, V),
    of shapes (..., n) and (..., n, n), with A ≈ V @ diag(evals) @ V.T and V's
    columns the eigenvectors; each member of a stack gets the bits its own
    call would. Convergence: off-diagonal Frobenius norm below
    REL_TOL * ||A||_F (exact zero for the empty and 1x1 cases). A NaN or
    infinite entry raises NumericalError, ahead of the symmetry check, and so
    do a symmetrized entry that overflows (entries near the float64 maximum)
    and a Frobenius norm that overflows (entries near 1e154 and up). On a
    stack, each error names the first member at fault, and so does one that
    has not converged after MAX_SWEEPS sweeps (read at call time).
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise DimensionError(f"expected a square matrix or a stack of them, got shape {A.shape}")
    batch, n = A.shape[:-2], A.shape[-1]
    a = A.reshape(math.prod(batch), n, n)
    _check_finite(a, batch, "has non-finite entries")
    scale = np.maximum.reduce(np.abs(a), axis=(1, 2), initial=1.0)
    with np.errstate(over="ignore"):
        asym = np.maximum.reduce(np.abs(a - a.mT), axis=(1, 2), initial=0.0)
        bad = asym > SYMMETRY_SLACK * scale
        if np.count_nonzero(bad):
            i = np.argmax(bad)
            raise DimensionError(
                f"{_member(batch, i)} is not symmetric: max |A - A.T| = {asym[i]:g}")
        a = (a + a.mT) / 2.0
        flat = a.reshape(len(a), n * n)
        norm = np.sqrt(np.vecdot(flat, flat))  # as np.linalg.norm computes it
    bad = np.isinf(norm)
    if np.count_nonzero(bad):
        # A symmetrized entry that overflowed, or finite entries whose
        # squares do: the threshold would be inf and the unrotated diagonal
        # would pass as converged. A 1x1 needs no norm.
        _check_finite(a, batch, "overflows float64 when symmetrized")
        if n > 1:
            i = np.argmax(bad)
            raise NumericalError(
                f"{_member(batch, i)} norm overflows float64 (|A|_max = {scale[i]:g})")
    if n <= 1:
        evals = np.diagonal(a, axis1=1, axis2=2).reshape(*batch, n)
        return evals.copy(), np.broadcast_to(np.eye(n), A.shape).copy()
    threshold = REL_TOL * norm

    # An odd n gets a zero last row and column, the dummy index: its
    # rotations have apq = 0 and change nothing.
    m = n + n % 2
    # Each member's [a | V^T] as it leaves the stack, converged.
    final = np.empty((len(a), m, 2 * m))
    group = max(1, LOCKSTEP_BYTES // (16 * m * m))
    for first in range(0, len(a), group):
        members = slice(first, first + group)
        idx = np.arange(len(a))[members]
        aw = np.zeros((len(idx), m, 2 * m))
        aw[:, :n, :n] = a[members]
        aw[:, :, m:] = np.eye(m)
        tol = threshold[members]
        for sweep in range(MAX_SWEEPS + 1):
            off = off_diagonal_norm(aw[:, :, :m])
            done = off <= tol
            converged = np.count_nonzero(done)
            if converged == len(done):
                final[idx] = aw
                break
            if converged:
                final[idx[done]] = aw[done]
                keep = ~done
                idx, tol, off, aw = idx[keep], tol[keep], off[keep], aw[keep]
            if sweep == MAX_SWEEPS:
                raise NumericalError(
                    f"Jacobi sweeps did not converge in {MAX_SWEEPS} sweeps "
                    f"({_member(batch, idx[0])}: off-diagonal norm {off[0]:g}, "
                    f"threshold {tol[0]:g})"
                )
            _sweep(aw)

    # Every sweep ends in round 0's order, range(m); the dummy is last.
    evals = final.diagonal(axis1=1, axis2=2)[:, :n]
    order = evals.argsort(axis=1)[:, ::-1]
    rows = np.arange(len(a))[:, None]
    evals = evals[rows, order]
    vecs = np.ascontiguousarray(final[rows, order, m:m + n].mT)
    if np.count_nonzero(norm) < len(norm):  # a zero matrix gives (0, I)
        zero = norm == 0.0
        evals[zero] = 0.0
        vecs[zero] = np.eye(n)
    return evals.reshape(*batch, n), vecs.reshape(*batch, n, n)
