import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attnlab import DimensionError, NumericalError
from attnlab import jacobi
from attnlab.jacobi import jacobi_eigh, off_diagonal_norm, round_robin


def random_symmetric(rng, n, scale=1.0):
    M = rng.standard_normal((n, n)) * scale
    return (M + M.T) / 2.0


def check_against_numpy(A, tol=1e-10):
    evals, V = jacobi_eigh(A)
    ref = np.sort(np.linalg.eigvalsh(A))[::-1]
    denom = max(1.0, float(np.abs(ref).max()))
    assert np.abs(evals - ref).max() / denom < tol
    n = A.shape[0]
    assert np.abs(V.T @ V - np.eye(n)).max() < 1e-10
    assert np.abs(V @ np.diag(evals) @ V.T - A).max() / denom < tol


def test_matches_numpy_across_sizes_and_scales():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 5, 8, 13, 21, 32):
        for scale in (1e-6, 1.0, 1e6):
            check_against_numpy(random_symmetric(rng, n, scale))


def test_eigenvalues_sorted_descending():
    rng = np.random.default_rng(1)
    evals, _ = jacobi_eigh(random_symmetric(rng, 9))
    assert (np.diff(evals) <= 1e-12).all()


def test_diagonal_input_is_exact():
    d = np.array([3.0, -1.0, 7.5, 0.0])
    evals, V = jacobi_eigh(np.diag(d))
    assert np.array_equal(evals, np.sort(d)[::-1])
    assert np.allclose(np.abs(V.T @ V), np.eye(4))


def test_rank_deficient_psd():
    rng = np.random.default_rng(2)
    B = rng.standard_normal((10, 3))
    evals, _ = jacobi_eigh(B @ B.T)
    assert evals[3:].max() < 1e-10 * evals[0]
    assert (evals > -1e-10 * evals[0]).all()


def test_zero_and_single_element():
    evals, V = jacobi_eigh(np.zeros((5, 5)))
    assert np.array_equal(evals, np.zeros(5))
    evals1, V1 = jacobi_eigh(np.array([[4.0]]))
    assert evals1[0] == 4.0 and V1[0, 0] == 1.0


def test_extreme_eigenvalue_spread_stays_finite():
    # diagonal spans ~18 orders of magnitude with tiny couplings: the
    # rotation formula must neither overflow nor produce NaN
    A = np.diag(10.0 ** np.arange(0, 18, 3))
    A[0, 5] = A[5, 0] = 1e-290
    A[1, 3] = A[3, 1] = 1e-12
    evals, V = jacobi_eigh(A)
    assert np.isfinite(evals).all() and np.isfinite(V).all()
    ref = np.sort(np.linalg.eigvalsh(A))[::-1]
    assert np.abs(evals - ref).max() / ref.max() < 1e-12


def test_rejects_nonsquare_and_asymmetric():
    with pytest.raises(DimensionError):
        jacobi_eigh(np.zeros((3, 4)))
    bad = np.array([[1.0, 2.0], [0.5, 1.0]])
    with pytest.raises(DimensionError):
        jacobi_eigh(bad)


def test_tolerates_roundoff_asymmetry():
    rng = np.random.default_rng(3)
    A = random_symmetric(rng, 6)
    A[0, 1] += 1e-13  # below the symmetry slack
    check_against_numpy((A + A.T) / 2.0)
    jacobi_eigh(A)  # must not raise


def test_nonconvergence_is_reported(monkeypatch):
    rng = np.random.default_rng(4)
    A = random_symmetric(rng, 8)
    monkeypatch.setattr(jacobi, "MAX_SWEEPS", 0)
    with pytest.raises(NumericalError):
        jacobi_eigh(A)


def test_off_diagonal_norm():
    assert off_diagonal_norm(np.diag([1.0, 2.0, 3.0])) == 0.0
    A = np.array([[1.0, 3.0], [3.0, 2.0]])
    assert off_diagonal_norm(A) == pytest.approx(np.sqrt(18.0))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10), st.integers(0, 2**32 - 1))
def test_reconstruction_property(n, seed):
    A = random_symmetric(np.random.default_rng(seed), n)
    check_against_numpy(A)


@pytest.mark.parametrize("n", range(2, 34))
def test_round_robin_visits_every_pair_once_in_disjoint_rounds(n):
    P, Q = round_robin(n)
    rounds = n - 1 + n % 2  # n rounded up to even, minus one
    assert P.shape == Q.shape == (rounds, n // 2)
    assert (P < Q).all() and P.min() >= 0 and Q.max() < n
    for p, q in zip(P, Q):
        assert len(set(p) | set(q)) == 2 * (n // 2)  # disjoint pairs
    pairs = sorted(zip(P.ravel().tolist(), Q.ravel().tolist()))
    assert pairs == [(p, q) for p in range(n) for q in range(p + 1, n)]
    assert not P.flags.writeable and not Q.flags.writeable


@pytest.mark.parametrize("n", [64, 128])
def test_matches_numpy_at_full_head_width(n):
    check_against_numpy(random_symmetric(np.random.default_rng(n), n))


def check_absolute_against_numpy(A, tol=1e-12):
    """Errors relative to ||A||_F: all a two-sided Jacobi method promises."""
    evals, V = jacobi_eigh(A)
    norm = np.linalg.norm(A)
    ref = np.sort(np.linalg.eigvalsh(A))[::-1]
    assert np.abs(evals - ref).max() <= tol * norm
    assert np.abs(V.T @ V - np.eye(len(A))).max() < 1e-12
    assert np.abs(V @ np.diag(evals) @ V.T - A).max() <= tol * norm


@pytest.mark.parametrize("n", [2, 7, 24, 33])
def test_repeated_eigenvalues_identity_plus_rank_one(n):
    u = np.random.default_rng(5).standard_normal(n)
    A = np.eye(n) + np.outer(u, u)
    check_absolute_against_numpy(A)
    evals, _ = jacobi_eigh(A)
    assert evals[0] == pytest.approx(1.0 + u @ u, rel=1e-12)
    assert np.abs(evals[1:] - 1.0).max() < 1e-12 * np.linalg.norm(A)


@pytest.mark.parametrize("n", [6, 24, 64])
def test_spectrum_from_one_down_to_1e_minus_12(n):
    Qm, _ = np.linalg.qr(np.random.default_rng(6).standard_normal((n, n)))
    A = Qm @ np.diag(np.logspace(0, -12, n)) @ Qm.T
    check_absolute_against_numpy((A + A.T) / 2.0)


@pytest.mark.parametrize("n", [1, 2, 24])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_non_finite_input_is_rejected_before_any_sweep(n, bad):
    A = np.eye(n)
    A[0, n - 1] = A[n - 1, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        with pytest.raises(NumericalError, match="non-finite"):
            jacobi_eigh(A)
    if n > 1:  # one-sided: NumericalError, not the symmetry check's DimensionError
        A[n - 1, 0] = 0.0
        with pytest.raises(NumericalError, match="non-finite"):
            jacobi_eigh(A)


@pytest.mark.parametrize("n", [2, 3, 24])
def test_overflowing_norm_is_rejected_before_any_sweep(n):
    """Finite entries whose Frobenius norm overflows would make the threshold
    inf, so the unrotated diagonal would pass as converged."""
    A = np.full((n, n), 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        with pytest.raises(NumericalError, match="norm overflows"):
            jacobi_eigh(A)


@pytest.mark.parametrize("n", [2, 5, 16, 24])
def test_matches_numpy_near_1e150(n):
    """Just below the overflow, the norm stays finite and the sweeps converge."""
    A = random_symmetric(np.random.default_rng(n), n, scale=1e150)
    assert np.isfinite(np.linalg.norm(A))
    evals, _ = jacobi_eigh(A)
    ref = np.sort(np.linalg.eigvalsh(A))[::-1]
    assert np.abs(evals - ref).max() / np.abs(ref).max() < 1e-12


# --------------------------------------------------------- stacked solves


def random_stack(seed, batch, n):
    M = np.random.default_rng(seed).standard_normal((*batch, n, n))
    return (M + M.mT) / 2.0


def assert_stack_equals_solo_calls(A, **kw):
    """Every member of a stacked call carries the bytes of its own call."""
    evals, V = jacobi_eigh(A, **kw)
    batch, n = A.shape[:-2], A.shape[-1]
    assert evals.shape == (*batch, n) and V.shape == (*batch, n, n)
    for i in np.ndindex(batch):
        solo_evals, solo_V = jacobi_eigh(A[i], **kw)
        assert evals[i].tobytes() == solo_evals.tobytes(), i
        assert V[i].tobytes() == solo_V.tobytes(), i


@pytest.mark.parametrize("batch", [(0,), (1,), (4,), (2, 3)], ids=str)
@pytest.mark.parametrize("n", [2, 3, 7, 16, 24, 33])
def test_stack_equals_per_matrix_solves(n, batch):
    assert_stack_equals_solo_calls(random_stack(n, batch, n))


def test_one_matrix_is_a_stack_of_one():
    A = random_stack(7, (), 9)
    evals, V = jacobi_eigh(A)
    stacked_evals, stacked_V = jacobi_eigh(A[None])
    assert evals.shape == (9,) and V.shape == (9, 9) and V.flags.c_contiguous
    assert stacked_evals[0].tobytes() == evals.tobytes()
    assert stacked_V[0].tobytes() == V.tobytes()


@pytest.mark.parametrize("n", [1, 0])
def test_stack_of_trivial_matrices(n):
    A = np.arange(6.0).reshape(2, 3, 1, 1)[..., :n, :n]
    evals, V = jacobi_eigh(A)
    assert evals.shape == (2, 3, n) and V.shape == (2, 3, n, n)
    assert np.array_equal(evals, A.reshape(2, 3, n))
    assert np.array_equal(V, np.broadcast_to(np.eye(n), V.shape))


@pytest.mark.parametrize("n", [6, 24])
def test_members_that_converge_in_different_sweeps(n, monkeypatch):
    """A diagonal member is converged before its first sweep, a zero member
    returns (0, I), a 1e0..1e-12 spectrum and random members take more
    sweeps: members leave the stack at different times, and each still
    carries the bytes of its own call."""
    rng = np.random.default_rng(n)
    Qm, _ = np.linalg.qr(rng.standard_normal((n, n)))
    graded = Qm @ np.diag(np.logspace(0, -12, n)) @ Qm.T
    A = np.stack([
        random_stack(1, (), n),
        np.diag(rng.standard_normal(n)),
        np.zeros((n, n)),
        (graded + graded.T) / 2.0,
        random_stack(2, (), n) * 1e-6,
    ])
    assert_stack_equals_solo_calls(A)
    evals, V = jacobi_eigh(A)
    # The diagonal and zero members need no sweep; the others need more than one.
    for i, needs_a_sweep in enumerate([True, False, False, True, True]):
        monkeypatch.setattr(jacobi, "MAX_SWEEPS", 1 if needs_a_sweep else 0)
        if needs_a_sweep:
            with pytest.raises(NumericalError):
                jacobi_eigh(A[i])
        else:
            jacobi_eigh(A[i])
    assert np.array_equal(evals[2], np.zeros(n)) and np.array_equal(V[2], np.eye(n))


def test_stacked_errors_name_the_member(monkeypatch):
    A = np.stack([np.eye(3)] * 4)
    A[2, 0, 1] = 1.0  # asymmetric
    with pytest.raises(DimensionError, match=r"matrix 2 is not symmetric"):
        jacobi_eigh(A)
    B = np.stack([np.eye(3)] * 6).reshape(2, 3, 3, 3)
    B[1, 2, 0, 0] = np.nan
    with pytest.raises(NumericalError, match=r"matrix \(1, 2\) has non-finite"):
        jacobi_eigh(B)
    D = np.stack([np.eye(3), np.full((3, 3), 1e200)])
    with pytest.raises(NumericalError, match=r"matrix 1 norm overflows"):
        jacobi_eigh(D)
    C = np.stack([np.eye(4), np.eye(4), random_stack(3, (), 4), random_stack(4, (), 4)])
    monkeypatch.setattr(jacobi, "MAX_SWEEPS", 0)
    with pytest.raises(NumericalError, match=r"did not converge in 0 sweeps \(matrix 2:"):
        jacobi_eigh(C)


def test_rejects_non_square_stacks():
    with pytest.raises(DimensionError):
        jacobi_eigh(np.zeros((2, 3, 4)))
    with pytest.raises(DimensionError):
        jacobi_eigh(np.zeros(3))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_overflowing_symmetrization_is_rejected_without_a_warning(n):
    """(A + A.T) / 2 of entries near the float64 maximum overflows to inf."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        with pytest.raises(NumericalError, match="overflows float64"):
            jacobi_eigh(np.full((n, n), 1e308))
        stack = np.stack([np.eye(n), np.full((n, n), 1e308), np.eye(n)])
        with pytest.raises(NumericalError, match="matrix 1 overflows float64"):
            jacobi_eigh(stack)


def test_large_finite_1x1_keeps_its_bits():
    """A 1x1 has no norm to overflow, and a finite symmetrization is exact."""
    for x in (8e307, -1e200, 1e-300):
        evals, V = jacobi_eigh(np.array([[x]]))
        assert evals.tobytes() == np.array([x]).tobytes() and V[0, 0] == 1.0
