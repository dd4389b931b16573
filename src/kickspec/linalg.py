"""Dense eigensolvers for symmetric, Hermitian and unitary matrix stacks.

This is the only numerically iterative kernel in the package.  Everything
else builds matrices analytically and calls into here.  All functions are
pure: inputs are never mutated and results are deterministic, so values may
be shared freely across threads.

Solver choice: LAPACK via numpy.  Hermitian stacks go to ``eigvalsh``, which
takes the real symmetric Jacobi stacks of the h and uh sweeps as they are
(LAPACK's real routine, about half the work of the complex one).
Unitary stacks go there too, through the Cayley transform
K = i (I - U)(I + U)^-1: K is Hermitian because U is normal, and an
eigenvalue w of K is the eigenvalue (i - w)/(i + w) of U.  The transform has
a pole at -1, where the eigenphase error grows like eps * max|w|, so a
matrix with an eigenvalue close to -1, or whose K is not Hermitian, is
solved again as -U, which moves the pole to U's +1; only a matrix that the
retry flags as well is re-solved by the general solver (``eigvals``).
Given a diagonal gauge G that makes conj(G) U G complex symmetric, the
gauged K is real symmetric, and the real ``eigvalsh`` solves it; the
inverse and its Hermitian guard stay complex, and a realness guard
(``_REAL_TOL``) sends a K whose imaginary part could move an eigenphase
by more than the route's own error back to the complex solve.  The tests
compare the Cayley route against ``np.linalg.eigvals``.  The contracts
below (ordering, modulus bounds) are what is normative, not the solver.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

__all__ = [
    "UNIT_MODULUS_TOL",
    "DEDUP_TOL",
    "principal_args",
]

# Absolute tolerances.  Band merging downstream and the cache key depend on
# these staying fixed.
UNIT_MODULUS_TOL = 1e-10  # | |z| - 1 | of a unitary eigenvalue
DEDUP_TOL = 1e-12  # spectrum points closer than this are one point


def principal_args(values: np.ndarray) -> np.ndarray:
    """Principal arguments in (-pi, pi]; an argument of exactly -pi wraps to +pi."""
    ang = np.angle(values)
    return np.where(ang <= -np.pi, ang + 2.0 * np.pi, ang)


# -- batched kernels (stacks of matrices, shape (m, q, q), or one matrix) ------

def eigvalsh_stack(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of Hermitian (or real symmetric) matrices, each row ascending."""
    try:
        return np.linalg.eigvalsh(stack)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Hermitian eigensolver failed: {exc}") from exc


def expm_i_hermitian_stack(stack: np.ndarray, s: float) -> np.ndarray:
    """exp(-i s A) for each Hermitian A of a stack, as V exp(-i s L) V*."""
    try:
        w, v = np.linalg.eigh(stack)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Hermitian eigensolver failed: {exc}") from exc
    return (v * np.exp(-1j * s * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _on_unit_circle(values: np.ndarray) -> np.ndarray:
    """values / |values|; NumericalError if any |value| is off 1 by more than
    UNIT_MODULUS_TOL."""
    mods = np.abs(values)
    dev = np.abs(mods - 1.0)
    if values.size and dev.max() > UNIT_MODULUS_TOL:
        raise NumericalError(f"unitary eigenvalues off the circle by {dev.max():.3e}")
    return values / mods


# Largest |w| the Cayley route accepts.  Its eigenphase error is about
# 2 eps max|w| (eigvalsh is accurate to eps ||K|| = eps max|w| in w, and
# d(phase)/dw = 2 / (1 + w^2) <= 2), so 1e3 keeps it near 4e-13, under a
# 1e-12 target with room for LAPACK's growth in q.  |w| > 1e3 means an
# eigenphase within about 2e-3 of pi.
_CAYLEY_LIMIT = 1e3

# Largest ||Im H||_F, H = (K + K*)/2, that the real route drops.  Im H is
# antisymmetric and ||Im H||_2 <= ||Im H||_F, so by Weyl dropping it moves
# each w by at most this, and each eigenphase by at most twice as much:
# eps _CAYLEY_LIMIT caps that at the route's own error, 2 eps max|w|, at the
# largest max|w| it accepts.  The two together stay near 9e-13, under the
# 1e-12 target.  A gauged K past it is solved complex.
_REAL_TOL = np.finfo(np.float64).eps * _CAYLEY_LIMIT


def _general_eigvals(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of square matrices by the general solver.

    The fallback of unitary_eigvals_stack, and the solver of the sweep's
    general route.  Row order is the solver's; values are not renormalized.
    """
    try:
        return np.linalg.eigvals(stack)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"general eigensolver failed: {exc}") from exc


def _gauged_eigvalsh(k: np.ndarray) -> np.ndarray:
    """Eigenvalues of each Hermitian k of a stack that a gauge made real, each row ascending:
    of Re k where ||Im k||_F passes the realness guard (_REAL_TOL), else of k."""
    im = k.imag
    real = np.einsum("...ij,...ij->...", im, im) <= (2.0 * _REAL_TOL) ** 2  # k is 2H
    if real.all():
        return eigvalsh_stack(k.real)
    w = np.empty(k.shape[:-1])
    w[real] = eigvalsh_stack(k.real[real])
    w[~real] = eigvalsh_stack(k[~real])
    return w


def _cayley_eigvals(stack: np.ndarray, gauge: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(values, bad): eigenvalues through the Cayley transform, and a mask of
    the matrices whose values are not to be trusted.  A gauge takes K to
    conj(G) K G, real where conj(G) U G is complex symmetric."""
    eye = np.eye(stack.shape[-1], dtype=np.complex128)
    try:
        k = np.linalg.inv(stack + eye)
    except np.linalg.LinAlgError:
        # I + U is exactly singular somewhere in the batch, and the batched
        # inverse does not say where.
        return np.empty(stack.shape[:-1], dtype=np.complex128), np.ones(stack.shape[:-2], bool)
    k *= 2j
    k -= 1j * eye  # K = i (I - U)(I + U)^-1 = 2i (I + U)^-1 - iI
    if gauge is not None:
        k *= gauge.conj()[..., :, None]
        k *= gauge[..., None, :]
    kh = k.conj().swapaxes(-1, -2)
    # Every eigenvalue of U lies within ||K - K*||_2 of the unit circle, so a
    # matrix past the modulus tolerance (or with non-finite entries) goes to
    # the general solver, whose unit-modulus check then reports it.  The
    # Frobenius norm bounds ||K - K*||_2; summed over the float64 view, it
    # costs a third of np.linalg.norm's complex path.
    d = (k - kh).view(np.float64).reshape(*k.shape[:-2], -1)
    bad = ~(np.sqrt(np.einsum("...i,...i->...", d, d)) <= UNIT_MODULUS_TOL)
    k += kh
    k[bad] = 0.0  # their values come from the general solver
    w = eigvalsh_stack(k) if gauge is None else _gauged_eigvalsh(k)
    w /= 2.0
    bad |= ~(np.abs(w).max(axis=-1) <= _CAYLEY_LIMIT)
    return (1j - w) / (1j + w), bad


def unitary_eigvals_stack(stack: np.ndarray, gauge: np.ndarray | None = None) -> np.ndarray:
    """Eigenvalues of a stack of unitary matrices, renormalized to |z| = 1.

    Solved through the Cayley transform and ``eigvalsh``.  The matrices it
    flags (an eigenvalue within about 2e-3 of -1, or a K that is not
    Hermitian) are solved again as -U, whose pole is U's +1; those the
    retry flags too (eigenvalues near both -1 and +1, or a U that is not
    unitary) are re-solved by the general solver.  ``gauge``, shape
    ``stack.shape[:-1]``, is a unit-modulus diagonal G per matrix with
    conj(G) U G complex symmetric (time-reversal symmetric U): then K is
    real symmetric after the same gauge, and the real ``eigvalsh`` solves
    it, as it does -U's.  Row order is the solver's; callers pool and
    re-sort, so no per-row ordering is imposed here.
    """
    values, bad = _cayley_eigvals(stack, gauge)
    if bad.any():
        retry = stack[bad]
        flipped, still = _cayley_eigvals(-retry, None if gauge is None else gauge[bad])
        flipped *= -1.0
        if still.any():
            flipped[still] = _general_eigvals(retry[still])
        values[bad] = flipped
    return _on_unit_circle(values)
