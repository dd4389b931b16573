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
eigenvalue w of K is the eigenvalue (i - w)/(i + w) of U, of phase
2 arctan(w).  The transform has a pole at -1, where the eigenphase error
grows like eps * max|w|, so a matrix with an eigenvalue close to -1, or
whose K is not Hermitian, is solved again turned by a phase that puts its
widest eigenphase gap at -1 (unitary_eigvals_stack); no unitary matrix goes
to the general solver.
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
    """Eigenvalues of a stack of square matrices by the general solver: the
    sweep's general route.  Row order is the solver's; not renormalized."""
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
    for rows, part in ((real, k.real), (~real, k)):
        if rows.any():
            w[rows] = eigvalsh_stack(part[rows])
    return w


def _cayley_eigvals(stack: np.ndarray, gauge: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(w, bad): the eigenvalues w of each Cayley matrix K, and a mask of the
    matrices whose w are not to be trusted; w is NaN where K is not finite.
    A gauge takes K to conj(G) K G, real where conj(G) U G is complex symmetric."""
    eye = np.eye(stack.shape[-1], dtype=np.complex128)
    try:
        k = np.linalg.inv(stack + eye)
    except np.linalg.LinAlgError:
        # I + U is exactly singular somewhere in the batch, and the batched
        # inverse does not say where.
        return np.full(stack.shape[:-1], np.nan), np.ones(stack.shape[:-2], bool)
    k *= 2j
    k -= 1j * eye  # K = i (I - U)(I + U)^-1 = 2i (I + U)^-1 - iI
    if gauge is not None:
        k *= gauge.conj()[..., :, None]
        k *= gauge[..., None, :]
    kh = k.conj().swapaxes(-1, -2)
    # Every eigenvalue of U lies within ||K - K*||_2 of the unit circle, so a
    # matrix past the modulus tolerance (or with non-finite entries) is
    # flagged.  The Frobenius norm bounds ||K - K*||_2; summed over the
    # float64 view, it costs a third of np.linalg.norm's complex path.
    d = (k - kh).view(np.float64).reshape(*k.shape[:-2], -1)
    norm = np.sqrt(np.einsum("...i,...i->...", d, d))
    bad = ~(norm <= UNIT_MODULUS_TOL)
    k += kh
    lost = ~np.isfinite(norm)  # a non-finite entry of K makes its norm non-finite
    k[lost] = 0.0
    w = eigvalsh_stack(k) if gauge is None else _gauged_eigvalsh(k)
    w /= 2.0
    w[lost] = np.nan
    bad |= ~(np.abs(w).max(axis=-1) <= _CAYLEY_LIMIT)
    return w, bad


def _turn(phases: np.ndarray) -> np.ndarray:
    """exp(it) per row of eigenphases, t putting the centre of their widest
    gap, taken round the circle, at -1; t = pi where the row is NaN."""
    phi = np.sort(phases, axis=-1)
    ends = np.concatenate([phi, phi[:, :1] + 2.0 * np.pi], axis=-1)
    j = np.argmax(np.diff(ends, axis=-1), axis=-1)[:, None]
    centre = (np.take_along_axis(ends, j, -1) + np.take_along_axis(ends, j + 1, -1)) / 2.0
    return np.exp(1j * np.nan_to_num(np.pi - centre, nan=np.pi))


def _folded_phases(stack: np.ndarray) -> np.ndarray:
    """+-arccos of the eigenvalues cos(phase) of (U + U*)/2: every eigenphase
    of U is among them, and no pole can spoil them."""
    c = eigvalsh_stack((stack + stack.conj().swapaxes(-1, -2)) / 2.0)
    a = np.arccos(np.clip(c, -1.0, 1.0))
    return np.concatenate([a, -a], axis=-1)


def unitary_eigvals_stack(stack: np.ndarray, gauge: np.ndarray | None = None) -> np.ndarray:
    """Eigenvalues of a stack of unitary matrices, renormalized to |z| = 1.

    A matrix the Cayley solve flags (an eigenvalue within about 2e-3 of -1,
    or a K that is not Hermitian) is solved again as exp(it) U, t putting
    the centre of the widest gap between the first solve's eigenphases at
    -1.  A q x q unitary has a gap of at least 2 pi / q, so the turned matrix
    has max|w| <= cot(pi / 2q), under _CAYLEY_LIMIT for q <= 1,570.  An
    exact eigenvalue -1 can spoil those phases: a matrix flagged again is
    turned once more by the gap of _folded_phases (at least pi / q wide:
    q <= 785), and one flagged even then is not unitary: NumericalError.
    ``gauge`` (shape ``stack.shape[:-1]``) is a unit-modulus diagonal G per
    matrix with conj(G) U G complex symmetric, for the real ``eigvalsh`` of
    every gauged K.  Row order is the solver's; callers pool and re-sort.
    """
    w, bad = _cayley_eigvals(stack, gauge)
    turn, retry = np.ones(w.shape[:-1] + (1,), complex), bad.copy()
    for folded in (False, True):
        if retry.any():
            u, g = stack[retry], None if gauge is None else gauge[retry]
            turn[retry] = _turn(_folded_phases(u) if folded else 2.0 * np.arctan(w[retry]))
            w[retry], retry[retry] = _cayley_eigvals(turn[retry][..., None] * u, g)
    if retry.any():
        raise NumericalError(
            f"unitary eigenvalues off the circle: {retry.sum()} of {len(stack)} matrices "
            "fail every turned Cayley solve")
    values = (1j - w) / (1j + w)
    values[bad] *= turn[bad].conj()
    return values / np.abs(values)
