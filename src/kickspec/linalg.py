"""Dense complex eigensolvers for Hermitian and unitary matrix stacks.

This is the only numerically iterative kernel in the package.  Everything
else builds matrices analytically and calls into here.  All functions are
pure: inputs are never mutated and results are deterministic, so values may
be shared freely across threads.

Solver choice: LAPACK via numpy.  Hermitian stacks go to ``eigvalsh``.
Unitary stacks go there too, through the Cayley transform
K = i (I - U)(I + U)^-1: K is Hermitian because U is normal, and an
eigenvalue w of K is the eigenvalue (i - w)/(i + w) of U.  The transform has
a pole at -1, where the eigenphase error grows like eps * max|w|, so a
matrix with an eigenvalue close to -1, or whose K is not Hermitian, is
re-solved by the general solver (``eigvals``).  The tests compare the Cayley
route against ``np.linalg.eigvals``.  ``eig_unitary`` is the one per-matrix
function: it validates a single unitary matrix and solves it by the general
solver.  The contracts below (ordering, modulus bounds) are what is
normative, not the solver.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParams, NoConvergence, NonUnitary

__all__ = [
    "UNITARY_TOL",
    "UNIT_MODULUS_TOL",
    "DEDUP_TOL",
    "eig_unitary",
    "principal_args",
]

# Absolute tolerances.  Band merging downstream and the cache key depend on
# these staying fixed.
UNITARY_TOL = 1e-10  # ||A A* - I||_max
UNIT_MODULUS_TOL = 1e-10  # | |z| - 1 | of a unitary eigenvalue
DEDUP_TOL = 1e-12  # spectrum points closer than this are one point


def principal_args(values: np.ndarray) -> np.ndarray:
    """Principal arguments in (-pi, pi]; an argument of exactly -pi wraps to +pi."""
    ang = np.angle(values)
    return np.where(ang <= -np.pi, ang + 2.0 * np.pi, ang)


def require_unitary(a: np.ndarray) -> np.ndarray:
    """Validate ||A A* - I||_max <= UNITARY_TOL and return A as complex128."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidParams(f"require_unitary: expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(np.float64))):
        raise InvalidParams("require_unitary: matrix contains non-finite entries")
    dev = np.abs(a @ a.conj().T - np.eye(a.shape[0])).max()
    if dev > UNITARY_TOL:
        raise NonUnitary(f"matrix is not unitary: ||A A* - I||_max = {dev:.3e} > {UNITARY_TOL:.1e}")
    return a


def eig_unitary(u: np.ndarray) -> np.ndarray:
    """Eigenvalues of a unitary matrix by the general solver.

    Eigenvalues are renormalized to exact unit modulus and sorted by
    principal argument in (-pi, pi], ties broken by ascending imaginary
    part, so output order is deterministic.  This is the validated
    general-solver reference for the Cayley route of unitary_eigvals_stack.
    """
    values = _on_unit_circle(_general_eigvals(require_unitary(u)))
    return values[np.lexsort((values.imag, principal_args(values)))]


# -- batched kernels (stacks of matrices, shape (m, q, q), or one matrix) ------

def eigvalsh_stack(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of Hermitian matrices, each row ascending."""
    try:
        return np.linalg.eigvalsh(stack)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"Hermitian eigensolver failed: {exc}") from exc


def expm_i_hermitian_stack(stack: np.ndarray, s: float) -> np.ndarray:
    """exp(-i s A) for each Hermitian A of a stack, as V exp(-i s L) V*."""
    try:
        w, v = np.linalg.eigh(stack)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"Hermitian eigensolver failed: {exc}") from exc
    return (v * np.exp(-1j * s * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _on_unit_circle(values: np.ndarray) -> np.ndarray:
    """values / |values|; NoConvergence if any |value| is off 1 by more than
    UNIT_MODULUS_TOL."""
    mods = np.abs(values)
    dev = np.abs(mods - 1.0)
    if values.size and dev.max() > UNIT_MODULUS_TOL:
        raise NoConvergence(f"unitary eigenvalues off the circle by {dev.max():.3e}")
    return values / mods


# Largest |w| the Cayley route accepts.  Its eigenphase error is about
# 2 eps max|w| (eigvalsh is accurate to eps ||K|| = eps max|w| in w, and
# d(phase)/dw = 2 / (1 + w^2) <= 2), so 1e3 keeps it near 4e-13, under a
# 1e-12 target with room for LAPACK's growth in q.  |w| > 1e3 means an
# eigenphase within about 2e-3 of pi.
_CAYLEY_LIMIT = 1e3


def _general_eigvals(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of square matrices by the general solver.

    The fallback of unitary_eigvals_stack and the solver of eig_unitary.
    Row order is the solver's; values are not renormalized.
    """
    try:
        return np.linalg.eigvals(stack)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"general eigensolver failed: {exc}") from exc


def _cayley_eigvals(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, bad): eigenvalues through the Cayley transform, and a mask of
    the matrices whose values are not to be trusted."""
    eye = np.eye(stack.shape[-1], dtype=np.complex128)
    try:
        k = np.linalg.inv(stack + eye)
    except np.linalg.LinAlgError:
        # I + U is exactly singular somewhere in the batch, and the batched
        # inverse does not say where.
        return np.empty(stack.shape[:-1], dtype=np.complex128), np.ones(stack.shape[:-2], bool)
    k *= 2j
    k -= 1j * eye  # K = i (I - U)(I + U)^-1 = 2i (I + U)^-1 - iI
    kh = k.conj().swapaxes(-1, -2)
    # Every eigenvalue of U lies within ||K - K*||_2 of the unit circle, so a
    # matrix past the modulus tolerance (or with non-finite entries) goes to
    # the general solver, whose unit-modulus check then reports it.
    bad = ~(np.linalg.norm(k - kh, axis=(-2, -1)) <= UNIT_MODULUS_TOL)
    k += kh
    k[bad] = 0.0  # their values come from the general solver
    w = eigvalsh_stack(k) / 2.0
    bad |= ~(np.abs(w).max(axis=-1) <= _CAYLEY_LIMIT)
    return (1j - w) / (1j + w), bad


def unitary_eigvals_stack(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of unitary matrices, renormalized to |z| = 1.

    Solved through the Cayley transform and ``eigvalsh``; the matrices it
    flags (an eigenvalue within about 2e-3 of -1, or a K that is not
    Hermitian) are re-solved by the general solver.  Row order is the
    solver's; callers pool and re-sort, so no per-row ordering is imposed
    here.
    """
    values, bad = _cayley_eigvals(stack)
    if bad.any():
        values[bad] = _general_eigvals(stack[bad])
    return _on_unit_circle(values)
