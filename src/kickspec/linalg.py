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
Given a diagonal gauge G that makes S = conj(G) U G complex symmetric,
S = X + iY with X and Y real, and K is real: one real solve of
(I + X) K = Y, corrected by the residual of the other half, K Y = I - X,
takes the place of the complex inverse, and the real ``eigvalsh`` solves
it.  That residual and K's asymmetry certify the row against a threshold
that scales with the conditioning of I + X (_symmetric_cayley); a row
that fails it is solved by the complex inverse, ungauged.  The tests
compare the Cayley route against ``np.linalg.eigvals``.  The contracts
below (ordering, modulus bounds) are what is normative, not the solver.

Threads: the sweep kernel runs each sweep inside _one_blas_thread, which
sets OpenBLAS's thread count to 1 for the sweep's builds and solves and then
restores the caller's.  OpenBLAS's second thread shortens a call little,
and once woken it spins through the work that follows, doubling the CPU
time (BENCH_threads.json); a large sweep runs its large calls side by side
instead (spectra._POOL_ROWS).  So every value is a one-thread value, whatever
the thread count.  The OpenBLAS that numpy loaded is found once, at the
first sweep, by its path in /proc/self/maps and its thread-count symbols;
any other BLAS keeps its own thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
import threading

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


# -- the BLAS thread rule -------------------------------------------------------

# (set, get) symbol pairs of OpenBLAS's thread count: scipy-openblas's
# 64-bit-integer build (numpy's wheels), OpenBLAS's own 64-bit build, and
# its plain one.  Both take and return a C int in each build.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)
_blas: tuple | None = None  # (set, get) of the loaded OpenBLAS, () if none: looked up once
_blas_lock = threading.Lock()
_blas_depth = 0  # sweeps inside _one_blas_thread; the first sets 1 thread, the last restores
_blas_saved = 0  # the caller's thread count, while _blas_depth > 0


def _openblas() -> tuple:
    """(set, get) of the thread count of the OpenBLAS this process loaded, or ()."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({ln.split(maxsplit=5)[-1].strip() for ln in fh
                            if "openblas" in ln.lower()})
    except OSError:
        return ()
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                set_threads, get_threads = getattr(lib, set_name), getattr(lib, get_name)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return set_threads, get_threads
    return ()


@contextlib.contextmanager
def _one_blas_thread():
    """OpenBLAS on one thread for the block (module docstring).  The caller's
    count is restored once, when the last of any nested or concurrent such
    blocks returns or raises."""
    global _blas, _blas_depth, _blas_saved
    with _blas_lock:
        if _blas is None:
            _blas = _openblas()
        if _blas and _blas_depth == 0:
            _blas_saved = _blas[1]()
            _blas[0](1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas and _blas_depth == 0:
                _blas[0](_blas_saved)


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
# eigenphase within about 2e-3 of pi.  The real route's solve adds a few
# eps per eigenphase to first order (see _symmetric_cayley), and the same
# limit holds there.
_CAYLEY_LIMIT = 1e3


def _general_eigvals(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of square matrices by the general solver: the
    sweep's general route.  Row order is the solver's; not renormalized."""
    try:
        return np.linalg.eigvals(stack)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"general eigensolver failed: {exc}") from exc


def _hermitian_cayley(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, bad) by the complex inverse: the eigenvalues w of each Cayley matrix
    K, and a mask of the matrices whose K is not Hermitian; w is NaN where K
    is not finite."""
    eye = np.eye(stack.shape[-1], dtype=np.complex128)
    try:
        k = np.linalg.inv(stack + eye)
    except np.linalg.LinAlgError:
        # I + U is exactly singular somewhere in the batch, and the batched
        # inverse does not say where.
        return np.full(stack.shape[:-1], np.nan), np.ones(stack.shape[:-2], bool)
    k *= 2j
    k -= 1j * eye  # K = i (I - U)(I + U)^-1 = 2i (I + U)^-1 - iI
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
    w = eigvalsh_stack(k)
    w /= 2.0
    w[lost] = np.nan
    return w, bad


def _frobenius(a: np.ndarray) -> np.ndarray:
    """||a||_F of each real matrix of a stack."""
    return np.sqrt(np.einsum("...ij,...ij->...", a, a))


# The real route.  Let S = conj(G) U G = X + iY be complex symmetric and
# unitary: X and Y are real symmetric and commute, X^2 + Y^2 = I, and the
# Cayley matrix K of S is real and solves both halves of
# K (I + S) = i (I - S): K (I + X) = Y and K Y = I - X.
#
# Solve.  One real solve of the first half, (I + X) Z = Y, gives Z = K^T.
# Alone it is too sensitive near the pole: an eigenvalue r e^(i phi) of S
# off the circle (S's rounding, or the solve's backward error) moves
# r sin(phi) / (1 + r cos(phi)) by (r - 1) (1 + w^2) w / 2, an eigenphase
# error of about eps |w| (measured: up to 32 eps max|w| off eigvals, where
# the complex route is within 4.3 eps max|w|).  The residual of the second
# half, C = Y Z + X - I, is (X^2 + Y^2 - I)(I + X)^-1, (r^2 - 1)(1 + w^2) / 2
# there, so Z (I - C/2) cancels that first-order term: to first order in
# S's rounding and the solve's backward error, each w of the corrected Z
# moves by a few eps times (1 + w^2) / 2, each eigenphase by a few eps, and
# the real eigvalsh of K + K^T adds the route's 2 eps max|w|.
#
# Certificate.  c = ||C||_F + ||A||_F, A = Z - Z^T of the corrected Z,
# costs the product Y Z (the correction is one more).  With
# H = (Z + Z^T) / 2 and R and C' the residuals of the corrected Z in the
# two halves,
#   (S - S_H)(iI + H) = R + iC' - (I + S) A / 2,  S_H = (iI - H)(iI + H)^-1,
# and ||(iI + H)^-1|| <= 1, so for a unitary S each eigenvalue h of H is,
# as the point (i - h) / (i + h) of the circle, within
# (||R|| + ||C'|| + ||A||) / sqrt(1 + h^2) <= (1 + c/2)(||R0|| + 3c/2) / sqrt(1 + h^2)
# of an eigenvalue of S, R0 = (I + X) Z - Y the solve's own residual
# (R = R0 - (Y + R0) C/2 and C' = (I + X) C/2 - C^2/2), about
# eps ||I + X|| ||K|| <= 2 eps max|w| for a backward-stable solve.  For a
# unitary S, C grows with the conditioning of I + X,
# ||(I + X)^-1|| = (1 + max|w|^2) / 2 (1 + cos(phi) = 2 / (1 + w^2)), while,
# as above, the eigenphases do not (measured at 1/610, the node (0, 0),
# kappa = lambda = 1, max|w| = 295: c = 1.5e-11 to 2.6e-11, 1.5 to 2.7 eps
# (1 + max|w|^2) / 2, and each eigenphase within 9e-15 of eigvals).  So a
# row passes when c <= UNIT_MODULUS_TOL (1 + ||H||_F^2) / 2, with
# ||H||_F >= max|w| read before eigvalsh.  A gauge that leaves S not
# symmetric fails it by O(1), and an S with an eigenvalue of modulus r puts
# (r^2 - 1)(1 + w^2) / 2 into C: past the threshold wherever |r - 1| is
# past UNIT_MODULUS_TOL at the largest |w|.


def _symmetric_cayley(stack: np.ndarray, gauge: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, bad) by the real solve of the gauged Cayley matrix (see above); a
    row that fails the certificate is solved by _hermitian_cayley, ungauged."""
    n = stack.shape[-1]
    s = stack * gauge.conj()[..., :, None]
    s *= gauge[..., None, :]
    b, y = s.real + np.eye(n), np.ascontiguousarray(s.imag)  # matmul's BLAS path needs y contiguous
    del s
    try:
        z = np.linalg.solve(b, y)  # Z = K^T: (I + X) K^T = Y
    except np.linalg.LinAlgError:
        # As for the inverse: I + X is exactly singular somewhere in the batch.
        return np.full(stack.shape[:-1], np.nan), np.ones(stack.shape[:-2], bool)
    c = y @ z
    c += b
    c -= 2.0 * np.eye(n)  # C = Y Z + X - I
    del b, y
    cert = _frobenius(c)
    zc = z @ c
    zc /= 2.0
    z -= zc  # Z (I - C/2)
    cert += _frobenius(np.subtract(z, z.swapaxes(-1, -2), out=c))
    k = np.add(z, z.swapaxes(-1, -2), out=c)  # 2H = K + K^T
    scale = _frobenius(k) ** 2 / 4.0  # ||H||_F^2 >= max|w|^2
    ok = (cert <= UNIT_MODULUS_TOL * (1.0 + scale) / 2.0) & np.isfinite(scale)
    bad = np.zeros(stack.shape[:-2], bool)
    if ok.all():
        return eigvalsh_stack(k) / 2.0, bad
    w = np.empty(stack.shape[:-1])
    if ok.any():
        w[ok] = eigvalsh_stack(k[ok]) / 2.0
    w[~ok], bad[~ok] = _hermitian_cayley(stack[~ok])
    return w, bad


def _cayley_eigvals(stack: np.ndarray, gauge: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(w, bad): the eigenvalues w of each Cayley matrix K, and a mask of the
    matrices whose w are not to be trusted; w is NaN where K is not finite.
    With a gauge, K is the real one of conj(G) U G, where its certificate passes."""
    w, bad = _hermitian_cayley(stack) if gauge is None else _symmetric_cayley(stack, gauge)
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
    matrix with conj(G) U G complex symmetric, for the real solve of every
    gauged K, the turned ones too (exp(it) conj(G) U G is still symmetric).
    Row order is the solver's; callers pool and re-sort.
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
