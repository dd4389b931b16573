"""Reference matrices for the tests, written out from their formulas in numpy,
and the two test-only measures of the acceptance suite.

The matrices read nothing of ``kickspec``: they are the independent route
the tests check the package's arrays against.  ``dcp_values`` and
``dcp_vectors`` are the closed-form eigensystem of D C^p, its eigenvalues
and the unitary E, which the package never builds: it gathers the rotor's
theta kick E D_beta E* as a chirped circulant.  ``matrix_at`` is the
exception, a convenience that calls the code under test.  ``farey_reference``
lists the Farey rationals by the gcd filter and a sort, the route the
package's next-term recurrence is checked against.
``bands_in_window`` and ``alpha_jump_witness`` are the measures that
``test_11`` and ``test_12`` take of the paper's zoom and alpha-jump claims;
no command or check uses them.  The CSV row functions at the end write the
spectrum CSV and the butterfly, zoom and bandwidth rows one value at a time
by the scalar rule ``cli._fmt``: the reference the CLI's column formatter
is checked against, byte for byte.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np

from kickspec.analysis import total_bandwidth
from kickspec.cli import _fmt, _header_lines
from kickspec.errors import InvalidParams
from kickspec.linalg import principal_args
from kickspec.operators import operator_stack
from kickspec.spectra import BandList, SpectrumKind


def dft(q):
    """Fourier matrix F[j, k] = exp(2 pi i j k / q) / sqrt(q)."""
    j = np.arange(q)
    return np.exp(2j * np.pi * (np.outer(j, j) % q) / q) / np.sqrt(q)


def clock_shift(q):
    """Cyclic shift C (ones at [j, j + 1 mod q]) and clock D = diag(exp(2 pi i j / q))."""
    c = np.roll(np.eye(q, dtype=complex), 1, axis=1)
    return c, np.diag(np.exp(2j * np.pi * np.arange(q) / q))


def cos_diag(k, y, q):
    """G(k, y) = diag(cos 2 pi (y + k j / q)), j = 0..q-1."""
    return np.diag(np.cos(2 * np.pi * (y + (k * np.arange(q) % q) / q))).astype(complex)


def expm_i(a, s):
    """exp(-i s A) by scaling and squaring of the Taylor series."""
    b = -1j * s * np.asarray(a, dtype=complex)
    norm = np.abs(b).sum(axis=1).max()
    squarings = int(np.ceil(np.log2(norm / 0.25))) if norm > 0.25 else 0
    b /= 2.0**squarings  # now ||b|| <= 1/4, where 19 terms reach roundoff
    term = out = np.eye(len(b), dtype=complex)
    for n in range(1, 20):
        term = term @ b / n
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def dcp_values(p, q):
    """Eigenvalues mu w^k of D C^p at alpha = p/q, k = 0..q-1, w = exp(2 pi i / q).

    mu = exp(2 pi i phi), with phi = 0 when p(q-1) is even and 1/(2q) when odd.
    """
    k = np.arange(q)
    return np.exp(1j * np.pi * ((2 * k + p * (q - 1) % 2) % (2 * q)) / q)


def dcp_vectors(p, q):
    """The unitary E of D C^p's normalized eigenvectors, column k for dcp_values(p, q)[k].

    From the index recursion u_{jp+1} = w^{-p j(j-1)/2} nu_k^j u_1, indices
    taken mod q and u_1 = 1/sqrt(q): row r = j p mod q holds the phase
    j (2 k + odd) - p j (j - 1) in units of pi/q, odd = p(q-1) mod 2.
    """
    k = np.arange(q)
    j = k * pow(p, -1, q) % q  # row r holds j = r p^{-1} mod q
    t = (np.outer(j, 2 * k + p * (q - 1) % 2) - (p * j * (j - 1))[:, None]) % (2 * q)
    return np.exp(1j * np.pi * t / q) / np.sqrt(q)


def unitary_eigvals(u):
    """Eigenvalues of a unitary matrix by np.linalg.eigvals, scaled to modulus 1.

    Sorted by principal argument in (-pi, pi], ties by imaginary part: the
    general-solver reference the Cayley route is compared against.
    """
    z = np.linalg.eigvals(np.asarray(u, dtype=complex))
    z = z / np.abs(z)
    arg = np.angle(z)
    arg = np.where(arg <= -np.pi, arg + 2.0 * np.pi, arg)
    return z[np.lexsort((z.imag, arg))]


def kick(k, y, q, s):
    """exp(-i 2 s G(k, y)), entrywise on the diagonal."""
    return np.diag(np.exp(-2j * s * np.diag(cos_diag(k, y, q))))


def operator_matrix(kind, kappa, lam, p, q, x, theta):
    """The q x q matrix of one operator kind at (x, theta), from its formula.

    h is 2 G(1, x) + 2 lambda F G(p, theta) F^{-1} and uh its exponential;
    ukh is the product of the two kicks; uordkr is the x kick times the
    exponential of lambda (z D C^p + its adjoint), z = exp(2 pi i beta),
    beta = x + theta + p / 2q.
    """
    f = dft(q)
    if kind in ("h", "uh"):
        h = 2 * cos_diag(1, x, q) + 2 * lam * f @ cos_diag(p, theta, q) @ f.conj().T
        return h if kind == "h" else expm_i(h, kappa)
    if kind == "ukh":
        return kick(1, x, q, kappa) @ f @ kick(p, theta, q, kappa * lam) @ f.conj().T
    c, d = clock_shift(q)
    dc = d @ np.linalg.matrix_power(c, p)
    z = np.exp(2j * np.pi * (theta + p / (2 * q) + x))
    return kick(1, x, q, kappa) @ expm_i(lam * (z * dc + np.conj(z) * dc.conj().T), kappa)


def operator_eigvals(kind, kappa, lam, p, q, x, theta):
    """Eigenvalues of operator_matrix: ascending for h, else by principal argument."""
    m = operator_matrix(kind, kappa, lam, p, q, x, theta)
    return np.linalg.eigvalsh(m) if kind == "h" else unitary_eigvals(m)


def matrix_at(params, x):
    """The operator_stack matrix of params at (x, params.theta): code under test."""
    return operator_stack(params, [x], [params.fixed_theta()])[0]


def farey_reference(q_max):
    """(p, q) of every reduced p/q with 0 < p < q <= q_max, ascending by value."""
    pairs = [(p, q) for q in range(2, q_max + 1) for p in range(1, q) if math.gcd(p, q) == 1]
    return sorted(pairs, key=lambda pq: Fraction(*pq))


def bands_in_window(b: BandList, lo: float, hi: float) -> int:
    """Number of bands intersecting the closed window [lo, hi].

    Circle bands with hi < lo wrap through +pi and intersect the window if
    either arm does.
    """
    count = 0
    for a, c in b.bands:
        if b.kind is SpectrumKind.REAL_LINE or a <= c:
            if not (c < lo or a > hi):
                count += 1
        elif a <= hi or c >= lo:
            count += 1
    return count


def alpha_jump_witness(lam: float, alpha1: float, alpha2: float, theta: float, n_max: int) -> float:
    """max over |n| <= n_max of |2 lam sin(pi n (a1+a2) + 2 pi theta) sin(pi n (a1-a2))|.

    This lower-bounds the operator-norm distance between the two Harper
    operators; for admissible alphas it approaches at least (sqrt(3)/2)|lam|,
    witnessing that the spectrum is not continuous in alpha.
    """
    if not (isinstance(n_max, int) and n_max >= 1):
        raise InvalidParams(f"n_max must be an integer >= 1, got {n_max!r}")
    for name, v in (("alpha1", alpha1), ("alpha2", alpha2),
                    ("alpha1+alpha2", alpha1 + alpha2), ("alpha1-alpha2", alpha1 - alpha2)):
        if float(v) == round(float(v)):
            raise InvalidParams(f"{name} = {v} is an integer")
    n = np.arange(-n_max, n_max + 1, dtype=np.float64)
    vals = np.abs(
        2.0 * lam
        * np.sin(np.pi * n * (alpha1 + alpha2) + 2.0 * np.pi * theta)
        * np.sin(np.pi * n * (alpha1 - alpha2))
    )
    return float(vals.max())


# -- CSV rows, one value at a time ----------------------------------------------


def spectrum_csv_text(s):
    """cli.spectrum_csv_text, each field written by _fmt."""
    if s.kind is SpectrumKind.REAL_LINE:
        rows = [_fmt(v) for v in s.points]
    else:
        phases = principal_args(s.points)
        rows = [f"{_fmt(z.real)},{_fmt(z.imag)},{_fmt(ph)}" for z, ph in zip(s.points, phases)]
    body = "\n".join([*rows, ""])
    sha = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return "\n".join([*_header_lines(s.params, s.grid), f"# rows_sha256={sha}", body])


def butterfly_rows(ds):
    """The rows of a butterfly table of dataset ds."""
    return [f"{p},{q},{_fmt(v)}" for p, q, v in zip(ds.p, ds.q, ds.values)]


def zoom_rows(windows):
    """The rows of a zoom table of the ZoomWindows windows."""
    return [f"{i},{_fmt(w.lo)},{_fmt(w.hi)},{_fmt(p)}"
            for i, w in enumerate(windows) for p in w.points]


def bandwidth_row(alpha, bands, error_bound):
    """The row of a bandwidth table for one alpha's bands."""
    return (f"{alpha.p},{alpha.q},{_fmt(alpha.value)},{len(bands)},"
            f"{_fmt(total_bandwidth(bands))},{_fmt(error_bound)}")
