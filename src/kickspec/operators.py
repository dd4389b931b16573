"""Analytic construction of the q x q operator matrices.

At rational frequency alpha = p/q every operator in the family acts, after
restriction to an irreducible representation labelled by a Bloch phase x,
as a q x q matrix built from three ingredients: the discrete Fourier matrix
F, the cyclic shift C and the clock matrix D = diag(1, w, ..., w^{q-1}) with
w = exp(i 2 pi / q).  The pair (C^p, D) satisfies the rotation commutation
relation C^p D = exp(i 2 pi p / q) D C^p, which is what makes the finite
reduction exact rather than a truncation.

Four operator kinds are covered:

* ``H``       self-adjoint Harper / almost Mathieu matrix,
* ``UH``      its unitary exponential exp(-i kappa H),
* ``UKH``     the kicked product of two exponentials,
* ``UORDKR``  the on-resonance double kicked rotor, diagonalized through
              the closed-form eigensystem of D C^p.

``operator_stack`` is the one place any of them is assembled, for a whole
batch of phase pairs at once.
Phases are assembled from exact integer arithmetic modulo q (or 2q), so
large q does not lose accuracy to argument reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import InvalidDimension, InvalidParams, NotCoprime
from .linalg import expm_i_hermitian_stack

__all__ = [
    "MOTHER",
    "OperatorKind",
    "RationalAlpha",
    "OperatorParams",
    "DcpEigensystem",
    "operator_stack",
    "dcp_eigensystem",
]

#: Sentinel for the theta scope that unions over the whole phase torus.
MOTHER = "mother"


class OperatorKind(str, Enum):
    H = "h"
    UH = "uh"
    UKH = "ukh"
    UORDKR = "uordkr"


@dataclass(frozen=True)
class RationalAlpha:
    """Reduced fraction p/q in [0, 1) representing the frequency alpha."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or not isinstance(self.q, int):
            raise InvalidParams(f"alpha components must be integers, got {self.p!r}/{self.q!r}")
        if self.q < 1:
            raise InvalidDimension(f"alpha denominator must be >= 1, got {self.q}")
        if not (0 <= self.p < self.q or (self.p, self.q) == (0, 1)):
            raise InvalidParams(f"alpha must lie in [0, 1): got {self.p}/{self.q}")
        if math.gcd(self.p, self.q) != 1:
            raise NotCoprime(f"{self.p}/{self.q} is not reduced (gcd = {math.gcd(self.p, self.q)})")

    @classmethod
    def parse(cls, text: str) -> "RationalAlpha":
        """Parse a 'p/q' literal; floating alpha is deliberately rejected."""
        parts = text.strip().split("/")
        if len(parts) != 2:
            raise InvalidParams(f"alpha must be given as p/q, got {text!r}")
        try:
            p, q = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise InvalidParams(f"alpha must be given as p/q with integers, got {text!r}") from exc
        return cls(p, q)

    @property
    def value(self) -> float:
        return self.p / self.q

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


@dataclass(frozen=True)
class OperatorParams:
    """Full specification of one operator family member.

    ``theta`` is either a phase in [0, 1) (reduced mod 1 on entry) or the
    MOTHER sentinel selecting the union over the phase torus.  For kind H
    the time scale kappa plays no role and is recorded as 0.
    """

    kind: OperatorKind
    kappa: float
    lam: float
    alpha: RationalAlpha
    theta: float | str = 0.0

    def __post_init__(self) -> None:
        kind = OperatorKind(self.kind)
        object.__setattr__(self, "kind", kind)
        kappa = 0.0 if kind is OperatorKind.H else float(self.kappa)
        lam = float(self.lam)
        if not (np.isfinite(kappa) and np.isfinite(lam)):
            raise InvalidParams(f"kappa and lambda must be finite, got {kappa}, {lam}")
        # Bounds every kick phase, the hopping scale 2 lambda, the uh phase
        # kappa * (2 + 2 |lambda|) and the grid Lipschitz constants.
        if not np.isfinite(4.0 * np.pi * max(abs(kappa), 1.0) * (1.0 + abs(lam))):
            raise InvalidParams(f"kappa and lambda are too large, got {kappa}, {lam}")
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "lam", lam)
        if not isinstance(self.alpha, RationalAlpha):
            raise InvalidParams("alpha must be a RationalAlpha")
        if isinstance(self.theta, str):
            if self.theta != MOTHER:
                raise InvalidParams(f"theta must be a real in [0, 1) or {MOTHER!r}, got {self.theta!r}")
        else:
            th = float(self.theta)
            if not np.isfinite(th):
                raise InvalidParams(f"theta must be finite, got {th}")
            object.__setattr__(self, "theta", th % 1.0)

    @property
    def is_mother(self) -> bool:
        return self.theta == MOTHER

    def fixed_theta(self) -> float:
        if self.is_mother:
            raise InvalidParams("operation requires a fixed theta, not the mother scope")
        return float(self.theta)


# -- primitive matrices -------------------------------------------------------

def cos_rows(k: int, ys, q: int) -> np.ndarray:
    """Rows cos 2 pi (y + k j / q), j = 0..q-1, for each y in ys, shape (len(ys), q).

    These are the diagonals of G(k, y); k j is reduced mod q exactly.
    """
    j = (int(k) * np.arange(q, dtype=np.int64)) % q
    return np.cos(2.0 * np.pi * (np.asarray(ys, dtype=np.float64)[:, None] + j / q))


@dataclass(frozen=True, eq=False)
class DcpEigensystem:
    """Closed-form eigensystem of D C^p.

    ``values[k]`` = mu * w^k (k = 0..q-1) with mu = exp(i 2 pi phi), where
    phi = 0 when p(q-1) is even and 1/(2q) when odd.  ``vectors`` is the
    unitary matrix E of normalized eigenvectors, columns ordered to match
    ``values``, built from the index recursion u_{jp+1} = w^{-p j(j-1)/2}
    nu^j u_1 with indices taken mod q and u_1 = 1/sqrt(q).
    """

    values: np.ndarray
    vectors: np.ndarray
    phi: float


@lru_cache(maxsize=None)
def _dcp_cached(p: int, q: int) -> DcpEigensystem:
    odd = (p * (q - 1)) % 2
    phi = 0.0 if odd == 0 else 1.0 / (2 * q)
    roots = np.exp(1j * np.pi * np.arange(2 * q) / q)  # 2q-th roots of unity
    k = np.arange(q, dtype=np.int64)
    values = roots[(2 * k + odd) % (2 * q)].copy()

    # Entry phase in units of pi/q: nu_k^j * w^{-p j(j-1)/2} at row (j p) mod q.
    j = k[:, None]
    t = (j * (2 * k[None, :] + odd) - p * j * (j - 1)) % (2 * q)
    rows = (p * k) % q
    e = np.zeros((q, q), dtype=np.complex128)
    e[rows, :] = roots[t] / np.sqrt(q)

    values.setflags(write=False)
    e.setflags(write=False)
    return DcpEigensystem(values=values, vectors=e, phi=phi)


def dcp_eigensystem(alpha: RationalAlpha) -> DcpEigensystem:
    """Eigenvalues, eigenvectors and phase offset phi of D C^p for alpha = p/q.

    Results are memoized per (p, q); the returned arrays are read-only.
    """
    if not isinstance(alpha, RationalAlpha):
        raise InvalidParams("dcp_eigensystem expects a RationalAlpha")
    return _dcp_cached(alpha.p, alpha.q)


# -- operator matrices ----------------------------------------------------------

def operator_stack(params: OperatorParams, xs, thetas) -> np.ndarray:
    """Matrices of params.kind at the phase pairs (xs[i], thetas[i]), shape (m, q, q).

    This is the only place operator matrices are assembled; params.theta
    is ignored in favour of ``thetas``.  With G(k, y) = diag(cos 2 pi (y + k j / q)):

    * H       2 G(1, x) + 2 lambda F G(p, theta) F^{-1},
    * UH      exp(-i kappa H), by linalg.expm_i_hermitian_stack,
    * UKH     exp(-i 2 kappa G(1, x)) F exp(-i 2 kappa lambda G(p, theta)) F^{-1},
    * UORDKR  exp(-i 2 kappa G(1, x)) E exp(-i 2 kappa lambda G(1, beta)) E^{-1}
              with beta = x + theta + alpha/2 + phi and (E, phi) the D C^p
              eigensystem.

    Diagonal kicks are exponentiated entrywise, so only UH needs an
    eigensolver.  The F-conjugated theta kicks are circulants, gathered
    from the inverse FFT of their diagonal through one q x q int64 index;
    the x kicks are applied to the stack in place.
    """
    kind = params.kind
    p, q = params.alpha.p, params.alpha.q
    kap, lam = params.kappa, params.lam
    xs = np.asarray(xs, dtype=np.float64) % 1.0
    thetas = np.asarray(thetas, dtype=np.float64) % 1.0

    if kind is OperatorKind.UORDKR:
        dcp = dcp_eigensystem(params.alpha)
        beta = xs + thetas + params.alpha.value / 2.0 + dcp.phi
        stack = np.exp(-2j * kap * cos_rows(1, xs, q))[:, :, None] * dcp.vectors
        stack *= np.exp(-2j * kap * lam * cos_rows(1, beta, q))[:, None, :]
        return stack @ dcp.vectors.conj().T

    # F diag(r) F^{-1} = [c[(j - k) mod q]] with c = ifft(r), since F carries D^p
    # to a power of C.  Built once per distinct theta, by np.take, which keeps
    # the stack C-ordered for the solvers (a fancy index would not).
    t_unique, t_inv = np.unique(thetas, return_inverse=True)
    row = cos_rows(p, t_unique, q)
    if kind is OperatorKind.UKH:
        row = np.exp(-2j * kap * lam * row)
    j = np.arange(q)
    stack = np.take(np.fft.ifft(row), (j[:, None] - j) % q, axis=1)[t_inv]
    if kind is OperatorKind.UKH:
        return np.multiply(np.exp(-2j * kap * cos_rows(1, xs, q))[:, :, None], stack, out=stack)
    stack *= 2.0 * lam
    stack[:, j, j] += 2.0 * cos_rows(1, xs, q)
    if kind is OperatorKind.H:
        return stack
    return expm_i_hermitian_stack(stack, kap)

