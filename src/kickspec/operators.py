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
batch of phase pairs at once.  Each theta term is a circulant gathered
from the inverse FFT of its diagonal (``_theta_kick``), UORDKR's E D_beta
E* relabelled by j -> j p^{-1} mod q and chirped, so E is never built.
``harper_jacobi_stack`` builds, for the same pairs, real symmetric
matrices with the eigenvalues of H, which the h and uh sweeps solve
instead (Chambers' relation).  At a corner node, where 2 q x and 2 q theta
are integers, the UKH and UORDKR matrices commute with an involution
P = D^t C^{-s} R_0 (``_parity_blocks``), and H's Jacobi matrix with a
reflection of its ring, so each splits into two blocks of about q/2, which
``_corner_blocks`` sizes from integers and builds on demand, without the
q x q matrix.  Where 2 q times the theta kick's phase is an integer
(2 q theta for UKH, at any x; 2 q (x + theta) for UORDKR), the matrix is
time-reversal symmetric: a diagonal gauge G (``_reversal_gauge``) makes
conj(G) U G complex symmetric, and each corner block with it.
Phases are assembled from exact integer arithmetic modulo q (or 2q), so
large q does not lose accuracy to argument reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial

import numpy as np

from .errors import InvalidParams
from .linalg import expm_i_hermitian_stack

__all__ = [
    "MOTHER",
    "OperatorKind",
    "RationalAlpha",
    "OperatorParams",
    "DcpEigensystem",
    "operator_stack",
    "harper_jacobi_stack",
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
            raise InvalidParams(f"alpha denominator must be >= 1, got {self.q}")
        if not (0 <= self.p < self.q or (self.p, self.q) == (0, 1)):
            raise InvalidParams(f"alpha must lie in [0, 1): got {self.p}/{self.q}")
        if math.gcd(self.p, self.q) != 1:
            raise InvalidParams(
                f"{self.p}/{self.q} is not reduced (gcd = {math.gcd(self.p, self.q)})")

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
        kappa, lam = float(self.kappa), float(self.lam)
        if not (np.isfinite(kappa) and np.isfinite(lam)):
            raise InvalidParams(f"kappa and lambda must be finite, got {kappa}, {lam}")
        if kind is OperatorKind.H:
            kappa = 0.0
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


@dataclass(frozen=True)
class DcpEigensystem:
    """The shift and phase offset phi of D C^p's closed-form eigensystem at alpha = p/q.

    D C^p has the eigenvalues mu w^k (k = 0..q-1), mu = exp(i 2 pi phi), with
    phi = 0 when p(q-1) is even and 1/(2q) when odd.  ``shift`` = p + 2 q phi
    is the one integer behind both: alpha/2 + phi = shift / (2q).  The tests'
    oracles dcp_values and dcp_vectors build the eigenvalues and eigenvectors.
    """

    p: int
    q: int

    @property
    def shift(self) -> int:
        return self.p + self.p * (self.q - 1) % 2

    @property
    def phi(self) -> float:
        return (self.shift - self.p) / (2 * self.q)


def dcp_eigensystem(alpha: RationalAlpha) -> DcpEigensystem:
    """The shift and phase offset phi of D C^p's eigensystem for alpha = p/q."""
    if not isinstance(alpha, RationalAlpha):
        raise InvalidParams("dcp_eigensystem expects a RationalAlpha")
    return DcpEigensystem(alpha.p, alpha.q)


# -- operator matrices ----------------------------------------------------------

def operator_stack(params: OperatorParams, xs, thetas) -> np.ndarray:
    """Matrices of params.kind at the phase pairs (xs[i], thetas[i]), shape (m, q, q).

    This is the only place the operator matrices themselves are assembled;
    params.theta is ignored in favour of ``thetas``.  Sweeps reach h (and,
    through its eigenvalues, uh) by the Jacobi builder ``harper_jacobi_stack``;
    the circulant H built here serves the UH build, the general route and the
    tests.  With G(k, y) = diag(cos 2 pi (y + k j / q)):

    * H       2 G(1, x) + 2 lambda F G(p, theta) F^{-1},
    * UH      exp(-i kappa H), by linalg.expm_i_hermitian_stack,
    * UKH     exp(-i 2 kappa G(1, x)) F exp(-i 2 kappa lambda G(p, theta)) F^{-1},
    * UORDKR  exp(-i 2 kappa G(1, x)) E exp(-i 2 kappa lambda G(1, beta)) E^{-1}
              with beta = x + theta + alpha/2 + phi and (E, phi) the D C^p
              eigensystem.

    Diagonal kicks are exponentiated entrywise, so only UH needs an
    eigensolver.  Every theta term is a chirped circulant (_theta_kick),
    gathered once per distinct kick phase through the q x q index of
    _circulant_index; the rotor's chirp and the x kicks are applied in place.
    """
    kind = params.kind
    q, kap, lam = params.alpha.q, params.kappa, params.lam
    xs = np.asarray(xs, dtype=np.float64) % 1.0
    thetas = np.asarray(thetas, dtype=np.float64) % 1.0
    kicked = kind in (OperatorKind.UKH, OperatorKind.UORDKR)

    rows, inverse, step, chirp = _theta_kick(params, xs, thetas)
    if kicked:
        rows = np.exp(-2j * kap * lam * rows)
    # Gathered by np.take, which keeps the stack C-ordered for the solvers (a
    # fancy index would not).
    stack = np.take(np.fft.ifft(rows), _circulant_index(q, step), axis=1)
    if chirp is not None:  # conj(X_l) per distinct phase; X_r joins the x kick
        stack *= chirp.conj()
    stack = stack[inverse]
    if kicked:
        x_kick = np.exp(-2j * kap * cos_rows(1, xs, q))
        if chirp is not None:
            x_kick *= chirp
        return np.multiply(x_kick[:, :, None], stack, out=stack)
    stack *= 2.0 * lam
    j = np.arange(q)
    stack[:, j, j] += 2.0 * cos_rows(1, xs, q)
    if kind is OperatorKind.H:
        return stack
    return expm_i_hermitian_stack(stack, kap)


def _theta_kick(params: OperatorParams, xs, thetas) -> tuple:
    """The theta term of params.kind as a chirped circulant: (rows, inverse, step, chirp).

    T[r, l] = X_r conj(X_l) c_((j_r - j_l) mod q), j_r = r step mod q, with c
    the inverse FFT of the term's diagonal, a function of ``rows``, the
    cos_rows of each distinct kick phase (``inverse`` maps nodes to them).
    F carries D^p to a power of C, so UKH's kick (and H's theta term) has
    rows G(p, theta), step 1 and no chirp (None).  E's rows r = j p carry the
    phases j (2 k + odd) - p j (j - 1) in units of pi/q (oracles.dcp_vectors),
    so E D_beta E* has rows G(1, beta), step p^-1 and X_r = sqrt q E[r, 0].
    """
    alpha = params.alpha
    p, q = alpha.p, alpha.q
    phase, mult, step, chirp = thetas, p, 1, None
    if params.kind is OperatorKind.UORDKR:
        dcp, step = dcp_eigensystem(alpha), pow(p, -1, q)
        phase, mult = xs + thetas + alpha.value / 2.0 + dcp.phi, 1
        j = np.arange(q) * step % q
        chirp = np.exp(1j * np.pi * ((j * (dcp.shift - p) - p * j * (j - 1)) % (2 * q)) / q)
    unique, inverse = np.unique(phase, return_inverse=True)
    return cos_rows(mult, unique, q), inverse, step, chirp


# Cached for the last few (q, step): the index is what a sweep's chunks share.
# It stays for the life of the process, so it is kept in the smallest unsigned
# type that holds q - 1 (one byte up to q = 256): as int64 the entries kept
# raised a CLI session's peak RSS by about 0.4 MB.
@lru_cache(maxsize=8)
def _circulant_index(q: int, step: int) -> np.ndarray:
    """The q x q index (j_r - j_l) mod q of _theta_kick's circulants, j_r = r step; read-only."""
    j = np.arange(q) * step % q
    index = ((j[:, None] - j) % q).astype(np.min_scalar_type(q - 1))
    index.setflags(write=False)
    return index


@lru_cache(maxsize=64)
def _parity_blocks(alpha: RationalAlpha, half_x: int, half_theta: int) -> tuple[tuple, ...]:
    """The two eigenspaces of the involution P that commutes with the UKH and UORDKR matrices.

    At a corner, half_x = 2 q x and half_theta = 2 q theta are integers and
    the joint reflection (x, theta) -> (-x, -theta) fixes the node.  Both
    kinds' matrices (operator_stack) commute there with P e_k =
    w^{t sigma(k)} e_sigma(k), sigma(k) = s - k, for s = -half_x and
    t = -p^{-1} half_theta mod q; P = D^t C^{-s} R_0 with (R_0 v)_k = v_{-k}
    and C^p D = w^p D C^p, and P^2 = c I with c = w^{t s}.  Its eigenvectors
    for +-sqrt(c) are e_k at the fixed points of sigma and
    (e_k +- w^{t sigma(k)} c^{-1/2} e_sigma(k)) / sqrt(2) on its 2-cycles
    k < sigma(k).  Returns (k, sigma(k), a, b) per nonempty block, its
    vectors a e_k + b e_sigma(k); the arrays are cached and read-only.
    """
    p, q = alpha.p, alpha.q
    k = np.arange(q, dtype=np.int64)
    s, t = -half_x % q, -pow(p, -1, q) * half_theta % q
    sigma = (s - k) % q
    # w^{t sigma(k)} c^{-1/2} = exp(i pi t (s - 2k) / q): exactly -1 or 1 at a fixed point.
    rel = t * (s - 2 * k) % (2 * q)
    blocks = []
    for sign in (1, -1):
        at = (k < sigma) | ((k == sigma) & ((rel == 0) == (sign == 1)))
        cycle = k[at] != sigma[at]
        b = np.where(cycle, sign * np.sqrt(0.5) * np.exp(1j * np.pi * rel[at] / q), 0.0)
        blocks.append((k[at], sigma[at], np.where(cycle, np.sqrt(0.5), 1.0), b))
    for block in blocks:
        for arr in block:
            arr.setflags(write=False)
    return tuple(block for block in blocks if block[0].size)


@lru_cache(maxsize=64)
def _reversal_chirp(alpha: RationalAlpha, kind: OperatorKind, half: int) -> np.ndarray:
    """The theta kick's half of the gauge of _reversal_gauge, exp(i pi n_j / q); cached, read-only.

    U = A T is the x kick A = diag(a_j) times the theta kick T.  At an
    integer half, the reflection of T's phase makes T^T = M* T M for a
    diagonal M: ukh's circulant T has M = D^t, t = -p^{-1} half mod q (the
    t of _parity_blocks), since F carries the reversed kick diagonal to
    the shifted one; uordkr's T = E D_beta E* has M = diag(w^{n_j}), n_j =
    -p^{-1} j (j + half), read off E's phase table (oracles.dcp_vectors),
    where row j p and column k of E add up to w^{n_{jp}} against column
    -2 q beta - k: D_beta takes one to the other.  So U^T = Gamma* U Gamma
    with Gamma = A M, and n_j here is that of M^{1/2}, up to signs (-1)^j.
    """
    p, q = alpha.p, alpha.q
    j = np.arange(q, dtype=np.int64)
    step = half if kind is OperatorKind.UKH else j + half
    n = -pow(p, -1, q) * j * step % (2 * q)
    chirp = np.exp(1j * np.pi * n / q)
    chirp.setflags(write=False)
    return chirp


def _reversal_gauge(params: OperatorParams, xs, half_theta: int, half_x: int = 0) -> np.ndarray:
    """Diagonal gauges G, shape (len(xs), q), with conj(G) U G complex symmetric.

    A node is on the time-reversal line when 2 q times its theta kick's
    phase is an integer: half_theta = 2 q theta for ukh, at any x, and
    half_x + half_theta = 2 q (x + theta) for uordkr, whose kick phase is
    beta = x + theta + shift / (2q); ukh does not read half_x.  There U^T =
    Gamma* U Gamma with Gamma = A M (_reversal_chirp), and G is an entrywise
    square root of Gamma, so conj(G) U G is complex symmetric and its
    Cayley matrix real.  At a corner, block (k, sigma(k), a, b) of
    _parity_blocks takes G[k]: its a are real and each b^2 / |b|^2 =
    Gamma_sigma(k) / Gamma_k.
    """
    half = half_theta + half_x * (params.kind is OperatorKind.UORDKR)
    kick = np.exp(-1j * params.kappa * cos_rows(1, xs, params.alpha.q))
    return kick * _reversal_chirp(params.alpha, params.kind, half)


def harper_jacobi_stack(params: OperatorParams, xs, thetas) -> np.ndarray:
    """Real symmetric matrices with the eigenvalues of H at (xs[i], thetas[i]), shape (m, q, q).

    Relabelling site j as j p^{-1} mod q and gauging the hop phases into
    one corner turns H into the periodic Jacobi matrix with diagonal
    2 cos 2 pi (x + m p / q), hops lambda and corner lambda exp(i 2 pi q theta).
    Its characteristic polynomial depends on (x, theta) only through
    c = cos 2 pi q x + lambda^q cos 2 pi q theta (Chambers), so the real
    corner +-lambda, theta = 0 or 1/(2q), at the x' with the same c has the
    same eigenvalues.  With L = |lambda|^q, S = sin^2 pi q x + L sin^2 pi q theta
    and C = cos^2 pi q x + L cos^2 pi q theta (S + C = 1 + L), x' solves
    sin^2 pi q x' = S (corner +) or cos^2 pi q x' = C (corner -); the smaller
    of S and C is at most 1 when L <= 1, and its half-angle form has no
    cancellation where bands touch.  A negative lambda^q is theta shifted by
    1/(2q).  For |lambda| > 1 the matrix is built in the Fourier frame,
    lambda (2 G(p, theta) + F^{-1} 2 G(1, x) F / lambda), where theta is the
    potential's phase and x the hops'.  At q = 2 the hop and the corner are
    one entry, and at q = 1 the 1 x 1 value is 2c.  params.kind must be H.
    """
    if params.kind is not OperatorKind.H:
        raise InvalidParams(f"harper_jacobi_stack builds h matrices, got kind {params.kind.value}")
    p, q, lam = params.alpha.p, params.alpha.q, params.lam
    scale, hop, u, v = (1.0, lam, xs, thetas) if abs(lam) <= 1.0 else (lam, 1.0 / lam, thetas, xs)
    # Phases in units of 1/q, reduced mod 1: the spectrum is 1/q-periodic in both.
    tu = (q * np.asarray(u, dtype=np.float64)) % 1.0
    tv = (q * np.asarray(v, dtype=np.float64) + (0.5 if hop < 0 and q % 2 else 0.0)) % 1.0
    hop, hop_q = abs(hop), abs(hop) ** q
    s = np.sin(np.pi * tu) ** 2 + hop_q * np.sin(np.pi * tv) ** 2
    c = np.cos(np.pi * tu) ** 2 + hop_q * np.cos(np.pi * tv) ** 2
    plus = s <= c
    half = np.sqrt(np.minimum(np.where(plus, s, c), 1.0))  # rounding can pass 1 at L = 1
    phase = np.where(plus, np.arcsin(half), np.arccos(half)) / (np.pi * q)

    j = np.arange(q)
    stack = np.zeros((phase.size, q, q))
    stack[:, j, j] = 2.0 * cos_rows(p, phase, q)
    stack[:, j[:-1], j[1:]] = hop
    stack[:, j[1:], j[:-1]] = hop
    # += : at q = 2 the corner is the hop's own entry, at q = 1 the diagonal.
    corner = np.where(plus, hop, -hop)
    stack[:, 0, q - 1] += corner
    stack[:, q - 1, 0] += corner
    stack *= scale
    return stack


def _corner_blocks(params: OperatorParams, half_x: int, half_theta: int) -> list[tuple]:
    """The parity blocks of params.kind's matrix at the corner (half_x, half_theta) / (2q).

    Returns (size, make) per nonempty block, for H, UKH or UORDKR: a uh
    sweep solves, and splits, the H matrices.  size, the block's rows, comes
    from integers alone; make() builds (block, gauge) without the q x q
    matrix, so a sweep holds a block only while its solver call runs.  H's
    blocks are those of its real Jacobi matrix (_jacobi_blocks), with no
    gauge.  For UKH and UORDKR, V's columns a e_k + b e_sigma(k) (one block
    of _parity_blocks) span an eigenspace of P, which commutes with the x
    kick A (diagonal, with A_sigma(k) = A_k) and with the theta kick T, so
    V* U V = diag(A_k) V* T V, and T keeps the eigenspace, so (V* T V)[m, n]
    = (T V)[k_m, n] / a_m.  Both kinds' T are chirped circulants
    (_theta_kick), T[r, l] = X_r conj(X_l) c_(j_r - j_l), so each block is
    two gathers from c, O(q^2) with no q x q index.  A kicked block's gauge
    is the node's _reversal_gauge G at its k.  The O(q) kicks, gauge and c
    are computed once per corner, here.
    """
    kind, alpha, kap, lam = params.kind, params.alpha, params.kappa, params.lam
    if kind is OperatorKind.H:
        return _jacobi_blocks(alpha, lam, half_x, half_theta)
    q = alpha.q
    x, theta = half_x / (2 * q), half_theta / (2 * q)
    x_kick = np.exp(-2j * kap * cos_rows(1, [x], q))[0]
    gauge = _reversal_gauge(params, [x], half_theta, half_x)[0]
    rows, _, step, chirp = _theta_kick(params, np.array([x]), np.array([theta]))
    chirp = np.ones(q) if chirp is None else chirp
    c = np.fft.ifft(np.exp(-2j * kap * lam * rows[0]))

    def make(k, sk, ak, bk) -> tuple:
        jk, jsk, cc = k * step % q, sk * step % q, np.concatenate((c, c))
        block = cc[jk[:, None] - jk + q] * (ak * chirp[k].conj())  # c_(j - l) at j - l + q
        block += cc[jk[:, None] - jsk + q] * (bk * chirp[sk].conj())
        block *= (x_kick[k] * chirp[k] / ak)[:, None]
        return block, gauge[k]
    return [(b[0].size, partial(make, *b)) for b in _parity_blocks(alpha, half_x, half_theta)]


def _jacobi_blocks(alpha: RationalAlpha, lam: float, half_x: int, half_theta: int) -> list:
    """The parity blocks of H's real Jacobi matrix at the corner (half_x, half_theta) / (2q).

    At the node itself (not the x' of Chambers' map, which leaves the
    corners) harper_jacobi_stack's matrix has diagonal d_m = 2 cos pi (u +
    2 m p) / q, hops lambda and the corner bond (-1)^v lambda, with u =
    half_x and v = half_theta; for |lambda| > 1 it is lambda times the
    Fourier frame's, hops 1/lambda, u and v swapped.  The reflection m ->
    s - m, p s = -u (mod q), keeps d and maps bonds to bonds.  It fixes two
    points of the ring: a site and a bond at odd q, two sites at even s, two
    bonds at odd s.  A sign gauge puts the sign of the bonds' product,
    (-1)^v sign(hop)^q, on a fixed bond, where the reflection keeps it; with
    two fixed sites a product of -1 makes the symmetry S R instead, S = -1
    on one arc between them, which moves the far site to the odd block.
    The half ring n from one fixed point to the other carries both blocks as
    open chains, even and odd: a pair (e_n +- e_(s - n)) / sqrt 2 has
    diagonal d_n, a fixed site (even block) couples by sqrt 2 |hop|, and a
    fixed bond adds +- its value to its pair's diagonal.  Returns
    _corner_blocks' (size, make): real symmetric blocks, sizes summing to q.
    """
    p, q = alpha.p, alpha.q
    scale, hop, u, v = (1.0, lam, half_x, half_theta)
    if abs(lam) > 1.0:
        scale, hop, u, v = lam, 1.0 / lam, half_theta, half_x
    s, t = -u * pow(p, -1, q) % q, abs(hop)
    flux = (-1.0) ** (v + (hop < 0) * q)  # +1 at lambda = 0, where no bond carries a sign
    # Whether each end of the half ring is a fixed site (else a fixed bond), and its sites.
    first, last = q % 2 == 1 or s % 2 == 0, q % 2 == 0 and s % 2 == 0
    n = np.arange(q // 2 + first) + ((s + q * (s % 2)) // 2 if first else (s + 1) // 2)
    diag = 2.0 * np.cos(np.pi * ((u + 2 * p * n) % (2 * q)) / q)
    if q == 1:  # the one site is its own pair across the one bond, taken both ways
        return [(1, lambda: (np.array([[scale * (diag[0] + 2.0 * flux * t)]]), None))]
    hops = np.full(n.size - 1, t)
    hops[:1] *= np.sqrt(2.0) if first else 1.0
    hops[-1:] *= np.sqrt(2.0) if last else 1.0

    def make(sign, lo, hi) -> tuple:
        d = diag.copy()
        d[0] += 0.0 if first else sign * t
        d[-1] += 0.0 if last else sign * flux * t
        block = np.diag(d[lo:hi])
        i = np.arange(hi - lo - 1)
        block[i, i + 1] = block[i + 1, i] = hops[lo:hi - 1]
        return scale * block, None
    ends = [(sign, int(first and sign < 0), n.size - int(last and sign * flux < 0))
            for sign in (1.0, -1.0)]
    return [(hi - lo, partial(make, sign, lo, hi)) for sign, lo, hi in ends if hi > lo]
