import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kickspec.errors import InvalidParams
from kickspec.linalg import expm_i_hermitian_stack
from kickspec.operators import (
    MOTHER,
    OperatorKind,
    OperatorParams,
    RationalAlpha,
    _corner_blocks,
    _parity_blocks,
    _reversal_chirp,
    _reversal_gauge,
    _theta_kick,
    cos_rows,
    harper_jacobi_stack,
    rotor_shift,
)
from oracles import (
    clock_shift,
    cos_diag,
    dcp_values,
    dcp_vectors,
    dft,
    kick,
    matrix_at,
    operator_matrix,
    unitary_eigvals,
)

ROOT8 = 2.0 * np.sqrt(2.0)


def set_distance(a, b):
    a = np.asarray(a).ravel()[:, None]
    b = np.asarray(b).ravel()[None, :]
    d = np.abs(a - b)
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def params(kind, kappa, lam, p, q, theta=0.0):
    return OperatorParams(kind, kappa, lam, RationalAlpha(p, q), theta)


# -- RationalAlpha / OperatorParams ----------------------------------------------


def test_alpha_accepts_zero_and_reduced_fractions():
    assert RationalAlpha(0, 1).value == 0.0
    assert str(RationalAlpha(8, 13)) == "8/13"
    assert RationalAlpha.parse(" 13/41 ") == RationalAlpha(13, 41)


def test_alpha_rejects_bad_input():
    with pytest.raises(InvalidParams, match=r"4/6 is not reduced \(gcd = 2\)"):
        RationalAlpha(4, 6)
    with pytest.raises(InvalidParams):
        RationalAlpha(3, 2)
    with pytest.raises(InvalidParams, match="alpha denominator must be >= 1, got 0"):
        RationalAlpha(0, 0)
    with pytest.raises(InvalidParams):
        RationalAlpha.parse("0.5")
    with pytest.raises(InvalidParams, match="alpha must be given as p/q with integers"):
        RationalAlpha.parse("a/b")
    with pytest.raises(InvalidParams, match="alpha components must be integers"):
        RationalAlpha(1.0, 2)


@pytest.mark.parametrize("make,message", [
    (lambda: OperatorParams("ukh", 1.0, 1.0, "1/2"), "alpha must be a RationalAlpha"),
    (lambda: params("ukh", 1.0, 1.0, 1, 2, theta="fixed"), "theta must be a real in"),
    (lambda: params("ukh", 1.0, 1.0, 1, 2, theta=float("inf")), "theta must be finite"),
    # h records kappa as 0.0, but only once the kappa it was given is finite.
    (lambda: params("h", float("nan"), 1.0, 1, 2), "kappa and lambda must be finite"),
    (lambda: rotor_shift("1/2"), "rotor_shift expects a RationalAlpha"),
], ids=["params-alpha-str", "params-theta-word", "params-theta-inf", "params-h-kappa-nan",
        "dcp-alpha-str"])
def test_an_alpha_that_is_not_rational_or_a_theta_that_is_not_a_phase_is_refused(make, message):
    with pytest.raises(InvalidParams, match=message):
        make()


def test_params_reduce_theta_and_zero_kappa_for_h():
    p = params("h", 7.0, 1.0, 1, 2, theta=1.25)
    assert p.kappa == 0.0
    assert p.theta == 0.25
    assert not p.is_mother
    m = params("ukh", 1.0, 1.0, 1, 2, theta=MOTHER)
    assert m.is_mother
    with pytest.raises(InvalidParams):
        m.fixed_theta()
    with pytest.raises(InvalidParams):
        params("ukh", float("nan"), 1.0, 1, 2)


# -- F, C, D, G: the arrays operator_stack reads, against the numpy oracles -------


def g_at(k, y, q):
    """G(k, y) as operator_stack builds it, from cos_rows."""
    return np.diag(cos_rows(k, [y], q)[0]).astype(complex)


@pytest.mark.parametrize("q", [1, 2, 3, 5, 8, 13, 24])
def test_primitive_arrays_match_oracles(q):
    # F carries the clock D to the shift C, which makes F G F^{-1} a circulant.
    c, d = clock_shift(q)
    f = dft(q)
    assert np.abs(f @ d @ f.conj().T - c).max() <= 1e-14 * q
    for k in range(q):
        for y in (0.0, 0.3, 0.71):
            assert np.abs(g_at(k, y, q) - cos_diag(k, y, q)).max() <= 1e-14


def test_dft_q1_and_q2():
    assert np.allclose(dft(1), [[1.0]])
    expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    assert np.abs(dft(2) - expected).max() <= 1e-15


def test_dft_q4_unitary():
    f = dft(4)
    assert np.abs(f @ f.conj().T - np.eye(4)).max() <= 1e-14


def test_clock_shift_q2():
    c, d = clock_shift(2)
    assert np.allclose(c, [[0, 1], [1, 0]])
    assert np.allclose(d, np.diag([1.0, -1.0]))


def test_cf_equals_fd_q3():
    c, d = clock_shift(3)
    f = dft(3)
    assert np.abs(c @ f - f @ d).max() <= 1e-14


def test_commutation_q5_p2():
    c, d = clock_shift(5)
    c2 = np.linalg.matrix_power(c, 2)
    assert np.abs(c2 @ d - np.exp(4j * np.pi / 5) * d @ c2).max() <= 1e-12


@pytest.mark.parametrize("q", range(2, 25))
def test_frame_relation_all_coprime(q):
    c, d = clock_shift(q)
    for p in range(1, q):
        if math.gcd(p, q) != 1:
            continue
        cp = np.linalg.matrix_power(c, p)
        assert np.abs(cp @ d - np.exp(2j * np.pi * p / q) * d @ cp).max() <= 1e-12


def test_cos_diag_q2_and_zero_case():
    assert np.allclose(g_at(1, 0.0, 2), np.diag([1.0, -1.0]))
    assert np.abs(g_at(0, 0.25, 4)).max() <= 1e-15


def test_cos_diag_shift_conjugation_q3():
    c, _ = clock_shift(3)
    x = 0.1
    lhs = c @ g_at(1, x, 3) @ np.linalg.inv(c)
    assert np.abs(lhs - g_at(1, x + 1.0 / 3.0, 3)).max() <= 1e-14


# -- Harper family ------------------------------------------------------------------


def test_harper_hand_q2():
    h = matrix_at(params("h", 0, 1.0, 1, 2), 0.0)
    assert np.abs(h - np.array([[2.0, 2.0], [2.0, -2.0]])).max() <= 1e-14
    assert np.allclose(np.linalg.eigvalsh(h), [-ROOT8, ROOT8], atol=1e-12)


def test_harper_lambda_zero_is_diagonal():
    h = matrix_at(params("h", 0, 0.0, 2, 5), 0.3)
    off = h - np.diag(np.diag(h))
    assert np.abs(off).max() <= 1e-15
    assert np.allclose(np.diag(h).real, 2.0 * np.cos(2 * np.pi * (0.3 + np.arange(5) / 5)))


def test_unitary_harper_kappa_zero_is_identity():
    u = matrix_at(params("uh", 0.0, 1.0, 1, 3), 0.2)
    assert np.abs(u - np.eye(3)).max() <= 1e-13


def test_unitary_harper_hand_q2():
    u = matrix_at(params("uh", 1.0, 1.0, 1, 2), 0.0)
    expected = np.exp(-1j * np.array([-ROOT8, ROOT8]))
    assert set_distance(unitary_eigvals(u), expected) <= 1e-10


def test_unitary_harper_functional_calculus_q3():
    kappa = 0.7
    h = matrix_at(params("h", 0, 1.2, 1, 3, theta=0.15), 0.05)
    u = matrix_at(params("uh", kappa, 1.2, 1, 3, theta=0.15), 0.05)
    expected = np.exp(-1j * kappa * np.linalg.eigvalsh(h))
    assert set_distance(unitary_eigvals(u), expected) <= 1e-10


def test_kicked_harper_kappa_zero_is_identity():
    m = matrix_at(params("ukh", 0.0, 1.0, 1, 4), 0.1)
    assert np.abs(m - np.eye(4)).max() <= 1e-14


def test_kicked_harper_q1_scalar():
    m = matrix_at(params("ukh", 0.8, 0.5, 0, 1, theta=0.3), 0.2)
    expected = np.exp(-2j * 0.8 * np.cos(2 * np.pi * 0.2)) * np.exp(
        -2j * 0.8 * 0.5 * np.cos(2 * np.pi * 0.3)
    )
    assert abs(m[0, 0] - expected) <= 1e-15


def test_kicked_harper_hand_product_q2():
    m = matrix_at(params("ukh", 0.5, 1.0, 1, 2), 0.0)
    f = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    d1 = np.diag([np.exp(-1j), np.exp(1j)])
    hand = d1 @ f @ d1 @ f
    assert np.abs(m - hand).max() <= 1e-14


@pytest.mark.parametrize("pq", [(1, 3, 1.1, 0.7), (2, 5, 1.1, 0.7), (3, 7, 1.1, 0.7),
                                (8, 13, 1.1, 0.7), (89, 144, 1.0, 30.0), (144, 233, 1.0, 30.0)])
def test_kicked_harper_matches_circulant_similarity_form(pq):
    # D1 F D2 F^{-1} is similar to (F^{-1} D1 F) D2, a circulant times a
    # diagonal; both routes must produce the same eigenvalue set.  Both
    # theta kicks, h's and ukh's, equal their dense product with the oracle F.
    rng = np.random.default_rng(sum(pq[:2]))
    p_, q_, kappa, lam = pq
    x, th = (float(v) for v in rng.uniform(size=2))
    pa = OperatorParams("ukh", kappa, lam, RationalAlpha(p_, q_), th)
    m = matrix_at(pa, x)
    f = dft(q_)
    jj = np.arange(q_)
    g1 = np.cos(2 * np.pi * (x + jj / q_))
    g2 = np.cos(2 * np.pi * (th + (p_ * jj % q_) / q_))
    d1, d2 = np.diag(np.exp(-2j * kappa * g1)), np.diag(np.exp(-2j * kappa * lam * g2))
    assert np.abs(m - d1 @ f @ d2 @ f.conj().T).max() <= 1e-13
    alt = f.conj().T @ d1 @ f @ d2
    assert set_distance(unitary_eigvals(m), unitary_eigvals(alt)) <= 1e-12
    h = matrix_at(OperatorParams("h", 0.0, lam, RationalAlpha(p_, q_), th), x)
    dense = np.diag(2 * g1) + 2 * lam * f @ np.diag(g2) @ f.conj().T
    assert np.abs(h - dense).max() <= 1e-13 * (1 + lam)


def test_kicked_harper_x_shift_covariance():
    rng = np.random.default_rng(7)
    for _ in range(5):
        x, th = rng.uniform(size=2)
        pa = params("ukh", 1.3, 0.8, 2, 5, theta=th)
        v1 = unitary_eigvals(matrix_at(pa, x))
        v2 = unitary_eigvals(matrix_at(pa, x + 1.0 / 5.0))
        assert set_distance(v1, v2) <= 1e-10


# -- the parity involution of a corner node ------------------------------------------


def involution(p, q, half_x, half_theta):
    """P = D^t C^{-s} R_0 with the oracle's C, s = -2qx and t = -p^{-1} 2q theta mod q.

    D^t = diag(w^{t j}) is taken with t j reduced mod q, as D's own phases are.
    """
    c, _ = clock_shift(q)
    s, t = -half_x % q, -pow(p, -1, q) * half_theta % q
    d_t = np.diag(np.exp(2j * np.pi * (t * np.arange(q) % q) / q))
    r0 = np.eye(q)[:, -np.arange(q) % q]  # (R_0 v)_k = v_{-k}
    return d_t @ np.linalg.matrix_power(c.T, s) @ r0


def block_vectors(q, k, sk, a, b):
    """The columns a e_k + b e_sk of one block of _parity_blocks, as a q x h matrix."""
    v = np.zeros((q, k.size), dtype=complex)
    v[k, np.arange(k.size)] += a
    v[sk, np.arange(k.size)] += b
    return v


_KICKS = [(0.5, 1.0), (1.0, 0.7), (2.3, -1.3), (30.0, 2.0)]  # (kappa, lambda)


@pytest.mark.parametrize("kind", ["ukh", "uordkr"])
@pytest.mark.parametrize("p,q", [(1, 2), (3, 4), (2, 5), (5, 8), (8, 13), (21, 34), (144, 233)])
def test_parity_involution_commutes_with_the_kicked_matrices(kind, p, q):
    # Every corner (2qx, 2q theta) in {0, 1}^2, and fixed theta = K/(2q) for K >= 2, each at
    # the next (kappa, lambda) of _KICKS.  3/4 and 21/34 have even q; 5/8 and 21/34 an odd
    # p(q-1), where the oracle's rotor phase leaves out operators' phi.
    halves = [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 3), (1, q), (0, 2 * q - 1)]
    for i, (hx, ht) in enumerate(halves):
        kappa, lam = _KICKS[i % len(_KICKS)]
        u = operator_matrix(kind, kappa, lam, p, q, hx / (2 * q), ht / (2 * q))
        pm = involution(p, q, hx, ht)
        assert np.abs(pm @ u - u @ pm).max() <= 1e-13
        # _parity_blocks lists P's eigenvectors: one eigenvalue per block, and together a
        # unitary W with W* U W block diagonal.
        blocks = [block_vectors(q, *b) for b in _parity_blocks(RationalAlpha(p, q), hx, ht)]
        w = np.hstack(blocks)
        assert np.abs(w.conj().T @ w - np.eye(q)).max() <= 1e-14
        for v in blocks:
            ev = v[:, 0].conj() @ pm @ v[:, 0]
            assert np.abs(pm @ v - ev * v).max() <= 1e-14
        h = blocks[0].shape[1]
        t = w.conj().T @ u @ w
        assert max(np.abs(t[:h, h:]).max(initial=0.0), np.abs(t[h:, :h]).max(initial=0.0)) <= 1e-13
    if q > 2:  # at q = 2 the (0, 0) involution is the identity
        # Control: x = 1/(4q) is no corner, and neither corner's involution commutes there.
        u = operator_matrix(kind, 1.0, 0.7, p, q, 1 / (4 * q), 0.0)
        for hx in (0, 1):
            pm = involution(p, q, hx, 0)
            assert np.abs(pm @ u - u @ pm).max() > 1e-3


# -- the corner builder: each kind's parity blocks, without the q x q matrix ---------------


@pytest.mark.parametrize("kind", ["h", "uh", "ukh", "uordkr"])
@pytest.mark.parametrize("p,q", [(0, 1), (1, 2), (1, 3), (2, 3), (3, 4), (5, 13), (8, 13),
                                 (13, 34), (21, 34), (34, 89), (55, 89)])
def test_corner_blocks_pool_to_the_eigenvalues_of_the_node(kind, p, q):
    # Every corner (2 q x, 2 q theta) in {0, 1}^2 at each lambda: a negative lambda^q at odd
    # q, |lambda| > 1 in h's Fourier frame, no hops at all; odd and even q put the Jacobi
    # reflection's fixed points on sites or bonds, and (0, 1) at even q gives its two fixed
    # sites a sign.
    for lam, hx, ht in itertools.product([1.0, 0.7, -1.3, 2.0, 0.0], (0, 1), (0, 1)):
        # Each block is announced by its size, then built.
        sized = _corner_blocks(params("h" if kind == "uh" else kind, 1.1, lam, p, q), hx, ht)
        blocks = [make() for _, make in sized]
        assert [size for size, _ in sized] == [len(b) for b, _ in blocks]
        if kind == "uh":  # a uh sweep splits the h matrices: its blocks are exp(-i kappa B)
            blocks = [(expm_i_hermitian_stack(b, 1.1), g) for b, g in blocks]
        assert sum(len(b) for b, _ in blocks) == q
        m = operator_matrix(kind, 1.1, lam, p, q, hx / (2 * q), ht / (2 * q))
        if kind == "h":
            got, want = [np.linalg.eigvalsh(b) for b, _ in blocks], np.linalg.eigvalsh(m)
        else:
            got, want = [np.linalg.eigvals(b) for b, _ in blocks], unitary_eigvals(m)
        assert set_distance(np.concatenate(got), want) <= 1e-13, (lam, hx, ht)
        for b, g in blocks:  # h's blocks are real symmetric; a kicked block's gauge makes it
            if kind == "h":  # complex symmetric
                assert g is None and b.dtype == np.float64 and np.array_equal(b, b.T)
            elif kind == "uh":
                assert g is None
            else:
                assert np.abs(gauged(b, g) - gauged(b, g).T).max() <= 1e-12


@pytest.mark.parametrize("kind", ["h", "ukh", "uordkr"])
def test_corner_blocks_are_built_when_asked(kind):
    # At 1/610 the corner (1, 1) announces its blocks by size; the O(q) kicks, gauge and
    # inverse FFT that it computes for them take less than one block of about 305 rows.
    tracemalloc.start()
    try:
        sized = _corner_blocks(params(kind, 1.0, 1.0, 1, 610), 1, 1)
        held = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < held < min(make()[0].nbytes for _, make in sized)


# -- the time-reversal gauge -------------------------------------------------------------


def cayley(u):
    """K = i (I - U)(I + U)^{-1}, by numpy's inverse."""
    eye = np.eye(len(u))
    return 1j * (eye - u) @ np.linalg.inv(eye + u)


def gauged(m, g):
    return g.conj()[:, None] * m * g[None, :]


@pytest.mark.parametrize("kind", ["ukh", "uordkr"])
@pytest.mark.parametrize("p,q", [(1, 3), (3, 4), (2, 5), (5, 8), (8, 13), (21, 34), (144, 233)])
def test_each_gauge_makes_the_cayley_matrix_real(kind, p, q):
    # Integer half steps (2 q x, 2 q theta), corners with both parity blocks, and for ukh
    # 2 q x in {0.37, 1.6} too, off the corners but on its line.  3/4 and 21/34 have even
    # q; 3/4, 5/8 and 21/34 an odd p(q-1), where the oracle's rotor phase leaves out
    # operators' phi.
    alpha = RationalAlpha(p, q)
    off = [0.37, 1.6] if kind == "ukh" else [2, 3]
    halves = [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 3), (off[0], 2), (off[1], 3)]
    for i, (hx, ht) in enumerate(halves):
        kappa, lam = _KICKS[i % len(_KICKS)]
        x = hx / (2 * q)
        u = operator_matrix(kind, kappa, lam, p, q, x, ht / (2 * q))
        g = _reversal_gauge(params(kind, kappa, lam, p, q), [x], ht, hx)[0]
        parts = [(u, g)]
        if float(hx).is_integer():  # a corner: both parity blocks, each with G[k]
            for b in _parity_blocks(alpha, hx, ht):
                v = block_vectors(q, *b)
                parts.append((v.conj().T @ u @ v, g[b[0]]))
        for m, gm in parts:
            w = gauged(m, gm)
            assert np.abs(w - w.T).max() <= 1e-12
            k = cayley(m)
            # |K| at least 1, K's rounding scale (a 1 x 1 block at U = 1 has K = 0).  At
            # kappa = 30 most of these matrices have an eigenphase near pi, where K carries
            # U's rounding (1e-14 at kick phases of 60) times up to |K|^2.
            scale = max(1.0, np.abs(k).max())
            bound = 1e-12 * scale * (scale if kappa == 30 else 1.0)
            assert np.abs(gauged(k, gm).imag).max() <= bound
    # Control: off the line, 2 q theta (ukh) or 2 q beta (uordkr) = 0.41, no chirp helps.
    x, theta = (0.0, 0.41 / (2 * q)) if kind == "ukh" else (0.41 / (2 * q), 0.0)
    u = operator_matrix(kind, 1.0, 0.7, p, q, x, theta)
    k = cayley(u)
    for half in range(2 * q):
        g = _reversal_gauge(params(kind, 1.0, 0.7, p, q), [x], half)[0]
        assert np.abs(gauged(k, g).imag).max() > 1e-3 * np.abs(k).max()


def _fitted_chirp(t):
    """exp(i pi (a j^2 + b j) / q) for the integers (a, b) mod 2q with Gamma* T Gamma
    nearest T^T, by a search over all of them."""
    q = len(t)
    j = np.arange(q)
    best, chirp = np.inf, None
    for a in range(2 * q):
        n = (a * j**2 + np.arange(2 * q)[:, None] * j) % (2 * q)  # b on axis 0
        gam = np.exp(1j * np.pi * n / q)
        res = np.abs(gam.conj()[:, :, None] * t * gam[:, None, :] - t.T).max(axis=(1, 2))
        if res.min() < best:
            best, chirp = res.min(), gam[res.argmin()]
    return best, chirp


@pytest.mark.parametrize("q", range(3, 22))
def test_the_rotor_chirp_is_the_numeric_fit(q):
    # T_beta, the rotor's theta kick, taken from the oracle's uordkr matrix at x = 0:
    # there 2 q beta - shift = 2 q theta = half.  The closed form's square is the
    # Gamma_beta that the fit finds, up to its (a, b) -> (a + q, b + q) twin.  T's
    # entries decay like (kappa lambda)^n / n! with their distance n in steps of p,
    # so kappa lambda = -3 keeps them above the fit's residual.
    for i, p in enumerate(p for p in range(1, q) if math.gcd(p, q) == 1):
        half = (0, 1, q, 2 * q - 1)[i % 4]
        u = operator_matrix("uordkr", 2.3, -1.3, p, q, 0.0, half / (2 * q))
        t = kick(1, 0.0, q, 2.3).conj() @ u
        residual, fitted = _fitted_chirp(t)
        assert residual <= 1e-13
        closed = _reversal_chirp(RationalAlpha(p, q), OperatorKind.UORDKR, half)
        assert np.abs(closed**2 - fitted).max() <= 1e-13


# -- DC^p eigensystem ------------------------------------------------------------------


def test_dcp_q2_matches_hand_oracle():
    phi = (rotor_shift(RationalAlpha(1, 2)) - 1) / (2 * 2)
    assert phi == pytest.approx(0.25)  # p(q-1) = 1 odd -> mu = i
    assert set_distance(dcp_values(1, 2), [1j, -1j]) <= 1e-14
    brute = unitary_eigvals(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert set_distance(dcp_values(1, 2), brute) <= 1e-12


def test_dcp_q3_is_cube_roots():
    phi = (rotor_shift(RationalAlpha(1, 3)) - 1) / (2 * 3)
    assert phi == 0.0  # p(q-1) = 2 even -> mu = 1
    expected = np.exp(2j * np.pi * np.arange(3) / 3)
    assert set_distance(dcp_values(1, 3), expected) <= 1e-14


@pytest.mark.parametrize("q", range(1, 13))
def test_dcp_against_brute_force(q):
    c, d = clock_shift(q)
    for p in range(q) if q > 1 else [0]:
        if q > 1 and math.gcd(p, q) != 1:
            continue
        alpha = RationalAlpha(p, q)
        e, mu = dcp_vectors(p, q), dcp_values(p, q)
        m = d @ np.linalg.matrix_power(c, p)
        assert np.abs(m @ e - e * mu[None, :]).max() <= 1e-10
        assert np.abs(e @ e.conj().T - np.eye(q)).max() <= 1e-10
        assert set_distance(mu, unitary_eigvals(m)) <= 1e-10
        expected_phi = 0.0 if (p * (q - 1)) % 2 == 0 else 1.0 / (2 * q)
        assert (rotor_shift(alpha) - p) / (2 * q) == pytest.approx(expected_phi)


def test_dcp_shift_is_the_one_integer_behind_phi():
    # shift = p + 2 q phi, so the rotor's beta offset alpha/2 + phi is shift/(2q).
    for q in range(1, 13):
        for p in range(q) if q > 1 else [0]:
            if math.gcd(p, q) != 1:
                continue
            shift = rotor_shift(RationalAlpha(p, q))
            phi = np.angle(dcp_values(p, q)[0]) / (2 * np.pi)  # the oracle's mu = exp(i 2 pi phi)
            assert shift == p + round(2 * q * phi)
            assert shift - p in (0, 1)
            assert p / (2 * q) + phi == pytest.approx(shift / (2 * q), abs=1e-15)


# -- double kicked rotor -----------------------------------------------------------------


def test_ordkr_kappa_zero_is_identity():
    m = matrix_at(params("uordkr", 0.0, 1.0, 1, 3), 0.4)
    assert np.abs(m - np.eye(3)).max() <= 1e-13


def test_ordkr_lambda_zero_is_first_kick_only():
    p = params("uordkr", 0.9, 0.0, 1, 4)
    m = matrix_at(p, 0.15)
    expected = np.diag(np.exp(-2j * 0.9 * np.cos(2 * np.pi * (0.15 + np.arange(4) / 4))))
    assert np.abs(m - expected).max() <= 1e-13


def _ordkr_via_exponential(p, x):
    """Independent route: exponential of the analytic Hermitian generator."""
    alpha = p.alpha
    return operator_matrix("uordkr", p.kappa, p.lam, alpha.p, alpha.q, x, p.theta)


def test_ordkr_two_routes_q2():
    p = params("uordkr", 1.0, 1.0, 1, 2)
    assert np.abs(matrix_at(p, 0.0) - _ordkr_via_exponential(p, 0.0)).max() <= 1e-9


# (144, 233) is above the split floor, where the p^-1 relabel of the rotor's circulant
# moves every row; p (q - 1) is even there, so the oracle's beta offset is the builder's.
@pytest.mark.parametrize("pq", [(1, 2), (1, 3), (2, 3), (3, 5), (5, 8), (7, 11), (5, 12),
                                (144, 233)])
def test_ordkr_two_routes_random_params(pq):
    rng = np.random.default_rng(sum(pq))
    p_, q_ = pq
    pa = OperatorParams(
        "uordkr",
        float(rng.uniform(0.2, 2.0)),
        float(rng.uniform(0.3, 1.8)),
        RationalAlpha(p_, q_),
        float(rng.uniform()),
    )
    x = float(rng.uniform())
    assert np.abs(matrix_at(pa, x) - _ordkr_via_exponential(pa, x)).max() <= 1e-9


@pytest.mark.parametrize("pq", [(1, 2), (1, 3), (2, 5), (3, 8), (8, 13), (13, 21), (55, 89)])
def test_the_rotor_build_is_the_oracles_e_d_beta_e_star(pq):
    # _theta_kick gathers E D_beta E* as a circulant relabelled by p^-1 and chirped by
    # X_r = sqrt q E[r, 0]; the oracle writes E out, and the matrix as A E D_beta E*.
    p, q = pq
    rng = np.random.default_rng(q)
    kappa, lam, x, theta = rng.uniform(0.2, 2.0), rng.uniform(0.3, 1.8), *rng.uniform(size=2)
    pa = params("uordkr", kappa, lam, p, q, theta=theta)
    _, _, step, chirp = _theta_kick(pa, np.array([x]), np.array([theta]))
    e = dcp_vectors(p, q)
    assert step == pow(p, -1, q)
    assert np.abs(chirp - np.sqrt(q) * e[:, 0]).max() <= 1e-13
    beta = x + theta + (p + p * (q - 1) % 2) / (2 * q)  # shift / (2q)
    expected = kick(1, x, q, kappa) @ e @ kick(1, beta, q, kappa * lam) @ e.conj().T
    assert np.abs(matrix_at(pa, x) - expected).max() <= 1e-13


def test_builders_are_unitary_or_hermitian():
    rng = np.random.default_rng(11)
    for kind in ("uh", "ukh", "uordkr"):
        pa = params(kind, 1.1, 0.9, 3, 7, theta=float(rng.uniform()))
        m = matrix_at(pa, 0.37)
        assert np.abs(m @ m.conj().T - np.eye(7)).max() <= 1e-10
    h = matrix_at(params("h", 0, 0.9, 3, 7, theta=0.2), 0.37)
    assert np.abs(h - h.conj().T).max() <= 1e-12 * np.abs(h).max()


# -- harper_jacobi_stack: the h sweeps' real matrices, against the oracle's H ----------

def _jacobi_deviation(p, q, lam, xs, thetas):
    """Largest eigenvalue difference, in units of 2 + 2 |lambda| (the bound on ||H||),
    between harper_jacobi_stack and np.linalg.eigvalsh of oracles.operator_matrix."""
    got = np.linalg.eigvalsh(harper_jacobi_stack(params("h", 0, lam, p, q), xs, thetas))
    want = [np.linalg.eigvalsh(operator_matrix("h", 0, lam, p, q, x, t))
            for x, t in zip(xs, thetas)]
    return np.abs(got - np.array(want)).max() / (2.0 + 2.0 * abs(lam))


@pytest.mark.parametrize("p,q", [(0, 1), (1, 2), (1, 3), (3, 4), (3, 8), (8, 13), (144, 233)])
@pytest.mark.parametrize("scope", ["fixed", "mother"])
def test_jacobi_matrices_have_the_harper_eigenvalues(p, q, scope):
    # Even q: bands touch at lambda = +-1.  lambda < 0 at odd q: lambda^q < 0.
    # |lambda| > 1: the Fourier frame.  The nodes are those of an n-node grid,
    # with the cell corner 1/(2q), and a random phase.
    n = 1 if q == 233 else 5
    nodes = np.concatenate((np.arange(n) / (n * q), [0.5 / q, np.random.default_rng(q).random()]))
    if scope == "mother":
        xs, thetas = np.repeat(nodes, nodes.size), np.tile(nodes, nodes.size)
    else:
        xs, thetas = nodes, np.full(nodes.size, 0.1)
    lams = [-0.7, 1.0, -1.3] if q == 233 else [0.0, 0.7, -0.7, 1.0, -1.0, 1.3, -1.3, 2.5]
    for lam in lams:
        assert _jacobi_deviation(p, q, lam, xs, thetas) <= 1e-12, lam


@st.composite
def _alphas(draw):
    q = draw(st.integers(1, 21))
    return draw(st.sampled_from([p for p in range(q) if math.gcd(p, q) == 1])), q


@settings(max_examples=100, deadline=None)
@given(_alphas(), st.floats(-3.0, 3.0), st.floats(0.0, 1.0, exclude_max=True),
       st.floats(0.0, 1.0, exclude_max=True))
@example((3, 8), 1.0, 0.0, 1 / 16)  # touching bands, both phases at the cell's corners
@example((2, 5), -1.0, 1 / 10, 0.0)
def test_jacobi_eigenvalues_match_the_oracle_at_any_phases(pq, lam, x, theta):
    assert _jacobi_deviation(*pq, lam, [x], [theta]) <= 1e-12


def test_jacobi_builder_builds_h_only():
    with pytest.raises(InvalidParams, match="builds h matrices"):
        harper_jacobi_stack(params("uh", 1.0, 1.0, 1, 3), [0.0], [0.0])
