import math

import numpy as np
import pytest

from kickspec.errors import InvalidDimension, InvalidParams, NotCoprime
from kickspec.linalg import eig_unitary
from kickspec.operators import (
    MOTHER,
    OperatorParams,
    RationalAlpha,
    cos_rows,
    dcp_eigensystem,
)
from oracles import clock_shift, cos_diag, dft, expm_i, matrix_at

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
    with pytest.raises(NotCoprime):
        RationalAlpha(4, 6)
    with pytest.raises(InvalidParams):
        RationalAlpha(3, 2)
    with pytest.raises(InvalidDimension):
        RationalAlpha(0, 0)
    with pytest.raises(InvalidParams):
        RationalAlpha.parse("0.5")


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
    assert set_distance(eig_unitary(u), expected) <= 1e-10


def test_unitary_harper_functional_calculus_q3():
    kappa = 0.7
    h = matrix_at(params("h", 0, 1.2, 1, 3, theta=0.15), 0.05)
    u = matrix_at(params("uh", kappa, 1.2, 1, 3, theta=0.15), 0.05)
    expected = np.exp(-1j * kappa * np.linalg.eigvalsh(h))
    assert set_distance(eig_unitary(u), expected) <= 1e-10


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
    assert set_distance(eig_unitary(m), eig_unitary(alt)) <= 1e-12
    h = matrix_at(OperatorParams("h", 0.0, lam, RationalAlpha(p_, q_), th), x)
    dense = np.diag(2 * g1) + 2 * lam * f @ np.diag(g2) @ f.conj().T
    assert np.abs(h - dense).max() <= 1e-13 * (1 + lam)


def test_kicked_harper_x_shift_covariance():
    rng = np.random.default_rng(7)
    for _ in range(5):
        x, th = rng.uniform(size=2)
        pa = params("ukh", 1.3, 0.8, 2, 5, theta=th)
        v1 = eig_unitary(matrix_at(pa, x))
        v2 = eig_unitary(matrix_at(pa, x + 1.0 / 5.0))
        assert set_distance(v1, v2) <= 1e-10


# -- DC^p eigensystem ------------------------------------------------------------------


def test_dcp_q2_matches_hand_oracle():
    dc = dcp_eigensystem(RationalAlpha(1, 2))
    assert dc.phi == pytest.approx(0.25)  # p(q-1) = 1 odd -> mu = i
    assert set_distance(dc.values, [1j, -1j]) <= 1e-14
    brute = eig_unitary(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert set_distance(dc.values, brute) <= 1e-12


def test_dcp_q3_is_cube_roots():
    dc = dcp_eigensystem(RationalAlpha(1, 3))
    assert dc.phi == 0.0  # p(q-1) = 2 even -> mu = 1
    expected = np.exp(2j * np.pi * np.arange(3) / 3)
    assert set_distance(dc.values, expected) <= 1e-14


@pytest.mark.parametrize("q", range(1, 13))
def test_dcp_against_brute_force(q):
    c, d = clock_shift(q)
    for p in range(q) if q > 1 else [0]:
        if q > 1 and math.gcd(p, q) != 1:
            continue
        alpha = RationalAlpha(p, q)
        dc = dcp_eigensystem(alpha)
        m = d @ np.linalg.matrix_power(c, p)
        assert np.abs(m @ dc.vectors - dc.vectors * dc.values[None, :]).max() <= 1e-10
        assert np.abs(dc.vectors @ dc.vectors.conj().T - np.eye(q)).max() <= 1e-10
        assert set_distance(dc.values, eig_unitary(m)) <= 1e-10
        expected_phi = 0.0 if (p * (q - 1)) % 2 == 0 else 1.0 / (2 * q)
        assert dc.phi == pytest.approx(expected_phi)


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
    q = alpha.q
    c, d = clock_shift(q)
    dc = d @ np.linalg.matrix_power(c, alpha.p)
    z = np.exp(2j * np.pi * (p.theta + alpha.value / 2.0 + x))
    herm = z * dc + np.conj(z) * dc.conj().T  # 2 Re(z D C^p)
    first = np.diag(np.exp(-2j * p.kappa * np.cos(2 * np.pi * (x + np.arange(q) / q))))
    return first @ expm_i(p.lam * herm, p.kappa)


def test_ordkr_two_routes_q2():
    p = params("uordkr", 1.0, 1.0, 1, 2)
    assert np.abs(matrix_at(p, 0.0) - _ordkr_via_exponential(p, 0.0)).max() <= 1e-9


@pytest.mark.parametrize("pq", [(1, 2), (1, 3), (2, 3), (3, 5), (5, 8), (7, 11), (5, 12)])
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


def test_builders_are_unitary_or_hermitian():
    rng = np.random.default_rng(11)
    for kind in ("uh", "ukh", "uordkr"):
        pa = params(kind, 1.1, 0.9, 3, 7, theta=float(rng.uniform()))
        m = matrix_at(pa, 0.37)
        assert np.abs(m @ m.conj().T - np.eye(7)).max() <= 1e-10
    h = matrix_at(params("h", 0, 0.9, 3, 7, theta=0.2), 0.37)
    assert np.abs(h - h.conj().T).max() <= 1e-12 * np.abs(h).max()
