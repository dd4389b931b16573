import itertools
import os
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import kickspec.linalg as linalg
import kickspec.spectra as spectra
from kickspec.errors import InvalidParams, NumericalError
from kickspec.operators import (
    MOTHER,
    OperatorKind,
    OperatorParams,
    RationalAlpha,
    harper_jacobi_stack,
    operator_stack,
)
from kickspec.spectra import (
    GridSpec,
    SpectrumKind,
    SpectrumSet,
    auto_merge_gap,
    eigenphases,
    grid_error_bound,
    merge_bands,
    mother_spectrum,
    spectrum_fixed_theta,
    tracked_bands,
)
from kickspec.analysis import hausdorff, run_check, total_bandwidth
from oracles import expm_i, matrix_at, operator_eigvals, unitary_eigvals

ROOT8 = 2.0 * np.sqrt(2.0)


def params(kind, kappa, lam, p, q, theta=0.0):
    return OperatorParams(kind, kappa, lam, RationalAlpha(p, q), theta)


def _nodes(pa, grid):
    """The (x, theta) nodes a sweep solves, as spectra._orbits lists them."""
    return spectra._orbits(pa, grid)[2]()[:2]


def _corners(pa, grid):
    """The nodes that a sweep splits above the floor: {index: (2 q x, 2 q theta)}, both integers."""
    _, _, hx, ht = spectra._orbits(pa, grid)[2]()
    return {int(i): (int(hx[i]), int(ht[i])) for i in np.flatnonzero((hx >= 0) & (ht >= 0))}


def circle_set(phases, **kw):
    return SpectrumSet.build(SpectrumKind.UNIT_CIRCLE, np.exp(1j * np.asarray(phases)), **kw)


def set_distance(a, b):
    d = np.abs(np.asarray(a).ravel()[:, None] - np.asarray(b).ravel()[None, :])
    return max(d.min(axis=1).max(), d.min(axis=0).max())


# -- grid error bounds ------------------------------------------------------------


def test_bound_kicked_fixed_theta():
    p = params("ukh", 1.0, 1.0, 8, 13)
    assert grid_error_bound(p, GridSpec(100)) == pytest.approx(2 * np.pi / 1300)


def test_bound_kicked_mother():
    p = params("ukh", 1.0, 1.0, 8, 13, theta=MOTHER)
    assert grid_error_bound(p, GridSpec(100, 100)) == pytest.approx(4 * np.pi / 1300)


def test_bound_kappa_zero():
    p = params("ukh", 0.0, 1.0, 8, 13, theta=MOTHER)
    assert grid_error_bound(p, GridSpec(10, 10)) == 0.0


def test_bound_harper_forms():
    q, n = 13, 50
    fixed = grid_error_bound(params("h", 0, 0.5, 8, q), GridSpec(n))
    mother = grid_error_bound(params("h", 0, 0.5, 8, q, theta=MOTHER), GridSpec(n, n))
    assert fixed == pytest.approx(2 * np.pi / (n * q))
    assert mother == pytest.approx(2 * np.pi * 1.5 / (n * q))


def test_bound_rectangular_grid_is_per_axis():
    p = params("ukh", 1.0, 0.5, 8, 13, theta=MOTHER)
    got = grid_error_bound(p, GridSpec(10, 20))
    assert got == pytest.approx(2 * np.pi / (10 * 13) + 2 * np.pi * 0.5 / (20 * 13))


def test_bound_ordkr_both_scopes():
    q, n = 13, 40
    fixed = grid_error_bound(params("uordkr", 1.0, 1.0, 8, q), GridSpec(n))
    mother = grid_error_bound(params("uordkr", 1.0, 1.0, 8, q, theta=MOTHER), GridSpec(n, n))
    assert fixed == pytest.approx(4 * np.pi / (n * q))
    assert mother == pytest.approx(4 * np.pi / (n * q))


@pytest.mark.parametrize("kind,p,q,lam,kappa", [
    ("h", 0, 1, 2.0, 0.0), ("uh", 0, 1, 2.0, 0.5), ("ukh", 1, 3, 2.0, 1.0),
    ("uordkr", 0, 1, 0.5, 0.5),
])
def test_bound_is_nearly_reached(kind, p, q, lam, kappa):
    # A witness of the bound's tightness: a 5-node fixed-theta grid against a
    # 96x finer one, which is within its own bound of the true spectrum, sits at
    # more than 0.8 of the coarse bound (0.85-0.95 measured).  A bound 20% too
    # small would fail here against the spectrum, not against its own formula.
    pa = params(kind, kappa, lam, p, q, theta=0.0)
    coarse, fine = spectrum_fixed_theta(pa, GridSpec(5)), spectrum_fixed_theta(pa, GridSpec(480))
    assert (hausdorff(coarse, fine) - fine.error_bound) / coarse.error_bound >= 0.8


# -- fixed-theta sweeps -------------------------------------------------------------


def test_fixed_theta_kicked_q1():
    s = spectrum_fixed_theta(params("ukh", 1.0, 1.0, 0, 1), GridSpec(4))
    xs = np.arange(4) / 4.0
    expected = np.exp(-2j * (np.cos(2 * np.pi * xs) + 1.0))
    d = hausdorff(s, SpectrumSet.build(SpectrumKind.UNIT_CIRCLE, expected))
    assert d <= 1e-14


def test_fixed_theta_harper_single_point():
    s = spectrum_fixed_theta(params("h", 0, 1.0, 1, 2), GridSpec(1))
    assert s.kind is SpectrumKind.REAL_LINE
    assert np.allclose(s.points, [-ROOT8, ROOT8], atol=1e-12)


def test_fixed_theta_uh_is_exponential_of_h():
    grid = GridSpec(9)
    kappa = 1.7
    sh = spectrum_fixed_theta(params("h", 0, 1.0, 3, 5, theta=0.2), grid)
    su = spectrum_fixed_theta(params("uh", kappa, 1.0, 3, 5, theta=0.2), grid)
    mapped = SpectrumSet.build(SpectrumKind.UNIT_CIRCLE, np.exp(-1j * kappa * sh.points))
    assert hausdorff(su, mapped) <= 1e-10


@pytest.mark.parametrize("kind", ["h", "uh"])
@pytest.mark.parametrize("theta,n", [(0.1, 6), (MOTHER, 5)])
def test_negative_coupling_at_odd_q_matches_the_oracle(kind, theta, n):
    # lambda^q < 0: a builder that took |lambda| for lambda would shift theta by
    # 1/(2q).  At theta = 0.1 the lowest h eigenvalue is -2.2666 where |lambda|
    # gives -2.2881; on the odd mother grid the shift falls between the nodes.
    pa = params(kind, 0.9, -0.7, 2, 5, theta=theta)
    grid = GridSpec(n, n)
    s = (mother_spectrum if pa.is_mother else spectrum_fixed_theta)(pa, grid)
    want = [operator_eigvals(kind, 0.9, -0.7, 2, 5, x, t) for x, t in zip(*_full_pairs(pa, grid))]
    assert hausdorff(s, SpectrumSet.build(s.kind, np.concatenate(want))) <= 1e-12
    if kind == "h" and not pa.is_mother:
        assert s.points[0] == pytest.approx(-2.2666, abs=1e-4)


def test_fixed_theta_rejects_mother():
    with pytest.raises(InvalidParams):
        spectrum_fixed_theta(params("ukh", 1.0, 1.0, 1, 2, theta=MOTHER), GridSpec(2))


# -- mother sweeps --------------------------------------------------------------------


def test_mother_harper_q2_closed_form():
    # 2x2 eigenvalues are +-2 sqrt(cos^2 2pi x + cos^2 2pi theta)
    s = mother_spectrum(params("h", 0, 1.0, 1, 2, theta=MOTHER), GridSpec(2, 2))
    pts = []
    for x in (0.0, 0.25):
        for t in (0.0, 0.25):
            r = 2.0 * np.sqrt(np.cos(2 * np.pi * x) ** 2 + np.cos(2 * np.pi * t) ** 2)
            pts += [-r, r]
    expected = SpectrumSet.build(SpectrumKind.REAL_LINE, pts)
    assert hausdorff(s, expected) <= 1e-12


def test_mother_kicked_kappa_zero_single_point():
    s = mother_spectrum(params("ukh", 0.0, 1.0, 8, 13, theta=MOTHER), GridSpec(5, 5))
    assert len(s) == 1
    assert abs(s.points[0] - 1.0) <= 1e-15


def test_mother_rejects_fixed_theta():
    with pytest.raises(InvalidParams):
        mother_spectrum(params("ukh", 1.0, 1.0, 1, 2, theta=0.0), GridSpec(2, 2))


@pytest.mark.parametrize("q,p", [(2, 1), (3, 2), (5, 3)])
def test_theta_grid_sufficiency(q, p):
    # The union over a theta grid spanning [0, 1) with the mother spacing
    # agrees with the mother sweep within twice the certified bound.
    n = 6
    mother = mother_spectrum(params("ukh", 0.9, 1.1, p, q, theta=MOTHER), GridSpec(n, n))
    pools = []
    for k in range(n * q):
        th = k / (n * q)
        s = spectrum_fixed_theta(params("ukh", 0.9, 1.1, p, q, theta=th), GridSpec(n))
        pools.append(s.points)
    full = SpectrumSet.build(SpectrumKind.UNIT_CIRCLE, np.concatenate(pools))
    assert hausdorff(mother, full) <= 2 * mother.error_bound


@pytest.mark.parametrize("kind", ["h", "uh", "ukh", "uordkr"])
@pytest.mark.parametrize("scope", ["fixed", "mother"])
def test_refinement_consistency(kind, scope):
    theta = MOTHER if scope == "mother" else 0.3
    pa = params(kind, 0.8, 1.0, 2, 3, theta=theta)
    run = mother_spectrum if scope == "mother" else spectrum_fixed_theta
    s1 = run(pa, GridSpec(8, 8))
    s2 = run(pa, GridSpec(16, 16))
    assert hausdorff(s1, s2) <= s1.error_bound + s2.error_bound


def _oracle_values(kind, kappa, lam, alpha, x, theta):
    """Eigenvalues of one grid node from its own matrix and the per-matrix solvers."""
    at = OperatorParams(kind, kappa, lam, alpha, theta)
    if kind == "h":
        return np.linalg.eigvalsh(matrix_at(at, x))
    if kind == "uh":
        h = matrix_at(OperatorParams("h", 0.0, lam, alpha, theta), x)
        return unitary_eigvals(expm_i(h, kappa))
    return unitary_eigvals(matrix_at(at, x))


@pytest.mark.parametrize("kind", ["h", "uh", "ukh", "uordkr"])
@pytest.mark.parametrize("p,q", [(0, 1), (1, 2), (2, 5)])
@pytest.mark.parametrize("scope", ["fixed", "mother"])
def test_sweep_matches_per_matrix_oracles(kind, p, q, scope):
    alpha = RationalAlpha(p, q)
    pa = OperatorParams(kind, 0.9, 1.3, alpha, MOTHER if scope == "mother" else 0.37)
    xv, tv = _nodes(pa, GridSpec(3, 3))
    pooled = spectra._sweep_values(pa, GridSpec(3, 3))
    oracle = np.concatenate([_oracle_values(kind, 0.9, 1.3, alpha, x, t) for x, t in zip(xv, tv)])
    assert pooled.size == oracle.size == xv.size * q
    assert set_distance(pooled, oracle) <= 1e-12


@pytest.mark.parametrize("kind", ["h", "uh", "ukh", "uordkr"])
def test_chunked_sweep_is_identical(kind, monkeypatch):
    q = 5
    pa = params(kind, 0.9, 1.3, 2, q, theta=MOTHER)
    xv, tv = _nodes(pa, GridSpec(5, 5))
    single = spectra._sweep_values(pa, GridSpec(5, 5))
    # 5 matrices per chunk: the reflection-reduced 5 x 5 grid keeps 9 nodes
    # (uordkr's in its sheared phases), so 2 chunks, each repeating a theta.
    monkeypatch.setattr(spectra, "_CHUNK_COMPLEX", 5 * q * q)
    chunked = spectra._sweep_values(pa, GridSpec(5, 5))
    assert xv.size > 5
    assert np.unique(tv[:5]).size < 5
    assert np.array_equal(chunked, single)


_MIXED_BATCHES = {
    # Each batch, its grid, and the solver calls its sweep makes, in order: (matrices, rows,
    # gauged).  Fixed-theta ukh on and off the time-reversal line (2 q theta = 0 and 0.3):
    # only the first is gauged, and at 144/233 only it has corners.
    "line-8/13": ([params("ukh", 1.0, 1.3, 8, 13, theta=t) for t in (0.0, 0.3)], GridSpec(6),
                  [(4, 13, False), (4, 13, True)]),
    "line-144/233": ([params("ukh", 1.0, 1.3, 144, 233, theta=t) for t in (0.0, 0.3)],
                     GridSpec(4),
                     [(3, 233, False), (1, 233, True), (2, 116, True), (2, 117, True)]),
    # Every node of a 2 x 2 mother grid is a corner: both kinds' blocks of one size share a call.
    "kinds-144/233": ([params(k, 1.0, 1.3, 144, 233, theta=MOTHER) for k in ("ukh", "uordkr")],
                      GridSpec(2, 2), [(4, 116, True), (4, 117, True)]),
    # uh is solved as h on the Hermitian route and mapped through exp(-i kappa w); h is not.
    "hermitian-8/13": ([params(k, 1.0, 1.3, 8, 13, theta=MOTHER) for k in ("h", "uh")],
                       GridSpec(5, 5), [(18, 13, False)]),
    "hermitian-144/233": ([params(k, 1.0, 1.3, 144, 233, theta=MOTHER) for k in ("h", "uh")],
                          GridSpec(2, 2), [(4, 116, False), (4, 117, False)]),
    # Only uordkr folds the half-shift image at fixed theta (odd q, even n_x).
    "image-8/13": ([params(k, 1.0, 1.3, 8, 13, theta=0.3) for k in ("ukh", "uordkr")],
                   GridSpec(4), [(5, 13, False)]),
    # Kappa and lambda, which set each node's build and, at lambda = 1, its fold.
    "couplings-8/13": ([params("ukh", k, lam, 8, 13, theta=MOTHER)
                        for k, lam in ((0.5, 1.0), (1.0, 1.3), (2.0, 0.7))], GridSpec(6, 6),
                       [(22, 13, False)]),
}


@pytest.mark.parametrize("case", list(_MIXED_BATCHES))
def test_each_request_of_a_mixed_batch_is_its_sweep_alone(case, monkeypatch):
    monkeypatch.setattr(spectra, "_workers", lambda: 1)  # the calls in plan order, no pool
    batch, grid, expected = _MIXED_BATCHES[case]
    name = "eigvalsh_stack" if batch[0].kind in ("h", "uh") else "unitary_eigvals_stack"
    solve, calls = getattr(spectra, name), []
    monkeypatch.setattr(spectra, name, lambda stack, *gauge: calls.append(
        (len(stack), stack.shape[-1], bool(gauge))) or solve(stack, *gauge))
    spectra._sweep_values(batch, grid)
    assert calls == expected
    for order in (batch, batch[::-1]):
        for pa, values in zip(order, spectra._sweep_values(order, grid), strict=True):
            alone = spectra._sweep_values(pa, grid)
            assert values.shape == alone.shape and np.array_equal(values, alone), pa


def test_sweep_deterministic():
    pa = params("uordkr", 1.0, 1.0, 3, 5, theta=MOTHER)
    s1 = mother_spectrum(pa, GridSpec(7, 7))
    s2 = mother_spectrum(pa, GridSpec(7, 7))
    assert np.array_equal(s1.points, s2.points)


@pytest.mark.parametrize("run", [mother_spectrum, tracked_bands])
def test_solver_failure_names_the_grid_point(run, monkeypatch):
    pa = params("h", 0.0, 1.0, 1, 3, theta=MOTHER)
    bad = harper_jacobi_stack(pa, [1 / 6], [0.0])[0]  # node (1, 0) of the 2 x 2 grid
    real = spectra.eigvalsh_stack

    def fail_at_bad(stack):
        if any(np.array_equal(m, bad) for m in stack):
            raise NumericalError("injected")
        return real(stack)

    monkeypatch.setattr(spectra, "eigvalsh_stack", fail_at_bad)
    with pytest.raises(NumericalError, match=re.escape(f"grid point x={1 / 6!r}, theta=0.0:")):
        run(pa, GridSpec(2, 2))


@pytest.mark.parametrize("kind", ["h", "ukh"])
def test_a_split_corner_that_fails_is_named_by_its_grid_point(kind, monkeypatch):
    # Both nodes of the folded 2 x 2 grid are corners, whose blocks of one size are
    # solved together; the failure of node (1, 0)'s blocks is traced back to it.
    pa = params(kind, 1.0, 1.0, 1, 3, theta=MOTHER)
    monkeypatch.setattr(spectra, "_SPLIT_FLOOR", 1)
    bad = [make()[0] for _, make in spectra._corner_blocks(pa, 1, 0)]
    name = "eigvalsh_stack" if kind == "h" else "unitary_eigvals_stack"
    real = getattr(spectra, name)

    def fail_at_bad(stack, *gauge):
        if any(np.array_equal(m, b) for m in stack for b in bad):
            raise NumericalError("injected")
        return real(stack, *gauge)

    monkeypatch.setattr(spectra, name, fail_at_bad)
    with pytest.raises(NumericalError, match=re.escape(f"grid point x={1 / 6!r}, theta=0.0:")):
        mother_spectrum(pa, GridSpec(2, 2))


def test_a_gauged_line_node_that_fails_is_retried_alone_with_its_gauge(monkeypatch):
    # 8/13 on 6 x nodes at theta = 0 (on the time-reversal line, gauged) and 0.3: one
    # ungauged chunk, then one gauged chunk, which fails at theta = 0's node x = 1/78.
    batch = [params("ukh", 1.0, 1.3, 8, 13, theta=t) for t in (0.0, 0.3)]
    bad = spectra.operator_stack(batch[0], [1 / 78], [0.0])[0]
    solve, calls = spectra.unitary_eigvals_stack, []

    def fail_at_bad(stack, *gauge):
        calls.append((len(stack), bool(gauge)))
        if any(np.array_equal(m, bad) for m in stack):
            raise NumericalError("injected")
        return solve(stack, *gauge)

    monkeypatch.setattr(spectra, "unitary_eigvals_stack", fail_at_bad)
    with pytest.raises(NumericalError,
                       match=re.escape(f"alpha=8/13, grid point x={1 / 78!r}, theta=0.0: injected")):
        spectra._sweep_values(batch, GridSpec(6))
    # The gauged chunk fails; node 0 passes alone and node 1 fails alone, both gauged.
    assert calls == [(4, False), (4, True), (1, True), (1, True)]


@pytest.mark.parametrize("size, expected", [
    (48, [28, 20] + [1] * 20),
    (49, [28, 20, 27, 21] + [1] * 21),
])
def test_only_the_failed_call_is_retried_node_by_node(size, expected, monkeypatch):
    # A Farey butterfly's 48 folded numerators at q = 97 on a 1 x 1 mother grid: one corner
    # each, whose 48-row blocks take calls of 28 and 20 and whose 49-row blocks of 27 and
    # 21.  When the last corner's block of one size fails, in that size's second call, only
    # that call's blocks run again, one node at a time, until the last fails: at size 48,
    # 22 calls on 68 matrices, where re-running every node's whole plan took 97 on 143.
    batch = [params("ukh", 1.0, 1.0, p, 97, theta=MOTHER) for p in range(1, 49)]
    bad = [make()[0] for n, make in spectra._corner_blocks(batch[-1], 0, 0) if n == size]
    solve, calls = spectra.unitary_eigvals_stack, []

    def fail_at_bad(stack, *gauge):
        calls.append(len(stack))
        if any(np.array_equal(m, b) for m in stack for b in bad):
            raise NumericalError("injected")
        return solve(stack, *gauge)

    monkeypatch.setattr(spectra, "unitary_eigvals_stack", fail_at_bad)
    with pytest.raises(NumericalError,
                       match=re.escape("alpha=48/97, grid point x=0.0, theta=0.0: injected")):
        spectra._sweep_values(batch, GridSpec(1, 1))
    assert calls == expected


def test_a_chunk_failure_that_no_node_repeats_alone_is_raised_as_is(monkeypatch):
    pa = params("h", 0.0, 1.0, 1, 3, theta=MOTHER)
    real = spectra.eigvalsh_stack

    def fail_on_batches(stack):
        if len(stack) > 1:
            raise NumericalError("injected batch failure")
        return real(stack)

    monkeypatch.setattr(spectra, "eigvalsh_stack", fail_on_batches)
    with pytest.raises(NumericalError, match="^injected batch failure$"):
        mother_spectrum(pa, GridSpec(2, 2))


# -- mirror-orbit reduction of the grid ---------------------------------------------------

_ALPHAS = [(0, 1), (1, 2), (2, 3), (2, 5), (3, 8), (8, 13)]


def _reflected_distances(kind, rng):
    """Largest eigenvalue moves under (-x, theta), (x, -theta) and (-x, -theta)."""
    worst = np.zeros(3)
    for p, q in _ALPHAS:
        for kappa, lam in [(0.9, 1.3), (2.0, 0.5), (0.3, 2.2)]:
            for x, t in rng.random((3, 2)):
                at = _oracle_values(kind, kappa, lam, RationalAlpha(p, q), x, t)
                moved = [_oracle_values(kind, kappa, lam, RationalAlpha(p, q), mx % 1.0, mt % 1.0)
                         for mx, mt in [(-x, t), (x, -t), (-x, -t)]]
                worst = np.maximum(worst, [set_distance(at, m) for m in moved])
    return worst


@pytest.mark.parametrize("kind", ["h", "uh", "ukh"])
def test_one_sided_phase_reflections_hold(kind):
    assert np.all(_reflected_distances(kind, np.random.default_rng(11)) <= 1e-12)


def test_rotor_keeps_only_the_joint_reflection():
    one_x, one_t, joint = _reflected_distances("uordkr", np.random.default_rng(12))
    assert joint <= 1e-12
    # The one-sided reduction must never reach the rotor.
    assert max(one_x, one_t) > 1e-3


def _swapped_distances(kind, lam, alphas, rng):
    """Per alpha, the largest eigenvalue move under (x, theta) -> (theta, x).

    Both sides come from oracles.operator_eigvals, not from operator_stack.
    """
    worst = []
    for p, q in alphas:
        moves = [set_distance(operator_eigvals(kind, kappa, lam, p, q, x, t),
                              operator_eigvals(kind, kappa, lam, p, q, t, x))
                 for kappa in (0.5, 3.0) for x, t in rng.random((2, 2))]
        worst.append(max(moves))
    return np.array(worst)


@pytest.mark.parametrize("kind", ["h", "uh", "ukh"])
def test_phase_swap_holds_at_the_self_dual_coupling(kind):
    alphas = [(0, 1), (1, 2), (2, 7), (8, 13), (55, 89), (144, 233)]
    assert np.all(_swapped_distances(kind, 1.0, alphas, np.random.default_rng(13)) <= 1e-12)


def _dual_eigvals(path, kind, kappa, lam, p, q, x, theta):
    """Eigenvalues at one node from the oracle's formula, or from operator_stack."""
    if path == "oracle":
        return operator_eigvals(kind, kappa, lam, p, q, x, theta)
    m = operator_stack(params(kind, kappa, lam, p, q), [x], [theta])[0]
    return np.linalg.eigvalsh(m) if kind == "h" else unitary_eigvals(m)


@pytest.mark.parametrize("path", ["oracle", "stack"])
@pytest.mark.parametrize("kind", ["h", "uh", "ukh"])
def test_kicked_aubry_duality_holds_node_by_node(kind, path):
    # In the rotation algebra u -> v, v -> u* takes the operator at (kappa, lambda; x, theta) to
    # the one at (kappa lambda, 1/lambda; theta, x) with its kicks in the other order, which
    # has the same eigenvalues; for h, to lambda times the dual H.  The mother sweeps' lambda = 1
    # swap fold (spectra._orbits) rests on it, and a fault shared by both kicked kinds, which
    # MOTHER_EQUALITY cannot see, breaks it.
    rng, worst = np.random.default_rng(17), 0.0
    alphas = [(1, 2), (2, 3), (3, 5), (5, 8), (8, 13), (13, 21), (21, 34)]
    for lam, kappa, (p, q) in itertools.product((1.6, -1.3, 2.5), (0.5, 1.0, 3.0), alphas):
        # h's dual side is scaled by lambda, and its tolerance by ||H|| <= 2 + 2 |lambda|.
        factor, tol = (lam, 1e-13 * (2.0 + 2.0 * abs(lam))) if kind == "h" else (1.0, 1e-13)
        for x, theta in rng.random((2, 2)):
            at = _dual_eigvals(path, kind, kappa, lam, p, q, x, theta)
            dual = _dual_eigvals(path, kind, kappa * lam, 1.0 / lam, p, q, theta, x)
            worst = max(worst, set_distance(at, factor * dual) / tol)
    assert worst <= 1.0


@pytest.mark.parametrize("kind,lam", [
    ("h", -1.0), ("h", 0.7), ("uh", -1.0), ("uh", 0.7), ("ukh", -1.0), ("ukh", 0.7),
    ("uordkr", 1.0),
])
def test_phase_swap_fails_off_the_self_dual_coupling_and_for_the_rotor(kind, lam):
    # The swap reduction must never reach these sweeps (spectra._orbits).
    alphas = [(2, 7), (3, 5), (8, 13)]
    assert np.all(_swapped_distances(kind, lam, alphas, np.random.default_rng(14)) > 1e-3)


@pytest.mark.parametrize("kind", ["h", "uh", "ukh"])
def test_the_complementary_alpha_has_the_eigenvalues_of_the_mirrored_node(kind):
    # G(q - p, theta) = G(p, -theta), so at (q - p)/q and (x, theta) h, uh and ukh are
    # their matrices at p/q and (x, -theta): the butterfly's fold.  At q = 2..34, p = 1
    # and the largest p <= q/2 prime to q, one random node each, at every (kappa,
    # lambda); both sides are oracles.operator_eigvals, not operator_stack.
    rng = np.random.default_rng(31)
    kicks = itertools.product([0.5] if kind == "h" else [0.5, 2.0], [1.0, 0.7, -1.3])
    for (kappa, lam), q in itertools.product(list(kicks), range(2, 35)):
        for p in {1, max(p for p in range(1, q // 2 + 1) if np.gcd(p, q) == 1)}:
            x, t = rng.random(2)
            mirrored = operator_eigvals(kind, kappa, lam, q - p, q, x, t)
            assert set_distance(operator_eigvals(kind, kappa, lam, p, q, x, -t),
                                mirrored) <= 1e-13, (kappa, lam, p, q)


def test_the_rotor_sampled_set_does_not_close_under_the_complementary_alpha():
    # uordkr's theta kick has the phase beta = x + theta + alpha/2 + phi, which moves with
    # alpha, so its sampled set at 3/5 is not that of 2/5 (the butterfly solves both).  Both
    # sample the one mother spectrum, so they stay within the sum of their grid bounds.
    grid = GridSpec(3, 3)
    sampled = {}
    for p in (2, 3):
        pa = params("uordkr", 1.0, 1.0, p, 5, theta=MOTHER)
        nodes = zip(*_full_pairs(pa, grid))
        sampled[p] = np.concatenate([operator_eigvals("uordkr", 1.0, 1.0, p, 5, x, t)
                                     for x, t in nodes])
    moved = set_distance(sampled[2], sampled[3])
    assert moved > 1e-3
    assert moved <= 2 * grid_error_bound(params("uordkr", 1.0, 1.0, 2, 5, theta=MOTHER), grid)


def _shear(p, q, n):
    """s = n q (alpha/2 + phi) of an n x n grid, phi = 1/(2q) when p (q - 1) is odd."""
    return n * (p + p * (q - 1) % 2) / 2


def _rotor_node_moves(maps, lam, rng):
    """Largest uordkr eigenvalue move under the grid maps (j, k) -> f(j, k, s), mod n.

    The nodes lie on n x n grids, n = 6 and 7; a map returns None where it
    does not apply.  Both sides come from oracles.operator_eigvals, not from
    operator_stack.
    """
    moves = []
    for (p, q), n in itertools.product([(1, 2), (2, 7), (3, 5), (3, 8), (8, 13), (21, 34)],
                                       [6, 7]):
        s = _shear(p, q, n)
        for kappa, (j, k) in zip((0.4, 2.0, 3.0), rng.integers(0, n, (3, 2))):
            def eig(a, b):
                return operator_eigvals("uordkr", kappa, lam, p, q, a % n / (n * q), b % n / (n * q))
            at = eig(j, k)
            moves += [set_distance(at, eig(*node)) for node in (f(j, k, s) for f in maps) if node]
    return max(moves)


@pytest.mark.parametrize("lam", [1.3, -1.2, 1.0])
def test_rotor_keeps_the_sheared_reflections(lam):
    # In (x, beta), beta = x + theta + alpha/2 + phi, the rotor has ukh's mirror
    # reflections: x -> -x at fixed beta and beta -> -beta at fixed x.
    maps = [lambda j, k, s: (-j, k + 2 * j), lambda j, k, s: (j, -k - 2 * j)]
    assert _rotor_node_moves(maps, lam, np.random.default_rng(15)) <= 1e-12


def test_rotor_keeps_the_sheared_swap_at_the_self_dual_coupling():
    # At lambda = 1, (x, beta) -> (beta, x), a grid map whenever s is an integer.
    def swap(j, k, s):
        return (j + k + int(s), -k - 2 * int(s)) if s == int(s) else None

    assert _rotor_node_moves([swap], 1.0, np.random.default_rng(16)) <= 1e-12


def _sheared_moves(alphas, rng, shear=1.0):
    """Per alpha, the largest eigenphase distance of uordkr(x, theta) from ukh(x, beta).

    beta = shear x + theta + alpha/2 + phi, with alpha/2 + phi = shift/(2q)
    from the parity rule of _shear.  Both sides come from
    oracles.operator_eigvals, not from operator_stack.
    """
    worst = []
    for p, q in alphas:
        moves = []
        for kappa, lam in itertools.product((0.5, 1.0, 2.3), (1.0, 0.7, -1.3, 2.0)):
            x, t = rng.random(2)
            beta = shear * x + t + _shear(p, q, 1) / q
            at = operator_eigvals("uordkr", kappa, lam, p, q, x, t)
            kicked = operator_eigvals("ukh", kappa, lam, p, q, x, beta)
            arcs = np.abs(np.angle(at[:, None] * kicked[None, :].conj()))
            moves.append(max(arcs.min(axis=0).max(), arcs.min(axis=1).max()))
        worst.append(max(moves))
    return np.array(worst)


def test_rotor_is_the_kicked_harper_on_sheared_phases():
    # uordkr(x, theta) and ukh(x, beta) have the same eigenvalues: the identity
    # behind the sheared fold and MOTHER_EQUALITY's matched-grid bound.
    alphas = [(0, 1), (1, 2), (1, 3), (2, 5), (3, 7), (3, 8), (8, 13), (13, 21), (21, 34), (34, 55)]
    assert np.all(_sheared_moves(alphas, np.random.default_rng(19)) <= 1e-13)
    # Without the x term the map misses.  At large q the theta dependence
    # flattens, so the control stays at small q.
    assert np.all(_sheared_moves([(1, 3), (2, 5), (3, 7), (3, 8)], np.random.default_rng(20),
                                 shear=0.0) > 0.1)


def _half_shift_moves(kind, alphas, rng):
    """Per alpha, the largest distance of the half-shifted node's eigenvalues from their image.

    The shift moves x and theta by 1/(2q), the rotor's x alone; the image
    negates h's eigenvalues, relative to 2 + 2|lambda|, and conjugates the
    unitary kinds', in eigenphase.  Theta is fixed at 0 and 0.37, or drawn.
    Both sides come from oracles.operator_eigvals, not from operator_stack.
    """
    worst = []
    for p, q in alphas:
        moves = []
        for (kappa, lam), theta in itertools.product(
                [(0.5, 1.0), (2.3, -1.3), (1.0, 0.7), (0.5, 2.0)], [0.0, 0.37, None]):
            x, t = rng.random(2)
            t = t if theta is None else theta
            at = operator_eigvals(kind, kappa, lam, p, q, x, t)
            moved = operator_eigvals(kind, kappa, lam, p, q, x + 0.5 / q,
                                     t + (0.0 if kind == "uordkr" else 0.5 / q))
            if kind == "h":
                moves.append(set_distance(at, -moved) / (2 + 2 * abs(lam)))
            else:
                arcs = np.abs(np.angle(at[:, None] * moved[None, :]))  # a conj(conj(b))
                moves.append(max(arcs.min(axis=0).max(), arcs.min(axis=1).max()))
        worst.append(max(moves))
    return np.array(worst)


@pytest.mark.parametrize("kind", ["h", "uh", "ukh", "uordkr"])
def test_half_shift_negates_or_conjugates_the_eigenvalues_at_odd_q(kind):
    # The half-shift fold of spectra._orbits; at even q the map misses.
    odd = [(0, 1), (1, 3), (2, 5), (3, 7), (8, 13), (21, 55)]
    assert np.all(_half_shift_moves(kind, odd, np.random.default_rng(17)) <= 1e-13)
    assert np.all(_half_shift_moves(kind, [(1, 2), (3, 8)], np.random.default_rng(18)) > 0.1)


def _full_pairs(pa, grid):
    """Every node of the grid, built without spectra._orbits."""
    q = pa.alpha.q
    if pa.is_mother:
        xs, ts = grid.xs(q), grid.thetas(q)
        return np.repeat(xs, ts.size), np.tile(ts, xs.size)
    return grid.xs(q), np.full(grid.n_x, pa.theta)


def _half_step(v, n, q):
    """2 q v where that is an integer, else -1, for v a node of an axis of n nodes per 1/q.

    Decided by exact fractions: the grid's x_j = j/(n q) is the double
    nearest a fraction of denominator at most n q, and a fixed theta K/(2q)
    one of at most 2 q (n = 2).
    """
    twice = 2 * q * Fraction(float(v)).limit_denominator(n * q)
    return int(twice) if twice.denominator == 1 else -1


def _full_orbits(pa, grid):
    """spectra._orbits of a grid that nothing folds: every node, its half steps, and no images."""
    q, (xv, tv) = pa.alpha.q, _full_pairs(pa, grid)
    hx = np.array([_half_step(x, grid.n_x, q) for x in xv])
    ht = np.array([_half_step(t, grid.n_theta if pa.is_mother else 2, q) for t in tv])
    return xv.size, False, lambda: (xv, tv, hx, ht)


def _assert_reduced_matches_full(pa, grid, monkeypatch):
    """The reduced sweep's points and tracked bands against every node's."""
    run = mother_spectrum if pa.is_mother else spectrum_fixed_theta
    swept = run(pa, grid)
    reduced = tracked_bands(pa, grid)
    with monkeypatch.context() as m:
        m.setattr(spectra, "_orbits", _full_orbits)
        full = SpectrumSet.build(swept.kind, spectra._sweep_values(pa, grid))
        unreduced = tracked_bands(pa, grid)
    assert hausdorff(swept, full) <= spectra.DEDUP_TOL
    assert len(reduced) == len(unreduced)
    assert np.allclose(reduced.bands, unreduced.bands, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("kind", ["h", "uh", "ukh", "uordkr"])
@pytest.mark.parametrize("scope", ["fixed", "mother"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 7])
def test_reduced_grid_matches_the_full_grid(kind, scope, n, monkeypatch):
    # At lambda = 1 the mother sweeps also fold the phase swap.  For uordkr at
    # 3/5, s = 3n/2: a half-integer at n = 3 and 7, where the swap does not fold.
    alphas = [(0, 1), (1, 2), (2, 5), (3, 5), (8, 13)]
    for lam, (p, q) in itertools.product([1.3, 1.0, -1.2], alphas):
        pa = params(kind, 0.9, lam, p, q, theta=MOTHER if scope == "mother" else 0.37)
        _assert_reduced_matches_full(pa, GridSpec(n, n), monkeypatch)


@pytest.mark.parametrize("p,n,lam", [(89, 3, 1.0), (89, 4, 1.0), (144, 3, 1.3)])
def test_reduced_rotor_grid_matches_the_full_grid_at_q_233(p, n, lam, monkeypatch):
    # 89/233: s = 89n/2, a half-integer at n = 3; 144/233: s = 72n.
    _assert_reduced_matches_full(params("uordkr", 1.1, lam, p, 233, theta=MOTHER),
                                 GridSpec(n, n), monkeypatch)


@pytest.mark.parametrize("kind,theta,grid,count", [
    ("h", MOTHER, GridSpec(48, 48), 625),
    ("uh", MOTHER, GridSpec(48, 48), 625),
    ("ukh", MOTHER, GridSpec(48, 48), 625),
    ("uordkr", MOTHER, GridSpec(48, 48), 625),
    ("h", 0.3, GridSpec(400), 201),
    ("ukh", 0.3, GridSpec(400), 201),
    ("uordkr", 0.3, GridSpec(400), 400),
])
def test_representative_counts_are_pinned(kind, theta, grid, count):
    # lambda = 1.3 at even q: the mirror reflections alone.
    pa = params(kind, 1.0, 1.3, 5, 8, theta=theta)
    xv, tv = _nodes(pa, grid)
    assert xv.size == tv.size == spectra._orbits(pa, grid)[0] == count


@pytest.mark.parametrize("kind,grid,count", [
    ("h", GridSpec(48, 48), 325),
    ("uh", GridSpec(48, 48), 325),
    ("ukh", GridSpec(48, 48), 325),
    ("uordkr", GridSpec(48, 48), 325),
    ("ukh", GridSpec(48, 47), 600),
])
def test_self_dual_representative_counts_are_pinned(kind, grid, count):
    # lambda = 1 at even q: on a square grid every kind keeps the triangle of the
    # 25 x 25 mirror representatives (the rotor in (j, b)); a 48 x 47 grid does not.
    pa = params(kind, 1.0, 1.0, 5, 8, theta=MOTHER)
    xv, tv = _nodes(pa, grid)
    assert xv.size == tv.size == spectra._orbits(pa, grid)[0] == count


@pytest.mark.parametrize("kind,theta,grid,lam,count", [
    ("h", MOTHER, GridSpec(48, 48), 1.3, 313),
    ("uh", MOTHER, GridSpec(48, 48), 1.3, 313),
    ("ukh", MOTHER, GridSpec(48, 48), 1.3, 313),
    ("uordkr", MOTHER, GridSpec(48, 48), 1.3, 313),
    ("h", MOTHER, GridSpec(48, 48), 1.0, 169),
    ("uh", MOTHER, GridSpec(48, 48), 1.0, 169),
    ("ukh", MOTHER, GridSpec(48, 48), 1.0, 169),
    ("uordkr", MOTHER, GridSpec(48, 48), 1.0, 169),
    ("h", MOTHER, GridSpec(160, 160), 1.0, 1681),
    ("ukh", MOTHER, GridSpec(48, 47), 1.0, 600),
    ("uordkr", MOTHER, GridSpec(48, 47), 1.3, 565),
    ("h", 0.3, GridSpec(400), 1.3, 201),
    ("ukh", 0.3, GridSpec(400), 1.3, 201),
    ("uordkr", 0.3, GridSpec(400), 1.3, 200),
])
def test_half_shift_representative_counts_are_pinned(kind, theta, grid, lam, count):
    # At odd q the half shift pairs the 625 mirror representatives of a 48 x 48
    # grid by the point reflection, which fixes one, and the 325 of the
    # triangle by the reflection across j + k = 24, which fixes 13.  It moves
    # theta too for h, uh and ukh, so their 48 x 47 and fixed-theta sweeps do
    # not fold; the rotor's moves x alone: 1,129 joint-mirror pairs of the
    # 48 x 47 grid become 565, and its 400 fixed-theta nodes 200.
    pa = params(kind, 1.0, lam, 8, 13, theta=theta)
    xv, tv = _nodes(pa, grid)
    assert xv.size == tv.size == spectra._orbits(pa, grid)[0] == count


def _orbit(node, maps, n_x, n_theta):
    """The nodes (j, k) that the maps reach from node, mod (n_x, n_theta)."""
    orbit, todo = {node}, [node]
    while todo:
        a, b = todo.pop()
        for j, k in (f(a, b) for f in maps):
            if (j % n_x, k % n_theta) not in orbit:
                orbit.add((j % n_x, k % n_theta))
                todo.append((j % n_x, k % n_theta))
    return orbit


@pytest.mark.parametrize("kind", ["h", "ukh", "uordkr"])
@pytest.mark.parametrize("n_x,n_theta", [(1, 1), (2, 5), (5, 2), (6, 6), (7, 4), (7, 7), (4, 6)])
def test_representatives_cover_every_mirror_orbit_once(kind, n_x, n_theta):
    # 3/5 puts a half-integer s on the 7 x 7 grid, where the rotor's swap does not fold.
    # At odd q the half shift moves x and theta by n / 2 nodes (the rotor's x
    # alone), where those axes are even: the 6 x 6 and 4 x 6 grids, and the rotor's 2 x 5.
    for lam, (p, q) in itertools.product((1.3, 1.0), [(2, 5), (3, 5)]):
        pa, grid = params(kind, 1.0, lam, p, q, theta=MOTHER), GridSpec(n_x, n_theta)
        xv, tv = _nodes(pa, grid)
        j, k = np.rint(xv * q * n_x).astype(int), np.rint(tv * q * n_theta).astype(int)
        square, s = n_x == n_theta, _shear(p, q, n_x)
        if kind != "uordkr":
            maps = [lambda a, b: (-a, b), lambda a, b: (a, -b)]
            if lam == 1.0 and square:
                maps.append(lambda a, b: (b, a))
        elif square:
            maps = [lambda a, b: (-a, b + 2 * a), lambda a, b: (a, -b - 2 * a)]
            if lam == 1.0 and s == int(s):
                maps.append(lambda a, b: (a + b + int(s), -b - 2 * int(s)))
        else:
            maps = [lambda a, b: (-a, -b)]
        if kind != "uordkr" and n_x % 2 == n_theta % 2 == 0:
            maps.append(lambda a, b: (a + n_x // 2, b + n_theta // 2))
        elif kind == "uordkr" and n_x % 2 == 0:
            maps.append(lambda a, b: (a + n_x // 2, b))
        covered = [node for a, b in zip(j, k) for node in _orbit((a, b), maps, n_x, n_theta)]
        assert len(covered) == len(set(covered)) == n_x * n_theta


@pytest.mark.parametrize("p,q,n,lam,count", [
    (8, 13, 16, 1.3, 41),
    (89, 233, 16, 1.0, 25),
    (144, 233, 2, 1.0, 2),
    (3, 5, 7, 1.0, 16),
])
def test_rotor_representative_counts_are_pinned(p, q, n, lam, count):
    # ((n + gcd(2, n)) / 2)^2 nodes, or at lambda = 1 with an integer s the
    # triangle; at odd q and even n the half shift halves them (81 -> 41, 45 -> 25, 3 -> 2).
    pa = params("uordkr", 1.0, lam, p, q, theta=MOTHER)
    xv, tv = _nodes(pa, GridSpec(n, n))
    assert xv.size == tv.size == spectra._orbits(pa, GridSpec(n, n))[0] == count


@pytest.mark.parametrize("kind", ["h", "ukh", "uordkr"])
def test_pair_count_is_the_number_of_grid_pairs(kind):
    for n, lam, (p, q) in itertools.product(range(1, 31), (1.3, 1.0), [(2, 5), (3, 5), (3, 8)]):
        for grid in (GridSpec(n, n), GridSpec(n, n + 1)):
            pa = params(kind, 1.0, lam, p, q, theta=MOTHER)
            assert spectra._orbits(pa, grid)[0] == _nodes(pa, grid)[0].size


def test_sweep_size_estimate(monkeypatch):
    # m nodes (float64 x and theta, int64 half steps 2 q x and 2 q theta), 2m
    # rows of values where the half shift folds, else m (q eigenvalues held as
    # up to five complex128 copies while pooled), 1 (Hermitian route: two real
    # arrays), 7 (Cayley route) or 6 (general route) complex q x q arrays per
    # row of a chunk of min(m, 2^16 // q^2) matrices, and the int64 circulant index.
    ukh = params("ukh", 1.0, 1.3, 8, 13, theta=MOTHER)
    assert spectra._sweep_bytes(ukh, GridSpec(48, 48)) == (
        313 * 4 * 8 + 626 * 5 * 16 * 13 + (16 * 7 * 313 + 8) * 169)
    # The rotor folds its sheared phases to the same 313 pairs, and its build
    # holds no array that ukh's does not.
    rotor = params("uordkr", 1.0, 1.3, 8, 13, theta=MOTHER)
    assert spectra._sweep_bytes(rotor, GridSpec(48, 48)) == (
        313 * 32 + 626 * 1040 + (16 * 7 * 313 + 8) * 169)
    huge = GridSpec(3_000_000, 3_000_000)
    m = 1_500_001 ** 2 // 2 + 1
    assert spectra._sweep_bytes(ukh, huge) == m * 32 + 2 * m * 1040 + (16 * 7 * 387 + 8) * 169
    # At lambda = 1 the swap leaves 169 pairs, fewer than a chunk holds.
    dual = params("ukh", 1.0, 1.0, 8, 13, theta=MOTHER)
    assert spectra._sweep_bytes(dual, GridSpec(48, 48)) == (
        169 * 32 + 338 * 1040 + (16 * 7 * 169 + 8) * 169)
    # Even q and fixed-theta h do not fold.
    assert spectra._sweep_bytes(params("ukh", 1.0, 1.3, 5, 8, theta=MOTHER), GridSpec(48, 48)) == (
        625 * (32 + 5 * 16 * 8) + (16 * 7 * 625 + 8) * 64)
    assert spectra._sweep_bytes(params("h", 0.0, 1.0, 1, 3), huge) == (
        1_500_001 * (32 + 240) + (16 * 7281 + 8) * 9)
    # One matrix at large q: the q x q arrays, not the eigenvalues, dominate.
    assert spectra._sweep_bytes(params("h", 0.0, 1.0, 1, 1499), GridSpec(1)) == (
        (32 + 1499 * 80) + (16 + 8) * 1499 ** 2)
    # A batch counts each request's rows: at fixed theta ukh keeps 3 of 4 x nodes and
    # uordkr 2, each with its half-shift image, so 5 nodes hold 7 rows.
    batch = [params(k, 1.0, 1.3, 8, 13, theta=0.3) for k in ("ukh", "uordkr")]
    assert spectra._sweep_bytes(batch, GridSpec(4)) == 5 * 32 + 7 * 1040 + (16 * 7 * 5 + 8) * 169
    # SPECTRAL_MAPPING's general solve of the uh matrices holds 6 per row.
    assert spectra._sweep_bytes(params("uh", 1.0, 1.0, 1, 1499), GridSpec(1), "general") == (
        (32 + 1499 * 80) + (16 * 6 + 8) * 1499 ** 2)
    # Above the split floor a solver call holds whole nodes or corner blocks of one size,
    # at most 118 rows at q = 233, two per corner.  A chunk holds at least 501 eigenvalues:
    # five 118-row blocks, or three 233-row nodes, which hold more.  60 uordkr numerators
    # on a 2 x 2 grid keep 2 of 4 nodes each.  From _POOL_ROWS rows the pool's width of
    # calls run at once: on two cores, two chunks of three 233-row nodes.
    batch = [params("uordkr", 1.0, 1.0, p, 233, theta=MOTHER) for p in range(1, 61)]
    monkeypatch.setattr(spectra, "_workers", lambda: 1)
    assert spectra._sweep_bytes(batch, GridSpec(2, 2)) == (
        120 * 32 + 240 * 5 * 16 * 233 + 16 * 7 * 3 * 233 ** 2 + 8 * 233 ** 2)
    monkeypatch.setattr(spectra, "_workers", lambda: 2)
    assert spectra._sweep_bytes(batch, GridSpec(2, 2)) == (
        120 * 32 + 240 * 5 * 16 * 233 + 16 * 7 * 6 * 233 ** 2 + 8 * 233 ** 2)


# The peak RSS of the process's own address space (VmHWM, in kB).  ru_maxrss
# would not do: exec carries the launching process's peak over into it.
_PEAK_RSS = """
import sys
from math import gcd
from kickspec import GridSpec, OperatorParams, RationalAlpha, run_check, spectrum_fixed_theta
from kickspec.analysis import _spectra
from kickspec.spectra import _sweep_bytes

def peak():
    with open("/proc/self/status") as fh:
        return next(int(ln.split()[1]) * 1024 for ln in fh if ln.startswith("VmHWM:"))

if sys.argv[1] == "pooled":  # two whole ukh nodes at 1/610, solved side by side
    import kickspec.spectra as spectra
    spectra._workers = lambda: 2
    pa, grid = OperatorParams("ukh", 1.0, 1.0, RationalAlpha(1, 610), 0.123456), GridSpec(2)
    before = peak()
    spectrum_fixed_theta(pa, grid)
    print(peak() - before, _sweep_bytes(pa, grid))
    sys.exit()
if sys.argv[1] == "batch":  # a butterfly's: the first 60 reduced p <= q/2, 2 x 2 mother grid
    kind, q, grid = sys.argv[2], int(sys.argv[3]), GridSpec(2, 2)
    ps = [p for p in range(1, q // 2 + 1) if gcd(p, q) == 1][:60]
    batch = [OperatorParams(kind, 1.0, 1.0, RationalAlpha(p, q), "mother") for p in ps]
    before = peak()
    _spectra(batch, grid)
    print(peak() - before, _sweep_bytes(batch, grid))
    sys.exit()
kind, theta, route = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
pa, grid = OperatorParams(kind, 1.0, 1.0, RationalAlpha(1, 610), theta), GridSpec(1)
before = peak()
if route:  # SPECTRAL_MAPPING: the uh sweep, then the general solve of the same node
    run_check("SPECTRAL_MAPPING", {"alpha": "1/610", "n": 1, "theta": theta})
else:
    spectrum_fixed_theta(pa, grid)
print(peak() - before, _sweep_bytes(pa, grid, *route))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads the peak RSS from /proc")
@pytest.mark.parametrize("argv", [
    ["h", "0"], ["uh", "0"], ["ukh", "0"], ["uordkr", "0"], ["uh", "0", "general"],
    ["h", "0.123456"], ["ukh", "0.123456"], ["uordkr", "0.123456"],
], ids=["h", "uh", "ukh", "uordkr", "spectral-mapping", "h-whole", "ukh-whole", "uordkr-whole"])
def test_one_node_peak_memory_is_within_the_estimate(argv):
    # A fresh process, so that the peak RSS growth is this one sweep's.  At
    # theta = 0 the node (0, 0) is a corner, split into its parity blocks; at
    # 2 q theta = 150.6 it is not, and the q x q matrix of each route is built.
    grown, estimate = _peak_growth(argv)
    assert 0 < grown <= estimate


@pytest.mark.skipif(sys.platform != "linux", reason="reads the peak RSS from /proc")
@pytest.mark.parametrize("q", [233, 377])
@pytest.mark.parametrize("kind", ["h", "ukh", "uordkr"])
def test_a_batch_of_corners_peak_memory_is_within_the_estimate(kind, q):
    # Every node of the 60 numerators' 2 x 2 grids is a split corner.  A sweep that
    # built every corner's blocks before its first solver call grew 161 MiB at ukh,
    # q = 377, against an estimate of 23.
    grown, estimate = _peak_growth(["batch", kind, str(q)])
    assert 0 < grown <= estimate


@pytest.mark.skipif(sys.platform != "linux", reason="reads the peak RSS from /proc")
def test_a_pooled_sweep_peak_memory_is_within_the_estimate():
    # The two 610-row calls run at once, each holding its own matrices; the estimate
    # counts the pool's width of them.
    grown, estimate = _peak_growth(["pooled"])
    assert 0 < grown <= estimate


def _peak_growth(argv):
    """The peak RSS growth of _PEAK_RSS's sweep in a fresh process, and its estimate."""
    src = os.path.dirname(os.path.dirname(spectra.__file__))
    out = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    return tuple(int(v) for v in out.stdout.split())


@pytest.mark.parametrize("kind", ["h", "uh", "ukh", "uordkr"])
@pytest.mark.parametrize("lam", [1.3, 1.0])
def test_size_checks_allocate_nothing_per_node(kind, lam):
    # Axes of 10^12 nodes: a sweep that built one before its size check would
    # fail at once with a MemoryError (8 TB) instead of the refusal.
    with pytest.raises(InvalidParams, match="physical memory"):
        spectrum_fixed_theta(params(kind, 1.0, lam, 8, 13), GridSpec(10**12))
    for grid in (GridSpec(10**12, 10**12), GridSpec(10**12, 10**12 + 2)):
        with pytest.raises(InvalidParams, match="physical memory"):
            mother_spectrum(params(kind, 1.0, lam, 8, 13, theta=MOTHER), grid)


def test_preflight_refuses_a_sweep_larger_than_memory(monkeypatch):
    pa = params("ukh", 1.0, 1.0, 8, 13, theta=MOTHER)
    need = spectra._sweep_bytes(pa, GridSpec(48, 48))
    page = 4096
    sizes = {"SC_PAGE_SIZE": page, "SC_PHYS_PAGES": need // page}
    monkeypatch.setattr(spectra.os, "sysconf", sizes.__getitem__)
    with pytest.raises(InvalidParams, match="physical memory"):
        mother_spectrum(pa, GridSpec(48, 48))
    sizes["SC_PHYS_PAGES"] = need // page + 1
    assert len(mother_spectrum(pa, GridSpec(48, 48))) > 0
    # SPECTRAL_MAPPING sizes its general route, which holds more than its uh sweep.
    uh = params("uh", 1.0, 1.0, 8, 13, theta=MOTHER)
    sizes["SC_PHYS_PAGES"] = spectra._sweep_bytes(uh, GridSpec(48, 48), "general") // page
    with pytest.raises(InvalidParams, match="physical memory"):
        run_check("SPECTRAL_MAPPING", {"alpha": "8/13", "n": 48, "theta": MOTHER})


# -- corner nodes split by their parity involution ---------------------------------------

# Each (kind, alpha) sweeps the eleven scopes of _split_scopes, one per (kappa, lambda) pair;
# the first nine are also _reversal_scopes' pairs.
_SPLIT_KICKS = [*itertools.product([0.5, 1.0, 2.3], [1.0, 0.7, -1.3]), (1.1, 1.0), (0.7, -0.8)]


def _split_scopes(q):
    """Mother grids of 1, 2 and 4, fixed theta in {0, 1/(2q), 1/2} on x grids of 2 and 4, and
    the rectangular mother grids 4 x 6 and 6 x 4, where uordkr folds only the joint mirror."""
    mother = [(MOTHER, GridSpec(n, n)) for n in (1, 2, 4)]
    fixed = [(th, GridSpec(n)) for th in (0.0, 1 / (2 * q), 0.5) for n in (2, 4)]
    return mother + fixed + [(MOTHER, GridSpec(4, 6)), (MOTHER, GridSpec(6, 4))]


def _cayley_noise(row):
    """The Cayley route's documented eigenphase error of two solves of a row.

    2 eps max|w| per solve, with w = tan(phase / 2) the eigenvalues of K
    (linalg._CAYLEY_LIMIT).
    """
    return 4 * np.finfo(float).eps * np.abs(np.tan(np.angle(row) / 2)).max()


@pytest.mark.parametrize("kind", ["h", "uh", "ukh", "uordkr"])
@pytest.mark.parametrize("p,q", [(1, 2), (3, 4), (21, 34), (55, 89), (144, 233)])
def test_a_split_sweep_is_the_unsplit_sweep(kind, p, q, monkeypatch):
    for (theta, grid), (kappa, lam) in zip(_split_scopes(q), _SPLIT_KICKS, strict=True):
        pa = params(kind, kappa, lam, p, q, theta=theta)
        xv, tv = _nodes(pa, grid)
        corners = _corners(pa, grid)
        monkeypatch.setattr(spectra, "_SPLIT_FLOOR", 1)
        split = spectra._sweep_values(pa, grid)
        monkeypatch.setattr(spectra, "_SPLIT_FLOOR", 10**9)
        whole = spectra._sweep_values(pa, grid)
        assert split.shape == whole.shape
        if kind == "h":  # rows ascending, as the half-shift image and _tracked read them
            assert np.all(np.diff(split, axis=1) >= 0)
        # Each row within 1e-13, or where a Cayley eigenphase nears pi, within the route's
        # own error; the Hermitian route (h, and uh through it) has no pole.
        for a, b in zip(split, whole):
            noise = _cayley_noise(b) if kind in ("ukh", "uordkr") else 0.0
            assert set_distance(a, b) <= max(1e-13, noise)
        for j in corners:  # the split rows, against each node's own matrix and eigvals
            oracle = _oracle_values(kind, kappa, lam, pa.alpha, xv[j], tv[j])
            assert set_distance(split[j], oracle) <= 1e-12
        # Node 0 is a corner in every scope here, and on a mother grid of n <= 2 every node is.
        assert 0 in corners
        if pa.is_mother and grid.n_x <= 2:
            assert len(corners) == spectra._orbits(pa, grid)[0]


def _reversal_scopes(q):
    """Mother grids of 1, 2 and 4, and fixed theta in {0, 1/(2q), 0.3} on x grids of 2 and 4."""
    mother = [(MOTHER, GridSpec(n, n)) for n in (1, 2, 4)]
    return mother + [(th, GridSpec(n)) for th in (0.0, 1 / (2 * q), 0.3) for n in (2, 4)]


def _reversal_cases(q):
    """(scope, kicks) pairs: the nine scopes of _reversal_scopes, or at q = 610 the node
    (0, 0) at kappa = lambda = 1 alone, where max|w| = 295 puts the real solve's certificate
    at about 2e-11, 1.5 to 2.7 eps (1 + max|w|^2) / 2: past a threshold that does not grow
    with max|w| like the conditioning of I + X (1e-12 fails it)."""
    if q == 610:
        return [((0.0, GridSpec(1)), (1.0, 1.0))]
    return list(zip(_reversal_scopes(q), _SPLIT_KICKS[:9], strict=True))


@pytest.mark.parametrize("kind", ["ukh", "uordkr"])
@pytest.mark.parametrize("p,q", [(1, 2), (3, 4), (21, 34), (144, 233), (1, 610)])
def test_the_real_route_is_the_complex_route(kind, p, q, monkeypatch):
    # Split (floor 1) and whole (floor 10^9) sweeps, each against the same sweep with
    # the real route off: the solver called without its gauge.
    solve, gauged, complex_solves, inverses = spectra.unitary_eigvals_stack, [], [], []
    eigvalsh, inv = linalg.eigvalsh_stack, np.linalg.inv
    monkeypatch.setattr(linalg, "eigvalsh_stack",
                        lambda k: complex_solves.append(np.iscomplexobj(k)) or eigvalsh(k))
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverses.append(len(a)) or inv(a))

    def spy(stack, *gauge):
        gauged.append(bool(gauge))
        return solve(stack, *gauge)

    for (theta, grid), (kappa, lam) in _reversal_cases(q):
        pa = params(kind, kappa, lam, p, q, theta=theta)
        xv, tv = _nodes(pa, grid)
        oracle = {}
        for floor in (1, 10**9):
            monkeypatch.setattr(spectra, "_SPLIT_FLOOR", floor)
            monkeypatch.setattr(spectra, "unitary_eigvals_stack", spy)
            gauged.clear()
            complex_solves.clear()
            inverses.clear()
            values = spectra._sweep_values(pa, grid)
            solved_complex = any(complex_solves) or bool(inverses)
            monkeypatch.setattr(spectra, "unitary_eigvals_stack", lambda stack, *gauge: solve(stack))
            reference = spectra._sweep_values(pa, grid)
            # The nodes on the time-reversal line: every node of a fixed-theta ukh sweep at
            # an integer 2 q theta, else the corners of a split sweep.
            line = set(_corners(pa, grid)) if floor == 1 else set()
            if kind == "ukh" and theta != MOTHER and theta != 0.3:
                line = set(range(xv.size))
            assert any(gauged) == bool(line)
            if len(line) == xv.size and kappa < 2:  # every node on the line, none near a pole
                assert not solved_complex  # no complex eigvalsh, no complex inverse
            if not line:
                assert np.array_equal(values, reference)
                continue
            # Each row within 1e-13, or where an eigenphase nears pi, within the route's own error.
            for a, b in zip(values, reference):
                assert set_distance(a, b) <= max(1e-13, _cayley_noise(b))
            for j in line:  # the real rows, against each node's own matrix and eigvals
                if j not in oracle:
                    oracle[j] = _oracle_values(kind, kappa, lam, pa.alpha, xv[j], tv[j])
                assert set_distance(values[j], oracle[j]) <= 1e-12


@pytest.mark.parametrize("kind,solver", [
    ("ukh", "unitary_eigvals_stack"), ("uordkr", "unitary_eigvals_stack"),
    ("h", "eigvalsh_stack"), ("uh", "eigvalsh_stack")])
def test_every_solver_call_and_build_of_a_sweep_runs_on_one_thread(kind, solver, blas,
                                                                   monkeypatch):
    # 144/233 on a 6 x 6 mother grid: six whole 233-row nodes in two chunks of three, which
    # the pool solves side by side, and the corners' parity blocks, one call per size (116
    # and 117 rows), solved in turn.  Each call and each build, on whichever thread, sees one.
    _, get_threads = blas
    monkeypatch.setattr(spectra, "_workers", lambda: 2)
    calls, builds, solve = [], [], getattr(spectra, solver)
    monkeypatch.setattr(spectra, solver, lambda stack, *gauge: calls.append(
        (stack.shape[-1], get_threads())) or solve(stack, *gauge))
    for name in ("operator_stack", "harper_jacobi_stack"):
        build = getattr(spectra, name)
        monkeypatch.setattr(spectra, name, lambda *a, build=build: builds.append(
            get_threads()) or build(*a))
    corner_blocks = spectra._corner_blocks
    monkeypatch.setattr(spectra, "_corner_blocks", lambda *a: [
        (n, lambda make=make: builds.append(get_threads()) or make())
        for n, make in corner_blocks(*a)])
    mother_spectrum(params(kind, 1.0, 1.3, 144, 233, theta=MOTHER), GridSpec(6, 6))
    assert sorted(calls) == [(116, 1), (117, 1), (233, 1), (233, 1)]
    assert len(builds) > 2 and set(builds) == {1}  # two chunks, and each corner's blocks
    assert get_threads() == 2


def test_the_general_routes_builds_run_on_one_thread(blas, monkeypatch):
    # SPECTRAL_MAPPING's general route builds exp(-i kappa H) by eigh and a product.
    import kickspec.operators as operators

    _, get_threads = blas
    seen, expm, eigvals = [], operators.expm_i_hermitian_stack, spectra._general_eigvals
    monkeypatch.setattr(operators, "expm_i_hermitian_stack",
                        lambda *a: seen.append(("build", get_threads())) or expm(*a))
    monkeypatch.setattr(spectra, "_general_eigvals",
                        lambda stack: seen.append(("solve", get_threads())) or eigvals(stack))
    monkeypatch.setattr(spectra, "_workers", lambda: 2)
    spectra._sweep_values(params("uh", 1.0, 1.0, 55, 144, theta=0.3), GridSpec(8), "general")
    assert sorted(seen) == [("build", 1)] * 2 + [("solve", 1)] * 2  # 5 nodes, 2 pooled calls
    assert get_threads() == 2


def test_a_sweep_without_two_large_calls_makes_no_pool(monkeypatch):
    # The corners of 144/233 on a 2 x 2 grid are 116- and 117-row blocks, and at theta = 0.3
    # two x nodes are one 233-row call: nothing for a pool to run side by side.
    monkeypatch.setattr(spectra, "_workers", lambda: 2)
    asked, solver_pool = [], spectra._solver_pool
    monkeypatch.setattr(spectra, "_solver_pool", lambda: asked.append(1) or solver_pool())
    for kind in ("h", "ukh"):
        mother_spectrum(params(kind, 1.0, 1.0, 144, 233, theta=MOTHER), GridSpec(2, 2))
        spectrum_fixed_theta(params(kind, 1.0, 1.3, 89, 233, theta=0.3), GridSpec(2))
    assert asked == []
    spectrum_fixed_theta(params("ukh", 1.0, 1.3, 89, 233, theta=0.3), GridSpec(8))
    assert asked == [1]


def _failing_solver(monkeypatch, bad):
    """Rebind the Cayley solver to fail on any stack that holds one of the bad matrices; return
    the sizes of the stacks it is called on from the main thread, in order."""
    import threading

    solve, main = spectra.unitary_eigvals_stack, []

    def fail_at_bad(stack, *gauge):
        if threading.current_thread() is threading.main_thread():
            main.append(len(stack))
        if any(np.array_equal(m, b) for m in stack for b in bad):
            raise NumericalError("injected")
        return solve(stack, *gauge)

    monkeypatch.setattr(spectra, "unitary_eigvals_stack", fail_at_bad)
    return main


def test_a_pooled_call_that_fails_is_named_as_in_the_serial_run(monkeypatch):
    # 55/144 at theta = 0.3 and 0.4 on 10 x nodes: twelve whole 144-row nodes, in calls of
    # 4, 4 and 4.  The second call (theta = 0.3's x = 4/1440 and 5/1440, theta = 0.4's
    # first two) and the third fail.  Serially the first two calls run and node 4 is
    # retried alone; with the pool every call runs off the main thread, which retries
    # node 4 alone: the first failing call in plan order, and its first failing node.
    batch = [params("ukh", 1.0, 1.3, 55, 144, theta=t) for t in (0.3, 0.4)]
    bad = [spectra.operator_stack(pa, [x], [pa.theta])[0] for pa, x in
           ((batch[0], 4 / 1440), (batch[1], 5 / 1440))]
    message = re.escape(f"alpha=55/144, grid point x={4 / 1440!r}, theta=0.3: injected")
    monkeypatch.setattr(spectra, "_workers", lambda: 2)
    for rows, expected in ((spectra._POOL_ROWS, [1]), (10**9, [4, 4, 1])):
        monkeypatch.setattr(spectra, "_POOL_ROWS", rows)
        main = _failing_solver(monkeypatch, bad)
        with pytest.raises(NumericalError, match=message):
            spectra._sweep_values(batch, GridSpec(10))
        assert main == expected


def test_the_callers_thread_count_is_back_after_a_pooled_call_fails(blas, monkeypatch):
    _, get_threads = blas
    monkeypatch.setattr(spectra, "_workers", lambda: 2)
    pa = params("ukh", 1.0, 1.3, 55, 144, theta=0.3)  # six 144-row nodes, two pooled calls
    _failing_solver(monkeypatch, [spectra.operator_stack(pa, [0.0], [0.3])[0]])
    with pytest.raises(NumericalError, match="injected"):
        spectra._sweep_values(pa, GridSpec(10))
    assert get_threads() == 2 and linalg._blas_depth == 0


def test_nested_and_concurrent_sweeps_restore_the_callers_thread_count(blas, monkeypatch):
    # Four pooled sweeps at once from four threads, more than the cores, with a short switch
    # interval, and a sweep run from inside one of their solver calls: every call sees one
    # thread, each sweep's values are those it gives alone, and the count is back at the end.
    import threading

    _, get_threads = blas
    monkeypatch.setattr(spectra, "_workers", lambda: 2)
    # Each sweep: six 144-row nodes, in two pooled calls of 4 and 2.
    sweeps = [params("ukh", 1.0, 1.3, 55, 144, theta=t) for t in (0.3, 0.35, 0.4, 0.45)]
    alone = {pa.theta: spectra._sweep_values(pa, GridSpec(10)) for pa in sweeps}
    seen, solve, nested, once = [], spectra.unitary_eigvals_stack, [], threading.Lock()
    small = params("ukh", 1.0, 1.3, 8, 13, theta=0.3)

    def spy(stack, *gauge):
        seen.append(get_threads())
        if stack.shape[-1] == 144 and once.acquire(blocking=False):
            nested.append(spectra._sweep_values(small, GridSpec(4)))
        return solve(stack, *gauge)

    monkeypatch.setattr(spectra, "unitary_eigvals_stack", spy)
    got = {}
    workers = [threading.Thread(target=lambda pa=pa: got.__setitem__(
        pa.theta, spectra._sweep_values(pa, GridSpec(10)))) for pa in sweeps]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(w.is_alive() for w in workers) and len(nested) == 1
    assert {t: v.tobytes() for t, v in got.items()} == {t: v.tobytes() for t, v in alone.items()}
    assert set(seen) == {1} and len(seen) == 4 * 2 + 1
    assert get_threads() == 2 and linalg._blas_depth == 0


def _pool_cases(p, q):
    """(params, grid) of each kind on a 1 x 1 mother grid (one corner: two pooled block calls),
    and of h and uh at theta = 0.3 on 2 x nodes (whole nodes, a pooled call each).  The
    kicked kinds' fixed-theta nodes, where a whole Cayley node takes 0.06 s at q = 610 and
    0.3-0.7 s at q = 987, are the mixed batch's at q = 610."""
    return [(params(kind, 1.0, 1.3, p, q, theta=MOTHER), GridSpec(1, 1))
            for kind in ("h", "uh", "ukh", "uordkr")] + [
        (params(kind, 1.0, 1.3, p, q, theta=0.3), GridSpec(2)) for kind in ("h", "uh")]


@pytest.mark.parametrize("p,q", [(377, 610), (610, 987)])
def test_the_pool_does_not_change_a_sweeps_values(p, q, monkeypatch):
    import threading

    monkeypatch.setattr(spectra, "_workers", lambda: 2)
    # A mixed batch at 377/610 on 3 x nodes, each kicked kind at a fixed theta: a corner's
    # blocks and a gauged whole node (ukh on the time-reversal line, theta = 0), beside
    # ungauged ukh and uordkr nodes, on one route.
    batch = [params(kind, 1.0, 1.3, 377, 610, theta=t) for kind, t in
             (("ukh", 0.0), ("ukh", 0.3), ("uordkr", 0.3))]
    cases = _pool_cases(p, q) + ([(batch, GridSpec(3))] if q == 610 else [])
    threads, solve = set(), spectra.unitary_eigvals_stack
    monkeypatch.setattr(spectra, "unitary_eigvals_stack", lambda *a: threads.add(
        threading.current_thread().name) or solve(*a))
    pooled = [spectra._sweep_values(pa, grid) for pa, grid in cases]
    assert any(name.startswith("kickspec-solve") for name in threads)
    monkeypatch.setattr(spectra, "_POOL_ROWS", 10**9)

    def raw(values):  # one request's array, or a batch's, as bytes
        return b"".join(a.tobytes() for a in (values if isinstance(values, list) else [values]))

    for (pa, grid), values in zip(cases, pooled):
        assert raw(values) == raw(spectra._sweep_values(pa, grid)), pa


def test_below_the_floor_a_sweep_builds_and_solves_as_without_the_split(monkeypatch):
    builds, corners = [], []
    for name in ("operator_stack", "harper_jacobi_stack"):
        build = getattr(spectra, name)
        monkeypatch.setattr(spectra, name, lambda pa, xs, ts, build=build:
                            builds.append(len(xs)) or build(pa, xs, ts))
    corner_blocks = spectra._corner_blocks
    monkeypatch.setattr(spectra, "_corner_blocks", lambda pa, hx, ht:
                        corners.append((hx, ht)) or corner_blocks(pa, hx, ht))
    floor, grid = spectra._SPLIT_FLOOR, GridSpec(4, 4)
    for kind in ("h", "uh", "ukh", "uordkr"):
        # One q below the floor (1/88): every node built in chunks of 2^16 // 88^2 = 8, no
        # blocks, the same values as with the split out of reach.
        below = params(kind, 1.0, 1.3, 1, floor - 1, theta=MOTHER)
        builds.clear()
        values = spectra._sweep_values(below, grid)
        assert builds == [8, 1] and spectra._orbits(below, grid)[0] == 9 and corners == []
        monkeypatch.setattr(spectra, "_SPLIT_FLOOR", 10**9)
        assert np.array_equal(spectra._sweep_values(below, grid), values)
        monkeypatch.setattr(spectra, "_SPLIT_FLOOR", floor)
        # At the floor (1/89, odd q: the half shift keeps 5 of the 3 x 3 quarter grid's
        # nodes): corners 0 and 2, uordkr's in its sheared phases too, are built as blocks,
        # never through the builder, which builds the other 3 in one chunk.
        builds.clear()
        spectra._sweep_values(params(kind, 1.0, 1.3, 1, floor, theta=MOTHER), grid)
        assert builds == [3]
        assert sorted(corners) == [(0, 0), (0, 1)]
        corners.clear()


@pytest.mark.parametrize("n_x,n_theta",
                         [(1, 1), (2, 2), (3, 3), (4, 4), (6, 6), (4, 6), (6, 4), (5, 2)])
def test_corners_are_the_grid_nodes_whose_half_steps_are_integers(n_x, n_theta):
    # Every node that _orbits lists carries its half steps 2 q x and 2 q theta where
    # they are integers, else -1, which the kernel reads for its corners and its
    # time-reversal line; here they are decided by exact fractions.  The branches:
    # h's and ukh's quarter grids, the lambda = 1 triangle on square grids, the odd-q
    # half-shift image (89/233 on even grids), uordkr's sheared square grid at an
    # integer and a half-integer s (3/5 at n = 3), its joint mirror on rectangular
    # grids, with the image at 89/233 and 3/5 and without it at 89/144 or odd n_x,
    # and fixed theta, whose half step is the same at every x.
    grid = GridSpec(n_x, n_theta)
    for kind, lam, (p, q) in itertools.product(("h", "ukh", "uordkr"), (1.3, 1.0),
                                               [(89, 144), (89, 233), (3, 5)]):
        for theta in (MOTHER, 0.0, 1 / (2 * q), 0.5, 0.3):
            pa = params(kind, 1.0, lam, p, q, theta=theta)
            xv, tv, hx, ht = spectra._orbits(pa, grid)[2]()
            assert hx.tolist() == [_half_step(x, n_x, q) for x in xv]
            assert ht.tolist() == [_half_step(t, n_theta if pa.is_mother else 2, q) for t in tv]


def test_a_fixed_theta_is_a_corner_when_it_is_the_double_nearest_a_half_step():
    # As the command line parses it: theta = K/(2q) for an integer K, and not a neighbour.
    grid = GridSpec(4)
    for text, half in [("0", 0), (repr(1 / 466), 1), ("0.5", 233), (repr(465 / 466), 465)]:
        pa = params("ukh", 1.0, 1.3, 144, 233, theta=float(text))
        assert _corners(pa, grid) == {0: (0, half), 2: (1, half)}
    for theta in (np.nextafter(1 / 466, 1.0), np.nextafter(0.5, 0.0), 0.3):
        pa = params("ukh", 1.0, 1.3, 144, 233, theta=theta)
        assert _corners(pa, grid) == {}


# -- SpectrumSet invariants --------------------------------------------------------------


def test_build_sorts_and_dedups_real_line():
    s = SpectrumSet.build(SpectrumKind.REAL_LINE, [3.0, 1.0, 1.0 + 1e-15, 2.0])
    assert np.allclose(s.points, [1.0, 2.0, 3.0])


def test_build_dedups_circle_across_seam():
    s = circle_set([np.pi, -np.pi + 1e-15, 0.0])
    assert len(s) == 2


def test_build_rejects_off_circle_points():
    with pytest.raises(InvalidParams):
        SpectrumSet.build(SpectrumKind.UNIT_CIRCLE, [0.5 + 0.0j])


@pytest.mark.parametrize("kind,values", [
    (SpectrumKind.REAL_LINE, [1.0, np.nan]),
    (SpectrumKind.REAL_LINE, [-np.inf]),
    (SpectrumKind.UNIT_CIRCLE, [1.0, complex(np.nan, 0.0)]),
    (SpectrumKind.UNIT_CIRCLE, [complex(0.0, np.inf)]),
])
def test_build_rejects_non_finite_points(kind, values):
    with pytest.raises(InvalidParams, match="spectrum points must be finite"):
        SpectrumSet.build(kind, values)


@pytest.mark.parametrize("n_x,n_theta,axis", [(2.0, 1, "n_x"), (0, 1, "n_x"), (3, 0, "n_theta"),
                                              (3, 1.5, "n_theta")])
def test_grid_spec_refuses_an_axis_that_is_not_a_positive_integer(n_x, n_theta, axis):
    with pytest.raises(InvalidParams, match=f"{axis} must be an integer >= 1"):
        GridSpec(n_x, n_theta)


def test_kind_rule_puts_h_on_the_line_and_the_unitary_kinds_on_the_circle():
    assert SpectrumKind.of("h") is SpectrumKind.REAL_LINE
    for kind in ["uh", "ukh", "uordkr"]:
        assert SpectrumKind.of(OperatorKind(kind)) is SpectrumKind.UNIT_CIRCLE


def test_eigenphases_examples():
    assert np.allclose(eigenphases(circle_set([0.0])), [0.0])
    assert np.allclose(eigenphases(circle_set([np.pi / 2, -np.pi / 2])), [-np.pi / 2, np.pi / 2])
    # -2 sqrt 2 is already inside (-pi, pi]
    s = SpectrumSet.build(SpectrumKind.UNIT_CIRCLE, [np.exp(-1j * ROOT8)])
    assert np.allclose(eigenphases(s), [-ROOT8])


def test_eigenphases_rejects_real_line():
    with pytest.raises(InvalidParams, match="eigenphases requires a UNIT_CIRCLE spectrum"):
        eigenphases(SpectrumSet.build(SpectrumKind.REAL_LINE, [1.0]))


# -- band merging ------------------------------------------------------------------------


def test_merge_bands_two_bands():
    s = circle_set([0.0, 0.01, 1.0])
    b = merge_bands(s, 0.1)
    assert b.bands == ((0.0, 0.01), (1.0, 1.0))


def test_merge_bands_singletons():
    q = 7
    s = circle_set(2 * np.pi * np.arange(q) / q - np.pi / 2)
    b = merge_bands(s, 0.5 * 2 * np.pi / q)
    assert len(b) == q
    assert total_bandwidth(b) == 0.0


def test_merge_bands_full_circle():
    s = circle_set(np.linspace(-np.pi, np.pi, 200, endpoint=False))
    b = merge_bands(s, 0.1)
    assert b.bands == ((-np.pi, np.pi),)
    assert total_bandwidth(b) == pytest.approx(2 * np.pi)


def test_merge_bands_wrapped_band():
    s = circle_set([3.1, -3.1])
    b = merge_bands(s, 0.2)
    assert len(b) == 1
    (lo, hi), = b.bands
    assert (lo, hi) == (3.1, pytest.approx(-3.1))
    assert total_bandwidth(b) == pytest.approx(2 * np.pi - 6.2)


def test_merge_bands_mother_harper_q3_counts():
    s = mother_spectrum(params("h", 0, 1.0, 1, 3, theta=MOTHER), GridSpec(120, 120))
    b = merge_bands(s, 4.0 * s.error_bound)
    assert len(b) == 3


def test_merge_bands_rejects_empty_and_bad_gap():
    s = circle_set([0.0])
    with pytest.raises(InvalidParams):
        merge_bands(s, 0.0)
    empty = SpectrumSet.build(SpectrumKind.REAL_LINE, [])
    with pytest.raises(InvalidParams, match="cannot merge an empty spectrum"):
        merge_bands(empty, 0.1)


@pytest.mark.parametrize("seed,kind", [
    *(pytest.param(seed, SpectrumKind.UNIT_CIRCLE, id=str(seed)) for seed in range(5)),
    *(pytest.param(seed, SpectrumKind.REAL_LINE, id=f"real_line-{seed}") for seed in range(5)),
])
def test_merge_bands_idempotent_at_band_level(seed, kind):
    # Merging the returned bands again with the same gap would join nothing:
    # every gap left between neighbouring bands (cyclically on the circle) exceeds it.
    rng = np.random.default_rng(seed)
    phases = rng.uniform(-np.pi, np.pi, size=60)
    if kind is SpectrumKind.UNIT_CIRCLE:
        s = circle_set(phases)
    else:
        s = SpectrumSet.build(kind, phases)
    gap = float(rng.uniform(0.01, 0.5))
    b = merge_bands(s, gap)
    lo, hi = np.array(b.bands).T
    if kind is SpectrumKind.REAL_LINE:
        between = lo[1:] - hi[:-1]
    elif b.bands == ((-np.pi, np.pi),):
        between = np.array([])
    else:
        between = (np.append(lo[1:], lo[0]) - hi) % (2 * np.pi)
    assert np.all(between > gap)


def test_merge_one_point_circle_is_degenerate_band():
    b = merge_bands(circle_set([0.3]), 0.1)
    assert b.bands == ((0.3, 0.3),)
    assert total_bandwidth(b) == 0.0


def test_auto_merge_gap_scales_with_bound():
    s = mother_spectrum(params("ukh", 1.0, 1.0, 1, 3, theta=MOTHER), GridSpec(4, 4))
    assert s.error_bound > 0
    assert auto_merge_gap(s) == pytest.approx(4.0 * s.error_bound)
    assert auto_merge_gap(circle_set([0.0])) > 0
    # A number is the gap itself; "auto" is resolved here and nowhere else.
    assert auto_merge_gap(s, 0.05) == 0.05
    assert auto_merge_gap(s, "auto") == auto_merge_gap(s)


# -- tracked bands --------------------------------------------------------------------------


def test_tracked_bands_harper_q2_single_band():
    pa = params("h", 0, 1.0, 1, 2, theta=MOTHER)
    b = tracked_bands(pa, GridSpec(64, 64))
    assert len(b) == 1
    (lo, hi), = b.bands
    assert lo == pytest.approx(-ROOT8, abs=1e-3)
    assert hi == pytest.approx(ROOT8, abs=1e-3)


def test_tracked_bands_small_kick_three_arcs():
    pa = params("ukh", 0.05, 1.0, 1, 3, theta=MOTHER)
    b = tracked_bands(pa, GridSpec(24, 24))
    assert b.kind is SpectrumKind.UNIT_CIRCLE
    assert len(b) == 3


def test_tracked_bands_agree_with_merged_on_fine_grid():
    pa, grid = params("h", 0, 1.0, 1, 3, theta=MOTHER), GridSpec(100, 100)
    # One sweep gives both the tracked bands and the points.
    values = spectra._sweep_values(pa, grid)
    tracked = spectra._tracked(pa, values)
    s = spectra._spectrum(pa, grid, values)
    merged = merge_bands(s, 4.0 * s.error_bound)
    assert len(tracked) == len(merged)
    assert total_bandwidth(tracked) == pytest.approx(total_bandwidth(merged), abs=8 * s.error_bound)
