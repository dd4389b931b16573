import os
import re
import subprocess
import sys

import numpy as np
import pytest

import kickspec.spectra as spectra
from kickspec.errors import EmptySpectrum, InvalidParams, NoConvergence, NumericalError, WrongKind
from kickspec.linalg import eig_unitary
from kickspec.operators import MOTHER, OperatorParams, RationalAlpha, operator_stack
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
from kickspec.analysis import hausdorff, total_bandwidth
from oracles import expm_i, matrix_at

ROOT8 = 2.0 * np.sqrt(2.0)


def params(kind, kappa, lam, p, q, theta=0.0):
    return OperatorParams(kind, kappa, lam, RationalAlpha(p, q), theta)


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
        return eig_unitary(expm_i(h, kappa))
    return eig_unitary(matrix_at(at, x))


@pytest.mark.parametrize("kind", ["h", "uh", "ukh", "uordkr"])
@pytest.mark.parametrize("p,q", [(0, 1), (1, 2), (2, 5)])
@pytest.mark.parametrize("scope", ["fixed", "mother"])
def test_sweep_matches_per_matrix_oracles(kind, p, q, scope):
    alpha = RationalAlpha(p, q)
    pa = OperatorParams(kind, 0.9, 1.3, alpha, MOTHER if scope == "mother" else 0.37)
    xv, tv = spectra._grid_pairs(pa, GridSpec(3, 3))
    pooled = spectra._sweep_values(pa, xv, tv)
    oracle = np.concatenate([_oracle_values(kind, 0.9, 1.3, alpha, x, t) for x, t in zip(xv, tv)])
    assert pooled.size == oracle.size == xv.size * q
    assert set_distance(pooled, oracle) <= 1e-12


@pytest.mark.parametrize("kind", ["h", "uh", "ukh", "uordkr"])
def test_chunked_sweep_is_identical(kind, monkeypatch):
    q = 5
    pa = params(kind, 0.9, 1.3, 2, q, theta=MOTHER)
    xv, tv = spectra._grid_pairs(pa, GridSpec(4, 4))
    single = spectra._sweep_values(pa, xv, tv)
    # 5 matrices per chunk: the reflection-reduced 4 x 4 grid keeps 9 nodes
    # (10 for uordkr), so 2 chunks, each repeating a theta.
    monkeypatch.setattr(spectra, "_CHUNK_COMPLEX", 5 * q * q)
    chunked = spectra._sweep_values(pa, xv, tv)
    assert xv.size > 5
    assert np.unique(tv[:5]).size < 5
    assert np.array_equal(chunked, single)


def test_sweep_deterministic():
    pa = params("uordkr", 1.0, 1.0, 3, 5, theta=MOTHER)
    s1 = mother_spectrum(pa, GridSpec(7, 7))
    s2 = mother_spectrum(pa, GridSpec(7, 7))
    assert np.array_equal(s1.points, s2.points)


@pytest.mark.parametrize("run", [mother_spectrum, tracked_bands])
def test_solver_failure_names_the_grid_point(run, monkeypatch):
    pa = params("h", 0.0, 1.0, 1, 3, theta=MOTHER)
    bad = operator_stack(pa, [1 / 6], [0.0])[0]  # node (1, 0) of the 2 x 2 grid
    real = spectra.eigvalsh_stack

    def fail_at_bad(stack):
        if any(np.array_equal(m, bad) for m in stack):
            raise NoConvergence("injected")
        return real(stack)

    monkeypatch.setattr(spectra, "eigvalsh_stack", fail_at_bad)
    with pytest.raises(NumericalError, match=re.escape(f"grid point x={1 / 6!r}, theta=0.0:")):
        run(pa, GridSpec(2, 2))


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


def _full_pairs(pa, grid):
    """Every node of the grid, built without spectra._grid_pairs."""
    q = pa.alpha.q
    if pa.is_mother:
        xs, ts = grid.xs(q), grid.thetas(q)
        return np.repeat(xs, ts.size), np.tile(ts, xs.size)
    return grid.xs(q), np.full(grid.n_x, pa.theta)


@pytest.mark.parametrize("kind", ["h", "uh", "ukh", "uordkr"])
@pytest.mark.parametrize("scope", ["fixed", "mother"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_reduced_grid_matches_the_full_grid(kind, scope, n, monkeypatch):
    for p, q in [(0, 1), (1, 2), (2, 5), (8, 13)]:
        pa = params(kind, 0.9, 1.3, p, q, theta=MOTHER if scope == "mother" else 0.37)
        grid = GridSpec(n, n)
        run = mother_spectrum if scope == "mother" else spectrum_fixed_theta
        swept = run(pa, grid)
        xv, tv = _full_pairs(pa, grid)
        full = SpectrumSet.build(swept.kind, spectra._node_values(pa, xv, tv))
        assert hausdorff(swept, full) <= spectra.DEDUP_TOL

        reduced = tracked_bands(pa, grid)
        with monkeypatch.context() as m:
            m.setattr(spectra, "_grid_pairs", _full_pairs)
            unreduced = tracked_bands(pa, grid)
        assert len(reduced) == len(unreduced)
        assert np.allclose(reduced.bands, unreduced.bands, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("kind,theta,grid,count", [
    ("h", MOTHER, GridSpec(48, 48), 625),
    ("uh", MOTHER, GridSpec(48, 48), 625),
    ("ukh", MOTHER, GridSpec(48, 48), 625),
    ("uordkr", MOTHER, GridSpec(48, 48), 1154),
    ("h", 0.3, GridSpec(400), 201),
    ("ukh", 0.3, GridSpec(400), 201),
    ("uordkr", 0.3, GridSpec(400), 400),
])
def test_representative_counts_are_pinned(kind, theta, grid, count):
    pa = params(kind, 1.0, 1.0, 8, 13, theta=theta)
    xv, tv = spectra._grid_pairs(pa, grid)
    assert xv.size == tv.size == spectra._pair_count(pa, grid) == count


@pytest.mark.parametrize("kind", ["ukh", "uordkr"])
@pytest.mark.parametrize("n_x,n_theta", [(1, 1), (2, 5), (5, 2), (6, 6), (7, 4)])
def test_representatives_cover_every_mirror_orbit_once(kind, n_x, n_theta):
    pa, grid = params(kind, 1.0, 1.0, 2, 5, theta=MOTHER), GridSpec(n_x, n_theta)
    xv, tv = spectra._grid_pairs(pa, grid)
    j, k = np.rint(xv * 5 * n_x).astype(int), np.rint(tv * 5 * n_theta).astype(int)
    if kind == "uordkr":
        orbits = [{(a, b), (-a % n_x, -b % n_theta)} for a, b in zip(j, k)]
    else:
        orbits = [{(a, b), (-a % n_x, b), (a, -b % n_theta), (-a % n_x, -b % n_theta)}
                  for a, b in zip(j, k)]
    covered = [node for orbit in orbits for node in orbit]
    assert len(covered) == len(set(covered)) == n_x * n_theta


def test_sweep_size_estimate():
    # m pairs (two float64 phases, and q eigenvalues held as up to five
    # complex128 copies while pooled), 2 (Hermitian route) or 7 (Cayley
    # route) complex q x q arrays per row of a chunk of min(m, 2^16 // q^2)
    # matrices, and the int64 circulant index with the rotor's complex E.
    ukh = params("ukh", 1.0, 1.0, 8, 13, theta=MOTHER)
    assert spectra._sweep_bytes(ukh, GridSpec(48, 48)) == (
        625 * (2 * 8 + 5 * 16 * 13) + (16 * 7 * 387 + 8 + 16) * 169)
    rotor = params("uordkr", 1.0, 1.0, 8, 13, theta=MOTHER)
    assert spectra._sweep_bytes(rotor, GridSpec(48, 48)) == (
        1154 * 1056 + (16 * 7 * 387 + 24) * 169)
    huge = GridSpec(3_000_000, 3_000_000)
    assert spectra._sweep_bytes(ukh, huge) == 1_500_001 ** 2 * 1056 + (16 * 7 * 387 + 24) * 169
    assert spectra._sweep_bytes(params("h", 0.0, 1.0, 1, 3), huge) == (
        1_500_001 * (16 + 240) + (16 * 2 * 7281 + 24) * 9)
    # One matrix at large q: the q x q arrays, not the eigenvalues, dominate.
    assert spectra._sweep_bytes(params("h", 0.0, 1.0, 1, 1499), GridSpec(1)) == (
        (16 + 1499 * 80) + (16 * 2 + 24) * 1499 ** 2)


# The peak RSS of the process's own address space (VmHWM, in kB).  ru_maxrss
# would not do: exec carries the launching process's peak over into it.
_PEAK_RSS = """
import sys
from kickspec import GridSpec, OperatorParams, RationalAlpha, spectrum_fixed_theta
from kickspec.spectra import _sweep_bytes

def peak():
    with open("/proc/self/status") as fh:
        return next(int(ln.split()[1]) * 1024 for ln in fh if ln.startswith("VmHWM:"))

pa, grid = OperatorParams(sys.argv[1], 1.0, 1.0, RationalAlpha(1, 610), 0.0), GridSpec(1)
before = peak()
spectrum_fixed_theta(pa, grid)
print(peak() - before, _sweep_bytes(pa, grid))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads the peak RSS from /proc")
@pytest.mark.parametrize("kind", ["ukh", "uordkr"])
def test_one_node_peak_memory_is_within_the_estimate(kind):
    # A fresh process, so that the peak RSS growth is this one sweep's.
    src = os.path.dirname(os.path.dirname(spectra.__file__))
    out = subprocess.run([sys.executable, "-c", _PEAK_RSS, kind], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    grown, estimate = (int(v) for v in out.stdout.split())
    assert 0 < grown <= estimate


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


def test_eigenphases_examples():
    assert np.allclose(eigenphases(circle_set([0.0])), [0.0])
    assert np.allclose(eigenphases(circle_set([np.pi / 2, -np.pi / 2])), [-np.pi / 2, np.pi / 2])
    # -2 sqrt 2 is already inside (-pi, pi]
    s = SpectrumSet.build(SpectrumKind.UNIT_CIRCLE, [np.exp(-1j * ROOT8)])
    assert np.allclose(eigenphases(s), [-ROOT8])


def test_eigenphases_rejects_real_line():
    with pytest.raises(WrongKind):
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
    with pytest.raises(EmptySpectrum):
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
    s = circle_set([0.0], error_bound=0.01)
    assert auto_merge_gap(s) == pytest.approx(0.04)
    assert auto_merge_gap(circle_set([0.0])) > 0


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
    pa = params("h", 0, 1.0, 1, 3, theta=MOTHER)
    tracked = tracked_bands(pa, GridSpec(100, 100))
    s = mother_spectrum(pa, GridSpec(100, 100))
    merged = merge_bands(s, 4.0 * s.error_bound)
    assert len(tracked) == len(merged)
    assert total_bandwidth(tracked) == pytest.approx(total_bandwidth(merged), abs=8 * s.error_bound)
