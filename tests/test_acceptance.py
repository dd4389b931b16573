"""Acceptance suite.

Each test runs one acceptance criterion at its stated tolerance and prints
one pass/fail line (run with -s to see them live).
"""

import math

import numpy as np
import pytest

import kickspec.spectra as spectra
from kickspec.analysis import (
    hausdorff,
    powerlaw_fit,
    run_check,
    total_bandwidth,
    zoom_windows,
)
from kickspec.operators import MOTHER, OperatorParams, RationalAlpha
from kickspec.spectra import (
    GridSpec,
    SpectrumKind,
    SpectrumSet,
    eigenphases,
    merge_bands,
    mother_spectrum,
    spectrum_fixed_theta,
    tracked_bands,
)
from oracles import (
    alpha_jump_witness,
    bands_in_window,
    clock_shift,
    dcp_values,
    dcp_vectors,
    unitary_eigvals,
)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _mother(kind, kappa, lam, alpha, n):
    return mother_spectrum(OperatorParams(kind, kappa, lam, alpha, MOTHER), GridSpec(n, n))


def _set_distance(a, b):
    a = np.asarray(a).ravel()[:, None]
    b = np.asarray(b).ravel()[None, :]
    d = np.abs(a - b)
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def test_01_mother_spectral_equality():
    n = 40
    worst = ("", -np.inf)
    ok = True
    for alpha in (RationalAlpha(8, 13), RationalAlpha(13, 41)):
        for kappa in (0.5, 1.0, 2.0):
            s_kh = _mother("ukh", kappa, 1.0, alpha, n)
            s_or = _mother("uordkr", kappa, 1.0, alpha, n)
            d = hausdorff(s_kh, s_or)
            bound = 2.0 * 2.0 * np.pi * kappa * 2.0 / (n * alpha.q)
            ok &= d <= bound
            if d - bound > worst[1]:
                worst = (f"alpha={alpha} kappa={kappa}: d={d:.3e} bound={bound:.3e}", d - bound)
    _report("01 mother-spectral-equality", ok, worst[0])


def test_02_grid_error_refinement():
    alpha = RationalAlpha(8, 13)
    ok = True
    details = []
    for kind in ("h", "uh", "ukh", "uordkr"):
        for theta in (0.0, MOTHER):
            run = _mother if theta == MOTHER else (
                lambda k, kap, lam, a, n: spectrum_fixed_theta(
                    OperatorParams(k, kap, lam, a, 0.0), GridSpec(n, n)
                )
            )
            for n in (10, 20, 40):
                s1 = run(kind, 1.0, 1.0, alpha, n)
                s2 = run(kind, 1.0, 1.0, alpha, 2 * n)
                d = hausdorff(s1, s2)
                bound = s1.error_bound + s2.error_bound
                if d > bound:
                    ok = False
                    details.append(f"{kind}/{theta}/N={n}: d={d:.3e} > {bound:.3e}")
    _report("02 grid-error-refinement", ok, "; ".join(details) or "all kinds, both scopes, N in {10,20,40}")


def test_03_theta_machinery():
    ok = True
    details = []
    for alpha in ("1/2", "2/3", "3/5", "8/13"):
        for cid in ("THETA_PERIOD", "THETA_CONTINUITY"):
            r = run_check(cid, {"alpha": alpha, "kappa": 1.0, "lambda": 1.0,
                                "n": 25, "trials": 50, "seed": 1})
            ok &= r.passed
            if not r.passed:
                details.append(f"{cid}@{alpha}: {r.measured:.3e} > {r.bound:.3e}")
    _report("03 theta-machinery", ok, "; ".join(details) or "period+continuity, 50 trials, q in {2,3,5,13}")


def test_04_dcp_eigensystem_oracle():
    worst_res, worst_set = 0.0, 0.0
    for q in range(1, 13):
        c, d = clock_shift(q)
        for p in range(q) if q > 1 else [0]:
            if q > 1 and math.gcd(p, q) != 1:
                continue
            e, mu = dcp_vectors(p, q), dcp_values(p, q)
            m = d @ np.linalg.matrix_power(c, p)
            worst_res = max(worst_res, float(np.abs(m @ e - e * mu[None, :]).max()))
            worst_set = max(worst_set, _set_distance(mu, unitary_eigvals(m)))
    ok = worst_res <= 1e-10 and worst_set <= 1e-10
    _report("04 dcp-eigensystem-oracle", ok,
            f"max residual={worst_res:.2e}, max eigenvalue mismatch={worst_set:.2e} over all coprime q<=12")


def test_05_band_counts():
    ok = True
    details = []
    for q in (2, 3, 4, 5, 7, 8):
        expected = q if q % 2 == 1 else q - 1
        counts = []
        for n in (200, 400):
            s = _mother("h", 0.0, 1.0, RationalAlpha(1, q), n)
            counts.append(len(merge_bands(s, 4.0 * s.error_bound)))
        if counts != [expected, expected]:
            ok = False
            details.append(f"q={q}: got {counts}, expected {expected}")
    _report("05 band-counts", ok, "; ".join(details) or "q and q-1 rules stable under N -> 2N")


@pytest.fixture(scope="module")
def fibonacci_widths():
    qs = [(5, 13), (8, 21), (13, 34), (21, 55), (34, 89), (55, 144), (89, 233)]
    widths = {}
    for lam in (1.0, 2.0 / 3.0, 1.2):
        for p, q in qs:
            params = OperatorParams("ukh", 1.0, lam, RationalAlpha(p, q), MOTHER)
            widths[(lam, q)] = total_bandwidth(tracked_bands(params, GridSpec(16, 16)))
    return qs, widths


def test_06_power_law_exponent(fibonacci_widths):
    qs, widths = fibonacci_widths
    fit = powerlaw_fit([(q, widths[(1.0, q)]) for _, q in qs])
    ok = -1.47 <= fit.exponent <= -0.97
    _report("06a bandwidth-power-law", ok,
            f"exponent={fit.exponent:.4f} in [-1.47, -0.97], prefactor={fit.prefactor:.3f} (not asserted)")


def test_06_three_curve_ordering(fibonacci_widths):
    qs, widths = fibonacci_widths
    ok = True
    details = []
    for _, q in qs:
        w1, wa, wb = widths[(1.0, q)], widths[(2.0 / 3.0, q)], widths[(1.2, q)]
        if not (w1 < wa and w1 < wb):
            ok = False
            details.append(f"q={q}: W(1)={w1:.4f} W(2/3)={wa:.4f} W(1.2)={wb:.4f}")
    _report("06b three-curve-ordering", ok, "; ".join(details) or "W at critical coupling lies below both off-critical curves")


def test_07_alpha_continuity():
    a1, a2 = RationalAlpha(89, 144), RationalAlpha(144, 233)
    s1 = _mother("ukh", 1.0, 1.0, a1, 10)
    s2 = _mother("ukh", 1.0, 1.0, a2, 10)
    d = hausdorff(s1, s2)
    bound = 36.0 * math.sqrt(6.0 * math.pi * abs(a2.value - a1.value)) + s1.error_bound + s2.error_bound
    _report("07 alpha-continuity", d <= bound, f"d={d:.4f} <= {bound:.4f} for (89/144, 144/233)")


def test_08_coupling_inversion_identity():
    alpha = RationalAlpha(8, 13)
    ok = True
    details = []
    for lam in (0.5, 2.0):
        s1 = _mother("h", 0.0, lam, alpha, 20)
        s2 = _mother("h", 0.0, 1.0 / lam, alpha, 20)
        scaled = SpectrumSet.build(SpectrumKind.REAL_LINE, lam * s2.points)
        d = hausdorff(s1, scaled)
        details.append(f"lambda={lam}: d={d:.2e}")
        ok &= d <= 1e-9
    _report("08 coupling-inversion", ok, "; ".join(details))


def test_09_spectral_mapping():
    ok = True
    details = []
    for alpha in ("1/2", "8/13"):
        for theta, n in ((0.0, 50), ("mother", 20)):
            r = run_check("SPECTRAL_MAPPING", {"alpha": alpha, "kappa": 1.0, "lambda": 1.0,
                                               "n": n, "theta": theta})
            ok &= r.passed
            details.append(f"{alpha}/theta={theta}: {r.measured:.2e}")
    _report("09 spectral-mapping", ok, "; ".join(details) + " (tol 1e-10)")


def test_10_kick_splitting_cubic_decay():
    alpha = RationalAlpha(8, 13)
    dist = {}
    for k in (0.025, 0.05, 0.1, 0.2):
        dist[k] = hausdorff(_mother("ukh", k, 1.0, alpha, 60), _mother("uh", k, 1.0, alpha, 60))
    ratios = [dist[2 * k] / dist[k] for k in (0.025, 0.05, 0.1)]
    ok = all(4.0 <= r <= 16.0 for r in ratios)
    _report("10 cubic-kick-splitting", ok,
            "ratios D(2k)/D(k) = " + ", ".join(f"{r:.2f}" for r in ratios) + " all in [4, 16]")


def test_11_zoom_self_similarity():
    alpha = RationalAlpha(233, 377)
    params = OperatorParams("ukh", 1.0, 1.0, alpha, MOTHER)
    grid = GridSpec(8, 8)
    # One sweep gives both the points and the tracked bands.
    values = spectra._sweep_values(params, grid)
    s = spectra._spectrum(params, grid, values)
    bl = spectra._tracked(params, values)
    phases = eigenphases(s)
    center = float(np.median(phases))
    wins = zoom_windows(phases, center, [20.0, 10.0])
    ok = True
    details = []
    for i, w in enumerate(wins):
        nb = bands_in_window(bl, w.lo, w.hi)
        details.append(f"w{i}: pts={w.points.size} bands={nb}")
        ok &= w.points.size > 0 and nb >= 2
    _report("11 zoom-self-similarity", ok, "; ".join(details))


def test_12_alpha_jump_witness():
    floor = math.sqrt(3.0) / 2.0 - 1e-9
    w0 = alpha_jump_witness(1.0, 0.5, 1.0 / 3.0, 0.0, 10**4)
    ok = w0 >= floor
    rng = np.random.default_rng(2026)
    worst = w0
    trials = 0
    while trials < 20:
        a1, a2, th = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95), float(rng.uniform())
        gaps = [abs(v - round(v)) for v in (a1, a2, a1 + a2, a1 - a2)]
        if min(gaps) < 1e-3:
            continue
        trials += 1
        w = alpha_jump_witness(1.0, float(a1), float(a2), th, 10**4)
        worst = min(worst, w)
        ok &= w >= floor
    _report("12 alpha-jump-witness", ok,
            f"reference={w0:.6f}, min over 20 random triples={worst:.6f}, floor={floor:.6f}")
