import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kickspec.analysis import (
    CHECK_IDS,
    butterfly,
    check_keys,
    farey_rationals,
    golden_convergents,
    hausdorff,
    powerlaw_fit,
    run_check,
    total_bandwidth,
    zoom_windows,
)
import kickspec.linalg as linalg
import kickspec.spectra as spectra
from kickspec.errors import InvalidParams, NumericalError
from kickspec.operators import MOTHER, OperatorKind, OperatorParams, RationalAlpha, operator_stack
from kickspec.spectra import (
    BandList,
    GridSpec,
    SpectrumKind,
    SpectrumSet,
    eigenphases,
    merge_bands,
    mother_spectrum,
)
from oracles import alpha_jump_witness, bands_in_window, farey_reference


def line_set(vals):
    return SpectrumSet.build(SpectrumKind.REAL_LINE, vals)


def circle_set(phases):
    return SpectrumSet.build(SpectrumKind.UNIT_CIRCLE, np.exp(1j * np.asarray(phases, dtype=float)))


def brute_hausdorff(a, b):
    a = np.asarray(a).ravel()[:, None]
    b = np.asarray(b).ravel()[None, :]
    d = np.abs(a - b)
    return max(d.min(axis=1).max(), d.min(axis=0).max())


# -- hausdorff ---------------------------------------------------------------------


def test_hausdorff_identity():
    x = circle_set([0.1, 1.0, 2.0])
    assert hausdorff(x, x) == 0.0


def test_hausdorff_quarter_turn():
    assert hausdorff(circle_set([0.0]), circle_set([np.pi / 2])) == pytest.approx(np.sqrt(2.0))


def test_hausdorff_directed_asymmetry():
    assert hausdorff(line_set([0.0, 1.0]), line_set([0.0])) == 1.0


def test_hausdorff_kind_and_empty_errors():
    with pytest.raises(InvalidParams, match="cannot compare real_line with unit_circle"):
        hausdorff(line_set([0.0]), circle_set([0.0]))
    with pytest.raises(InvalidParams, match="hausdorff requires nonempty spectra"):
        hausdorff(line_set([]), line_set([0.0]))


@given(
    st.lists(st.floats(-50, 50), min_size=1, max_size=40),
    st.lists(st.floats(-50, 50), min_size=1, max_size=40),
)
@settings(max_examples=100, deadline=None)
def test_hausdorff_line_matches_brute_force(xs, ys):
    x, y = line_set(xs), line_set(ys)
    assert hausdorff(x, y) == pytest.approx(brute_hausdorff(x.points, y.points), abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_hausdorff_circle_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    x = circle_set(rng.uniform(-np.pi, np.pi, size=rng.integers(1, 50)))
    y = circle_set(rng.uniform(-np.pi, np.pi, size=rng.integers(1, 50)))
    assert hausdorff(x, y) == pytest.approx(brute_hausdorff(x.points, y.points), abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_hausdorff_metric_axioms(seed):
    rng = np.random.default_rng(100 + seed)
    sets = [circle_set(rng.uniform(-np.pi, np.pi, size=12)) for _ in range(3)]
    a, b, c = sets
    assert hausdorff(a, b) == hausdorff(b, a)
    assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-12


# -- bandwidth -----------------------------------------------------------------------


def test_total_bandwidth_full_circle():
    b = BandList(SpectrumKind.UNIT_CIRCLE, ((-np.pi, np.pi),))
    assert total_bandwidth(b) == pytest.approx(2 * np.pi)


def test_total_bandwidth_intervals():
    b = BandList(SpectrumKind.REAL_LINE, ((0.0, 0.1), (1.0, 1.2)))
    assert total_bandwidth(b) == pytest.approx(0.3)


def test_total_bandwidth_singletons():
    s = circle_set(2 * np.pi * np.arange(5) / 5 - 1.0)
    assert total_bandwidth(merge_bands(s, 1e-6)) == 0.0


def test_bands_in_window_wrapped():
    b = BandList(SpectrumKind.UNIT_CIRCLE, ((3.0, -3.0), (0.0, 0.5)))
    assert bands_in_window(b, -0.1, 0.1) == 1
    assert bands_in_window(b, 3.05, 3.1) == 1
    assert bands_in_window(b, -3.1, -3.05) == 1
    assert bands_in_window(b, 1.0, 2.0) == 0


# -- power-law fit ----------------------------------------------------------------------


def test_powerlaw_exact_recovery():
    qs = [13, 21, 34]
    fit = powerlaw_fit([(q, 5.0 * q ** -1.2) for q in qs])
    assert fit.prefactor == pytest.approx(5.0, rel=1e-12)
    assert fit.exponent == pytest.approx(-1.2, abs=1e-12)
    assert fit.residual <= 1e-12
    assert fit.n_points == 3


def test_powerlaw_constant_data():
    fit = powerlaw_fit([(2, 3.0), (5, 3.0), (11, 3.0)])
    assert fit.exponent == pytest.approx(0.0, abs=1e-14)
    assert fit.prefactor == pytest.approx(3.0)


def test_powerlaw_errors():
    with pytest.raises(InvalidParams, match="power-law fit needs >= 2 samples, got 1"):
        powerlaw_fit([(2, 1.0)])
    with pytest.raises(InvalidParams, match="power-law fit requires q > 0 and w > 0"):
        powerlaw_fit([(2, 1.0), (3, 0.0)])
    with pytest.raises(InvalidParams, match="power-law fit needs at least two distinct q values"):
        powerlaw_fit([(2, 1.0), (2, 2.0)])


# -- rational generators -------------------------------------------------------------------


def test_golden_convergents_first_five():
    assert list(golden_convergents(5)) == [
        RationalAlpha(1, 2),
        RationalAlpha(2, 3),
        RationalAlpha(3, 5),
        RationalAlpha(5, 8),
        RationalAlpha(8, 13),
    ]


def test_golden_convergents_seventeenth():
    assert list(golden_convergents(17))[-1] == RationalAlpha(2584, 4181)


def test_golden_convergents_unimodular():
    cs = list(golden_convergents(12))
    for a, b in zip(cs, cs[1:]):
        assert abs(a.p * b.q - b.p * a.q) == 1


def test_farey_examples():
    assert list(farey_rationals(3)) == [RationalAlpha(1, 3), RationalAlpha(1, 2),
                                        RationalAlpha(2, 3)]
    f5 = list(farey_rationals(5))
    assert len(f5) == 9
    assert f5[-1] == RationalAlpha(4, 5)
    assert list(farey_rationals(1)) == []


@pytest.mark.parametrize("make,count", [(golden_convergents, 0), (golden_convergents, 2.0),
                                        (farey_rationals, 0), (farey_rationals, "5")])
def test_alpha_sequences_refuse_a_count_that_is_not_a_positive_integer(make, count):
    with pytest.raises(InvalidParams, match="must be an integer >= 1"):
        next(make(count))


def test_farey_recurrence_matches_the_gcd_and_sort_reference():
    for q_max in range(1, 81):
        assert [(a.p, a.q) for a in farey_rationals(q_max)] == farey_reference(q_max), q_max


# -- butterfly --------------------------------------------------------------------------------


def test_butterfly_small_kick_collapses_to_zero_phase():
    ds = butterfly("ukh", 1e-6, 1.0, 3, 8)
    assert len(ds) > 0
    assert np.abs(ds.values).max() <= 1e-4


def test_butterfly_harper_qmax2_closed_form():
    # grid_n = 4 at q = 2 gives the 2 x 2 phase grid {0, 1/4}^2
    ds = butterfly("h", 0.0, 1.0, 2, 4)
    assert set(zip(ds.p.tolist(), ds.q.tolist())) == {(1, 2)}
    expected = []
    for x in (0.0, 0.25):
        for t in (0.0, 0.25):
            r = 2.0 * np.sqrt(np.cos(2 * np.pi * x) ** 2 + np.cos(2 * np.pi * t) ** 2)
            expected += [-r, r]
    assert brute_hausdorff(ds.values, np.array(expected)) <= 1e-12


def test_butterfly_rows_match_direct_mother_sweep():
    from kickspec.operators import MOTHER, OperatorParams
    from kickspec.spectra import GridSpec, eigenphases, mother_spectrum

    ds = butterfly("ukh", 0.25, 1.0, 13, 26)
    sel = (ds.p == 8) & (ds.q == 13)
    direct = mother_spectrum(
        OperatorParams("ukh", 0.25, 1.0, RationalAlpha(8, 13), MOTHER), GridSpec(2, 2)
    )
    assert brute_hausdorff(ds.values[sel], eigenphases(direct)) <= 1e-12


def test_butterfly_rows_sorted_and_coprime():
    ds = butterfly("ukh", 0.5, 1.0, 5, 6)
    rows = list(zip(ds.q.tolist(), ds.p.tolist(), ds.values.tolist()))
    assert rows == sorted(rows)
    assert all(math.gcd(p, q) == 1 for p, q in zip(ds.p, ds.q))
    assert ds.q.max() <= 5


# The Cayley route's documented eigenphase error, 2 eps max|w| up to its limit
# (linalg._CAYLEY_LIMIT), against 1e-13 for the Hermitian route.
_ROUTE_ERROR = {"h": 1e-13, "uh": 1e-13,
                "ukh": max(1e-13, 2 * np.finfo(float).eps * linalg._CAYLEY_LIMIT),
                "uordkr": max(1e-13, 2 * np.finfo(float).eps * linalg._CAYLEY_LIMIT)}


def _same_rows(kind, got, want):
    """Same row count, and each value within the route's error of the other set, on the
    circle as the points exp(i phase), so that no eigenphase near pi wraps."""
    assert got.size == want.size
    if kind != "h":
        got, want = np.exp(1j * got), np.exp(1j * want)
    assert brute_hausdorff(got, want) <= _ROUTE_ERROR[kind]


@pytest.mark.parametrize("kind", ["h", "uh", "ukh", "uordkr"])
@pytest.mark.parametrize("kappa,lam,q_max,grid_n", [(0.5, 1.0, 13, 48), (1.0, 1.3, 21, 16),
                                                    (2.0, -0.7, 9, 20)])
def test_the_stacked_butterfly_is_the_per_alpha_sweeps(kind, kappa, lam, q_max, grid_n):
    # Each (p, q) group against its own mother sweep, unbatched and unfolded: h, uh and
    # ukh solve only p <= q/2 and reuse it for q - p; uordkr solves every alpha.
    ds = butterfly(kind, kappa, lam, q_max, grid_n)
    alphas = list(farey_rationals(q_max))
    assert sorted(set(zip(ds.p.tolist(), ds.q.tolist()))) == sorted((a.p, a.q) for a in alphas)
    for a in alphas:
        n = max(1, round(grid_n / a.q))
        s = mother_spectrum(OperatorParams(kind, kappa, lam, a, MOTHER), GridSpec(n, n))
        direct = s.points if kind == "h" else eigenphases(s)
        _same_rows(kind, ds.values[(ds.p == a.p) & (ds.q == a.q)], direct)


@pytest.mark.parametrize("kind", ["h", "uh", "ukh", "uordkr"])
def test_a_same_q_batch_above_the_split_floor_is_the_per_alpha_sweeps(kind, monkeypatch):
    # Every numerator of 89 on a 2 x 2 grid: all nodes are corners, whose blocks of one
    # size join one solver call across the numerators.
    assert spectra._SPLIT_FLOOR <= 89
    grid = GridSpec(2, 2)
    batch = [OperatorParams(kind, 1.0, 1.3, RationalAlpha(p, 89), MOTHER) for p in range(1, 89)]
    calls = []
    for name in ("eigvalsh_stack", "unitary_eigvals_stack"):
        solve = getattr(spectra, name)
        monkeypatch.setattr(spectra, name, lambda stack, *gauge, solve=solve:
                            calls.append(len(stack)) or solve(stack, *gauge))
    stacked = spectra._sweep_values(batch, grid)
    # 2 corner nodes per alpha (89 is odd: the half shift keeps 2 of the quarter's 4), two
    # blocks each, of sizes 44 and 45: 176 blocks of each size, 33 and 32 to a chunk, so
    # 6 calls each.
    assert (len(calls), sum(calls)) == (12, 2 * 2 * 88)
    for pa, values in zip(batch, stacked, strict=True):
        single = spectra._sweep_values(pa, grid)
        assert values.shape == single.shape
        assert np.array_equal(values, single)


@pytest.mark.parametrize("kind", ["h", "uh", "ukh", "uordkr"])
def test_the_butterfly_solves_each_denominator_in_one_call(kind, monkeypatch):
    # farey:13 on a grid of 48: one solver call per q = 2..13 where there were 57, one
    # per alpha.  h, uh and ukh solve the p <= q/2 half: 91 matrices at q = 2 (1/2 is its
    # own mirror, on a 24 x 24 grid) and half of the other 456; uordkr, whose nodes fold
    # by its own rule, solves every alpha.
    calls = []
    for name in ("eigvalsh_stack", "unitary_eigvals_stack"):
        solve = getattr(spectra, name)
        monkeypatch.setattr(spectra, name, lambda stack, *gauge, solve=solve:
                            calls.append(len(stack)) or solve(stack, *gauge))
    for a in farey_rationals(13):
        n = max(1, round(48 / a.q))
        mother_spectrum(OperatorParams(kind, 0.5, 1.0, a, MOTHER), GridSpec(n, n))
    per_alpha = 574 if kind == "uordkr" else 547
    assert (len(calls), sum(calls)) == (57, per_alpha)
    calls.clear()
    butterfly(kind, 0.5, 1.0, 13, 48)
    assert (len(calls), sum(calls)) == (12, 574 if kind == "uordkr" else 91 + (547 - 91) // 2)


@pytest.mark.parametrize("check,cfg,calls", [
    # 10 trials' 20 fixed-theta ukh sweeps at 8/13, 13 of 25 x nodes each.
    ("THETA_PERIOD", {}, [("inv", 260), ("eigvalsh", 260)]),
    ("THETA_CONTINUITY", {}, [("inv", 260), ("eigvalsh", 260)]),
    # The Harper sweep, then the ukh sweeps of kappa = 0.025, 0.05, 0.1 and 0.2, 16 nodes each.
    ("KAPPA_CUBED", {"n": 12}, [("eigvalsh", 16), ("inv", 64), ("eigvalsh", 64)]),
    ("MOTHER_EQUALITY", {"n": 12}, [("inv", 32), ("eigvalsh", 32)]),
    # One call per alpha for its three couplings; 8 is even, so 5/8 has no half-shift fold.
    ("LAST_MEASURE_TREND", {"n": 12}, [("eigvalsh", 126), ("eigvalsh", 66), ("eigvalsh", 66)]),
])
def test_a_check_solves_its_sweeps_of_one_q_in_one_call(check, cfg, calls, monkeypatch):
    seen = []
    for name in ("inv", "eigvalsh"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, name=name, solve=solve:
                            seen.append((name, len(a))) or solve(a))
    assert run_check(check, cfg).passed
    assert seen == calls


def test_a_solver_failure_in_a_stacked_batch_names_its_alpha_and_grid_point(monkeypatch):
    # Node (1, 0) of 2/13's 4 x 4 grid fails; q = 13's six numerators are one chunk of
    # 4 nodes each (the triangle's 6, halved by the shift), which fails as a whole, and
    # each node is retried alone until that one fails again.
    bad = operator_stack(OperatorParams("ukh", 0.5, 1.0, RationalAlpha(2, 13), MOTHER),
                         [1 / 52], [0.0])[0]
    solve, sizes = spectra.unitary_eigvals_stack, []

    def fail_at_bad(stack, *gauge):
        if any(np.array_equal(m, bad) for m in stack):
            sizes.append(-len(stack))
            raise NumericalError("injected")
        sizes.append(len(stack))
        return solve(stack, *gauge)

    monkeypatch.setattr(spectra, "unitary_eigvals_stack", fail_at_bad)
    with pytest.raises(NumericalError,
                       match=re.escape(f"alpha=2/13, grid point x={1 / 52!r}, theta=0.0: injected")):
        butterfly("ukh", 0.5, 1.0, 13, 48)
    # The batch fails, then 1/13's four nodes pass and 2/13's (0, 0) and (1, 0) are
    # solved one at a time.
    assert sizes[-7:] == [-6 * 4, 1, 1, 1, 1, 1, -1]


# -- zoom windows ------------------------------------------------------------------------------


def test_zoom_factor_two_keeps_half():
    eps = np.linspace(-np.pi, np.pi, 1001)
    wins = zoom_windows(eps, 0.0, [2.0])
    assert len(wins) == 2
    assert wins[0].points.size == 1001
    assert wins[1].lo == pytest.approx(-np.pi / 2)
    assert wins[1].hi == pytest.approx(np.pi / 2)
    frac = wins[1].points.size / 1001
    assert abs(frac - 0.5) <= 0.01


def test_zoom_empty_factors_single_window():
    wins = zoom_windows([0.1, 0.2], 0.0, [])
    assert len(wins) == 1
    assert wins[0].points.size == 2


def test_zoom_errors():
    with pytest.raises(InvalidParams, match=r"center must lie in \(-pi, pi\], got 4.0"):
        zoom_windows([0.0], 4.0, [2.0])
    with pytest.raises(InvalidParams):
        zoom_windows([0.0], 0.0, [0.5])


# -- alpha jump witness -------------------------------------------------------------------------


def test_witness_hand_value():
    # 2 sin(5 pi / 3) sin(pi / 3) at n = 2 gives 3/2
    assert alpha_jump_witness(1.0, 0.5, 1.0 / 3.0, 0.0, 2) == pytest.approx(1.5)


def test_witness_zero_coupling():
    assert alpha_jump_witness(0.0, 0.5, 1.0 / 3.0, 0.0, 10) == 0.0


def test_witness_large_n_reaches_sqrt3_over_2():
    w = alpha_jump_witness(1.0, 0.5, 1.0 / 3.0, 0.0, 10**4)
    assert w >= math.sqrt(3.0) / 2.0 - 1e-9


def test_witness_degenerate_alphas():
    with pytest.raises(InvalidParams, match="alpha1 = 1.0 is an integer"):
        alpha_jump_witness(1.0, 1.0, 0.5, 0.0, 10)
    with pytest.raises(InvalidParams, match=r"alpha1\+alpha2 = 1.0 is an integer"):
        alpha_jump_witness(1.0, 0.25, 0.75, 0.0, 10)


# -- checks ---------------------------------------------------------------------------------------


def test_unknown_check_rejected():
    with pytest.raises(InvalidParams, match="unknown check 'NO_SUCH_CHECK'; known: THETA_PERIOD"):
        run_check("NO_SUCH_CHECK", {})


def test_run_check_rejects_a_key_the_check_does_not_read():
    # The SPECTRAL_MAPPING bound is fixed; a config key cannot loosen it.
    with pytest.raises(InvalidParams, match="tolerance"):
        run_check("SPECTRAL_MAPPING", {"tolerance": 1.0})


@pytest.mark.parametrize("cid,cfg", [
    ("BAND_COUNT", {"n": "abc"}),
    ("BAND_COUNT", {"merge_gap": "wide"}),
    ("THETA_PERIOD", {"kind": "x"}),
    ("THETA_PERIOD", {"seed": -1}),
    ("SPECTRAL_MAPPING", {"theta": "fixed"}),
    ("KAPPA_CUBED", {"kappas": "0.1"}),
    ("LAST_MEASURE_TREND", {"alphas": 5}),
    ("BAND_COUNT", {"merge_gap": 0}),
    ("BAND_COUNT", {"merge_gap": -1}),
    ("BAND_COUNT", {"merge_gap": math.nan}),
])
def test_run_check_rejects_a_value_that_does_not_parse(cid, cfg, built):
    (key,) = cfg
    with pytest.raises(InvalidParams, match=key):
        run_check(cid, cfg)
    assert built == []


@pytest.mark.parametrize("cid,cfg", [
    ("THETA_PERIOD", {"trials": 0, "n": 4}),
    ("THETA_CONTINUITY", {"trials": 0, "n": 4}),
    ("THETA_PERIOD", {"n": 0}),
    ("AUBRY_ANDRE", {"n": -3}),
    ("KAPPA_CUBED", {"kappas": []}),
    ("LAST_MEASURE_TREND", {"alphas": [], "n": 4}),
    ("LAST_MEASURE_TREND", {"lambdas": [], "n": 4}),
    ("LAST_MEASURE_TREND", {"lambdas": [0.5, 2.0], "n": 4}),
    ("LAST_MEASURE_TREND", {"lambdas": [1.0], "n": 4}),
    ("LAST_MEASURE_TREND", {"n": 1}),
    ("AUBRY_ANDRE", {"lambda": 1.0, "n": 4}),
    ("KAPPA_CUBED", {"lambda": 0.0, "n": 4}),
    # At q = 1 the 1 x 1 kicks commute; at kappa = 0 both spectra are the point 1.
    ("KAPPA_CUBED", {"alpha": "0/1", "n": 4}),
    ("KAPPA_CUBED", {"kappas": [0.0], "n": 4}),
    ("KAPPA_CUBED", {"kappas": [0.05, -0.0], "n": 4}),
    # A bound past the largest distance two spectra can be apart: 2 on the circle,
    # 4 + 4 |lambda| on the line.
    ("THETA_CONTINUITY", {"alpha": "0/1", "n": 2}),
    ("THETA_CONTINUITY", {"kind": "h", "alpha": "0/1", "lambda": 0.0, "n": 1}),
])
def test_a_config_that_measures_nothing_is_a_usage_error(cid, cfg, built):
    # Zero trials, an empty sweep or a one-node grid (every tracked band of
    # zero width) would report a vacuous pass (measured 0 or -inf) or fail
    # deep inside the check; all are usage errors, raised before any sweep.
    with pytest.raises(InvalidParams):
        run_check(cid, cfg)
    assert built == []


@pytest.mark.parametrize("theta", [0.0, "mother"], ids=["fixed", "mother"])
def test_spectral_mapping_catches_a_wrong_uh_kernel(theta, monkeypatch):
    import kickspec.spectra as spectra

    cfg = {"alpha": "3/5", "n": 6, "theta": theta}
    assert run_check("SPECTRAL_MAPPING", cfg).passed
    # The uh sweep maps Harper eigenvalues w to exp(-i kappa w); scaling w
    # by 1.05 there must not go unnoticed by the general-solver route.
    solve = spectra.eigvalsh_stack
    monkeypatch.setattr(spectra, "eigvalsh_stack", lambda stack: 1.05 * solve(stack))
    r = run_check("SPECTRAL_MAPPING", cfg)
    assert not r.passed
    assert r.bound == 1e-10


def test_check_id_spelling_is_flexible():
    r = run_check("spectral-mapping", {"alpha": "1/2", "n": 8})
    assert r.check_id == "SPECTRAL_MAPPING"
    assert r.passed


_QUICK = {
    "THETA_PERIOD": {"alpha": "2/3", "n": 10, "trials": 3},
    "THETA_CONTINUITY": {"alpha": "2/3", "n": 10, "trials": 3},
    "MOTHER_EQUALITY": {"alpha": "3/5", "n": 10},
    "SPECTRAL_MAPPING": {"alpha": "3/5", "n": 10},
    "AUBRY_ANDRE": {"alpha": "3/5", "lambda": 2.0, "n": 8},
    "BAND_COUNT": {"alpha": "1/3", "n": 80},
    "ALPHA_CONTINUITY": {"alpha1": "3/5", "alpha2": "5/8", "n": 8},
    "KAPPA_CUBED": {"alpha": "3/5", "n": 24, "kappas": [0.05, 0.1]},
    "LAST_MEASURE_TREND": {"alphas": ["3/5", "5/8"], "n": 30},
}


@pytest.mark.parametrize("cid", CHECK_IDS)
def test_every_check_runs_and_reports(cid):
    r = run_check(cid, _QUICK[cid])
    assert r.passed == (r.measured <= r.bound)
    assert r.passed, f"{cid}: measured={r.measured} bound={r.bound} notes={r.notes}"
    blob = json.dumps(r.to_dict(), sort_keys=True)
    rec = json.loads(blob)
    assert rec["check"] == cid and "pass" in rec and "params" in rec


class _ReadLog(dict):
    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("cid", CHECK_IDS)
def test_check_keys_are_the_keys_the_check_reads(cid):
    from kickspec.analysis import _CHECKS, check_config

    cfg = _ReadLog(check_config(cid, _QUICK[cid]))
    _CHECKS[cid][0](cfg)
    assert cfg.read == check_keys(cid)


_REPLAY = {**_QUICK,
           "THETA_PERIOD": {**_QUICK["THETA_PERIOD"], "seed": 7},
           "THETA_CONTINUITY": {**_QUICK["THETA_CONTINUITY"], "seed": 7},
           "SPECTRAL_MAPPING": {**_QUICK["SPECTRAL_MAPPING"], "theta": 0.3}}


@pytest.mark.parametrize("cid", CHECK_IDS)
def test_report_params_replay_the_run(cid):
    # A report's params are the full parsed config: fed back, after a trip
    # through JSON, they reproduce the same report.
    r = run_check(cid, _REPLAY[cid])
    params = json.loads(json.dumps(r.to_dict()["params"]))
    assert params.keys() == check_keys(cid)
    assert run_check(cid, params) == r


@pytest.mark.parametrize("alpha,expected", [("2/5", 5), ("3/7", 7), ("3/4", 3)])
def test_band_count_other_numerators(alpha, expected):
    r = run_check("BAND_COUNT", {"alpha": alpha, "n": 120})
    assert r.passed, r.notes
    assert f"expected {expected}" in r.notes


@pytest.mark.parametrize("kind", ["h", "uh", "ukh", "uordkr"])
def test_theta_period_every_kind(kind):
    r = run_check("THETA_PERIOD", {"kind": kind, "alpha": "2/5", "n": 12, "trials": 4})
    assert r.passed, f"{kind}: {r.measured} > {r.bound}"
    assert r.bound == 1e-10


@pytest.mark.parametrize("alpha,n", [("8/13", 12), ("3/5", 10), ("1/2", 5)])
def test_mother_equality_catches_a_perturbed_rotor_kick(alpha, n, monkeypatch):
    import dataclasses

    import kickspec.spectra as spectra

    cfg = {"alpha": alpha, "n": n}
    r = run_check("MOTHER_EQUALITY", cfg)
    assert r.passed and r.bound == 1e-10
    build = spectra.operator_stack

    def perturbed(params, xs, thetas):
        if params.kind is OperatorKind.UORDKR:
            params = dataclasses.replace(params, kappa=params.kappa + 1e-6)
        return build(params, xs, thetas)

    monkeypatch.setattr(spectra, "operator_stack", perturbed)
    r = run_check("MOTHER_EQUALITY", cfg)
    assert not r.passed, f"measured={r.measured} bound={r.bound}"


def test_mother_equality_keeps_the_grid_bound_off_matched_nodes():
    # 3/5 puts the rotor's theta kick half a theta step off an odd grid.
    r = run_check("MOTHER_EQUALITY", {"alpha": "3/5", "n": 3})
    assert r.passed
    assert r.measured > 1e-6
    assert r.bound > 1e-2


def test_kappa_cubed_solves_the_harper_problem_once(monkeypatch, built):
    from kickspec.operators import MOTHER, OperatorParams
    from kickspec.spectra import GridSpec, mother_spectrum

    cfg = {"alpha": "3/5", "n": 12, "kappas": [0.1, 0.3, 0.5]}  # six kappas k and 2k
    r = run_check("KAPPA_CUBED", cfg)
    assert [pa.kind for pa in built].count(OperatorKind.H) == 1
    monkeypatch.undo()

    # The same measurement from six uh sweeps, each solving the Harper problem.
    def spectrum(kind, k):
        return mother_spectrum(OperatorParams(kind, k, 1.0, RationalAlpha(3, 5), MOTHER),
                               GridSpec(12, 12))

    dist = {k: hausdorff(spectrum("ukh", k), spectrum("uh", k))
            for k in (0.1, 0.2, 0.3, 0.6, 0.5, 1.0)}
    assert r.measured == max(abs(math.log2(dist[2 * k] / dist[k]) - 3.0)
                             for k in cfg["kappas"])


def test_theta_continuity_keeps_a_line_bound_below_the_lines_diameter():
    # h spectra can lie 8 apart at lambda = 1, so a bound of 6.28 can still fail.
    r = run_check("THETA_CONTINUITY", {"kind": "h", "alpha": "0/1", "n": 2})
    assert r.bound == pytest.approx(2 * np.pi) and r.passed


def test_checks_are_deterministic():
    cfg = {"alpha": "2/3", "n": 10, "trials": 4, "seed": 5}
    r1 = run_check("THETA_CONTINUITY", cfg)
    r2 = run_check("THETA_CONTINUITY", cfg)
    assert r1 == r2
