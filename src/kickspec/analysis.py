"""Spectral comparison, band statistics, dataset generators and checks.

The executable checks encode the family's spectral theorems as measured
quantities against certified bounds: theta periodicity and continuity, the
equality of the two kicked mother spectra, spectral mapping under the
exponential, the coupling-inversion identity for the Harper family, band
counting, alpha continuity, the cubic closeness of the kicked and
exponential Harper spectra, and the bandwidth trend in q.  Each check is
driven by a plain serializable config dict, so a whole verification run is
reproducible from one manifest.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    CenterOutOfRange,
    DegenerateAlphas,
    EmptySpectrum,
    InvalidParams,
    KindMismatch,
    NonPositiveSample,
    TooFewSamples,
    UnknownCheck,
)
from .linalg import _general_eigvals, principal_args
from .operators import (
    MOTHER,
    OperatorKind,
    OperatorParams,
    RationalAlpha,
    dcp_eigensystem,
)
from .spectra import (
    BandList,
    GridSpec,
    SpectrumKind,
    SpectrumSet,
    TWO_PI,
    _grid_pairs,
    _solve_chunks,
    auto_merge_gap,
    eigenphases,
    grid_error_bound,
    merge_bands,
    mother_spectrum,
    spectrum_fixed_theta,
    tracked_bands,
)

__all__ = [
    "PowerLawFit",
    "ButterflyDataset",
    "ZoomWindow",
    "CheckReport",
    "CHECK_IDS",
    "hausdorff",
    "total_bandwidth",
    "bands_in_window",
    "powerlaw_fit",
    "golden_convergents",
    "farey_rationals",
    "butterfly",
    "zoom_windows",
    "alpha_jump_witness",
    "check_keys",
    "run_check",
]


# -- Hausdorff metric ---------------------------------------------------------

def _directed_line(a: np.ndarray, b: np.ndarray) -> float:
    pos = np.searchsorted(b, a)
    left = b[np.clip(pos - 1, 0, b.size - 1)]
    right = b[np.clip(pos, 0, b.size - 1)]
    return float(np.maximum.reduce(np.minimum(np.abs(a - left), np.abs(a - right))))


def _arc_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs((a - b + np.pi) % TWO_PI - np.pi)


def _directed_circle(az: np.ndarray, bz: np.ndarray, arc: bool) -> float:
    # Chordal distance |z - w| = 2 |sin((a-b)/2)| grows with circular angular
    # distance, so the nearest point is an angular neighbour; find it with a
    # wrapped binary search instead of a full distance matrix.
    aa, ba = principal_args(az), principal_args(bz)
    pos = np.searchsorted(ba, aa)
    right = pos % ba.size
    left = (pos - 1) % ba.size
    if arc:
        d = np.minimum(_arc_dist(aa, ba[right]), _arc_dist(aa, ba[left]))
    else:
        d = np.minimum(np.abs(az - bz[right]), np.abs(az - bz[left]))
    return float(d.max())


def hausdorff(x: SpectrumSet, y: SpectrumSet, metric: str = "chordal") -> float:
    """Hausdorff distance between two finite spectra of the same kind.

    Circle spectra use the chordal metric |x - y| in the plane by default
    (the metric the certified bounds are stated in); pass metric="arc" for
    eigenphase arc distance.
    """
    if x.kind is not y.kind:
        raise KindMismatch(f"cannot compare {x.kind.value} with {y.kind.value}")
    if len(x) == 0 or len(y) == 0:
        raise EmptySpectrum("hausdorff requires nonempty spectra")
    if x.kind is SpectrumKind.REAL_LINE:
        return max(_directed_line(x.points, y.points), _directed_line(y.points, x.points))
    if metric not in ("chordal", "arc"):
        raise InvalidParams(f"metric must be 'chordal' or 'arc', got {metric!r}")
    arc = metric == "arc"
    return max(
        _directed_circle(x.points, y.points, arc),
        _directed_circle(y.points, x.points, arc),
    )


def total_bandwidth(b: BandList) -> float:
    """Sum of band lengths; circle bands measured in eigenphase radians."""
    return float(b.lengths().sum()) if b.bands else 0.0


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


# -- fitting and rational generators -------------------------------------------

@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit w ~ prefactor * q**exponent in log-log coordinates."""

    prefactor: float
    exponent: float
    residual: float
    n_points: int


def powerlaw_fit(samples) -> PowerLawFit:
    """Ordinary least squares on (ln q, ln w); residual is the RMS in log space."""
    samples = list(samples)
    if len(samples) < 2:
        raise TooFewSamples(f"power-law fit needs >= 2 samples, got {len(samples)}")
    qs = np.array([s[0] for s in samples], dtype=np.float64)
    ws = np.array([s[1] for s in samples], dtype=np.float64)
    if np.any(qs <= 0) or np.any(ws <= 0):
        raise NonPositiveSample("power-law fit requires q > 0 and w > 0")
    if np.unique(qs).size < 2:
        raise TooFewSamples("power-law fit needs at least two distinct q values")
    lq, lw = np.log(qs), np.log(ws)
    slope, intercept = np.polyfit(lq, lw, 1)
    resid = float(np.sqrt(np.mean((lw - (slope * lq + intercept)) ** 2)))
    return PowerLawFit(
        prefactor=float(np.exp(intercept)),
        exponent=float(slope),
        residual=resid,
        n_points=len(samples),
    )


def golden_convergents(count: int) -> list[RationalAlpha]:
    """Continued-fraction convergents of (sqrt(5)-1)/2: 1/2, 2/3, 3/5, 5/8, ...

    Consecutive Fibonacci ratios; consecutive entries satisfy
    |p1 q2 - p2 q1| = 1.
    """
    if not (isinstance(count, int) and count >= 1):
        raise InvalidParams(f"count must be an integer >= 1, got {count!r}")
    out = []
    p, q = 1, 2
    for _ in range(count):
        out.append(RationalAlpha(p, q))
        p, q = q, p + q
    return out


def farey_rationals(q_max: int) -> list[RationalAlpha]:
    """All reduced p/q with 1 <= q <= q_max and 0 < p < q, ascending by value."""
    if not (isinstance(q_max, int) and q_max >= 1):
        raise InvalidParams(f"q_max must be an integer >= 1, got {q_max!r}")
    out = [
        RationalAlpha(p, q)
        for q in range(2, q_max + 1)
        for p in range(1, q)
        if math.gcd(p, q) == 1
    ]
    out.sort(key=lambda a: Fraction(a.p, a.q))
    return out


# -- butterfly dataset ----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ButterflyDataset:
    """Rows (p, q, eigenphase or real eigenvalue) over a Farey sweep of alpha."""

    kind: OperatorKind
    kappa: float
    lam: float
    q_max: int
    grid_n: int
    p: np.ndarray = field(repr=False)
    q: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return int(self.values.size)


def butterfly(kind, kappa: float, lam: float, q_max: int, grid_n: int) -> ButterflyDataset:
    """Mother spectra over all Farey rationals with q <= q_max.

    Each alpha = p/q gets an n x n grid with n = max(1, round(grid_n / q)),
    keeping the total point budget roughly flat across denominators.
    """
    kind = OperatorKind(kind)
    ps, qs, vals = [], [], []
    for alpha in farey_rationals(q_max):
        n = max(1, round(grid_n / alpha.q))
        params = OperatorParams(kind, kappa, lam, alpha, MOTHER)
        s = mother_spectrum(params, GridSpec(n, n))
        v = s.points if s.kind is SpectrumKind.REAL_LINE else eigenphases(s)
        ps.append(np.full(v.size, alpha.p, dtype=np.int64))
        qs.append(np.full(v.size, alpha.q, dtype=np.int64))
        vals.append(np.asarray(v, dtype=np.float64))
    if ps:
        p = np.concatenate(ps)
        q = np.concatenate(qs)
        v = np.concatenate(vals)
        order = np.lexsort((v, p, q))
        p, q, v = p[order], q[order], v[order]
    else:
        p = q = np.empty(0, dtype=np.int64)
        v = np.empty(0, dtype=np.float64)
    for arr in (p, q, v):
        arr.setflags(write=False)
    return ButterflyDataset(kind=kind, kappa=float(kappa), lam=float(lam),
                            q_max=int(q_max), grid_n=int(grid_n), p=p, q=q, values=v)


# -- zoom windows ---------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ZoomWindow:
    lo: float
    hi: float
    points: np.ndarray


def zoom_windows(eps, center: float, factors) -> list[ZoomWindow]:
    """Nested eigenphase windows shrinking around a center.

    Window 0 is the full range (-pi, pi]; window k+1 is centered at
    ``center`` with width = width_k / factors[k].  Each window carries the
    contained subset of the (sorted) input phases.
    """
    eps = np.sort(np.asarray(eps, dtype=np.float64))
    if not (-np.pi < center <= np.pi):
        raise CenterOutOfRange(f"center must lie in (-pi, pi], got {center}")
    factors = [float(f) for f in factors]
    if not all(f > 1.0 for f in factors):
        raise InvalidParams(f"zoom factors must all be > 1, got {factors}")
    windows = [ZoomWindow(lo=-np.pi, hi=np.pi, points=eps)]
    width = TWO_PI
    for f in factors:
        width /= f
        lo, hi = center - width / 2.0, center + width / 2.0
        inside = eps[(eps >= lo) & (eps <= hi)]
        windows.append(ZoomWindow(lo=lo, hi=hi, points=inside))
    return windows


# -- alpha discontinuity witness -------------------------------------------------

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
            raise DegenerateAlphas(f"{name} = {v} is an integer")
    n = np.arange(-n_max, n_max + 1, dtype=np.float64)
    vals = np.abs(
        2.0 * lam
        * np.sin(np.pi * n * (alpha1 + alpha2) + 2.0 * np.pi * theta)
        * np.sin(np.pi * n * (alpha1 - alpha2))
    )
    return float(vals.max())


# -- executable checks ------------------------------------------------------------

@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification check: measured quantity against a bound."""

    check_id: str
    params: dict
    measured: float
    bound: float
    passed: bool
    notes: str = ""

    def to_dict(self) -> dict:
        d = asdict(self)
        d["check"] = d.pop("check_id")
        d["pass"] = d.pop("passed")
        return d


def _alpha_of(cfg, key="alpha", default="8/13") -> RationalAlpha:
    a = cfg.get(key, default)
    return a if isinstance(a, RationalAlpha) else RationalAlpha.parse(str(a))


def _mother(kind, kappa, lam, alpha, n) -> SpectrumSet:
    params = OperatorParams(kind, kappa, lam, alpha, MOTHER)
    return mother_spectrum(params, GridSpec(n, n))


# Bound for two sweeps whose grid nodes carry unitarily equivalent matrices,
# so that only roundoff and the 1e-12 dedup separate the sampled sets.
_MATCHED_GRID_TOL = 1e-10


def _check_theta_period(cfg) -> CheckReport:
    kind = OperatorKind(cfg.get("kind", "ukh"))
    alpha = _alpha_of(cfg)
    kappa, lam = float(cfg.get("kappa", 1.0)), float(cfg.get("lambda", 1.0))
    n, trials = int(cfg.get("n", 25)), int(cfg.get("trials", 10))
    rng = np.random.default_rng(int(cfg.get("seed", 20260810)))
    grid = GridSpec(n)
    worst = 0.0
    for _ in range(trials):
        th = float(rng.uniform())
        s1 = spectrum_fixed_theta(OperatorParams(kind, kappa, lam, alpha, th), grid)
        s2 = spectrum_fixed_theta(OperatorParams(kind, kappa, lam, alpha, th + 1.0 / alpha.q), grid)
        worst = max(worst, hausdorff(s1, s2))
    # At each x the matrices at theta and theta + 1/q are permutation-similar.
    bound = min(2.0 * grid_error_bound(OperatorParams(kind, kappa, lam, alpha, 0.0), grid),
                _MATCHED_GRID_TOL)
    return CheckReport(
        "THETA_PERIOD",
        {"kind": kind.value, "alpha": str(alpha), "kappa": kappa, "lambda": lam,
         "n": n, "trials": trials},
        measured=worst, bound=bound, passed=worst <= bound,
        notes=f"max d_H(sigma(theta), sigma(theta + 1/q)) over {trials} random thetas",
    )


def _check_theta_continuity(cfg) -> CheckReport:
    kind = OperatorKind(cfg.get("kind", "ukh"))
    alpha = _alpha_of(cfg)
    kappa, lam = float(cfg.get("kappa", 1.0)), float(cfg.get("lambda", 1.0))
    n, trials = int(cfg.get("n", 25)), int(cfg.get("trials", 10))
    rng = np.random.default_rng(int(cfg.get("seed", 20260810)))
    grid = GridSpec(n)
    # Lipschitz constant of the theta kick: the cosine row moves by
    # 2 |sin(pi dtheta)| in sup norm, times the 2 kappa lambda prefactor.
    # (At q = 2 the spectral distance saturates this, so no smaller
    # coefficient can hold.)
    lip = 4.0 * abs(lam) if kind is OperatorKind.H else 4.0 * abs(kappa * lam)
    worst = -np.inf
    for _ in range(trials):
        t1, t2 = (float(v) for v in rng.uniform(size=2))
        s1 = spectrum_fixed_theta(OperatorParams(kind, kappa, lam, alpha, t1), grid)
        s2 = spectrum_fixed_theta(OperatorParams(kind, kappa, lam, alpha, t2), grid)
        analytic = lip * abs(math.sin(math.pi * (t1 - t2)))
        worst = max(worst, hausdorff(s1, s2) - analytic)
    bound = 2.0 * grid_error_bound(OperatorParams(kind, kappa, lam, alpha, 0.0), grid)
    return CheckReport(
        "THETA_CONTINUITY",
        {"kind": kind.value, "alpha": str(alpha), "kappa": kappa, "lambda": lam,
         "n": n, "trials": trials},
        measured=worst, bound=bound, passed=worst <= bound,
        notes="max over random theta pairs of d_H minus the sine modulus bound",
    )


def _check_mother_equality(cfg) -> CheckReport:
    alpha = _alpha_of(cfg)
    kappa, lam = float(cfg.get("kappa", 0.5)), float(cfg.get("lambda", 1.0))
    n = int(cfg.get("n", 40))
    s_kh = _mother(OperatorKind.UKH, kappa, lam, alpha, n)
    s_or = _mother(OperatorKind.UORDKR, kappa, lam, alpha, n)
    measured = hausdorff(s_kh, s_or)
    bound = s_kh.error_bound + s_or.error_bound
    # The rotor's theta kick sits at beta = x + theta + alpha/2 + phi, an
    # offset of (p + 2 q phi)/(2q).  When that is a whole number of theta
    # steps 1/(n q), both sweeps visit equivalent matrices node for node.
    if n * (alpha.p + round(2 * alpha.q * dcp_eigensystem(alpha).phi)) % 2 == 0:
        bound = min(bound, _MATCHED_GRID_TOL)
    return CheckReport(
        "MOTHER_EQUALITY",
        {"alpha": str(alpha), "kappa": kappa, "lambda": lam, "n": n},
        measured=measured, bound=bound, passed=measured <= bound,
        notes="kicked Harper vs double kicked rotor mother spectra share a true spectrum",
    )


def _check_spectral_mapping(cfg) -> CheckReport:
    alpha = _alpha_of(cfg)
    kappa, lam = float(cfg.get("kappa", 1.0)), float(cfg.get("lambda", 1.0))
    n = int(cfg.get("n", 50))
    scope = MOTHER if cfg.get("theta") == MOTHER else cfg.get("scope", "fixed")
    tol = 1e-10  # both routes solve the same matrices: roundoff only
    if scope == "mother":
        params, grid = OperatorParams(OperatorKind.UH, kappa, lam, alpha, MOTHER), GridSpec(n, n)
        s_uh = mother_spectrum(params, grid)
    else:
        theta = float(cfg.get("theta", 0.0))
        params, grid = OperatorParams(OperatorKind.UH, kappa, lam, alpha, theta), GridSpec(n)
        s_uh = spectrum_fixed_theta(params, grid)
    # The sweep maps Harper eigenvalues through exp(-i kappa t); the
    # independent route assembles exp(-i kappa H) and runs the general
    # solver, not the Cayley route of the kicked sweeps.
    xv, tv = _grid_pairs(params, grid)
    values = _solve_chunks(params, xv, tv, _general_eigvals)
    direct = SpectrumSet.build(SpectrumKind.UNIT_CIRCLE, values / np.abs(values))
    measured = hausdorff(s_uh, direct)
    return CheckReport(
        "SPECTRAL_MAPPING",
        {"alpha": str(alpha), "kappa": kappa, "lambda": lam, "n": n, "scope": scope},
        measured=measured, bound=tol, passed=measured <= tol,
        notes="exponential image of the Harper spectrum matches the general eigensolve "
              "of the unitary Harper matrices",
    )


def _check_aubry_andre(cfg) -> CheckReport:
    alpha = _alpha_of(cfg)
    lam = float(cfg.get("lambda", 2.0))
    n = int(cfg.get("n", 20))
    tol = 1e-9
    if lam == 0:
        raise InvalidParams("AUBRY_ANDRE requires lambda != 0")
    s1 = _mother(OperatorKind.H, 0.0, lam, alpha, n)
    s2 = _mother(OperatorKind.H, 0.0, 1.0 / lam, alpha, n)
    scaled = SpectrumSet.build(SpectrumKind.REAL_LINE, lam * s2.points)
    measured = hausdorff(s1, scaled)
    return CheckReport(
        "AUBRY_ANDRE",
        {"alpha": str(alpha), "lambda": lam, "n": n},
        measured=measured, bound=tol, passed=measured <= tol,
        notes="coupling inversion: sigma(lam) equals lam * sigma(1/lam) on a square grid",
    )


def _check_band_count(cfg) -> CheckReport:
    alpha = _alpha_of(cfg, default="1/5")
    lam = float(cfg.get("lambda", 1.0))
    n = int(cfg.get("n", 200))
    s = _mother(OperatorKind.H, 0.0, lam, alpha, n)
    gap = cfg.get("merge_gap", "auto")
    gap = auto_merge_gap(s) if gap == "auto" else float(gap)
    bands = merge_bands(s, gap)
    q = alpha.q
    expected = q if q % 2 == 1 else q - 1
    measured = float(abs(len(bands) - expected))
    return CheckReport(
        "BAND_COUNT",
        {"alpha": str(alpha), "lambda": lam, "n": n, "merge_gap": gap},
        measured=measured, bound=0.0, passed=measured <= 0.0,
        notes=f"got {len(bands)} bands, expected {expected} (q odd -> q, q even -> q-1)",
    )


def _check_alpha_continuity(cfg) -> CheckReport:
    a1 = _alpha_of(cfg, key="alpha1", default="89/144")
    a2 = _alpha_of(cfg, key="alpha2", default="144/233")
    kappa, lam = float(cfg.get("kappa", 1.0)), float(cfg.get("lambda", 1.0))
    n = int(cfg.get("n", 10))
    kind = OperatorKind(cfg.get("kind", "ukh"))
    s1 = _mother(kind, kappa, lam, a1, n)
    s2 = _mother(kind, kappa, lam, a2, n)
    measured = hausdorff(s1, s2)
    dalpha = abs(a2.value - a1.value)
    coeff = abs(lam) if kind is OperatorKind.H else abs(kappa * lam)
    bound = 36.0 * math.sqrt(6.0 * math.pi * coeff * dalpha) + s1.error_bound + s2.error_bound
    return CheckReport(
        "ALPHA_CONTINUITY",
        {"kind": kind.value, "alpha1": str(a1), "alpha2": str(a2),
         "kappa": kappa, "lambda": lam, "n": n},
        measured=measured, bound=bound, passed=measured <= bound,
        notes="mother spectra of nearby rationals within the square-root modulus",
    )


def _check_kappa_cubed(cfg) -> CheckReport:
    alpha = _alpha_of(cfg)
    lam = float(cfg.get("lambda", 1.0))
    n = int(cfg.get("n", 60))
    kappas = [float(k) for k in cfg.get("kappas", (0.025, 0.05, 0.1))]
    dist = {}
    for k in sorted({k for base in kappas for k in (base, 2.0 * base)}):
        s_kh = _mother(OperatorKind.UKH, k, lam, alpha, n)
        s_uh = _mother(OperatorKind.UH, k, lam, alpha, n)
        dist[k] = hausdorff(s_kh, s_uh)
    ratios = [dist[2.0 * k] / dist[k] for k in kappas]
    # Cubic leading order means doubling kappa multiplies the distance by
    # about 8; [4, 16] is |log2 ratio - 3| <= 1.
    measured = max(abs(math.log2(r) - 3.0) for r in ratios)
    return CheckReport(
        "KAPPA_CUBED",
        {"alpha": str(alpha), "lambda": lam, "n": n, "kappas": kappas},
        measured=measured, bound=1.0, passed=measured <= 1.0,
        notes="ratios D(2k)/D(k) = " + ", ".join(f"{r:.3f}" for r in ratios),
    )


def _check_last_measure_trend(cfg) -> CheckReport:
    alphas = [a if isinstance(a, RationalAlpha) else RationalAlpha.parse(str(a))
              for a in cfg.get("alphas", ("5/8", "8/13", "13/21"))]
    lams = [float(v) for v in cfg.get("lambdas", (0.5, 1.0, 2.0))]
    n = int(cfg.get("n", 60))
    widths = {}
    for alpha in alphas:
        for lam in lams:
            params = OperatorParams(OperatorKind.H, 0.0, lam, alpha, MOTHER)
            widths[(alpha, lam)] = total_bandwidth(tracked_bands(params, GridSpec(n, n)))
    margins = []
    for alpha in alphas:
        others = [widths[(alpha, lam)] for lam in lams if lam != 1.0]
        margins.append(widths[(alpha, 1.0)] - min(others))
    for a_prev, a_next in zip(alphas, alphas[1:]):
        margins.append(widths[(a_next, 1.0)] - widths[(a_prev, 1.0)])
    measured = max(margins)
    return CheckReport(
        "LAST_MEASURE_TREND",
        {"alphas": [str(a) for a in alphas], "lambdas": lams, "n": n},
        measured=measured, bound=0.0, passed=measured <= 0.0,
        notes="critical coupling bandwidth smallest and decreasing along the Fibonacci q",
    )


# Each check and the config keys it reads; run_check rejects any other key.
_CHECKS = {
    "THETA_PERIOD": (_check_theta_period, "kind alpha kappa lambda n trials seed"),
    "THETA_CONTINUITY": (_check_theta_continuity, "kind alpha kappa lambda n trials seed"),
    "MOTHER_EQUALITY": (_check_mother_equality, "alpha kappa lambda n"),
    "SPECTRAL_MAPPING": (_check_spectral_mapping, "alpha kappa lambda n theta scope"),
    "AUBRY_ANDRE": (_check_aubry_andre, "alpha lambda n"),
    "BAND_COUNT": (_check_band_count, "alpha lambda n merge_gap"),
    "ALPHA_CONTINUITY": (_check_alpha_continuity, "kind alpha1 alpha2 kappa lambda n"),
    "KAPPA_CUBED": (_check_kappa_cubed, "alpha lambda n kappas"),
    "LAST_MEASURE_TREND": (_check_last_measure_trend, "alphas lambdas n"),
}

CHECK_IDS = tuple(_CHECKS)


def _canonical(check_id: str) -> str:
    cid = str(check_id).strip().replace("-", "_").upper()
    if cid not in _CHECKS:
        raise UnknownCheck(f"unknown check {check_id!r}; known: {', '.join(CHECK_IDS)}")
    return cid


def check_keys(check_id: str) -> frozenset[str]:
    """The config keys the named check reads."""
    return frozenset(_CHECKS[_canonical(check_id)][1].split())


def run_check(check_id: str, cfg: dict | None = None) -> CheckReport:
    """Run one named check; deterministic for fixed cfg.  A key the check
    does not read raises InvalidParams rather than being ignored."""
    cid = _canonical(check_id)
    check, keys = _CHECKS[cid]
    unread = sorted(set(cfg or {}) - set(keys.split()))
    if unread:
        raise InvalidParams(f"{cid} does not read {', '.join(unread)}; it reads: {keys}")
    return check(dict(cfg or {}))
