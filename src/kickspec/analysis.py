"""Spectral comparison, band statistics, dataset generators and checks.

The executable checks encode the family's spectral theorems as measured
quantities against certified bounds: theta periodicity and continuity, the
equality of the two kicked mother spectra, spectral mapping under the
exponential, the coupling-inversion identity for the Harper family, band
counting, alpha continuity, the cubic closeness of the kicked and
exponential Harper spectra, and the bandwidth trend in q.  Each check
declares its config keys and their defaults once, in one table; one parser
per key reads a plain config dict, and every report carries the full parsed
config, so a whole verification run is reproducible from one manifest.
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
    _sweep_values,
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


def _directed_circle(az: np.ndarray, bz: np.ndarray) -> float:
    # Chordal distance |z - w| = 2 |sin((a-b)/2)| grows with circular angular
    # distance, so the nearest point is an angular neighbour; find it with a
    # wrapped binary search instead of a full distance matrix.
    pos = np.searchsorted(principal_args(bz), principal_args(az))
    right = pos % bz.size
    left = (pos - 1) % bz.size
    return float(np.minimum(np.abs(az - bz[right]), np.abs(az - bz[left])).max())


def hausdorff(x: SpectrumSet, y: SpectrumSet) -> float:
    """Hausdorff distance between two finite spectra of the same kind.

    Circle spectra use the chordal metric |x - y| in the plane, the metric
    the certified bounds are stated in.
    """
    if x.kind is not y.kind:
        raise KindMismatch(f"cannot compare {x.kind.value} with {y.kind.value}")
    if len(x) == 0 or len(y) == 0:
        raise EmptySpectrum("hausdorff requires nonempty spectra")
    if x.kind is SpectrumKind.REAL_LINE:
        return max(_directed_line(x.points, y.points), _directed_line(y.points, x.points))
    return max(_directed_circle(x.points, y.points), _directed_circle(y.points, x.points))


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
    """Outcome of one verification check: measured quantity against a bound.

    ``params`` is the check's full parsed config in plain JSON form, so
    ``run_check(check_id, params)`` repeats the run.
    """

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


def _mother(kind, kappa, lam, alpha, n) -> SpectrumSet:
    params = OperatorParams(kind, kappa, lam, alpha, MOTHER)
    return mother_spectrum(params, GridSpec(n, n))


def _at(cfg, theta) -> OperatorParams:
    """The config's operator at phase theta."""
    return OperatorParams(cfg["kind"], cfg["kappa"], cfg["lambda"], cfg["alpha"], theta)


def _kick_scale(cfg) -> float:
    """The phase-kick prefactor: |lambda| for Harper, |kappa lambda| otherwise."""
    lam = cfg["lambda"]
    return abs(lam) if cfg["kind"] is OperatorKind.H else abs(cfg["kappa"] * lam)


# Bound for two sweeps whose grid nodes carry unitarily equivalent matrices,
# so that only roundoff and the 1e-12 dedup separate the sampled sets.
_MATCHED_GRID_TOL = 1e-10

# Each check below takes its parsed config and returns (measured, bound, notes).


def _check_theta_period(cfg):
    grid, rng = GridSpec(cfg["n"]), np.random.default_rng(cfg["seed"])
    worst = 0.0
    for _ in range(cfg["trials"]):
        th = float(rng.uniform())
        s1 = spectrum_fixed_theta(_at(cfg, th), grid)
        s2 = spectrum_fixed_theta(_at(cfg, th + 1.0 / cfg["alpha"].q), grid)
        worst = max(worst, hausdorff(s1, s2))
    # At each x the matrices at theta and theta + 1/q are permutation-similar.
    bound = min(2.0 * grid_error_bound(_at(cfg, 0.0), grid), _MATCHED_GRID_TOL)
    return worst, bound, (f"max d_H(sigma(theta), sigma(theta + 1/q)) over {cfg['trials']} "
                          "random thetas")


def _check_theta_continuity(cfg):
    grid, rng = GridSpec(cfg["n"]), np.random.default_rng(cfg["seed"])
    # Lipschitz constant of the theta kick: the cosine row moves by
    # 2 |sin(pi dtheta)| in sup norm, times the 2 kappa lambda prefactor.
    # (At q = 2 the spectral distance saturates this, so no smaller
    # coefficient can hold.)
    lip = 4.0 * _kick_scale(cfg)
    worst = -np.inf
    for _ in range(cfg["trials"]):
        t1, t2 = (float(v) for v in rng.uniform(size=2))
        s1 = spectrum_fixed_theta(_at(cfg, t1), grid)
        s2 = spectrum_fixed_theta(_at(cfg, t2), grid)
        worst = max(worst, hausdorff(s1, s2) - lip * abs(math.sin(math.pi * (t1 - t2))))
    bound = 2.0 * grid_error_bound(_at(cfg, 0.0), grid)
    return worst, bound, "max over random theta pairs of d_H minus the sine modulus bound"


def _check_mother_equality(cfg):
    alpha, n = cfg["alpha"], cfg["n"]
    s_kh = _mother(OperatorKind.UKH, cfg["kappa"], cfg["lambda"], alpha, n)
    s_or = _mother(OperatorKind.UORDKR, cfg["kappa"], cfg["lambda"], alpha, n)
    bound = s_kh.error_bound + s_or.error_bound
    # The rotor's theta kick sits at beta = x + theta + alpha/2 + phi, an
    # offset of (p + 2 q phi)/(2q).  When that is a whole number of theta
    # steps 1/(n q), both sweeps visit equivalent matrices node for node.
    if n * (alpha.p + round(2 * alpha.q * dcp_eigensystem(alpha).phi)) % 2 == 0:
        bound = min(bound, _MATCHED_GRID_TOL)
    return (hausdorff(s_kh, s_or), bound,
            "kicked Harper vs double kicked rotor mother spectra share a true spectrum")


def _check_spectral_mapping(cfg):
    n, theta = cfg["n"], cfg["theta"]
    params = OperatorParams(OperatorKind.UH, cfg["kappa"], cfg["lambda"], cfg["alpha"], theta)
    grid = GridSpec(n, n) if params.is_mother else GridSpec(n)
    s_uh = (mother_spectrum if params.is_mother else spectrum_fixed_theta)(params, grid)
    # The sweep maps Harper eigenvalues through exp(-i kappa t); the
    # independent route assembles exp(-i kappa H) and runs the general
    # solver, not the Cayley route of the kicked sweeps.  Both routes solve
    # the same matrices, so only roundoff separates them.
    xv, tv = _grid_pairs(params, grid)
    values = _solve_chunks(params, xv, tv, _general_eigvals)
    direct = SpectrumSet.build(SpectrumKind.UNIT_CIRCLE, values / np.abs(values))
    return (hausdorff(s_uh, direct), _MATCHED_GRID_TOL,
            "exponential image of the Harper spectrum matches the general eigensolve "
            "of the unitary Harper matrices")


def _check_aubry_andre(cfg):
    alpha, lam, n = cfg["alpha"], cfg["lambda"], cfg["n"]
    if lam == 0:
        raise InvalidParams("AUBRY_ANDRE requires lambda != 0")
    s1 = _mother(OperatorKind.H, 0.0, lam, alpha, n)
    s2 = _mother(OperatorKind.H, 0.0, 1.0 / lam, alpha, n)
    scaled = SpectrumSet.build(SpectrumKind.REAL_LINE, lam * s2.points)
    return (hausdorff(s1, scaled), 1e-9,
            "coupling inversion: sigma(lam) equals lam * sigma(1/lam) on a square grid")


def _check_band_count(cfg):
    q = cfg["alpha"].q
    s = _mother(OperatorKind.H, 0.0, cfg["lambda"], cfg["alpha"], cfg["n"])
    gap = auto_merge_gap(s) if cfg["merge_gap"] == "auto" else cfg["merge_gap"]
    bands = merge_bands(s, gap)
    expected = q if q % 2 == 1 else q - 1
    return (float(abs(len(bands) - expected)), 0.0,
            f"got {len(bands)} bands, expected {expected} (q odd -> q, q even -> q-1) "
            f"at merge gap {gap!r}")


def _check_alpha_continuity(cfg):
    a1, a2 = cfg["alpha1"], cfg["alpha2"]
    s1 = _mother(cfg["kind"], cfg["kappa"], cfg["lambda"], a1, cfg["n"])
    s2 = _mother(cfg["kind"], cfg["kappa"], cfg["lambda"], a2, cfg["n"])
    dalpha = abs(a2.value - a1.value)
    bound = (36.0 * math.sqrt(6.0 * math.pi * _kick_scale(cfg) * dalpha)
             + s1.error_bound + s2.error_bound)
    return (hausdorff(s1, s2), bound,
            "mother spectra of nearby rationals within the square-root modulus")


def _check_kappa_cubed(cfg):
    kappas, grid, dist = cfg["kappas"], GridSpec(cfg["n"], cfg["n"]), {}
    # The uh spectra are exp(-i kappa w) of one kappa-independent Harper sweep w.
    harper = OperatorParams(OperatorKind.H, 0.0, cfg["lambda"], cfg["alpha"], MOTHER)
    w = _sweep_values(harper, *_grid_pairs(harper, grid))
    for k in sorted({k for base in kappas for k in (base, 2.0 * base)}):
        s_kh = _mother(OperatorKind.UKH, k, cfg["lambda"], cfg["alpha"], cfg["n"])
        s_uh = SpectrumSet.build(SpectrumKind.UNIT_CIRCLE, np.exp(-1j * k * w))
        dist[k] = hausdorff(s_kh, s_uh)
    ratios = [dist[2.0 * k] / dist[k] for k in kappas]
    # Cubic leading order means doubling kappa multiplies the distance by
    # about 8; [4, 16] is |log2 ratio - 3| <= 1.
    return (max(abs(math.log2(r) - 3.0) for r in ratios), 1.0,
            "ratios D(2k)/D(k) = " + ", ".join(f"{r:.3f}" for r in ratios))


def _check_last_measure_trend(cfg):
    alphas, lams, grid = cfg["alphas"], cfg["lambdas"], GridSpec(cfg["n"], cfg["n"])
    widths = {
        (alpha, lam): total_bandwidth(
            tracked_bands(OperatorParams(OperatorKind.H, 0.0, lam, alpha, MOTHER), grid))
        for alpha in alphas for lam in lams
    }
    margins = [widths[(a, 1.0)] - min(widths[(a, lam)] for lam in lams if lam != 1.0)
               for a in alphas]
    margins += [widths[(b, 1.0)] - widths[(a, 1.0)] for a, b in zip(alphas, alphas[1:])]
    return (max(margins), 0.0,
            "critical coupling bandwidth smallest and decreasing along the Fibonacci q")


# -- check configs -----------------------------------------------------------------

def _at_least(lo: int):
    def parse(v) -> int:
        if int(v) < lo:
            raise ValueError(f"expected an integer >= {lo}")
        return int(v)
    return parse


def _alpha(v) -> RationalAlpha:
    return v if isinstance(v, RationalAlpha) else RationalAlpha.parse(str(v))


def _nonempty(parse):
    def parse_list(v) -> list:
        out = [] if isinstance(v, str) else [parse(x) for x in v]
        if not out:
            raise ValueError("expected a nonempty list")
        return out
    return parse_list


def _lambdas(v) -> list[float]:
    lams = _nonempty(float)(v)
    if 1.0 not in lams or set(lams) == {1.0}:
        raise ValueError("expected the critical coupling 1.0 and at least one other value")
    return lams


# One parser per config key, shared by every check that reads the key.  A
# value a parser cannot use raises TypeError, ValueError or OverflowError,
# which run_check reports as InvalidParams (RationalAlpha.parse raises its
# own usage errors).
_PARSE = {
    "kind": OperatorKind, "alpha": _alpha, "alpha1": _alpha, "alpha2": _alpha,
    "kappa": float, "lambda": float, "theta": lambda v: MOTHER if v == MOTHER else float(v),
    "n": _at_least(1), "trials": _at_least(1), "seed": _at_least(0),
    "merge_gap": lambda v: "auto" if v == "auto" else float(v),
    "kappas": _nonempty(float), "alphas": _nonempty(_alpha), "lambdas": _lambdas,
}


def _plain(v):
    """A parsed config value in the JSON form its parser reads back unchanged."""
    if isinstance(v, list):
        return [_plain(x) for x in v]
    if isinstance(v, OperatorKind):
        return v.value
    return str(v) if isinstance(v, RationalAlpha) else v


_THETA_DEFAULTS = {"kind": "ukh", "alpha": "8/13", "kappa": 1.0, "lambda": 1.0,
                   "n": 25, "trials": 10, "seed": 20260810}

# Each check and the config keys it reads, with their defaults; run_check
# rejects any other key.
_CHECKS = {
    "THETA_PERIOD": (_check_theta_period, _THETA_DEFAULTS),
    "THETA_CONTINUITY": (_check_theta_continuity, _THETA_DEFAULTS),
    "MOTHER_EQUALITY": (_check_mother_equality,
                        {"alpha": "8/13", "kappa": 0.5, "lambda": 1.0, "n": 40}),
    "SPECTRAL_MAPPING": (_check_spectral_mapping,
                         {"alpha": "8/13", "kappa": 1.0, "lambda": 1.0, "n": 50, "theta": 0.0}),
    "AUBRY_ANDRE": (_check_aubry_andre, {"alpha": "8/13", "lambda": 2.0, "n": 20}),
    "BAND_COUNT": (_check_band_count,
                   {"alpha": "1/5", "lambda": 1.0, "n": 200, "merge_gap": "auto"}),
    "ALPHA_CONTINUITY": (_check_alpha_continuity,
                         {"kind": "ukh", "alpha1": "89/144", "alpha2": "144/233",
                          "kappa": 1.0, "lambda": 1.0, "n": 10}),
    "KAPPA_CUBED": (_check_kappa_cubed,
                    {"alpha": "8/13", "lambda": 1.0, "n": 60, "kappas": [0.025, 0.05, 0.1]}),
    "LAST_MEASURE_TREND": (_check_last_measure_trend,
                           {"alphas": ["5/8", "8/13", "13/21"], "lambdas": [0.5, 1.0, 2.0],
                            "n": 60}),
}

CHECK_IDS = tuple(_CHECKS)


def _canonical(check_id: str) -> str:
    cid = str(check_id).strip().replace("-", "_").upper()
    if cid not in _CHECKS:
        raise UnknownCheck(f"unknown check {check_id!r}; known: {', '.join(CHECK_IDS)}")
    return cid


def check_keys(check_id: str) -> frozenset[str]:
    """The config keys the named check reads."""
    return frozenset(_CHECKS[_canonical(check_id)][1])


def _config(cid: str, cfg: dict) -> dict:
    """The check's defaults overlaid with cfg, each value parsed by its key's parser."""
    defaults = _CHECKS[cid][1]
    unread = sorted(set(cfg) - set(defaults))
    if unread:
        raise InvalidParams(f"{cid} does not read {', '.join(unread)}; "
                            f"it reads: {' '.join(defaults)}")
    parsed = {}
    for key, value in {**defaults, **cfg}.items():
        try:
            parsed[key] = _PARSE[key](value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidParams(f"{cid}: bad {key} {value!r}: {exc}") from exc
    return parsed


def run_check(check_id: str, cfg: dict | None = None) -> CheckReport:
    """Run one named check; deterministic for fixed cfg.

    Keys left out take the check's defaults.  A key the check does not
    read, or a value its parser rejects, raises InvalidParams.  The report
    carries the full parsed config, so run_check(check_id, report.params)
    repeats the run.
    """
    cid = _canonical(check_id)
    parsed = _config(cid, cfg or {})
    measured, bound, notes = _CHECKS[cid][0](parsed)
    return CheckReport(cid, {k: _plain(v) for k, v in parsed.items()}, measured, bound,
                       passed=bool(measured <= bound), notes=notes)
