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

import itertools
import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InvalidParams
from .linalg import principal_args
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
    _preflight,
    _spectrum,
    _sweep_values,
    _tracked,
    auto_merge_gap,
    eigenphases,
    grid_error_bound,
    merge_bands,
    mother_spectrum,
)

__all__ = [
    "PowerLawFit",
    "ButterflyDataset",
    "ZoomWindow",
    "CheckReport",
    "CHECK_IDS",
    "hausdorff",
    "total_bandwidth",
    "powerlaw_fit",
    "golden_convergents",
    "farey_rationals",
    "butterfly",
    "zoom_windows",
    "check_config",
    "check_keys",
    "run_check",
]


# -- Hausdorff metric ---------------------------------------------------------

def _directed(a: np.ndarray, b: np.ndarray, key) -> float:
    """max over a of the distance to the nearest point of b, both sorted by key: one of
    its two neighbours in key order, wrapped round the ends (the chord |z - w| grows
    with the angle on the circle; on the line the wrapped one is the farther)."""
    pos = np.searchsorted(key(b), key(a))
    return float(np.minimum(np.abs(a - b[pos % b.size]), np.abs(a - b[pos - 1])).max())


def hausdorff(x: SpectrumSet, y: SpectrumSet) -> float:
    """Hausdorff distance between two finite spectra of the same kind.

    Circle spectra use the chordal metric |x - y| in the plane, the metric
    the certified bounds are stated in.
    """
    if x.kind is not y.kind:
        raise InvalidParams(f"cannot compare {x.kind.value} with {y.kind.value}")
    if len(x) == 0 or len(y) == 0:
        raise InvalidParams("hausdorff requires nonempty spectra")
    key = np.asarray if x.kind is SpectrumKind.REAL_LINE else principal_args
    return max(_directed(x.points, y.points, key), _directed(y.points, x.points, key))


def total_bandwidth(b: BandList) -> float:
    """Sum of band lengths; circle bands measured in eigenphase radians."""
    return float(b.lengths().sum()) if b.bands else 0.0


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
        raise InvalidParams(f"power-law fit needs >= 2 samples, got {len(samples)}")
    qs = np.array([s[0] for s in samples], dtype=np.float64)
    ws = np.array([s[1] for s in samples], dtype=np.float64)
    if np.any(qs <= 0) or np.any(ws <= 0):
        raise InvalidParams("power-law fit requires q > 0 and w > 0")
    if np.unique(qs).size < 2:
        raise InvalidParams("power-law fit needs at least two distinct q values")
    lq, lw = np.log(qs), np.log(ws)
    slope, intercept = np.polyfit(lq, lw, 1)
    resid = float(np.sqrt(np.mean((lw - (slope * lq + intercept)) ** 2)))
    return PowerLawFit(
        prefactor=float(np.exp(intercept)),
        exponent=float(slope),
        residual=resid,
        n_points=len(samples),
    )


def golden_convergents(count: int) -> Iterator[RationalAlpha]:
    """The first count continued-fraction convergents of (sqrt(5)-1)/2: 1/2, 2/3, 3/5,
    5/8, ..., each made as it is drawn.  Consecutive Fibonacci ratios; consecutive
    entries satisfy |p1 q2 - p2 q1| = 1.
    """
    if not (isinstance(count, int) and count >= 1):
        raise InvalidParams(f"count must be an integer >= 1, got {count!r}")
    p, q = 1, 2
    for _ in range(count):
        yield RationalAlpha(p, q)
        p, q = q, p + q


def farey_rationals(q_max: int) -> Iterator[RationalAlpha]:
    """All reduced p/q with 1 <= q <= q_max and 0 < p < q, ascending by value from
    1/q_max, each made as it is drawn: after a/b and c/d comes (k c - a)/(k d - b)
    with k = (q_max + b) // d."""
    if not (isinstance(q_max, int) and q_max >= 1):
        raise InvalidParams(f"q_max must be an integer >= 1, got {q_max!r}")
    a, b, c, d = 0, 1, 1, q_max
    while c < d:
        yield RationalAlpha(c, d)
        k = (q_max + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b


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


# Bytes a butterfly command holds per value it may keep: the p, q and value
# columns, the points they are joined from and the table's CSV text as bytes,
# decoded and joined to its header.  Peak RSS growth per value over
# `butterfly --alpha-list farey:150 --grid 2`: 92 B for h, 115 B for ukh.
_ROW_BYTES = 128


def _butterfly_sweeps(kind, kappa: float, lam: float, q_max: int,
                      grid_n: int) -> list[tuple[OperatorParams, GridSpec]]:
    """The (params, grid) of each butterfly sweep, in Farey order, made only once
    the request is size-checked, so that an oversized one is refused before its
    list is drawn.

    First each sweep: of the sweeps of one q, 1/q is the largest (uordkr's
    sheared fold at lambda = 1 keeps fewer nodes at some other p, never more)
    and the first in Farey order, so checking 1/q from q = q_max down refuses
    the sweep that the Farey order meets first.  Then the table: phi(q)
    alphas of each q keep at most their grid's n^2 q eigenvalues each, at
    _ROW_BYTES, and the last sweep, (q_max - 1)/q_max, runs beside them all.
    """
    def request(alpha: RationalAlpha) -> tuple[OperatorParams, GridSpec]:
        n = max(1, round(grid_n / alpha.q))
        return OperatorParams(kind, kappa, lam, alpha, MOTHER), GridSpec(n, n)

    first = next(farey_rationals(q_max), None)  # 1/q_max; a bad q_max is refused here
    for q in range(q_max, 1, -1):
        _preflight(*request(first if q == q_max else RationalAlpha(1, q)))
    if q_max >= 2:  # a 1/q check bounds q_max^2 by the memory, and so the sieve
        phi = _totients(q_max)
        rows = sum(int(phi[q]) * q * max(1, round(grid_n / q)) ** 2 for q in range(2, q_max + 1))
        _preflight(*request(RationalAlpha(q_max - 1, q_max)), held=rows * _ROW_BYTES)
    return [request(alpha) for alpha in farey_rationals(q_max)]


def _totients(n: int) -> np.ndarray:
    """Euler's phi(0..n): phi(m) = m prod (1 - 1/r) over the primes r dividing m."""
    phi = np.arange(n + 1)
    for r in range(2, n + 1):
        if phi[r] == r:  # no smaller prime divides r
            phi[r::r] -= phi[r::r] // r
    return phi


def butterfly(kind, kappa: float, lam: float, q_max: int, grid_n: int) -> ButterflyDataset:
    """Mother spectra over all Farey rationals with q <= q_max.

    Each alpha = p/q gets an n x n grid with n = max(1, round(grid_n / q)),
    keeping the total point budget roughly flat across denominators.  The
    sweeps of one q share that grid and are solved as one batch (_spectra).
    h, uh and ukh have the same sampled set at p/q and (q - p)/q (the
    spectra module docstring derives it), so only p <= q/2 is solved and its
    points stand for q - p too; uordkr's nodes move with alpha, and each of
    its alphas is solved.
    """
    sweeps = _butterfly_sweeps(kind, kappa, lam, q_max, grid_n)
    fold = OperatorKind(kind) is not OperatorKind.UORDKR
    by_q: dict[int, tuple] = {}  # q: (its grid, its sweeps' params)
    for pa, grid in sweeps:
        by_q.setdefault(pa.alpha.q, (grid, []))[1].append(pa)
    ps, qs, vals = [], [], []
    for q, (grid, batch) in sorted(by_q.items()):
        batch.sort(key=lambda pa: pa.alpha.p)
        solved = [pa for pa in batch if not fold or 2 * pa.alpha.p <= q]
        points = {pa.alpha.p: s.points if s.kind is SpectrumKind.REAL_LINE else eigenphases(s)
                  for pa, s in zip(solved, _spectra(solved, grid))}
        for p in (pa.alpha.p for pa in batch):
            ps.append(p)
            qs.append(q)
            vals.append(points[min(p, q - p) if fold else p])
    # Rows by q, then p, each alpha's values ascending: the table's sorted order.
    sizes = [v.size for v in vals]
    p = np.repeat(np.array(ps, dtype=np.int64), sizes)
    q = np.repeat(np.array(qs, dtype=np.int64), sizes)
    v = np.concatenate([np.empty(0), *vals])
    for arr in (p, q, v):
        arr.setflags(write=False)
    # kind, kappa and lambda as the sweeps' OperatorParams record them.
    pa = OperatorParams(kind, kappa, lam, RationalAlpha(0, 1), MOTHER)
    return ButterflyDataset(kind=pa.kind, kappa=pa.kappa, lam=pa.lam, q_max=int(q_max),
                            grid_n=int(grid_n), p=p, q=q, values=v)


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
    try:
        center, factors = _PARSE["center"](center), _PARSE["factors"](factors)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParams(str(exc)) from exc
    windows = [ZoomWindow(lo=-np.pi, hi=np.pi, points=eps)]
    width = TWO_PI
    for f in factors:
        width /= f
        lo, hi = center - width / 2.0, center + width / 2.0
        inside = eps[(eps >= lo) & (eps <= hi)]
        windows.append(ZoomWindow(lo=lo, hi=hi, points=inside))
    return windows


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


def _spectra(batch: list[OperatorParams], grid: GridSpec) -> list[SpectrumSet]:
    """Each request's sweep spectrum, in order, from one kernel batch
    (spectra._sweep_values): the requests share one q and one route."""
    return [_spectrum(pa, grid, values) for pa, values in zip(batch, _sweep_values(batch, grid))]


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
    thetas = [float(rng.uniform()) for _ in range(cfg["trials"])]
    # Every trial's two spectra from one batch: sigma(theta), sigma(theta + 1/q) in turn.
    s = _spectra([_at(cfg, th + d) for th in thetas for d in (0.0, 1.0 / cfg["alpha"].q)], grid)
    worst = max(hausdorff(s1, s2) for s1, s2 in zip(s[::2], s[1::2]))
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
    pairs = [tuple(float(v) for v in rng.uniform(size=2)) for _ in range(cfg["trials"])]
    s = _spectra([_at(cfg, t) for pair in pairs for t in pair], grid)
    worst = max(hausdorff(s1, s2) - lip * abs(math.sin(math.pi * (t1 - t2)))
                for (t1, t2), s1, s2 in zip(pairs, s[::2], s[1::2]))
    return (worst, _theta_continuity_bound(cfg),
            "max over random theta pairs of d_H minus the sine modulus bound")


def _theta_continuity_bound(cfg) -> float:
    return 2.0 * grid_error_bound(_at(cfg, 0.0), GridSpec(cfg["n"]))


def _check_mother_equality(cfg):
    alpha, n = cfg["alpha"], cfg["n"]
    # One batch, each kind's nodes built by its own builder.
    s_kh, s_or = _spectra([OperatorParams(kind, cfg["kappa"], cfg["lambda"], alpha, MOTHER)
                           for kind in (OperatorKind.UKH, OperatorKind.UORDKR)], GridSpec(n, n))
    bound = s_kh.error_bound + s_or.error_bound
    # The rotor's theta kick sits at beta = x + theta + alpha/2 + phi, an
    # offset of shift/(2q).  When that is a whole number of theta steps
    # 1/(n q), both sweeps visit equivalent matrices node for node.
    if n * dcp_eigensystem(alpha).shift % 2 == 0:
        bound = min(bound, _MATCHED_GRID_TOL)
    return (hausdorff(s_kh, s_or), bound,
            "kicked Harper vs double kicked rotor mother spectra share a true spectrum")


def _check_spectral_mapping(cfg):
    n, theta = cfg["n"], cfg["theta"]
    params = OperatorParams(OperatorKind.UH, cfg["kappa"], cfg["lambda"], cfg["alpha"], theta)
    grid = GridSpec(n, n) if params.is_mother else GridSpec(n)
    # The sweep maps the eigenvalues of the real Jacobi form of the Harper
    # matrices through exp(-i kappa t); the independent route assembles
    # exp(-i kappa H) from the circulant H and runs the general solver, not
    # the Cayley route of the kicked sweeps.  The two routes solve different
    # matrices with the same eigenvalues at each node, so only roundoff
    # separates them.  The general route holds more q x q arrays, so it runs
    # first and refuses before any solve.
    values = _sweep_values(params, grid, "general")
    direct = SpectrumSet.build(SpectrumKind.UNIT_CIRCLE, values / np.abs(values))
    s_uh = SpectrumSet.build(SpectrumKind.UNIT_CIRCLE, _sweep_values(params, grid))
    return (hausdorff(s_uh, direct), _MATCHED_GRID_TOL,
            "exponential image of the Harper spectrum matches the general eigensolve "
            "of the unitary Harper matrices")


def _check_aubry_andre(cfg):
    alpha, lam, n = cfg["alpha"], cfg["lambda"], cfg["n"]
    # For |lambda| > 1 the sweep's Jacobi matrices are built in the Fourier
    # frame, by this very identity, so sigma(lam) is taken from the general
    # solve of the circulant H instead.  Its route holds more q x q arrays, so
    # it runs first and refuses before any solve.
    harper = OperatorParams(OperatorKind.H, 0.0, lam, alpha, MOTHER)
    s1 = SpectrumSet.build(SpectrumKind.REAL_LINE,
                           _sweep_values(harper, GridSpec(n, n), "general").real)
    s2 = _mother(OperatorKind.H, 0.0, 1.0 / lam, alpha, n)
    scaled = SpectrumSet.build(SpectrumKind.REAL_LINE, lam * s2.points)
    return (hausdorff(s1, scaled), 1e-9,
            "coupling inversion: sigma(lam) equals lam * sigma(1/lam) on a square grid")


def _check_band_count(cfg):
    q = cfg["alpha"].q
    s = _mother(OperatorKind.H, 0.0, cfg["lambda"], cfg["alpha"], cfg["n"])
    gap = auto_merge_gap(s, cfg["merge_gap"])
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
    w = _sweep_values(harper, grid)
    ks = sorted({k for base in kappas for k in (base, 2.0 * base)})
    ukh = _spectra([OperatorParams(OperatorKind.UKH, k, cfg["lambda"], cfg["alpha"], MOTHER)
                    for k in ks], grid)
    for k, s_kh in zip(ks, ukh):
        s_uh = SpectrumSet.build(SpectrumKind.UNIT_CIRCLE, np.exp(-1j * k * w))
        dist[k] = hausdorff(s_kh, s_uh)
    ratios = [dist[2.0 * k] / dist[k] for k in kappas]
    # Cubic leading order means doubling kappa multiplies the distance by
    # about 8; [4, 16] is |log2 ratio - 3| <= 1.
    return (max(abs(math.log2(r) - 3.0) for r in ratios), 1.0,
            "ratios D(2k)/D(k) = " + ", ".join(f"{r:.3f}" for r in ratios))


def _check_last_measure_trend(cfg):
    alphas, lams, grid = cfg["alphas"], cfg["lambdas"], GridSpec(cfg["n"], cfg["n"])
    widths = {}
    for alpha in alphas:  # each alpha's couplings in one batch
        batch = [OperatorParams(OperatorKind.H, 0.0, lam, alpha, MOTHER) for lam in lams]
        for lam, pa, values in zip(lams, batch, _sweep_values(batch, grid)):
            widths[(alpha, lam)] = total_bandwidth(_tracked(pa, values))
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


def _merge_gap(v):
    if v != "auto" and not float(v) > 0:  # nan is not > 0
        raise ValueError("expected auto or a number > 0")
    return v if v == "auto" else float(v)


def _center(v) -> float:
    if not -np.pi < float(v) <= np.pi:  # nor is nan
        raise ValueError(f"center must lie in (-pi, pi], got {float(v)}")
    return float(v)


def _factors(v) -> list[float]:
    factors = [float(f) for f in v]
    if not all(f > 1.0 for f in factors):  # nan is not > 1
        raise ValueError(f"zoom factors must all be > 1, got {factors}")
    return factors


def _alpha_list(v):
    """farey:qmax, or fib:a..b for the a-th to b-th golden convergents; never empty.

    The alphas are made as they are drawn, so that a caller can refuse an
    oversized one before the rest of the list is made.
    """
    kind, _, arg = str(v).partition(":")
    if kind == "farey" and int(arg) >= 2:  # farey:1 names no alpha
        return farey_rationals(int(arg))
    if kind == "fib":
        a, _, b = arg.partition("..")
        if 1 <= int(a) <= int(b):
            return itertools.islice(golden_convergents(int(b)), int(a) - 1, None)
    raise ValueError("expected fib:a..b with 1 <= a <= b, or farey:qmax with qmax >= 2")


def _lambdas(v) -> list[float]:
    lams = _nonempty(float)(v)
    if 1.0 not in lams or set(lams) == {1.0}:
        raise ValueError("expected the critical coupling 1.0 and at least one other value")
    return lams


# One parser per config key, shared by every check that reads the key and
# by the command line, whose alpha lists and zoom window rules live here too.
# A value a parser cannot use raises TypeError, ValueError or OverflowError,
# which run_check reports as InvalidParams (RationalAlpha.parse raises its
# own usage errors).
_PARSE = {
    "kind": OperatorKind, "alpha": _alpha, "alpha1": _alpha, "alpha2": _alpha,
    "kappa": float, "lambda": float, "theta": lambda v: MOTHER if v == MOTHER else float(v),
    "n": _at_least(1), "trials": _at_least(1), "seed": _at_least(0),
    "merge_gap": _merge_gap,
    "kappas": _nonempty(float), "alphas": _nonempty(_alpha), "lambdas": _lambdas,
    "center": _center, "factors": _factors, "alpha_list": _alpha_list,
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
        raise InvalidParams(f"unknown check {check_id!r}; known: {', '.join(CHECK_IDS)}")
    return cid


def check_keys(check_id: str) -> frozenset[str]:
    """The config keys the named check reads."""
    return frozenset(_CHECKS[_canonical(check_id)][1])


def check_config(check_id: str, cfg: dict) -> dict:
    """The check's defaults overlaid with cfg, each value parsed by its key's parser.

    Raises InvalidParams for a key the check does not read, a value its
    parser rejects, or a config on which the check measures nothing.
    """
    cid = _canonical(check_id)
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
    if cid == "AUBRY_ANDRE" and parsed["lambda"] in (0.0, 1.0):
        raise InvalidParams("AUBRY_ANDRE requires lambda != 0 and lambda != 1: at lambda = 1 "
                            "both sweeps are sigma(1)")
    if cid == "KAPPA_CUBED" and (parsed["lambda"] == 0.0 or parsed["alpha"].q < 2):
        raise InvalidParams("KAPPA_CUBED requires lambda != 0 and q >= 2: at lambda = 0, or on "
                            "the 1 x 1 matrices of q = 1, the two kicks commute, so ukh and uh "
                            "are one operator")
    if cid == "KAPPA_CUBED" and 0.0 in parsed["kappas"]:
        raise InvalidParams("KAPPA_CUBED requires kappas != 0: at kappa = 0 both spectra "
                            "are the point 1")
    if cid == "THETA_CONTINUITY":
        # The farthest two spectra can be apart: the chord 2 on the circle, and
        # 4 + 4 |lambda| on the line, since ||H|| <= 2 + 2 |lambda|.
        reach = (2.0 if SpectrumKind.of(parsed["kind"]) is SpectrumKind.UNIT_CIRCLE
                 else 4.0 + 4.0 * abs(parsed["lambda"]))
        bound = _theta_continuity_bound(parsed)
        if bound >= reach:
            raise InvalidParams(f"THETA_CONTINUITY requires a grid whose bound is below {reach:g}, "
                                f"the farthest its spectra can be apart: got {bound:.4g} at "
                                f"n = {parsed['n']}")
    if cid == "LAST_MEASURE_TREND" and parsed["n"] < 2:
        raise InvalidParams("LAST_MEASURE_TREND requires n >= 2: on a one-node grid "
                            "every band has zero width")
    return parsed


def run_check(check_id: str, cfg: dict | None = None) -> CheckReport:
    """Run one named check; deterministic for fixed cfg.

    Keys left out take the check's defaults.  A key the check does not
    read, or a value its parser rejects, raises InvalidParams.  The report
    carries the full parsed config, so run_check(check_id, report.params)
    repeats the run.
    """
    cid = _canonical(check_id)
    parsed = check_config(cid, cfg or {})
    measured, bound, notes = _CHECKS[cid][0](parsed)
    return CheckReport(cid, {k: _plain(v) for k, v in parsed.items()}, measured, bound,
                       passed=bool(measured <= bound), notes=notes)
