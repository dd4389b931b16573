"""Grid sweeps over Bloch phases, certified error bounds, and band merging.

The spectrum of each operator at alpha = p/q is the union of the q
eigenvalues of its matrix over x in [0, 1/q) (fixed theta) or over
(x, theta) in [0, 1/q)^2 (mother scope).  Sampling that union on a uniform
grid anchored at 0 gives an estimate whose Hausdorff distance to the true
spectrum is bounded by an explicit Lipschitz constant divided by N q; the
bound is stored on the result so downstream merging and comparisons can be
certified.

The spectrum is 1/q-periodic on both axes, so on a grid anchored at 0 node
j mirrors node (n - j) mod n.  The sweep solves one node per mirror orbit:
h, uh and ukh have the same eigenvalues at (x, theta), (-x, theta) and
(x, -theta), uordkr only at (x, theta) and (-x, -theta).  The solved
nodes carry the same eigenvalues as the full grid in exact arithmetic, so
the sampled set, and with it the grid error bound, is unchanged.  The
nodes are evaluated as one batched eigensolver call per chunk; results are
pooled, sorted and deduplicated, so the outcome is a deterministic
function of (params, grid).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import EmptySpectrum, InvalidParams, NumericalError, WrongKind
from .linalg import (
    DEDUP_TOL,
    UNIT_MODULUS_TOL,
    eigvalsh_stack,
    principal_args,
    unitary_eigvals_stack,
)
from .operators import MOTHER, OperatorKind, OperatorParams, operator_stack

__all__ = [
    "SpectrumKind",
    "GridSpec",
    "SpectrumSet",
    "BandList",
    "grid_error_bound",
    "spectrum_fixed_theta",
    "mother_spectrum",
    "eigenphases",
    "merge_bands",
    "tracked_bands",
    "auto_merge_gap",
]

TWO_PI = 2.0 * np.pi

# Complex entries per chunk, the one bound on how many matrices a sweep
# builds and solves at once.  A chunk row holds up to 7 q x q temporaries
# (_sweep_bytes), so at q = 233 a chunk of four or more would set the peak RSS.
_CHUNK_COMPLEX = 1 << 16

# Tracked band ranges this close are unioned; absorbs roundoff where true
# bands touch (even-q Harper).
_CLOSURE = 1e-12


class SpectrumKind(str, Enum):
    REAL_LINE = "real_line"
    UNIT_CIRCLE = "unit_circle"


@dataclass(frozen=True)
class GridSpec:
    """Uniform sampling grid: x_j = j/(n_x q), theta_k = k/(n_theta q).

    Both axes are anchored at 0 and span [0, 1/q); n_theta is ignored for
    fixed-theta sweeps.  A sweep solves one node per mirror orbit of the
    grid, where node j mirrors node (n - j) mod n (see _grid_pairs).
    """

    n_x: int
    n_theta: int = 1

    def __post_init__(self) -> None:
        if not (isinstance(self.n_x, int) and self.n_x >= 1):
            raise InvalidParams(f"n_x must be an integer >= 1, got {self.n_x!r}")
        if not (isinstance(self.n_theta, int) and self.n_theta >= 1):
            raise InvalidParams(f"n_theta must be an integer >= 1, got {self.n_theta!r}")

    def xs(self, q: int) -> np.ndarray:
        return np.arange(self.n_x, dtype=np.float64) / (self.n_x * q)

    def thetas(self, q: int) -> np.ndarray:
        return np.arange(self.n_theta, dtype=np.float64) / (self.n_theta * q)


@dataclass(frozen=True, eq=False)
class SpectrumSet:
    """Finite sample of a spectrum with provenance and a certified bound.

    ``points`` is sorted and deduplicated: ascending reals on the line,
    unit-modulus complex values sorted by principal argument on the circle.
    ``error_bound`` is a certified Hausdorff distance to the true spectrum
    (0 for synthetic sets).
    """

    kind: SpectrumKind
    points: np.ndarray
    params: OperatorParams | None = None
    grid: GridSpec | None = None
    error_bound: float = 0.0

    @classmethod
    def build(
        cls,
        kind: SpectrumKind,
        values,
        params: OperatorParams | None = None,
        grid: GridSpec | None = None,
        error_bound: float = 0.0,
    ) -> "SpectrumSet":
        kind = SpectrumKind(kind)
        if error_bound < 0:
            raise InvalidParams(f"error_bound must be >= 0, got {error_bound}")
        if kind is SpectrumKind.REAL_LINE:
            pts = np.sort(np.asarray(values, dtype=np.float64).ravel())
            if pts.size and not np.all(np.isfinite(pts)):
                raise InvalidParams("spectrum points must be finite")
            if pts.size:
                keep = np.concatenate(([True], np.diff(pts) > DEDUP_TOL))
                pts = pts[keep]
        else:
            pts = np.asarray(values, dtype=np.complex128).ravel()
            if pts.size and not np.all(np.isfinite(pts.view(np.float64))):
                raise InvalidParams("spectrum points must be finite")
            if pts.size and np.abs(np.abs(pts) - 1.0).max() > UNIT_MODULUS_TOL:
                raise InvalidParams("unit-circle spectrum points must have modulus 1")
            order = np.lexsort((pts.imag, principal_args(pts)))
            pts = pts[order]
            if pts.size > 1:
                keep = np.concatenate(([True], np.abs(np.diff(pts)) > DEDUP_TOL))
                pts = pts[keep]
                if pts.size > 1 and abs(pts[0] - pts[-1]) <= DEDUP_TOL:
                    pts = pts[:-1]
        pts.setflags(write=False)
        return cls(kind=kind, points=pts, params=params, grid=grid, error_bound=float(error_bound))

    def __len__(self) -> int:
        return int(self.points.size)


@dataclass(frozen=True)
class BandList:
    """Disjoint closed intervals (line) or arcs (circle, eigenphase coords).

    A circle band (lo, hi) with hi < lo wraps through +pi; the full circle
    is the single band (-pi, pi) of length 2 pi.  Bands are sorted by lo.
    """

    kind: SpectrumKind
    bands: tuple[tuple[float, float], ...]

    def lengths(self) -> np.ndarray:
        if self.kind is SpectrumKind.REAL_LINE:
            return np.array([hi - lo for lo, hi in self.bands])
        return np.array([(hi - lo) % TWO_PI if (lo, hi) != (-np.pi, np.pi) else TWO_PI
                         for lo, hi in self.bands])

    def __len__(self) -> int:
        return len(self.bands)


# -- certified bounds ---------------------------------------------------------

def grid_error_bound(params: OperatorParams, grid: GridSpec) -> float:
    """Certified Hausdorff distance between the sampled and the true spectrum.

    Derived from the operator-norm Lipschitz constants of the matrix in x
    and theta (2 pi per unit phase per cosine factor), the spectral
    continuity of normal matrices, and the 1/q periodicity of the spectrum
    along each axis, which keeps every true phase within half a grid step
    of a sample.  For the double kicked rotor the theta axis is matched
    through the sheared phase beta = x + theta + alpha/2 + phi, so x and
    theta contribute independently in the mother scope while a fixed-theta
    sweep pays for x entering both kicks.
    """
    q = params.alpha.q
    kap, lam = abs(params.kappa), abs(params.lam)
    kind = params.kind
    if kind is OperatorKind.H:
        per_x = TWO_PI / (q * grid.n_x)
        per_t = TWO_PI * lam / (q * grid.n_theta)
    elif kind in (OperatorKind.UH, OperatorKind.UKH):
        per_x = TWO_PI * kap / (q * grid.n_x)
        per_t = TWO_PI * kap * lam / (q * grid.n_theta)
    else:
        if params.is_mother:
            per_x = TWO_PI * kap / (q * grid.n_x)
        else:
            per_x = TWO_PI * kap * (1.0 + lam) / (q * grid.n_x)
        per_t = TWO_PI * kap * lam / (q * grid.n_theta)
    return per_x + (per_t if params.is_mother else 0.0)


# -- the sweep kernel ---------------------------------------------------------

def _chunk_rows(q: int) -> int:
    return max(1, _CHUNK_COMPLEX // q ** 2)


def _solve_chunks(params: OperatorParams, xv: np.ndarray, tv: np.ndarray, solve) -> np.ndarray:
    """solve(operator_stack(...)) over the pairs (xv, tv), one chunk at a time; shape (m, q)."""
    step = _chunk_rows(params.alpha.q)
    return np.concatenate([
        solve(operator_stack(params, xv[lo:lo + step], tv[lo:lo + step]))
        for lo in range(0, xv.size, step)
    ])


def _node_values(params: OperatorParams, xv: np.ndarray, tv: np.ndarray) -> np.ndarray:
    """Eigenvalues of the operator matrices at grid pairs (xv, tv), shape (m, q).

    uh eigenvalues are exp(-i kappa w) for the Harper eigenvalues w
    (spectral mapping), so uh sweeps run the Hermitian solver only.
    """
    if params.kind is OperatorKind.H:
        return _solve_chunks(params, xv, tv, eigvalsh_stack)
    if params.kind is OperatorKind.UH:
        w = _solve_chunks(replace(params, kind=OperatorKind.H), xv, tv, eigvalsh_stack)
        return np.exp(-1j * params.kappa * w)
    return _solve_chunks(params, xv, tv, unitary_eigvals_stack)


def _sweep_values(params: OperatorParams, xv: np.ndarray, tv: np.ndarray) -> np.ndarray:
    """Pooled eigenvalues of the operator matrices at grid pairs (xv, tv).

    On a solver failure the nodes are re-run one by one, so that the error
    names the first grid point that fails on its own.
    """
    try:
        return _node_values(params, xv, tv).ravel()
    except NumericalError as exc:
        for x, t in zip(xv, tv):
            try:
                _node_values(params, np.array([x]), np.array([t]))
            except NumericalError:
                raise NumericalError(
                    f"eigensolver failed at grid point x={float(x)!r}, theta={float(t)!r}: {exc}"
                ) from exc
        raise


def _sweep(params: OperatorParams, grid: GridSpec) -> SpectrumSet:
    values = _sweep_values(params, *_grid_pairs(params, grid))
    kind = SpectrumKind.REAL_LINE if params.kind is OperatorKind.H else SpectrumKind.UNIT_CIRCLE
    return SpectrumSet.build(
        kind, values, params=params, grid=grid, error_bound=grid_error_bound(params, grid)
    )


def _pair_count(params: OperatorParams, grid: GridSpec) -> int:
    """Number of grid nodes _grid_pairs returns: one per mirror orbit."""
    half_x, half_t = grid.n_x // 2 + 1, grid.n_theta // 2 + 1
    if not params.is_mother:
        return grid.n_x if params.kind is OperatorKind.UORDKR else half_x
    if params.kind is not OperatorKind.UORDKR:
        return half_x * half_t
    self_mirror = 2 - grid.n_x % 2  # x rows 0 and, for even n_x, n_x / 2
    return self_mirror * half_t + (half_x - self_mirror) * grid.n_theta


def _sweep_bytes(params: OperatorParams, grid: GridSpec) -> int:
    """Bytes a sweep holds at its peak, from its (x, theta) pair count m.

    Per pair, two float64 phases and q eigenvalues, held up to five times
    over as complex128 while pooled and sorted (measured: up to 72 B each).  Per
    chunk row, the q x q complex arrays of the solve: the stack and the
    solver's copy on the Hermitian route; on the Cayley route also I, I + U,
    its inverse and the inverse's two solver buffers (measured: up to 8, E
    included).  Per chunk, the int64 circulant index and the rotor's q x q E.
    """
    m, q = _pair_count(params, grid), params.alpha.q
    arrays = 2 if params.kind in (OperatorKind.H, OperatorKind.UH) else 7
    return m * (2 * 8 + 5 * 16 * q) + (16 * arrays * min(m, _chunk_rows(q)) + 8 + 16) * q * q


def _preflight(params: OperatorParams, grid: GridSpec) -> None:
    """Refuse a sweep whose arrays would exceed the machine's physical memory."""
    need = _sweep_bytes(params, grid)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise InvalidParams(
            f"grid {grid.n_x}x{grid.n_theta} at q = {params.alpha.q} needs about "
            f"{need / 2**30:.3g} GiB, more than the {have / 2**30:.3g} GiB of physical memory"
        )


def _grid_pairs(params: OperatorParams, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """One (x, theta) node per mirror orbit of the grid, as flat arrays.

    h, uh and ukh keep x and theta nodes 0..n // 2 (x only at fixed
    theta).  uordkr keeps, of each joint mirror pair (j, k) and
    (-j mod n_x, -k mod n_theta), the node with the lower flat index
    j n_theta + k, and its whole fixed-theta axis.  The preflight runs
    before any array is built.
    """
    _preflight(params, grid)
    q, half_x = params.alpha.q, grid.n_x // 2 + 1
    if not params.is_mother:
        xs = grid.xs(q) if params.kind is OperatorKind.UORDKR else grid.xs(q)[:half_x]
        return xs, np.full(xs.size, params.fixed_theta(), dtype=np.float64)
    xs, ts = grid.xs(q)[:half_x], grid.thetas(q)
    half_t = grid.n_theta // 2 + 1
    if params.kind is not OperatorKind.UORDKR:
        return np.repeat(xs, half_t), np.tile(ts[:half_t], half_x)
    # Row j < n_x - j outranks its mirror row; a self-mirror row keeps k <= n_theta / 2.
    width = np.where(2 * np.arange(half_x) % grid.n_x == 0, half_t, grid.n_theta)
    xv = np.repeat(xs, width)
    return xv, ts[np.arange(xv.size) - np.repeat(np.cumsum(width) - width, width)]


def spectrum_fixed_theta(params: OperatorParams, grid: GridSpec) -> SpectrumSet:
    """Union of eigenvalues over the x grid at the fixed theta in params."""
    params.fixed_theta()
    return _sweep(params, grid)


def mother_spectrum(params: OperatorParams, grid: GridSpec) -> SpectrumSet:
    """Union of eigenvalues over the (x, theta) grid on [0, 1/q)^2."""
    if not params.is_mother:
        raise InvalidParams(f"mother_spectrum requires theta = {MOTHER!r}")
    return _sweep(params, grid)


# -- eigenphases and bands ----------------------------------------------------

def tracked_bands(params: OperatorParams, grid: GridSpec) -> BandList:
    """Band intervals from per-grid-point sorted eigenvalues.

    The j-th sorted eigenvalue over the grid traces the j-th spectral band,
    so its sampled range estimates that band's edges; interior extrema of a
    smooth branch are resolved to second order in the grid step, which makes
    this far sharper at coarse grids than merging the pooled point cloud.
    Overlapping ranges are unioned.  Circle spectra are first rotated so the
    largest pooled gap straddles the seam, keeping every tracked position on
    one side of it; the q disjoint-arc structure at rational alpha is what
    makes position tracking legitimate.
    """
    values = _sweep_values(params, *_grid_pairs(params, grid)).reshape(-1, params.alpha.q)

    if params.kind is OperatorKind.H:
        bands = _line_runs(values.min(axis=0), values.max(axis=0), _CLOSURE)
        return BandList(SpectrumKind.REAL_LINE, bands)

    ph = np.sort(principal_args(values), axis=1)
    pooled = np.sort(ph.ravel())
    gaps = np.diff(pooled)
    wrap_gap = pooled[0] + TWO_PI - pooled[-1]
    delta = 0.0
    # Gaps level within _CLOSURE are ties: the wrap gap wins, then the lowest
    # one, so the seam does not hinge on which node of a mirror orbit was solved.
    if gaps.size and gaps.max() > wrap_gap + _CLOSURE:
        i = int(np.flatnonzero(gaps >= gaps.max() - _CLOSURE)[0])
        delta = np.pi - (pooled[i] + gaps[i] / 2.0)
        ph = np.sort((ph + delta + np.pi) % TWO_PI - np.pi, axis=1)
    merged = _line_runs(ph.min(axis=0), ph.max(axis=0), _CLOSURE)
    if len(merged) == 1 and merged[0][1] - merged[0][0] >= TWO_PI - 1e-12:
        return BandList(SpectrumKind.UNIT_CIRCLE, ((-np.pi, np.pi),))

    def unrotate(t: float) -> float:
        w = (t - delta + np.pi) % TWO_PI - np.pi
        return np.pi if w == -np.pi else float(w)

    bands = tuple(sorted((unrotate(a), unrotate(b)) for a, b in merged))
    return BandList(SpectrumKind.UNIT_CIRCLE, bands)


def _line_runs(lo, hi, gap: float) -> tuple[tuple[float, float], ...]:
    """Union of the intervals [lo_i, hi_i] across gaps <= gap, sorted by lo."""
    order = np.argsort(lo, kind="stable")
    lo, hi = np.asarray(lo, dtype=np.float64)[order], np.asarray(hi, dtype=np.float64)[order]
    reach = np.maximum.accumulate(hi)
    cut = np.flatnonzero(lo[1:] - reach[:-1] > gap)
    starts = np.concatenate(([0], cut + 1))
    ends = np.concatenate((cut, [lo.size - 1]))
    return tuple((float(lo[a]), float(reach[b])) for a, b in zip(starts, ends))


def _circle_runs(ph: np.ndarray, gap: float) -> tuple[tuple[float, float], ...]:
    """Union of the ascending eigenphases ph across circular gaps <= gap, sorted by lo.

    A run with hi < lo wraps through +pi (only the last one can).  If
    every gap closes, the result is the full circle (-pi, pi).
    """
    gaps = np.append(ph[1:], ph[0] + TWO_PI) - ph
    breaks = np.flatnonzero(gaps > gap)
    if breaks.size == 0:
        return ((-np.pi, np.pi),)
    starts = (np.roll(breaks, 1) + 1) % ph.size
    return tuple(sorted((float(ph[a]), float(ph[b])) for a, b in zip(starts, breaks)))


def eigenphases(s: SpectrumSet) -> np.ndarray:
    """Principal arguments in (-pi, pi] of a unit-circle spectrum, ascending."""
    if s.kind is not SpectrumKind.UNIT_CIRCLE:
        raise WrongKind("eigenphases requires a UNIT_CIRCLE spectrum")
    return principal_args(s.points)


def auto_merge_gap(s: SpectrumSet) -> float:
    """Default merge gap: 4x the certified bound (adjacent true points can
    each be displaced by error_bound; the extra factor 2 avoids spurious
    splits).  Falls back to the dedup scale when the bound is zero."""
    return max(4.0 * s.error_bound, DEDUP_TOL)


def merge_bands(s: SpectrumSet, merge_gap: float) -> BandList:
    """Merge consecutive points with gap <= merge_gap into closed bands.

    Circle spectra merge circularly in eigenphase distance; if every gap
    closes, the result is the single full-circle band of length 2 pi.
    Band endpoints are extreme member points.
    """
    if not merge_gap > 0:
        raise InvalidParams(f"merge_gap must be > 0, got {merge_gap}")
    if len(s) == 0:
        raise EmptySpectrum("cannot merge an empty spectrum")

    if s.kind is SpectrumKind.REAL_LINE:
        bands = _line_runs(s.points, s.points, merge_gap)
    else:
        bands = _circle_runs(eigenphases(s), merge_gap)
    return BandList(kind=s.kind, bands=bands)
