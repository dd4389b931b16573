"""Grid sweeps over Bloch phases, certified error bounds, and band merging.

The spectrum of each operator at alpha = p/q is the union of the q
eigenvalues of its matrix over x in [0, 1/q) (fixed theta) or over
(x, theta) in [0, 1/q)^2 (mother scope).  Sampling that union on a uniform
grid anchored at 0 gives an estimate whose Hausdorff distance to the true
spectrum is bounded by an explicit Lipschitz constant divided by N q; the
result carries its request, and so that bound, so downstream merging and
comparisons can be certified.

The spectrum is 1/q-periodic on both axes, so on a grid anchored at 0 node
j mirrors node (n - j) mod n.  The sweep solves one node per mirror orbit:
h, uh and ukh have the same eigenvalues at (x, theta), (-x, theta) and
(x, -theta).  uordkr at (x, theta) has the eigenvalues of ukh at (x, beta),
with beta = x + theta + alpha/2 + phi the phase of its theta kick, so it
has that group in the sheared phases (x, beta): on a square grid it folds
(x, beta) -> (-x, beta) and (x, -beta), on a rectangular one only the
joint (x, theta) -> (-x, -theta).  At lambda = 1 on a square grid, Aubry
duality adds the swap (x, theta) -> (theta, x) for h, uh and ukh: the
swapped Harper matrix is unitarily equivalent to the original, and the
swapped ukh matrix to its two kicks taken in the other order, which has
the same eigenvalues.  For uordkr it adds (x, beta) -> (beta, x) when beta,
too, falls on the x nodes, that is when s = n q (alpha/2 + phi) is an
integer.  At odd q the half-period shift folds the grid once more where it
moves even axes: (x, theta) -> (x + 1/2q, theta + 1/2q) negates the h
eigenvalues and conjugates the uh and ukh ones, and x -> x + 1/2q (in
(x, beta), both move) conjugates uordkr's, at any theta.  For h,
-H(x, theta, lambda) is H(x + 1/2, theta, -lambda), and the gauge (-1)^j
on the odd ring turns -lambda back into lambda at theta + 1/(2q);
x + 1/2 is x + 1/(2q) modulo 1/q.  In Chambers' terms the shift sends
cos 2 pi q x + lambda^q cos 2 pi q theta to its negative, and at odd q the
Harper discriminant is odd in E.  The sweep solves one node per orbit and
appends the image of its rows; _orbits is the one rule that decides,
counts and lists them.  The solved nodes and their images carry the same
eigenvalues as the full grid in exact arithmetic, so the sampled set, and
with it the grid error bound, is unchanged.  The nodes are evaluated as
one batched eigensolver call per chunk; results are pooled, sorted and
deduplicated, so the outcome is a deterministic function of (params,
grid).  The h and uh sweeps solve, at each node, the real Jacobi matrix
with the Harper eigenvalues (operators.harper_jacobi_stack), not the
complex circulant one.  A node that the joint reflection fixes, a corner
where its half steps 2 q x and 2 q theta (which _orbits lists with it)
are integers, is not folded but split: at q >= _SPLIT_FLOOR, on all but
the general route, the sweep builds the two blocks of about q/2 of its
parity symmetry, never the q x q matrix (operators._corner_blocks), and
its row is their values side by side.  The kicked corners' blocks, and
every node of a fixed-theta ukh sweep at an integer 2 q theta, are on the
time-reversal line: the solver takes their gauge (operators._reversal_gauge)
and solves a real Cayley matrix.  Every other chunk is solved complex.
Requests that share one q and one route are swept as one batch (a
check's spectra at several theta, kappa or lambda, or of both kicked
kinds; a butterfly's numerators of one q): their nodes share chunks, and
each request keeps its own fold, image, uh mapping, line and corners.

The alphas p/q and (q - p)/q share a sampled set for h, uh and ukh: the
theta term's diagonal G(q - p, theta) = diag cos 2 pi (theta - p j / q) is
G(p, -theta), and the x term does not read p, so their matrices at
(q - p)/q and (x, theta) are those at p/q and (x, -theta) (u -> u* in the
rotation algebra), which the mirror above maps onto the grid with the same
eigenvalues; analysis.butterfly solves p <= q/2 only.  uordkr's kick phase
beta moves with alpha, so its two sampled sets differ.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import deque
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import InvalidParams, NumericalError
from .linalg import (
    DEDUP_TOL,
    UNIT_MODULUS_TOL,
    _general_eigvals,
    _one_blas_thread,
    eigvalsh_stack,
    principal_args,
    unitary_eigvals_stack,
)
from .operators import (
    MOTHER,
    OperatorKind,
    OperatorParams,
    _corner_blocks,
    _reversal_gauge,
    harper_jacobi_stack,
    operator_stack,
    rotor_shift,
)

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

# Complex entries per chunk, the bound on how many matrices a sweep builds
# and solves at once.  A chunk row holds up to 7 q x q temporaries
# (_sweep_bytes), so at q = 233 a chunk of four or more would set the peak RSS.
_CHUNK_COMPLEX = 1 << 16

# Eigenvalues a chunk holds at least.  numpy's eigvalsh and eigvals keep the
# GIL unless their stack's matrices times rows pass 500, and a call that keeps
# it cannot run beside another on the pool (_POOL_ROWS; BENCH_pool.json), so
# where _CHUNK_COMPLEX holds fewer (q = 115-125 and from 129), a chunk holds
# ceil(501 / q) matrices, up to 3 x 7 complex q x q arrays at q = 233.
_CHUNK_EIGENVALUES = 501

# Smallest q at which a sweep solves its corners (both half steps integers,
# _orbits) as the parity blocks of operators._corner_blocks.  Whole sweeps of
# all four kinds (BENCH_splitfloor.json): corners alone gain from q = 48-55
# (a fixed-theta ukh line from 89), but below 89 the solver calls that a
# corner among other nodes adds cost up to 24% more than its blocks save;
# from q = 89 no case is more than 5%, one measurement's noise, slower.
_SPLIT_FLOOR = 89


def _splits(q: int, route: str) -> bool:
    """Whether a sweep at q on route splits its corners: read by _sweep_values and _sweep_bytes."""
    return route != "general" and q >= _SPLIT_FLOOR


class SpectrumKind(str, Enum):
    REAL_LINE = "real_line"
    UNIT_CIRCLE = "unit_circle"

    @classmethod
    def of(cls, kind: OperatorKind | str) -> "SpectrumKind":
        """Where a kind's spectrum lies: h's on the real line, the others' on the unit circle."""
        return cls.REAL_LINE if OperatorKind(kind) is OperatorKind.H else cls.UNIT_CIRCLE


@dataclass(frozen=True)
class GridSpec:
    """Uniform sampling grid: x_j = j/(n_x q), theta_k = k/(n_theta q).

    Both axes are anchored at 0 and span [0, 1/q); n_theta is ignored for
    fixed-theta sweeps.  A sweep solves one node per orbit of the maps that
    fold the grid: the module docstring derives them, and _orbits applies them.
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
    ``error_bound`` is a certified Hausdorff distance to the true spectrum:
    the grid's bound for a sweep's set, which has params and a grid, else 0.
    """

    kind: SpectrumKind
    points: np.ndarray
    params: OperatorParams | None = None
    grid: GridSpec | None = None

    @property
    def error_bound(self) -> float:
        if self.params is None or self.grid is None:
            return 0.0
        return grid_error_bound(self.params, self.grid)

    @classmethod
    def build(cls, kind: SpectrumKind, values, params: OperatorParams | None = None,
              grid: GridSpec | None = None) -> "SpectrumSet":
        kind = SpectrumKind(kind)
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
        return cls(kind=kind, points=pts, params=params, grid=grid)

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
    scale = 1.0 if params.kind is OperatorKind.H else kap
    fixed_rotor = params.kind is OperatorKind.UORDKR and not params.is_mother
    per_x = TWO_PI * scale * (1.0 + lam if fixed_rotor else 1.0) / (q * grid.n_x)
    per_t = TWO_PI * scale * lam / (q * grid.n_theta)
    return per_x + (per_t if params.is_mother else 0.0)


# -- the sweep kernel ---------------------------------------------------------

def _chunk_rows(q: int) -> int:
    return max(_CHUNK_COMPLEX // q ** 2, -(-_CHUNK_EIGENVALUES // q))


# The routes of a sweep.  A row names the builder of its chunks' matrices
# and their solver, both looked up as module globals when a sweep runs (so a
# rebound one, a tracer or a test double, runs and is sized as the one it
# stands in for), and the q x q complex arrays one chunk row holds while the
# route builds and solves it.  Every route builds and solves on one BLAS
# thread, and no route has a thread rule of its own (_POOL_ROWS).  The
# Hermitian route (h and uh sweeps) builds the real Jacobi matrices of the
# Harper problem and holds them and the solver's copy (two real arrays, the
# bytes of one complex one); the Cayley route (ukh and uordkr sweeps) builds
# the unitary matrices and also holds I, I + U, its inverse and the inverse's
# two solver buffers; the general route (SPECTRAL_MAPPING's eigvals of the uh
# matrices, AUBRY_ANDRE's of the circulant h matrices) the uh build's H, its
# eigenvectors and their products, and the solver's copy.  Measured at one whole node of q = 610,
# peak RSS growth less _sweep_bytes' other terms: 0.85, 6.3-6.5 and 5.5.
_ROUTES = {
    "hermitian": ("harper_jacobi_stack", "eigvalsh_stack", 1),
    "cayley": ("operator_stack", "unitary_eigvals_stack", 7),
    "general": ("operator_stack", "_general_eigvals", 6),
}

# Rows from which a sweep's solver calls run side by side, on a pool of one
# thread per usable core; smaller calls run one at a time, in plan order.
# Every call, pooled or not, runs on one BLAS thread (linalg._one_blas_thread).
# A whole sweep's wall time on a pool of two over serial, 2 cores
# (BENCH_pool.json): Cayley calls 0.45-0.78 at 144-501 rows and 0.50 at 610,
# Hermitian calls 0.57-0.78 at 144-501 rows and 0.50-0.72 at 610, but q = 233's
# 116- and 117-row corner blocks 0.99 and 1.13 (calls of a few small matrices,
# _CHUNK_EIGENVALUES).  128 rows is also where two BLAS threads had run a
# Cayley call 3-17% faster than one (BENCH_threads.json).
_POOL_ROWS = 128
_pool: ThreadPoolExecutor | None = None  # made by the first sweep that pools
_pool_lock = threading.Lock()


def _workers() -> int:
    """The pool's width: the cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _solver_pool() -> ThreadPoolExecutor | None:
    """The pool of side-by-side solver calls, made once; None on one core."""
    global _pool
    if _workers() < 2:
        return None
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_workers(), thread_name_prefix="kickspec-solve")
    return _pool


def _route(params: OperatorParams, route: str | None) -> str:
    """The named route, or by default the one the kind's own sweep runs."""
    kicked = params.kind in (OperatorKind.UKH, OperatorKind.UORDKR)
    return route or ("cayley" if kicked else "hermitian")


def _sweep_values(params: OperatorParams | Sequence[OperatorParams], grid: GridSpec,
                  route: str | None = None) -> np.ndarray | list[np.ndarray]:
    """Eigenvalues at the m solved nodes, then their m images where the half shift folds.

    The one sweep kernel.  ``params`` is one request, or a batch of requests
    that share one q and one route (a check's spectra at several theta,
    kappa or lambda, the two kicked kinds of a mother comparison, a Farey
    butterfly's numerators of one q), for which it returns one such array
    per request, in order.  It sizes the sweep for its route (``_ROUTES``)
    and lays the nodes of each request's _orbits end to end.  Their half
    steps (hx, ht) decide each node's part: on the time-reversal line, a
    fixed-theta ukh node on the Cayley route with ht >= 0, or a split corner,
    hx >= 0 and ht >= 0 where the sweep splits (_splits).  First
    it plans its solver calls, each a list of pieces (make, rows, cols):
    make(rows) builds the piece's matrices and gauge, or none, when its call
    runs, so the sweep holds the matrices of the calls that run.  The whole nodes
    come in chunks of _chunk_rows(q), a piece per run of one request's
    nodes, the ungauged before those on the line; then the split
    corners' parity blocks (operators._corner_blocks at (hx, ht), planned by
    their sizes), gauged on the Cayley route, those of one size chunked
    together.  Then one loop solves each call on one BLAS thread
    (linalg._one_blas_thread), those of _POOL_ROWS rows or more side by
    side on the pool where there are two or more, the others one at a
    time, into one (nodes, q) array; a
    corner's row is its blocks' values, the smaller first, ascending on the
    Hermitian route.  Each request's half-shift image, uh mapping (its Harper
    eigenvalues w map to exp(-i kappa w)), line and corners are its own.  If
    a call fails, its pieces run again one node i at a time, make([i]), and
    the error names the alpha and grid point of the first that fails alone:
    of the first failing call in plan order, however the pool ran them.
    A batch is not checked for a shared q and route.
    """
    batch = _requests(params)
    q, route = batch[0].alpha.q, _route(batch[0], route)
    _preflight(batch, grid, route)
    build, solve = (globals()[name] for name in _ROUTES[route][:2])
    mapped = [pa.kind is OperatorKind.UH and route == "hermitian" for pa in batch]
    built = [replace(pa, kind=OperatorKind.H) if uh else pa for pa, uh in zip(batch, mapped)]
    orbits = [_orbits(pa, grid) for pa in batch]
    counts = [m for m, _, _ in orbits]
    xv, tv, hx, ht = (np.concatenate(axis) for axis in zip(*(nodes() for _, _, nodes in orbits)))
    owner = np.repeat(np.arange(len(batch)), counts)  # the request of each node
    starts = list(itertools.accumulate(counts, initial=0))
    # Each node's part of the plan: a whole node off (0) or on (1) the time-reversal line, as a
    # fixed-theta ukh node is at an integer 2 q theta, or a split corner (2), where 2 q x is too.
    fixed_ukh = np.array([pa.kind is OperatorKind.UKH and not pa.is_mother for pa in batch])
    part_of = (fixed_ukh[owner] & (ht >= 0) & (route == "cayley")).astype(int)
    part_of[(hx >= 0) & (ht >= 0) & _splits(q, route)] = 2
    values = np.empty((xv.size, q), np.float64 if route == "hermitian" else np.complex128)

    def whole(run) -> tuple:
        r = owner[run[0]]  # one request's run of nodes, built by its params
        stack = build(built[r], xv[run], tv[run])
        return stack, _reversal_gauge(batch[r], xv[run], ht[run[0]]) if part_of[run[0]] else None

    def block(make: Callable) -> Callable:  # one corner's, whatever rows it is asked for
        return lambda _: tuple(a if a is None else a[None] for a in make())

    calls, step, blocks = [], _chunk_rows(q), []  # blocks: (size, piece)
    for rest in (np.flatnonzero(part_of == 0), np.flatnonzero(part_of == 1)):
        for chunk in (rest[lo:lo + step] for lo in range(0, rest.size, step)):
            runs = [chunk]  # one per request, each built by its own params: owner ascends
            if owner[chunk[0]] != owner[chunk[-1]]:
                runs = np.split(chunk, np.flatnonzero(np.diff(owner[chunk])) + 1)
            calls.append((q, [(whole, run, slice(None)) for run in runs]))
    corners = np.flatnonzero(part_of == 2)
    for i in corners:  # each corner's blocks, the smaller first
        sized = sorted(_corner_blocks(built[owner[i]], hx[i], ht[i]), key=lambda b: b[0])
        ends = itertools.accumulate(n for n, _ in sized)
        blocks += [(n, (block(make), [i], slice(e - n, e))) for (n, make), e in zip(sized, ends)]
    for size in sorted({size for size, _ in blocks}):
        same, step = [piece for n, piece in blocks if n == size], _chunk_rows(size)
        calls += [(size, same[lo:lo + step]) for lo in range(0, len(same), step)]

    def execute(call: list) -> None:
        stacks, gauges = zip(*(make(rows) for make, rows, _ in call))
        stack = stacks[0] if len(stacks) == 1 else np.concatenate(stacks)
        del stacks  # a call's pieces, before it is solved
        gauge = () if gauges[0] is None else (np.concatenate(gauges),)
        solved = solve(stack, *gauge)
        del stack  # and its stack, before the next call is built
        for _, rows, cols in call:
            values[rows, cols], solved = solved[:len(rows)], solved[len(rows):]

    def settle(call: list, outcome: Callable) -> None:
        try:
            outcome()
        except NumericalError as exc:
            for i in np.unique(np.concatenate([rows for _, rows, _ in call])):
                try:  # node i's pieces of the call: its run's node, or its blocks of one size
                    execute([(make, [i], cols) for make, rows, cols in call if i in rows])
                except NumericalError:
                    raise NumericalError(
                        f"eigensolver failed at alpha={batch[owner[i]].alpha}, grid point "
                        f"x={float(xv[i])!r}, theta={float(tv[i])!r}: {exc}"
                    ) from exc
            raise

    # A call of _POOL_ROWS rows or more goes to the pool as the loop meets it, where two or
    # more such calls can overlap; any other call first settles those, so the sweep holds
    # the pool's calls or one call of its own, and a failure is settled as the first
    # failing call in plan order, as in a serial run.
    pool = _solver_pool() if sum(size >= _POOL_ROWS for size, _ in calls) > 1 else None
    running = deque()  # (call, future) of the pooled calls not yet settled, in plan order

    def settle_running() -> None:
        while running:
            call, future = running.popleft()
            settle(call, future.result)

    with _one_blas_thread():
        try:
            for size, call in calls:
                if pool and size >= _POOL_ROWS:
                    running.append((call, pool.submit(execute, call)))
                else:
                    settle_running()
                    settle(call, lambda: execute(call))
            settle_running()
        finally:  # no call runs on after the sweep returns or raises; later failures are dropped
            for _, future in running:
                future.cancel()
            wait([future for _, future in running])
    if route == "hermitian" and corners.size:  # a corner's row, its blocks' values, ascending
        values[corners] = np.sort(values[corners], axis=-1)
    out = []
    for pa, b, uh, (m, image, _), lo in zip(batch, built, mapped, orbits, starts):
        rows = values[lo:lo + m]
        if image:
            # The shifted nodes' rows: negated (and kept ascending) for the built
            # Harper matrices, conjugated for the unitary ones.
            shifted = -rows[:, ::-1] if b.kind is OperatorKind.H else rows.conj()
            rows = np.concatenate((rows, shifted))
        out.append(np.exp(-1j * pa.kappa * rows) if uh else rows)
    return out[0] if isinstance(params, OperatorParams) else out


def _requests(params: OperatorParams | Sequence[OperatorParams]) -> tuple[OperatorParams, ...]:
    """The requests of a sweep: one, or a batch (_sweep_values)."""
    return (params,) if isinstance(params, OperatorParams) else tuple(params)


def _spectrum(params: OperatorParams, grid: GridSpec, values: np.ndarray) -> SpectrumSet:
    """The SpectrumSet of a sweep's values, which carries the grid's certified bound."""
    return SpectrumSet.build(SpectrumKind.of(params.kind), values, params=params, grid=grid)


def _orbits(params: OperatorParams, grid: GridSpec) -> tuple[int, bool, Callable]:
    """The grid's fold, decided once: (m, image, nodes).

    m nodes are solved, one per orbit of the maps that fold the grid
    (module docstring); ``nodes()`` lists them as flat arrays (x, theta,
    hx, ht), and only it builds arrays, so a size check costs O(1).  hx and
    ht, the half steps 2 q x and 2 q theta, or -1 where not integers, come
    from the grid indices, 2j/n for node j of an axis of n (j = 0, and n/2
    at even n), and at a fixed theta from _half_theta.  ``image`` says
    whether each solved row also stands for its half-shifted node's: at odd
    q, where the axes the shift moves have even n (n_x and n_theta of a
    mother sweep, n_x alone for uordkr, in either scope).

    At fixed theta, h, uh and ukh keep x nodes 0..n/2; uordkr keeps its
    whole axis, or with the shift its first half.  On a rectangular grid
    uordkr keeps, of each joint mirror pair (j, k) and (-j mod n_x, -k mod
    n_theta), the node with the lower flat index j n_theta + k, and with the
    shift (j + n_x/2, k) joins the orbit.  Otherwise a mother sweep keeps
    the quarter, nodes 0..n/2 on both axes, or where the swap folds its
    triangle k <= j: at lambda = 1 on a square grid, which keeps the swapped
    node on the grid, as for uordkr does an integer s.  The shift maps the
    quarter onto itself by the point reflection (j, k) -> (n_x/2 - j,
    n_theta/2 - k), of which the first half in flat order is kept, and the
    triangle by the reflection across j + k = n/2, of which j + k <= n/2 is
    kept.  uordkr on a square grid keeps the same set in (j, b), b = j + k +
    s with s = n q (alpha/2 + phi) = n shift / 2 (operators.rotor_shift),
    mapped back through k = (b - j - s) mod n: at a half-integer s (p, q and
    n odd) its b runs over 1/2..n/2, whose mirror orbits under b -> -b it
    covers once.
    """
    q, n_x, n_t = params.alpha.q, grid.n_x, grid.n_theta
    half_x, half_t = n_x // 2 + 1, n_t // 2 + 1
    rotor = params.kind is OperatorKind.UORDKR
    image = q % 2 == 1 and n_x % 2 == 0 and (rotor or (params.is_mother and n_t % 2 == 0))

    def halves(n: int) -> np.ndarray:  # of each node j of an axis of n: 2j/n, or -1
        steps = np.full(n, -1)  # an integer at j = 0 and, at even n, j = n/2
        steps[n // 2] = 1 if n % 2 == 0 else -1
        steps[0] = 0
        return steps

    def at(j: np.ndarray, k: np.ndarray) -> tuple:
        return grid.xs(q)[j], grid.thetas(q)[k], halves(n_x)[j], halves(n_t)[k]

    if not params.is_mother:
        m = (n_x // 2 if image else n_x) if rotor else half_x

        def nodes():
            theta = np.full(m, params.fixed_theta(), dtype=np.float64)
            return grid.xs(q)[:m], theta, halves(n_x)[:m], np.full(m, _half_theta(params))
        return m, image, nodes

    if rotor and n_x != n_t:
        # Row j outranks the rows its orbit reaches (-j, and with the shift j + n_x/2 and
        # n_x/2 - j); rows 0 and n_x/fold, if on the grid, map to themselves: k <= n_theta/2.
        fold = 4 if image else 2
        rows, self_mirror = n_x // fold + 1, 1 + (n_x % fold == 0)
        m = self_mirror * half_t + (rows - self_mirror) * n_t

        def nodes():
            width = np.where(fold * np.arange(rows) % n_x == 0, half_t, n_t)
            j = np.repeat(np.arange(rows), width)
            return at(j, np.arange(m) - np.repeat(np.cumsum(width) - width, width))
        return m, image, nodes

    two_s = n_x * rotor_shift(params.alpha) if rotor else 0
    if params.lam == 1.0 and n_x == n_t and two_s % 2 == 0:
        triangle = half_x * (half_x + 1) // 2
        m = (triangle + n_x // 4 + 1) // 2 if image else triangle

        def quarter():
            j, k = np.tril_indices(half_x)
            if image:  # which reflects the triangle across j + k = n / 2
                keep = j + k <= n_x // 2
                j, k = j[keep], k[keep]
            return j, k
    else:
        m = (half_x * half_t + 1) // 2 if image else half_x * half_t

        def quarter():
            # The shift is the quarter grid's point reflection, flat index i -> size - 1 - i.
            return np.divmod(np.arange(m), half_t)

    def nodes():
        j, k = quarter()
        return at(j, (k - j - two_s // 2) % n_t if rotor else k)
    return m, image, nodes


def _half_theta(params: OperatorParams) -> int:
    """2 q theta of a fixed theta that is the double nearest K/(2q), for the integer K
    nearest 2 q theta; else -1."""
    q, theta = params.alpha.q, params.fixed_theta()
    k = round(2 * q * theta)
    return k if k / (2 * q) == theta else -1


def _sweep_bytes(params: OperatorParams | Sequence[OperatorParams], grid: GridSpec,
                 route: str | None = None) -> int:
    """Bytes a sweep holds at its peak, from its solved node count m (_orbits).

    Per node, the four arrays of _orbits' list: its float64 x and theta and
    its int64 half steps 2 q x and 2 q theta; per row of values (two per
    node where the half shift folds), q eigenvalues, held up to five times
    over as complex128 while pooled and sorted (measured: up to 72 B each).
    Per matrix of the solver calls it holds at a time, the route's complex
    arrays of its size (``_ROUTES``): of the whole nodes, min(m, w _chunk_rows(q)),
    or where corners split of the blocks, min(2 m, w _chunk_rows(h)), h =
    ceil(q/2) + 1 rows at most, whichever holds more; w is the pool's width
    (_workers) where the calls have _POOL_ROWS rows or more, else 1.  Per
    chunk, the int64 circulant index.  A batch (_sweep_values) counts the
    nodes and rows of each of its requests.
    LAPACK allocates a further 2-4 MB of workspace on first use, which this
    leaves out, so for a sweep below about 10 MB the figure is an estimate,
    not an upper bound.
    """
    batch = _requests(params)
    sizes = [_orbits(pa, grid)[:2] for pa in batch]
    m, q, route = sum(n for n, _ in sizes), batch[0].alpha.q, _route(batch[0], route)
    rows = sum(2 * n if image else n for n, image in sizes)
    split, h, width = _splits(q, route), -(-q // 2) + 1, _workers()

    def held(n: int, size: int) -> int:  # entries of the calls of size rows that run at once
        return min(n, (width if size >= _POOL_ROWS else 1) * _chunk_rows(size)) * size * size
    chunk = max(held(m, q), split * held(2 * m, h))
    return m * 4 * 8 + rows * 5 * 16 * q + 16 * _ROUTES[route][2] * chunk + 8 * q * q


def _preflight(params: OperatorParams | Sequence[OperatorParams], grid: GridSpec,
               route: str | None = None, held: int = 0) -> None:
    """Refuse a sweep whose arrays, with the ``held`` bytes its caller keeps beside
    them, would exceed the machine's physical memory."""
    need = _sweep_bytes(params, grid, route) + held
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        kept = f", {held / 2**30:.3g} GiB of it the rows kept beside it" if held else ""
        raise InvalidParams(
            f"grid {grid.n_x}x{grid.n_theta} at q = {_requests(params)[0].alpha.q} needs about "
            f"{need / 2**30:.3g} GiB{kept}, more than the {have / 2**30:.3g} GiB of physical memory"
        )


def spectrum_fixed_theta(params: OperatorParams, grid: GridSpec) -> SpectrumSet:
    """Union of eigenvalues over the x grid at the fixed theta in params."""
    params.fixed_theta()
    return _spectrum(params, grid, _sweep_values(params, grid))


def mother_spectrum(params: OperatorParams, grid: GridSpec) -> SpectrumSet:
    """Union of eigenvalues over the (x, theta) grid on [0, 1/q)^2."""
    if not params.is_mother:
        raise InvalidParams(f"mother_spectrum requires theta = {MOTHER!r}")
    return _spectrum(params, grid, _sweep_values(params, grid))


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
    return _tracked(params, _sweep_values(params, grid))


def _tracked(params: OperatorParams, values: np.ndarray) -> BandList:
    """The tracked bands of a sweep's (m, q) values."""
    if SpectrumKind.of(params.kind) is SpectrumKind.REAL_LINE:
        # Ranges within DEDUP_TOL are unioned: roundoff where true bands touch (even-q Harper).
        bands = _line_runs(values.min(axis=0), values.max(axis=0), DEDUP_TOL)
        return BandList(SpectrumKind.REAL_LINE, bands)

    ph = np.sort(principal_args(values), axis=1)
    pooled = np.sort(ph.ravel())
    gaps = np.diff(pooled)
    wrap_gap = pooled[0] + TWO_PI - pooled[-1]
    delta = 0.0
    # Gaps level within DEDUP_TOL are ties: the wrap gap wins, then the lowest
    # one, so the seam does not hinge on which node of a mirror orbit was solved.
    if gaps.size and gaps.max() > wrap_gap + DEDUP_TOL:
        i = int(np.flatnonzero(gaps >= gaps.max() - DEDUP_TOL)[0])
        delta = np.pi - (pooled[i] + gaps[i] / 2.0)
        ph = np.sort((ph + delta + np.pi) % TWO_PI - np.pi, axis=1)
    # No run spans the circle: the largest pooled gap stays at the seam, and a run of
    # 2 pi - DEDUP_TOL needs every gap within 2e-12, over 3e12 values the preflight refuses.
    merged = _line_runs(ph.min(axis=0), ph.max(axis=0), DEDUP_TOL)

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


def eigenphases(s: SpectrumSet) -> np.ndarray:
    """Principal arguments in (-pi, pi] of a unit-circle spectrum, ascending."""
    if s.kind is not SpectrumKind.UNIT_CIRCLE:
        raise InvalidParams("eigenphases requires a UNIT_CIRCLE spectrum")
    return principal_args(s.points)


def auto_merge_gap(s: SpectrumSet, merge_gap: float | str = "auto") -> float:
    """The merge gap a request names: merge_gap itself, or for "auto" 4x the
    certified bound (adjacent true points can each be displaced by
    error_bound; the extra factor 2 avoids spurious splits), falling back to
    the dedup scale when the bound is zero."""
    return max(4.0 * s.error_bound, DEDUP_TOL) if merge_gap == "auto" else merge_gap


def merge_bands(s: SpectrumSet, merge_gap: float) -> BandList:
    """Merge consecutive points with gap <= merge_gap into closed bands.

    Circle spectra merge circularly in eigenphase distance; if every gap
    closes, the result is the single full-circle band of length 2 pi.
    Band endpoints are extreme member points.
    """
    if not merge_gap > 0:
        raise InvalidParams(f"merge_gap must be > 0, got {merge_gap}")
    if len(s) == 0:
        raise InvalidParams("cannot merge an empty spectrum")

    if s.kind is SpectrumKind.REAL_LINE:
        return BandList(s.kind, _line_runs(s.points, s.points, merge_gap))
    ph = eigenphases(s)
    bands = _line_runs(ph, ph, merge_gap)
    # The gap through +-pi closes: the last run wraps into the first.
    if ph[0] + TWO_PI - ph[-1] <= merge_gap:
        bands = ((-np.pi, np.pi),) if len(bands) == 1 else (
            *bands[1:-1], (bands[-1][0], bands[0][1]))
    return BandList(s.kind, bands)
