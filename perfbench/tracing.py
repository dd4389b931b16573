"""Spans around kickspec's layer boundaries, installed from outside.

Nothing in ``src/`` is edited.  ``install`` finds the functions to wrap by
introspection:

* every non-class callable that ``kickspec.spectra``, ``kickspec.analysis``
  and ``kickspec.cli`` bind from another kickspec layer module (the layer
  boundary: spectra -> linalg/operators, analysis -> spectra, ...);
* every public function those three modules define themselves, rebound in
  their own namespace, so calls inside one module (``run_check`` ->
  ``hausdorff``, ``compute_spectrum`` -> ``read_spectrum_csv``) are spans too;
* ``SpectrumSet.build``, the pooling/dedup step;
* the numpy and scipy eigensolver entry points (``SOLVER_NAMES``), wherever
  they are bound, so that every matrix is counted and classified at the
  solver it actually reaches, whichever kickspec function sends it there.

A kernel that a later change adds or renames is therefore measured without
editing the benchmark.  Every span records its layer (the module that
defines the callee), name, start, end and parent; spans stay in memory and
are written out when the run ends.  ``uninstall`` restores every binding and
checks that it did.
"""

from __future__ import annotations

import functools
import inspect
import os
import re
import threading
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

LAYERS = ("linalg", "operators", "spectra", "analysis", "cli")
CONSUMERS = ("spectra", "analysis", "cli")
HARNESS = "harness"
SOLVER = "solver"  # numpy/scipy eigensolver calls; counted in the linalg metrics

# LAPACK-backed eigensolver entry points of numpy.linalg and scipy.linalg.
SOLVER_NAMES = ("eigvalsh", "eigh", "eigvals", "eig", "schur")

# Name patterns: which solvers are Hermitian, which cli functions read or
# write CSV.  They classify spans; they do not pick them.
HERMITIAN_NAME = re.compile(r"eigh|eigvalsh")
CSV_READ_NAME = re.compile(r"read")
CSV_WRITE_NAME = re.compile(r"write|csv")

# Textbook LAPACK operation counts per n x n complex matrix, eigenvalues
# only, complex arithmetic counted as 4 real flops: Hermitian tridiagonal
# reduction 4/3 n^3 -> 16/3 n^3; general Hessenberg reduction plus shifted
# QR ~10 n^3 -> 40 n^3.  These are computed from shapes, not measured.
FLOPS_HERMITIAN = 16.0 / 3.0
FLOPS_GENERAL = 40.0


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    t0: float
    t1: float = 0.0
    info: dict = field(default_factory=dict)


class Tracer:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[Span] = []
        self.cache_dirs: tuple[str, ...] = ()

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif self._main_stack:
            # A worker thread's first span belongs to whatever the main
            # thread is doing while it runs (a chunk pool inside a sweep).
            parent = self._main_stack[-1].id
        else:
            parent = None
        sp = Span(len(self.spans), parent, layer, name, time.perf_counter())
        self.spans.append(sp)
        stack.append(sp)
        return sp

    def close(self, sp: Span) -> None:
        sp.t1 = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is sp:
            stack.pop()
        elif sp in stack:
            stack.remove(sp)

    def reset(self) -> None:
        self.spans = []
        self._main_stack = []
        self._local = threading.local()


# -- probes: counts taken at the boundary, from arguments and results ----------

def _square_stack(args, kwargs):
    for a in list(args) + list(kwargs.values()):
        shape = getattr(a, "shape", None)
        if shape is not None and len(shape) >= 2 and shape[-1] == shape[-2]:
            return a
    return None


def _solver_probe(sp: Span, args, kwargs, result) -> None:
    a = _square_stack(args, kwargs)
    if a is None:
        return
    n = int(a.shape[-1])
    matrices = 1
    for d in a.shape[:-2]:
        matrices *= int(d)
    herm = bool(HERMITIAN_NAME.search(sp.name))
    sp.info = {
        "matrices": matrices,
        "n": n,
        "bytes": int(a.nbytes),
        "hermitian": herm,
        "flop": matrices * (FLOPS_HERMITIAN if herm else FLOPS_GENERAL) * n**3,
    }


def _sweep_request(args, kwargs):
    """(key, nodes) of a call that names operator params and a grid."""
    params = grid = None
    for a in list(args) + list(kwargs.values()):
        if params is None and hasattr(a, "is_mother") and hasattr(a, "alpha"):
            params = a
        elif grid is None and hasattr(a, "n_x") and hasattr(a, "n_theta"):
            grid = a
    if params is None or grid is None:
        return None, 0
    nodes = grid.n_x * (grid.n_theta if params.is_mother else 1)
    return repr((params, grid)), int(nodes)


def _spectra_probe(sp: Span, args, kwargs, result) -> None:
    key, nodes = _sweep_request(args, kwargs)
    if key is not None:
        sp.info = {"key": key, "nodes": nodes}


def _build_probe(signature: inspect.Signature):
    def probe(sp: Span, args, kwargs, result) -> None:
        values = signature.bind(*args, **kwargs).arguments.get("values", ())
        sp.info = {"build": True, "raw": int(np.size(values)), "kept": len(result)}
    return probe


def _cli_probe(tracer: Tracer):
    def probe(sp: Span, args, kwargs, result) -> None:
        if not CSV_READ_NAME.search(sp.name):
            return
        for a in list(args) + list(kwargs.values()):
            if isinstance(a, (str, os.PathLike)) and os.path.isfile(a):
                path = os.path.abspath(a)
                sp.info = {
                    "bytes_read": os.path.getsize(path),
                    "cache_hit": any(path.startswith(d + os.sep) for d in tracer.cache_dirs),
                }
                return
    return probe


def _no_probe(sp, args, kwargs, result) -> None:
    return None


def _wrap(tracer: Tracer, layer: str, name: str, fn, probe):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sp = tracer.open(layer, name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sp)
        probe(sp, args, kwargs, result)
        return result

    return traced


# -- installing and restoring ----------------------------------------------------

def _layer_of(obj, modules: dict) -> str | None:
    mod = getattr(obj, "__module__", None)
    for layer, m in modules.items():
        if mod == m.__name__:
            return layer
    return None


def _wrappable(obj) -> bool:
    return callable(obj) and not inspect.isclass(obj) and not inspect.ismodule(obj)


class Installation:
    """Wrapped bindings of one traced run; ``uninstall`` puts them back."""

    def __init__(self, tracer: Tracer, modules: dict) -> None:
        self.tracer = tracer
        self.modules = modules
        self.saved: list[tuple[object, str, object]] = []

    def targets(self):
        """(namespace owner, binding name, callee layer) for every wrap."""
        out = []
        for consumer in CONSUMERS:
            mod = self.modules[consumer]
            for name, obj in sorted(vars(mod).items()):
                if not _wrappable(obj):
                    continue
                layer = _layer_of(obj, self.modules)
                if layer is None:
                    continue
                if layer == consumer and name.startswith("_"):
                    continue
                out.append((mod, name, layer))
        return out

    def solver_targets(self):
        """(namespace owner, binding name, solver name) for every eigensolver
        binding in numpy.linalg, scipy.linalg and the kickspec modules."""
        out, solvers = [], {}
        for mod in (np.linalg, scipy.linalg):
            for name in SOLVER_NAMES:
                if name in vars(mod):
                    solvers[id(vars(mod)[name])] = name
                    out.append((mod, name, name))
        for mod in self.modules.values():
            out += [(mod, name, solvers[id(obj)])
                    for name, obj in sorted(vars(mod).items()) if id(obj) in solvers]
        return out

    def install(self) -> "Installation":
        for mod, name, solver in self.solver_targets():
            original = vars(mod)[name]
            self.saved.append((mod, name, original))
            setattr(mod, name, _wrap(self.tracer, SOLVER, solver, original, _solver_probe))
        probes = {
            "linalg": _no_probe,
            "operators": _no_probe,
            "spectra": _spectra_probe,
            "analysis": _no_probe,
            "cli": _cli_probe(self.tracer),
        }
        for mod, name, layer in self.targets():
            original = vars(mod)[name]
            self.saved.append((mod, name, original))
            setattr(mod, name, _wrap(self.tracer, layer, name, original, probes[layer]))
        cls = getattr(self.modules["spectra"], "SpectrumSet", None)
        descriptor = vars(cls).get("build") if cls is not None else None
        if isinstance(descriptor, classmethod):
            self.saved.append((cls, "build", descriptor))
            build = descriptor.__func__
            setattr(cls, "build", classmethod(_wrap(
                self.tracer, "spectra", "SpectrumSet.build", build,
                _build_probe(inspect.signature(build)),
            )))
        return self

    def uninstall(self) -> bool:
        """Restore every binding; True when each one is the original again."""
        for owner, name, original in reversed(self.saved):
            setattr(owner, name, original)
        ok = all(vars(owner)[name] is original for owner, name, original in self.saved)
        self.saved = []
        return ok


# -- per-layer metrics from one pass's spans --------------------------------------

def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(spans: list[Span], files: dict) -> dict:
    """Per-layer counts and times of one traced pass.

    ``files`` carries what the harness saw on disk during the pass:
    ``bytes_written`` and ``cache_misses`` (cache entries created).
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def ancestors(s: Span):
        p = s.parent
        while p is not None:
            a = by_id[p]
            yield a
            p = a.parent

    def self_time(s: Span) -> float:
        kids = [(max(c.t0, s.t0), min(c.t1, s.t1)) for c in children.get(s.id, ())]
        return (s.t1 - s.t0) - _union([k for k in kids if k[1] > k[0]])

    def outermost(s: Span) -> bool:
        return all(a.layer != s.layer for a in ancestors(s))

    of = {layer: [s for s in spans if s.layer == layer] for layer in LAYERS + (SOLVER,)}
    builds = [s for s in of["spectra"] if s.info.get("build")]
    spectra_work = [s for s in of["spectra"] if not s.info.get("build")]

    # Matrices are counted where they reach a numpy/scipy solver.
    solves = [s for s in of[SOLVER] if outermost(s) and "matrices" in s.info]
    solved: set[int] = set()
    for s in solves:
        solved.update(a.id for a in ancestors(s))
    sweeps = sorted(
        (s for s in spectra_work if outermost(s) and s.id in solved), key=lambda s: s.t0
    )
    sweep_ids = {s.id for s in sweeps}

    matrices = sum(s.info["matrices"] for s in solves)
    herm = sum(s.info["matrices"] for s in solves if s.info["hermitian"])
    eigen = of["linalg"] + of[SOLVER]
    linalg_busy = _union((s.t0, s.t1) for s in eigen)
    grid_points = sum(s.info.get("nodes", 0) for s in sweeps)
    seen: set[str] = set()
    repeats = 0
    for s in sweeps:
        key = s.info.get("key")
        if key is None:
            continue
        repeats += key in seen
        seen.add(key)
    pooled = [b for b in builds if any(a.id in sweep_ids for a in ancestors(b))]
    raw = sum(b.info["raw"] for b in pooled)
    kept = sum(b.info["kept"] for b in pooled)

    cli = of["cli"]
    # Outermost reads only, so a reader calling a reader counts once.
    reads = [
        s for s in cli
        if "bytes_read" in s.info
        and not any(a.layer == "cli" and CSV_READ_NAME.search(a.name) for a in ancestors(s))
    ]
    return {
        "linalg.calls": sum(
            1 for s in eigen if all(a.layer not in ("linalg", SOLVER) for a in ancestors(s))
        ),
        "linalg.matrices": matrices,
        "linalg.busy_s": linalg_busy,
        "linalg.us_per_matrix": 1e6 * linalg_busy / matrices if matrices else 0.0,
        "linalg.hermitian_frac": herm / matrices if matrices else 0.0,
        "linalg.bytes_in": sum(s.info["bytes"] for s in solves),
        "linalg.flop_est": sum(s.info["flop"] for s in solves),
        "spectra.sweeps": len(sweeps),
        "spectra.grid_points": grid_points,
        "spectra.solve_ratio": matrices / grid_points if grid_points else 0.0,
        "spectra.repeat_sweeps": repeats,
        "spectra.self_s": sum(self_time(s) for s in sweeps),
        "spectra.pool_s": _union((b.t0, b.t1) for b in builds),
        "spectra.raw_points": raw,
        "spectra.kept_points": kept,
        "spectra.kept_ratio": kept / raw if raw else 0.0,
        "operators.calls": sum(1 for s in of["operators"] if outermost(s)),
        "operators.busy_s": _union((s.t0, s.t1) for s in of["operators"]),
        "analysis.busy_s": sum(self_time(s) for s in of["analysis"]),
        "analysis.hausdorff_calls": sum(1 for s in of["analysis"] if s.name == "hausdorff"),
        "cli.commands": sum(1 for s in cli if outermost(s)),
        "cli.self_s": sum(self_time(s) for s in cli),
        "cli.csv_write_s": _union(
            (s.t0, s.t1) for s in cli
            if CSV_WRITE_NAME.search(s.name) and not CSV_READ_NAME.search(s.name)
        ),
        "cli.csv_read_s": _union((s.t0, s.t1) for s in cli if CSV_READ_NAME.search(s.name)),
        "cli.bytes_written": files.get("bytes_written", 0),
        "cli.bytes_read": sum(s.info["bytes_read"] for s in reads),
        "cli.cache_hits": sum(1 for s in reads if s.info["cache_hit"]),
        "cli.cache_misses": files.get("cache_misses", 0),
    }


def spans_json(spans: list[Span]) -> list[dict]:
    return [
        {"id": s.id, "parent": s.parent, "layer": s.layer, "name": s.name,
         "start": s.t0, "end": s.t1, **({"info": s.info} if s.info else {})}
        for s in spans
    ]
