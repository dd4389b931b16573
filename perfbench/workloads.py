"""The four workloads: fixed operation lists against kickspec's public API
and its in-process CLI (``kickspec.cli.dispatch``).

The seed draws the fixed-theta values and the kappa jitter.  Wherever an
output is checked against a recorded reference, the seed picks from a small
pool so that ``refs/`` holds a reference for every choice; ``make_refs.py``
records them.  ``cache_replay`` needs no reference: a warm hit must be
byte-identical to the cold output written during set-up.

Every CLI argv passes only flags its command uses today (``ALLOWED_FLAGS``),
so rejecting unused flags later cannot break the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks

KINDS = ("h", "uh", "ukh", "uordkr")

# Flags each command reads today; ``verify`` ignores --cache-dir, --seed and
# --format, ``butterfly`` ignores --theta/--format/--cache-dir, ``bandwidth``
# reads --cache-dir only with a non-track merge gap, nothing reads --seed.
ALLOWED_FLAGS = {
    "compute": {"--kind", "--alpha", "--kappa", "--lambda", "--theta", "--grid", "--out",
                "--cache-dir"},
    "bandwidth": {"--kind", "--kappa", "--lambda", "--theta", "--grid", "--out",
                  "--alpha-list", "--merge-gap", "--cache-dir"},
    "butterfly": {"--kind", "--kappa", "--lambda", "--alpha-list", "--grid", "--out"},
    "zoom": {"--kind", "--alpha", "--kappa", "--lambda", "--theta", "--grid", "--out",
             "--cache-dir", "--center", "--factors"},
    "verify": {"--check", "--kind", "--alpha", "--kappa", "--lambda", "--theta", "--grid",
               "--out"},
}

# Seeded pools (a reference is recorded for every entry).
Q13_FIXED = ((0.0173, 0.9), (0.0419, 1.1), (0.0627, 1.0))  # (theta, kappa)
SURVEY_THETAS = (0.0211, 0.0388, 0.0702)

# verify runs each check on its own; the slow ones get a smaller grid
# (ALPHA_CONTINUITY at its default n = 10 alone takes ~9 s).
VERIFY_RUNS = (
    ("THETA_PERIOD", None), ("THETA_CONTINUITY", None), ("MOTHER_EQUALITY", "12"),
    ("SPECTRAL_MAPPING", None), ("AUBRY_ANDRE", None), ("BAND_COUNT", "100"),
    ("ALPHA_CONTINUITY", "2"), ("KAPPA_CUBED", "12"), ("LAST_MEASURE_TREND", "12"),
)


def check_argv(argv: list[str]) -> None:
    """Raise if an argv passes a flag its command does not use."""
    cmd, flags = argv[0], {a for a in argv[1:] if a.startswith("--")}
    extra = flags - ALLOWED_FLAGS[cmd]
    if cmd == "bandwidth" and "--cache-dir" in flags and "track" in argv:
        extra.add("--cache-dir")
    if extra:
        raise ValueError(f"{cmd} does not use {sorted(extra)}: {argv}")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Op:
    """One operation: ``run`` is timed; ``collect`` and ``check`` are not."""

    name: str
    run: Callable[[], object]
    collect: Callable[[object], object]
    digest: Callable[[object], str]
    check: Callable[[object, "Refs"], tuple]
    reference: Callable[[], dict] | None = None
    ref_key: str | None = None
    is_verify: bool = False


@dataclass
class Workload:
    name: str
    ops: list[Op]
    cache_dirs: list[str] = field(default_factory=list)
    warm: list[tuple[str, str]] = field(default_factory=list)  # (kind, alpha)
    prepare: Callable[[], None] = lambda: None  # set-up, once per process
    before_pass: Callable[[], None] = lambda: None  # untimed, before every pass


class Refs:
    """Recorded references: ``refs/refs.json`` plus arrays in ``refs/refs.npz``."""

    def __init__(self, entries: dict, arrays) -> None:
        self.entries = entries
        self.arrays = arrays

    def spectrum(self, key: str):
        e = self.entries[key]
        return self.arrays[key], e["error_bound"], e["circle"]


class Api:
    """kickspec modules, looked up at call time so traced bindings are used."""

    def __init__(self, modules: dict) -> None:
        self.m = modules

    def params(self, kind, kappa, lam, alpha, theta):
        op = self.m["operators"]
        return op.OperatorParams(op.OperatorKind(kind), float(kappa), float(lam),
                                 op.RationalAlpha.parse(alpha), theta)

    def sweep(self, params, n_x, n_theta=1):
        sp = self.m["spectra"]
        grid = sp.GridSpec(n_x, n_theta)
        if params.is_mother:
            return sp.mother_spectrum(params, grid)
        return sp.spectrum_fixed_theta(params, grid)

    def bound(self, params, n_x, n_theta=1):
        sp = self.m["spectra"]
        return sp.grid_error_bound(params, sp.GridSpec(n_x, n_theta))

    def dispatch(self, argv):
        return self.m["cli"].dispatch(argv)


def _spectrum_values(s) -> tuple[np.ndarray, bool]:
    pts = np.asarray(s.points)
    circle = np.iscomplexobj(pts)
    return (np.angle(pts) if circle else pts.astype(float)), circle


def _spectrum_reference(api: Api, params, n_x, n_theta=1) -> dict:
    s = api.sweep(params, n_x, n_theta)
    values, circle = _spectrum_values(s)
    return {"error_bound": s.error_bound, "circle": circle, "array": values}


def api_op(api: Api, name, ref_key, kind, kappa, lam, alpha, theta, grid, ref_grid) -> Op:
    """A sweep through the public API, checked against a recorded spectrum."""
    params = api.params(kind, kappa, lam, alpha, theta)

    def check(s, refs):
        values, circle = _spectrum_values(s)
        ref, ref_bound, _ = refs.spectrum(ref_key)
        return checks.spectrum_check(values, s.error_bound, ref, ref_bound, circle, name)

    return Op(
        name=name,
        run=lambda: api.sweep(params, *grid),
        collect=lambda s: s,
        digest=lambda s: _digest(np.asarray(s.points).tobytes() + repr(s.error_bound).encode()),
        check=check,
        reference=lambda: _spectrum_reference(api, params, *ref_grid),
        ref_key=ref_key,
    )


def cli_op(api: Api, name, argv, out, check, reference=None, ref_key=None) -> Op:
    """One in-process CLI command writing ``out``; exit status must be 0."""
    check_argv(argv)

    def collect(rc):
        if rc != 0:
            return rc, b""
        with open(out, "rb") as fh:
            return rc, fh.read()

    def checked(output, refs):
        rc, data = output
        if rc != 0:
            return False, float("inf"), f"{name}: exit status {rc}"
        return check(data.decode("utf-8"), refs)

    return Op(
        name=name,
        run=lambda: api.dispatch(argv),
        collect=collect,
        digest=lambda o: _digest(o[1]),
        check=checked,
        reference=reference,
        ref_key=ref_key,
        is_verify=argv[0] == "verify",
    )


def _run_cli_for_reference(api: Api, argv, out) -> str:
    rc = api.dispatch(argv)
    if rc != 0:
        raise RuntimeError(f"reference run exited {rc}: {argv}")
    with open(out, encoding="utf-8") as fh:
        return fh.read()


# -- the four workloads -----------------------------------------------------------

def mother_q233(api: Api, rng: random.Random, work: str) -> Workload:
    """Large q: the general eigensolver dominates.  kappa = lambda = 1; the
    eigensolver's cost depends on kappa, so the seed only orders the sweeps."""
    kinds = list(KINDS)
    rng.shuffle(kinds)
    ops = [
        api_op(api, f"mother.{kind}.144_233", f"q233.{kind}", kind, 1.0, 1.0,
               "144/233", "mother", (2, 2), (2, 2))
        for kind in kinds
    ]
    return Workload("mother_q233", ops, warm=[(k, "144/233") for k in KINDS])


def mother_q13_dense(api: Api, rng: random.Random, work: str) -> Workload:
    """Many tiny matrices: stack assembly, per-matrix overhead and dedup.

    The 160 x 160 h sweep (25,600 matrices, more than one eigensolver chunk)
    is there for memory: its stacks, not the interpreter, set the peak RSS.
    """
    fi = rng.randrange(len(Q13_FIXED))
    theta, kappa = Q13_FIXED[fi]
    ops = [
        api_op(api, f"mother.{kind}.8_13", f"q13.mother.{kind}", kind, 1.0, 1.0, "8/13",
               "mother", (48, 48), (24, 24))
        for kind in KINDS
    ] + [
        api_op(api, "mother.h.8_13.160", "q13.mother.h", "h", 1.0, 1.0, "8/13", "mother",
               (160, 160), (24, 24)),
    ] + [
        api_op(api, f"fixed.{kind}.8_13", f"q13.fixed.{kind}.f{fi}", kind, kappa, 1.0, "8/13",
               theta, (400,), (200,))
        for kind in ("h", "ukh")
    ]
    return Workload("mother_q13_dense", ops, warm=[(k, "8/13") for k in KINDS])


def cli_survey(api: Api, rng: random.Random, work: str) -> Workload:
    """A cold-cache CLI session: every command, repeated sweeps, analysis."""
    cache = os.path.join(work, "cache")
    out = os.path.join(work, "out")
    ti = rng.randrange(len(SURVEY_THETAS))
    ops: list[Op] = []

    def path(name):
        return os.path.join(out, name)

    for kind in ("ukh", "uordkr"):
        argv = ["compute", "--kind", kind, "--alpha", "8/13", "--grid", "40",
                "--cache-dir", cache, "--out", path(f"{kind}.csv")]
        ops.append(_compute_op(api, f"compute.{kind}", argv, path(f"{kind}.csv"),
                               f"survey.compute.{kind}", kind, "mother", 1.0, (20, 20)))
    theta = SURVEY_THETAS[ti]
    argv = ["compute", "--kind", "h", "--alpha", "8/13", "--theta", repr(theta), "--grid",
            "2000", "--out", path("h.csv")]
    ops.append(_compute_op(api, "compute.h.fixed", argv, path("h.csv"),
                           f"survey.compute.h.t{ti}", "h", theta, 1.0, (400,)))

    for gap in ("auto", "track"):
        argv = ["bandwidth", "--alpha-list", "fib:5..8", "--grid", "8", "--merge-gap", gap]
        argv += ["--cache-dir", cache] if gap == "auto" else []
        argv += ["--out", path(f"bandwidth.{gap}.csv")]
        ops.append(_table_op(api, f"bandwidth.{gap}", argv, path(f"bandwidth.{gap}.csv")))

    argv = ["butterfly", "--kind", "ukh", "--kappa", "0.5", "--alpha-list", "farey:13",
            "--grid", "48", "--out", path("butterfly.csv")]
    ops.append(_table_op(api, "butterfly", argv, path("butterfly.csv")))

    argv = ["zoom", "--alpha", "89/144", "--grid", "3", "--factors", "20,10",
            "--out", path("zoom.csv")]
    ops.append(_table_op(api, "zoom", argv, path("zoom.csv")))

    for cid, grid in VERIFY_RUNS:
        argv = ["verify", "--check", cid.lower().replace("_", "-")]
        argv += ["--grid", grid] if grid else []
        argv += ["--out", path(f"verify.{cid}.json")]
        ops.append(_table_op(api, f"verify.{cid}", argv, path(f"verify.{cid}.json")))

    def before_pass():
        # Every pass starts cold and must write every output afresh.
        shutil.rmtree(cache, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)

    return Workload("cli_survey", ops, cache_dirs=[cache], warm=[("ukh", "8/13")],
                    before_pass=before_pass)


def _compute_op(api, name, argv, out, ref_key, kind, theta, kappa, ref_grid) -> Op:
    def check(text, refs):
        values, bound, circle = checks.spectrum_from_csv(text)
        ref, ref_bound, _ = refs.spectrum(ref_key)
        return checks.spectrum_check(values, bound, ref, ref_bound, circle, name)

    params = api.params(kind, kappa, 1.0, "8/13", theta)
    return cli_op(api, name, argv, out, check,
                  reference=lambda: _spectrum_reference(api, params, *ref_grid), ref_key=ref_key)


def _table_op(api, name, argv, out) -> Op:
    """bandwidth, butterfly, zoom and verify outputs; the reference is the
    same argv run on the commit that recorded the references."""
    ref_key = "survey." + name
    command = argv[0]

    def value(flag):
        return argv[argv.index(flag) + 1] if flag in argv else None

    if command == "bandwidth":
        def check(text, refs):
            return checks.bandwidth_check(text, refs.entries[ref_key]["rows"], name)

        def reference():
            _, rows = checks.table_from_csv(_run_cli_for_reference(api, argv, out))
            return {"rows": [{"p": int(r["p"]), "q": int(r["q"]), "bands": int(r["bands"]),
                              "width": float(r["width"]),
                              "error_bound": float(r["error_bound"])} for r in rows]}
    elif command == "butterfly":
        def check(text, refs):
            e = refs.entries[ref_key]
            values = {k: refs.arrays[f"{ref_key}.{k}"] for k in e["bounds"]}
            return checks.butterfly_check(text, {"values": values, "bounds": e["bounds"]},
                                          e["circle"], name)

        def reference():
            _, rows = checks.table_from_csv(_run_cli_for_reference(api, argv, out))
            groups: dict[str, list[float]] = {}
            for r in rows:
                groups.setdefault(f"{r['p']}/{r['q']}", []).append(float(r["value"]))
            kind, grid_n = value("--kind"), int(value("--grid"))
            bounds = {}
            for pq in groups:
                n = max(1, round(grid_n / int(pq.split("/")[1])))
                params = api.params(kind, value("--kappa"), 1.0, pq, "mother")
                bounds[pq] = api.bound(params, n, n)
            return {"bounds": bounds, "circle": kind != "h",
                    "arrays": {f"{ref_key}.{k}": np.array(v) for k, v in groups.items()}}
    elif command == "zoom":
        factors = [float(f) for f in value("--factors").split(",")]

        def check(text, refs):
            e = refs.entries[ref_key]
            return checks.zoom_check(
                text, {"phases": refs.arrays[ref_key], "error_bound": e["error_bound"]},
                factors, name)

        def reference():
            _, rows = checks.table_from_csv(_run_cli_for_reference(api, argv, out))
            phases = np.array([float(r["phase"]) for r in rows if r["window"] == "0"])
            params = api.params(value("--kind") or "ukh", "1", 1.0, value("--alpha"), "mother")
            grid = int(value("--grid"))
            return {"error_bound": api.bound(params, grid, grid), "array": phases}
    else:
        def check(text, refs):
            return checks.verify_check(text, refs.entries[ref_key]["ids"], name)

        def reference():
            records = json.loads(_run_cli_for_reference(api, argv, out))
            if not all(r["pass"] is True for r in records):
                raise RuntimeError(f"reference verify run has failing checks: {argv}")
            return {"ids": [r["check"] for r in records]}

    return cli_op(api, name, argv, out, check, reference=reference, ref_key=ref_key)


def cache_replay(api: Api, rng: random.Random, work: str) -> Workload:
    """Warm-cache replays: CSV parsing, formatting and atomic writes only."""
    cache = os.path.join(work, "cache")
    cold_dir = os.path.join(work, "cold")
    out = os.path.join(work, "out")
    entries = []
    for i in range(16):
        kind, grid = ("h", "4000") if i % 2 == 0 else ("ukh", "1200")
        alpha = ("8/13", "5/8", "13/21", "3/5")[i // 4]
        theta = repr(round(rng.uniform(0.0, 1.0), 6))
        base = ["compute", "--kind", kind, "--alpha", alpha, "--theta", theta,
                "--grid", grid, "--cache-dir", cache, "--out"]
        entries.append((f"replay.{i:02d}.{kind}", base))
    cold: dict[str, str] = {}

    def prepare():
        for name, base in entries:
            target = os.path.join(cold_dir, name + ".csv")
            argv = base + [target]
            check_argv(argv)
            if api.dispatch(argv) != 0:
                raise RuntimeError(f"cache fill failed: {argv}")
            with open(target, "rb") as fh:
                cold[name] = _digest(fh.read())

    def replay_op(name, base):
        target = os.path.join(out, name + ".csv")

        def check(text, refs):
            got = _digest(text.encode("utf-8"))
            ok = got == cold[name]
            return ok, 0.0 if ok else float("inf"), f"{name}: replay differs from cold output"

        return cli_op(api, name, base + [target], target, check)

    def before_pass():
        # A replay that skipped its write must not pass on the last pass's file.
        shutil.rmtree(out, ignore_errors=True)

    ops = [replay_op(name, base) for name, base in entries]
    return Workload("cache_replay", ops, cache_dirs=[cache], warm=[("h", "8/13")],
                    prepare=prepare, before_pass=before_pass)


WORKLOADS = {
    "mother_q233": mother_q233,
    "mother_q13_dense": mother_q13_dense,
    "cli_survey": cli_survey,
    "cache_replay": cache_replay,
}


def build(name: str, api: Api, seed: int, work: str) -> Workload:
    return WORKLOADS[name](api, random.Random(seed), work)
