"""One fresh benchmark process: set up, then time passes over a workload.

Started by ``run.py``; prints one JSON record as its last stdout line.
``--mode setup`` stops once set-up is done, so ``run.py`` can sample the
set-up time of several fresh processes.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --mode full|setup --work DIR --spawned MONOTONIC_TIME
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REFS = os.path.join(ROOT, "perfbench", "refs")
SETUP_CALIB_REPS = 9  # calibration kernel runs after set-up (their median counts)


def load_kickspec() -> dict:
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401  (set-up covers the numpy and scipy imports)
    import scipy.linalg  # noqa: F401

    modules = {layer: importlib.import_module(f"kickspec.{layer}")
               for layer in ("linalg", "operators", "spectra", "analysis", "cli")}
    where = os.path.abspath(modules["cli"].__file__)
    if not where.startswith(SRC + os.sep):
        raise RuntimeError(f"kickspec imported from {where}, not from {SRC}")
    return modules


def load_refs():
    import numpy as np
    from workloads import Refs

    with open(os.path.join(REFS, "refs.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    with np.load(os.path.join(REFS, "refs.npz")) as npz:
        arrays = {k: npz[k] for k in npz.files}
    return Refs(meta["entries"], arrays)


def warm_up(api, wl) -> None:
    """One-node sweeps that fill the per-q lru caches the workload touches."""
    for kind, alpha in wl.warm:
        api.sweep(api.params(kind, 1.0, 1.0, alpha, "mother"), 1, 1)


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def snapshot(root: str) -> dict:
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            p = os.path.join(dirpath, f)
            st = os.stat(p)
            out[p] = (st.st_ino, st.st_size, st.st_mtime_ns)
    return out


def file_changes(before: dict, after: dict, cache_dirs) -> dict:
    changed = [p for p, st in after.items() if before.get(p) != st]
    return {
        "bytes_written": sum(after[p][1] for p in changed),
        "cache_misses": sum(1 for p in changed if any(p.startswith(d + os.sep) for d in cache_dirs)),
    }


def run_pass(wl, traced: bool, tracer, modules, work: str) -> dict:
    """Run every operation once.  The calibration kernel runs before the
    first operation and after each one, outside the timed operations; each
    operation's wall and CPU time is scaled by the mean of the two kernel
    times around it (see calibrate.py)."""
    import calibrate
    from tracing import HARNESS, Installation

    wl.before_pass()
    before = snapshot(work) if traced else None
    inst = Installation(tracer, modules).install() if traced else None
    if traced:
        tracer.reset()
    raw, errors, calibs = [], {}, [calibrate.sample()]
    wall = cpu = wall_scaled = cpu_scaled = 0.0
    try:
        for op in wl.ops:
            sp = tracer.open(HARNESS, op.name) if traced else None
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            try:
                raw.append(op.run())
            except Exception:  # an operation that raises counts as failed
                raw.append(None)
                errors[op.name] = traceback.format_exc(limit=3)
            finally:
                op_wall = time.perf_counter() - t0
                op_cpu = cpu_seconds() - cpu0
                if sp is not None:
                    tracer.close(sp)
            calibs.append(calibrate.sample())
            factor = calibrate.REF_S / ((calibs[-2] + calibs[-1]) / 2)
            wall += op_wall
            cpu += op_cpu
            wall_scaled += op_wall * factor
            cpu_scaled += op_cpu * factor
    finally:
        restored = inst.uninstall() if inst is not None else True
    rec = {"traced": traced, "wall_s": wall, "cpu_s": cpu, "wall_scaled_s": wall_scaled,
           "cpu_scaled_s": cpu_scaled, "calib_s": statistics.median(calibs), "raw": raw,
           "errors": errors, "restored": restored}
    if traced:
        rec["spans"] = list(tracer.spans)
        rec["files"] = file_changes(before, snapshot(work), wl.cache_dirs)
    return rec


def check_pass(wl, rec: dict, refs, digests: dict) -> dict:
    """Reference-check every operation of a finished pass (untimed)."""
    failures, worst, checks_run, checks_passed = [], 0.0, 0, 0
    for op, raw in zip(wl.ops, rec.pop("raw")):
        if op.name in rec["errors"]:
            failures.append(f"{op.name}: raised\n{rec['errors'][op.name]}")
            continue
        try:
            output = op.collect(raw)
            digest = op.digest(output)
            ok, ratio, msg = op.check(output, refs)
            if op.is_verify and ok:
                records = json.loads(output[1])
                checks_run += len(records)
                checks_passed += sum(r["pass"] is True for r in records)
        except Exception:
            failures.append(f"{op.name}: check raised\n{traceback.format_exc(limit=3)}")
            continue
        if not ok:
            failures.append(msg)
        elif digests.setdefault(op.name, digest) != digest:
            failures.append(f"{op.name}: output differs from the first pass")
        if ratio != float("inf"):
            worst = max(worst, ratio)
    return {"failures": failures, "max_dev_ratio": worst,
            "checks_run": checks_run, "checks_passed": checks_passed}


def blas_info() -> dict:
    import numpy as np

    info: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
        for path in libs:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    info["threads"] = int(getattr(lib, sym)())
                    break
    except OSError:
        pass
    return info


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    lines = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "seed": seed,
        "src_lines": lines,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("full", "setup"), default="full")
    ap.add_argument("--work", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    args = ap.parse_args()

    modules = load_kickspec()
    import calibrate
    import workloads
    from tracing import Tracer, layer_metrics, spans_json

    api = workloads.Api(modules)
    os.makedirs(args.work, exist_ok=True)
    wl = workloads.build(args.workload, api, args.seed, args.work)
    refs = load_refs()
    warm_up(api, wl)
    wl.prepare()
    setup_s = time.monotonic() - args.spawned
    # Set-up is scaled by the machine's speed right after it.
    setup_calib_s = statistics.median(calibrate.sample() for _ in range(SETUP_CALIB_REPS))
    setup = {"setup_s": setup_s, "setup_calib_s": setup_calib_s,
             "setup_scaled_s": setup_s * calibrate.REF_S / setup_calib_s}
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0

    tracer = Tracer()
    tracer.cache_dirs = tuple(os.path.abspath(d) for d in wl.cache_dirs)
    passes, failures, digests = [], [], {}
    worst, attempted = 0.0, 0
    start = time.monotonic()
    while True:
        # With tracing on, traced and untraced passes alternate, so the
        # difference of their best passes is the tracing overhead.
        traced = bool(args.trace) and len(passes) % 2 == 1
        rec = run_pass(wl, traced, tracer, modules, args.work)
        result = check_pass(wl, rec, refs, digests)
        attempted += len(wl.ops)
        failures += result["failures"]
        if not rec["restored"]:
            failures.append("tracing wrappers were not all restored")
        worst = max(worst, result["max_dev_ratio"])
        rec.update(checks_run=result["checks_run"], checks_passed=result["checks_passed"],
                   failed=len(result["failures"]))
        passes.append(rec)
        enough = len(passes) >= (2 if args.trace else 1)
        if enough and time.monotonic() - start >= args.seconds:
            break

    out = {
        **setup,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "max_dev_ratio": worst,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": [{k: rec[k] for k in ("traced", "wall_s", "cpu_s", "calib_s", "wall_scaled_s",
                                        "cpu_scaled_s", "failed")} for rec in passes],
        "provenance": provenance(args.seed),
    }
    traced = [rec for rec in passes if rec["traced"]]
    if traced:
        layers = [
            {**layer_metrics(rec["spans"], rec["files"]),
             "analysis.checks_run": rec["checks_run"],
             "analysis.checks_passed": rec["checks_passed"]}
            for rec in traced
        ]
        out["layers"] = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        untraced = [rec["wall_scaled_s"] for rec in passes if not rec["traced"]]
        # Best scaled traced pass minus best scaled untraced pass.
        out["layers"]["trace.overhead_s"] = min(r["wall_scaled_s"] for r in traced) - min(untraced)
        out["spans"] = spans_json(traced[-1]["spans"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
