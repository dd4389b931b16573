"""kickspec benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kickspec checkout; the program is imported from its
``src/``.  Each run starts fresh worker processes one after another: two
that only set up, one that sets up and then times passes over the
workload's fixed operation list for ``--seconds`` seconds, and two more that
only set up.  Every time is scaled by the machine's speed at the moment, as
measured by a fixed calibration kernel (``calibrate.py``): ``setup_s`` is
the median of the five scaled set-up times, ``wall_s`` and ``cpu_s`` the
medians over the untraced passes.  Every operation is checked against the
recorded references after its pass.

Prints a readable summary, then as the last stdout line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Details (provenance, per-pass times, failures, spans of the traced pass)
go to ``perfbench/_work/``.  Exits non-zero without a result when the
checkout holds no kickspec to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
WORKLOADS = ("mother_q233", "mother_q13_dense", "cli_survey", "cache_replay")
SETUP_ONLY = 2  # set-up-only processes before and again after the timed one
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "linalg.calls": "count", "linalg.matrices": "count", "linalg.busy_s": "s",
    "linalg.us_per_matrix": "us", "linalg.hermitian_frac": "ratio", "linalg.bytes_in": "B",
    "linalg.flop_est": "flop",
    "spectra.sweeps": "count", "spectra.grid_points": "count", "spectra.solve_ratio": "ratio",
    "spectra.repeat_sweeps": "count", "spectra.self_s": "s", "spectra.pool_s": "s",
    "spectra.raw_points": "count", "spectra.kept_points": "count",
    "spectra.kept_ratio": "ratio",
    "operators.calls": "count", "operators.busy_s": "s",
    "analysis.busy_s": "s", "analysis.hausdorff_calls": "count",
    "analysis.checks_run": "count", "analysis.checks_passed": "count",
    "cli.commands": "count", "cli.self_s": "s", "cli.csv_write_s": "s",
    "cli.csv_read_s": "s", "cli.bytes_written": "B", "cli.bytes_read": "B",
    "cli.cache_hits": "count", "cli.cache_misses": "count",
    "trace.overhead_s": "s", "ref.max_dev_ratio": "ratio",
}


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def worker(args, mode: str, work: str, timeout: float) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace",
            str(args.trace), "--mode", mode, "--work", work]
    env = dict(os.environ, TMPDIR=work)
    os.makedirs(work, exist_ok=True)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv + ["--spawned", repr(spawned)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "kickspec", "__init__.py")):
        return fail(f"no kickspec sources under {os.path.join(ROOT, 'src')}")
    os.makedirs(WORK, exist_ok=True)
    start = time.monotonic()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        def setup_only():
            work = tempfile.mkdtemp(prefix="setup-", dir=WORK)
            left = DEADLINE_S - (time.monotonic() - start)
            return worker(args, "setup", work, min(DEADLINE_S / 4, left))

        # The set-up samples straddle the timed process, so that they do not
        # all fall in one stretch of machine speed.
        setups = [setup_only() for _ in range(SETUP_ONLY)]
        work = tempfile.mkdtemp(prefix="run-", dir=WORK)
        res = worker(args, "full", work, DEADLINE_S - (time.monotonic() - start))
        setups.append({k: res[k] for k in ("setup_s", "setup_calib_s", "setup_scaled_s")})
        setups += [setup_only() for _ in range(SETUP_ONLY)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))

    untraced = [p for p in res["passes"] if not p["traced"]]
    fail_frac = res["failed"] / res["attempted"]
    if args.trace:
        values = dict(res["layers"], **{"ref.max_dev_ratio": res["max_dev_ratio"]})
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    else:
        # Times scaled to the calibration kernel's reference speed (see
        # calibrate.py), median over the run's passes and set-up samples.
        values = {
            "setup_s": statistics.median(s["setup_scaled_s"] for s in setups),
            "wall_s": statistics.median(p["wall_scaled_s"] for p in untraced),
            "cpu_s": statistics.median(p["cpu_scaled_s"] for p in untraced),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    detail = dict(res, setup_samples=setups, fail_frac=fail_frac, metrics=metrics,
                  workload=args.workload, seconds=args.seconds)
    with open(os.path.join(WORK, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    prov = res["provenance"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(res['passes'])}  attempted {res['attempted']}  failed {res['failed']}")
    print(f"machine: nproc {prov['nproc']}  python {prov['python']}  numpy {prov['numpy']}  "
          f"scipy {prov['scipy']}  blas {prov['blas']}  src_lines {prov['src_lines']}")
    for k, m in metrics.items():
        print(f"  {k:28s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':28s} {fail_frac:.6g} ratio")
    walls = sorted(p["wall_s"] for p in untraced)
    calibs = [p["calib_s"] for p in res["passes"]]
    print(f"  untraced passes k={len(walls)}, unscaled wall: min {walls[0]:.4g} s, "
          f"median {statistics.median(walls):.4g} s, max {walls[-1]:.4g} s")
    print(f"  unscaled setup: median {statistics.median(s['setup_s'] for s in setups):.4g} s;"
          f" calibration kernel (pass medians): median {statistics.median(calibs):.4g} s, "
          f"min {min(calibs):.4g} s, max {max(calibs):.4g} s")
    for f in res["failures"]:
        print(f"FAILED {f}", file=sys.stderr)
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
