"""Re-measure the cases of the ROADMAP "Baseline" table.

    python3 perfbench/baseline.py

Run from the root of a kickspec checkout.  Each case runs three times, each
time in a fresh process, timed around the call only; peak RSS is that
process's ``ru_maxrss``.  Prints median, min-max spread and the ROADMAP figure, and
flags a case whose median differs from the ROADMAP figure by more than the
spread measured here (and by more than the table's stated ~20% noise).
Writes ``perfbench/_work/baseline.json``.  The comparison is recorded in
``perfbench/NOTES.md``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
REPEATS = 3

# (case, seconds in the ROADMAP Baseline table, statement run in a fresh process)
SWEEP = ("from kickspec import OperatorParams, OperatorKind, RationalAlpha, GridSpec, "
         "mother_spectrum\n"
         "p = OperatorParams(OperatorKind({kind!r}), 1.0, 1.0, RationalAlpha.parse({alpha!r}), "
         "'mother')\n"
         "t0 = time.perf_counter(); mother_spectrum(p, GridSpec({n}, {n}))")
CLI = ("from kickspec.cli import dispatch\n"
       "t0 = time.perf_counter(); rc = dispatch({argv!r}); assert rc == 0, rc")

CASES = [
    *[(f"mother {k} 8/13 100x100", t, SWEEP.format(kind=k, alpha="8/13", n=100))
      for k, t in (("h", 0.19), ("uh", 0.95), ("ukh", 0.67), ("uordkr", 0.64))],
    *[(f"mother {k} 89/233 16x16", t, SWEEP.format(kind=k, alpha="89/233", n=16))
      for k, t in (("h", 1.9), ("uh", 20.4), ("ukh", 15.0), ("uordkr", 13.4))],
    ("compute ukh 8/13 --grid 100", 1.5,
     CLI.format(argv=["compute", "--kind", "ukh", "--alpha", "8/13", "--grid", "100",
                      "--out", "{out}/c.csv"])),
    ("bandwidth fib:5..9 --merge-gap track --grid 16", 3.4,
     CLI.format(argv=["bandwidth", "--alpha-list", "fib:5..9", "--merge-gap", "track",
                      "--grid", "16", "--out", "{out}/b.csv"])),
    ("butterfly farey:13 --grid 64", 0.55,
     CLI.format(argv=["butterfly", "--alpha-list", "farey:13", "--grid", "64",
                      "--out", "{out}/f.csv"])),
    ("verify --check all", 11.7,
     CLI.format(argv=["verify", "--check", "all", "--out", "{out}/v.json"])),
]
ROADMAP_RSS_MB = {"verify --check all": 202.0}
PRELUDE = ("import resource, sys, time, json\nsys.path.insert(0, {src!r})\n"
           "import numpy, scipy.linalg, kickspec\n")
EPILOGUE = ("\nwall = time.perf_counter() - t0\n"
            "print(json.dumps({'wall_s': wall, "
            "'rss_mb': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))")


def run_case(body: str, out: str) -> dict:
    code = PRELUDE.format(src=os.path.join(ROOT, "src")) + body.replace("{out}", out) + EPILOGUE
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=600, env=dict(os.environ, TMPDIR=out))
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    os.makedirs(WORK, exist_ok=True)
    rows = []
    with tempfile.TemporaryDirectory(dir=WORK) as out:
        for name, roadmap, body in CASES:
            runs = [run_case(body, out) for _ in range(REPEATS)]
            walls = [r["wall_s"] for r in runs]
            med = statistics.median(walls)
            spread = (max(walls) - min(walls)) / med
            diff = med / roadmap - 1.0
            rss = statistics.median(r["rss_mb"] for r in runs)
            flag = abs(diff) > max(spread, 0.2)
            rows.append({"case": name, "median_s": med, "min_s": min(walls),
                         "max_s": max(walls), "spread": spread, "roadmap_s": roadmap,
                         "diff": diff, "rss_mb": rss, "flagged": flag,
                         "roadmap_rss_mb": ROADMAP_RSS_MB.get(name)})
            print(f"{name:48s} {med:8.3f} s  [{min(walls):.3f}, {max(walls):.3f}]  "
                  f"ROADMAP {roadmap:6.2f} s  {diff:+6.0%}  rss {rss:6.1f} MB"
                  f"{'  FLAG' if flag else ''}", flush=True)
    with open(os.path.join(WORK, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump({"repeats": REPEATS, "cases": rows}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
