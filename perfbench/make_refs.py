"""Record the references that every benchmark operation is checked against.

    python3 perfbench/make_refs.py

Run from the root of a kickspec checkout, on the commit whose outputs are
the contract (the references in ``refs/`` were recorded on the commit that
added the benchmark).  Every seeded pool entry gets a reference, so any
``--seed`` is covered.  Writes ``refs/refs.json`` and ``refs/refs.npz``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

import workloads
from worker import REFS, ROOT, load_kickspec, provenance


class PoolEntry:
    """Stands in for the seeded generator: always picks pool entry ``i``."""

    def __init__(self, i: int) -> None:
        self.i = i

    def randrange(self, n: int) -> int:
        return self.i % n

    def shuffle(self, items: list) -> None:
        return None


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def main() -> int:
    api = workloads.Api(load_kickspec())
    pool = max(len(workloads.Q13_FIXED), len(workloads.SURVEY_THETAS))
    entries: dict = {}
    arrays: dict = {}
    work = tempfile.mkdtemp(prefix="refs-", dir=os.path.join(ROOT, "perfbench"))
    try:
        for name in ("mother_q233", "mother_q13_dense", "cli_survey"):
            for i in range(pool):
                wl = workloads.WORKLOADS[name](api, PoolEntry(i), work)
                for op in wl.ops:
                    if op.ref_key is None or op.ref_key in entries:
                        continue
                    ref = op.reference()
                    if "array" in ref:
                        arrays[op.ref_key] = ref.pop("array")
                    arrays.update(ref.pop("arrays", {}))
                    entries[op.ref_key] = ref
                    print(f"recorded {op.ref_key}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    os.makedirs(REFS, exist_ok=True)
    meta = {"commit": commit(), "provenance": provenance(seed=-1), "entries": entries}
    with open(os.path.join(REFS, "refs.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")
    np.savez_compressed(os.path.join(REFS, "refs.npz"), **arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main())
