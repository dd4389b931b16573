"""A fixed calibration kernel that measures how fast the machine runs now.

The shared machine the benchmark runs on changes speed by up to 1.5x, in
stretches that last from seconds to minutes; the same instructions then take
longer, whatever code runs them.  The worker times this kernel after set-up
and between the operations of every pass, and scales each measured time by
``REF_S / kernel time``: times are reported in seconds at the speed at which
the kernel takes ``REF_S``.

The kernel does not touch kickspec, so no change to the program moves it.
It mixes the kinds of work the workloads do: interpreter work (number
formatting, CSV splitting and parsing, dict updates) and a stack of small
complex eigensolves.  It stays on one thread: a BLAS call large enough to
start OpenBLAS's threads would leave them spinning into the next pass.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.015  # nominal kernel time, seconds; between the fast and slow speeds of a 2-vCPU VM

_rng = np.random.default_rng(12345)
_SMALL = _rng.standard_normal((120, 13, 13)) + 1j * _rng.standard_normal((120, 13, 13))
_VALUES = _rng.standard_normal(1500).tolist()
# Bound at import, before a traced pass wraps numpy.linalg, so that the
# kernel's eigensolves never count in the linalg metrics.
_eigvals = np.linalg.eigvals


def _kernel() -> None:
    text = "\n".join(f"{i},{v:.17g}" for i, v in enumerate(_VALUES))
    acc: dict[int, float] = {}
    for line in text.split("\n"):
        k, v = line.split(",")
        acc[int(k) % 61] = acc.get(int(k) % 61, 0.0) + float(v)
    _eigvals(_SMALL)


def sample() -> float:
    """Wall time of one kernel run, in seconds."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
