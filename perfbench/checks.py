"""Reference checks, written independently of kickspec's own analysis code.

A spectrum passes when its Hausdorff distance to the recorded reference is
at most the sum of the two certified ``error_bound``s: both lie within
their bound of the same true spectrum.  Circle spectra are compared in the
chordal metric |z - w|, the metric the bounds are stated in.  Integer
outputs must match exactly.  Every check returns ``(ok, ratio, what)``
where ``ratio`` is deviation / allowed (0 for exact checks that pass).
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

TWO_PI = 2.0 * np.pi


def _nearest_line(a: np.ndarray, b: np.ndarray) -> float:
    pos = np.searchsorted(b, a)
    left = b[np.clip(pos - 1, 0, b.size - 1)]
    right = b[np.clip(pos, 0, b.size - 1)]
    return float(np.minimum(np.abs(a - left), np.abs(a - right)).max())


def _nearest_circle(a: np.ndarray, b: np.ndarray) -> float:
    pos = np.searchsorted(b, a)
    cands = np.stack((b[(pos - 1) % b.size], b[pos % b.size]))
    arc = np.abs((a - cands + np.pi) % TWO_PI - np.pi).min(axis=0)
    return float((2.0 * np.sin(arc / 2.0)).max())


def hausdorff(a: np.ndarray, b: np.ndarray, circle: bool) -> float:
    """Hausdorff distance of two point sets: reals, or eigenphases on the circle."""
    a, b = np.sort(np.asarray(a, float)), np.sort(np.asarray(b, float))
    near = _nearest_circle if circle else _nearest_line
    return max(near(a, b), near(b, a))


def spectrum_check(values, bound, ref_values, ref_bound, circle, what):
    values = np.asarray(values, float)
    if values.size == 0 or not np.all(np.isfinite(values)):
        return False, float("inf"), f"{what}: empty or non-finite spectrum"
    allowed = float(bound) + float(ref_bound)
    dev = hausdorff(values, ref_values, circle)
    ratio = dev / allowed if allowed > 0 else (0.0 if dev == 0 else float("inf"))
    return ratio <= 1.0, ratio, f"{what}: hausdorff {dev:.3e} vs allowed {allowed:.3e}"


def exact_check(got, want, what):
    ok = got == want
    return ok, 0.0 if ok else float("inf"), f"{what}: {got!r} vs {want!r}"


# -- parsing CLI outputs -----------------------------------------------------------

def split_csv(text: str) -> tuple[dict, list[list[str]]]:
    """`# key=value` header lines and the remaining CSV rows."""
    header, rows = {}, []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            key, _, val = line[1:].strip().partition("=")
            header[key.strip()] = val.strip()
        else:
            rows.append(line)
    return header, list(csv.reader(io.StringIO("\n".join(rows))))


def spectrum_from_csv(text: str) -> tuple[np.ndarray, float, bool]:
    """(eigenphases or real values, error_bound, on_circle) of a spectrum CSV."""
    header, rows = split_csv(text)
    circle = bool(rows) and len(rows[0]) >= 2
    data = np.array(rows, dtype=float) if rows else np.empty((0, 3 if circle else 1))
    values = np.arctan2(data[:, 1], data[:, 0]) if circle else data[:, 0]
    return values, float(header["error_bound"]), circle


def table_from_csv(text: str) -> tuple[dict, list[dict]]:
    """Header and rows keyed by the column-name row (bandwidth, butterfly, zoom)."""
    header, rows = split_csv(text)
    names = rows[0]
    return header, [dict(zip(names, r)) for r in rows[1:]]


def bandwidth_check(text: str, ref: list[dict], what: str):
    """Integers exact; each total width within 2 * bands * (its bound + ref bound)."""
    _, rows = table_from_csv(text)
    got = [(int(r["p"]), int(r["q"]), int(r["bands"])) for r in rows]
    want = [(r["p"], r["q"], r["bands"]) for r in ref]
    if got != want:
        return exact_check(got, want, what)
    worst = 0.0
    for r, w in zip(rows, ref):
        allowed = 2 * w["bands"] * (float(r["error_bound"]) + w["error_bound"])
        dev = abs(float(r["width"]) - w["width"])
        worst = max(worst, dev / allowed if allowed > 0 else (0.0 if dev == 0 else float("inf")))
    return worst <= 1.0, worst, f"{what}: worst width deviation ratio {worst:.3g}"


def butterfly_check(text: str, ref: dict, circle: bool, what: str):
    """Same (p, q) groups; each group's spectrum within twice its bound."""
    _, rows = table_from_csv(text)
    groups: dict[str, list[float]] = {}
    for r in rows:
        groups.setdefault(f"{r['p']}/{r['q']}", []).append(float(r["value"]))
    if sorted(groups) != sorted(ref["values"]):
        return exact_check(sorted(groups), sorted(ref["values"]), what)
    worst = 0.0
    for key, vals in groups.items():
        ok, ratio, _ = spectrum_check(
            vals, ref["bounds"][key], ref["values"][key], ref["bounds"][key], circle, key
        )
        worst = max(worst, ratio)
    return worst <= 1.0, worst, f"{what}: worst group ratio {worst:.3g}"


def zoom_check(text: str, ref: dict, factors: list[float], what: str):
    """Window 0 is the spectrum; inner windows are recomputed from it."""
    header, rows = table_from_csv(text)
    windows: dict[int, dict] = {}
    for r in rows:
        w = windows.setdefault(int(r["window"]), {"lo": float(r["lo"]), "hi": float(r["hi"]),
                                                  "points": []})
        w["points"].append(float(r["phase"]))
    # An inner window with no points has no rows.
    n = len(factors) + 1
    if 0 not in windows or not set(windows) <= set(range(n)):
        return exact_check(sorted(windows), list(range(n)), what)
    full = np.sort(np.array(windows[0]["points"]))
    ok, ratio, msg = spectrum_check(full, ref["error_bound"], ref["phases"],
                                    ref["error_bound"], True, what)
    if not ok:
        return ok, ratio, msg
    center = float(header["center"])
    width = TWO_PI
    for k, f in enumerate(factors, start=1):
        width /= f
        lo, hi = center - width / 2.0, center + width / 2.0
        w = windows.get(k, {"lo": lo, "hi": hi, "points": []})
        inside = full[(full >= lo) & (full <= hi)]
        if not (np.isclose(w["lo"], lo, rtol=0, atol=1e-15)
                and np.isclose(w["hi"], hi, rtol=0, atol=1e-15)
                and np.array_equal(np.sort(w["points"]), inside)):
            return False, float("inf"), f"{what}: window {k} disagrees with window 0"
    return True, ratio, msg


def verify_check(text: str, ref_ids: list[str], what: str):
    """Same check ids in order, and every record passes."""
    records = json.loads(text)
    ids = [r["check"] for r in records]
    if ids != ref_ids:
        return exact_check(ids, ref_ids, what)
    failed = [r["check"] for r in records if r["pass"] is not True]
    return not failed, 0.0 if not failed else float("inf"), f"{what}: failed {failed}"
