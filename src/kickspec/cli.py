"""Command-line front end.

``spectra <compute|bandwidth|butterfly|zoom|verify|cache> [flags]``

Computes and persists spectra, band statistics, butterflies, zooms and
verification reports.  Outputs are deterministic: identical configurations
produce byte-identical CSV/SVG files.  Data goes to files or standard
output only; diagnostics go to the error stream.  Exit codes: 0 success,
2 usage error, 3 numerical failure, 4 I/O failure.  ``verify`` reports
only: exit 0 once every selected check has run, whatever its reports' pass
fields say.  Every flag value is parsed and checked before anything is
swept or written.  A cached ``compute`` hit checks the entry it reads and
prints its bytes; only the commands that read points (``zoom``,
``bandwidth``, SVG rings) parse an entry's numbers.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .analysis import (
    _PARSE,
    CHECK_IDS,
    check_config,
    check_keys,
    run_check,
    total_bandwidth,
    zoom_windows,
    butterfly as butterfly_dataset,
)
from .errors import InvalidParams, MalformedSpectrumFile, NumericalError, UsageError
from .linalg import DEDUP_TOL, UNIT_MODULUS_TOL, principal_args
from .operators import MOTHER, OperatorKind, OperatorParams
from .spectra import (
    GridSpec,
    SpectrumKind,
    SpectrumSet,
    _preflight,
    auto_merge_gap,
    eigenphases,
    grid_error_bound,
    merge_bands,
    mother_spectrum,
    spectrum_fixed_theta,
    tracked_bands,
)

__all__ = [
    "dispatch",
    "main",
    "write_spectrum_csv",
    "read_spectrum_csv",
    "write_rings_svg",
    "cache_key",
]


# -- float formatting ----------------------------------------------------------

def _fmt(v: float) -> str:
    """Locale-independent decimal form that round-trips binary64 exactly.

    17 fractional digits pin a double whenever |v| >= 1/16 (the decimal
    resolution 5e-18 is below half an ulp there); smaller magnitudes use
    the shortest round-trip repr instead.  Zeros print as a bare 0.
    """
    v = float(v)
    if v == 0.0:
        return "0"
    if 0.0625 <= abs(v) < 1e16:
        return f"{v:.17f}"
    return repr(v)


@functools.cache
def _digits4() -> np.ndarray:
    """Every 4-digit group, 0000..9999, as 4 ASCII bytes; built on first use, by the
    int64 divmod that _fixed17 runs too (a broadcast build costs more resident memory)."""
    rest, table = np.arange(10_000), np.empty((10_000, 4), np.uint8)
    for i in (3, 2, 1, 0):
        rest, table[:, i] = np.divmod(rest, 10)
    table += ord("0")
    return table


def _halves(x):
    """Dekker's split x = hi + lo, each half of at most 26 significant bits."""
    c = 134217729.0 * x  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _fixed17(v: np.ndarray) -> np.ndarray:
    """_fmt's fields of values with 1/16 <= |v| < 10, as NUL-padded (len(v), 20) uint8 rows.

    N = |v| 10^17 rounded half-even is found exactly: p = fl(|v| 1e17) is an
    integer below 2^60, and its error e, from Dekker's product, is a multiple
    of 2^-39 with |e| <= 64, so p and e 2^39 both convert to int64 exactly.
    """
    a = np.abs(v)
    p = a * 1e17
    ah, al = _halves(a)
    bh, bl = _halves(1e17)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    n, r = np.divmod((e * 2.0**39).astype(np.int64), 1 << 39)
    n += p.astype(np.int64)
    n += (r > 1 << 38) | ((r == 1 << 38) & (n % 2 == 1))
    lead, rest = np.divmod(n, 10**16)
    out = np.zeros((len(v), 20), np.uint8)
    out[:, 0] = np.where(np.signbit(v), ord("-"), 0)
    out[:, 1] = lead // 10 + ord("0")
    out[:, 2] = ord(".")
    out[:, 3] = lead % 10 + ord("0")
    for end in (20, 16, 12, 8):
        rest, group = np.divmod(rest, 10_000)
        out[:, end - 4:end] = _digits4()[group]
    return out


# Rows per block of _csv_body, which bounds its temporaries whatever the table's length.
_BLOCK_ROWS = 1 << 13


def _csv_body(columns) -> bytes:
    """CSV rows of equal-length columns, each row ending in a newline.

    An integer column's fields are written as str writes them, a float
    column's as _fmt does; _fmt itself runs only for the fields outside
    1/16 <= |v| < 10, and _fixed17 writes the rest.
    """
    columns = [np.asarray(col) for col in columns]
    return b"".join(_csv_block([col[i:i + _BLOCK_ROWS] for col in columns])
                    for i in range(0, len(columns[0]), _BLOCK_ROWS))


def _csv_block(columns: list[np.ndarray]) -> bytes:
    """_csv_body's rows of one block: every field sits in one NUL-padded uint8
    table with its separator, and the NULs are dropped at the end."""
    fields = []
    for col in columns:
        if col.dtype.kind == "f":
            fast = (0.0625 <= np.abs(col)) & (np.abs(col) < 10.0)
            slow = np.array([_fmt(v) for v in col[~fast].tolist()], "S")
        else:
            fast, slow = np.zeros(len(col), bool), col.astype("S")
        fields.append((col, fast, slow))
    widths = [max(slow.itemsize, 20 if fast.any() else 0) + 1 for _, fast, slow in fields]
    table = np.zeros((len(fields[0][0]), sum(widths)), np.uint8)
    start = 0
    for (col, fast, slow), width in zip(fields, widths):
        cell = table[:, start:start + width]
        if fast.any():
            cell[fast, :20] = _fixed17(col[fast])
        cell[~fast, :slow.itemsize] = slow.view(np.uint8).reshape(-1, slow.itemsize)
        cell[:, -1] = ord(",")
        start += width
    table[:, -1] = ord("\n")
    return table.tobytes().translate(None, b"\0")


def _atomic_write(path: str, text: str) -> None:
    """Write whole files only: temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- spectrum CSV --------------------------------------------------------------

def _rows_sha256(body: bytes) -> str:
    """SHA-256 of a spectrum CSV's body, the bytes after its rows_sha256 line."""
    return hashlib.sha256(body).hexdigest()


def _header_lines(params: OperatorParams, grid: GridSpec) -> list[str]:
    """The one description of a request: its spectrum CSV's lines before rows_sha256."""
    return [
        f"# kind={params.kind.value}",
        f"# kappa={params.kappa!r}",
        f"# lambda={params.lam!r}",
        f"# alpha={params.alpha}",
        f"# theta={MOTHER if params.is_mother else repr(params.theta)}",
        f"# n_x={grid.n_x}",
        f"# n_theta={grid.n_theta}",
        f"# error_bound={grid_error_bound(params, grid)!r}",
    ]


def spectrum_csv_text(s: SpectrumSet) -> str:
    """The spectrum CSV of a sweep's spectrum; any other spectrum is refused."""
    if s.params is None or s.grid is None:
        raise InvalidParams("only a sweep's spectrum, with its params and grid, is written")
    z = s.points
    body = _csv_body([z] if s.kind is SpectrumKind.REAL_LINE
                     else [z.real, z.imag, principal_args(z)])
    return "\n".join([*_header_lines(s.params, s.grid),
                      f"# rows_sha256={_rows_sha256(body)}", body.decode("ascii")])


def write_spectrum_csv(s: SpectrumSet, path: str) -> str:
    """Persist a SpectrumSet (`# key=value` header lines, then sorted rows); return the text."""
    text = spectrum_csv_text(s)
    _atomic_write(path, text)
    return text


def read_spectrum_csv(path: str) -> SpectrumSet:
    """Inverse of write_spectrum_csv; reproduces the SpectrumSet exactly."""
    return read_spectrum_text(path, points=True)[0]


# Every byte but the row and field separators, which a body's shape is read from.
_NOT_SEPARATOR = bytes(b for b in range(256) if b not in b",\n")


def read_spectrum_text(
    path: str, request: tuple[OperatorParams, GridSpec] | None = None, points: bool = False
) -> tuple[SpectrumSet | None, str]:
    """A spectrum CSV file's spectrum for a request (None without ``points``) and its text.

    The request (params, grid) defaults to the one the file's kind, kappa,
    lambda, alpha, theta, n_x and n_theta lines name.  One rule accepts the
    file: its header lines are _header_lines(params, grid), its rows_sha256
    line is the SHA-256 of the body after it, and the body is at least one
    nonempty row, each ending in a newline and holding its kind's field
    count: one on the line, three on the circle.  The rule parses no number;
    only with ``points`` are the rows read as numbers by params.kind and
    built into the spectrum, and a field that is not a number, or points
    SpectrumSet.build refuses, fail the file too.  Anything else raises
    MalformedSpectrumFile.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        text = data.decode("utf-8")
        if request is None:
            value = dict(ln[2:].partition("=")[::2] for ln in text.split("\n", 7)[:7])
            request = (OperatorParams(*(_PARSE[key](value[key])
                                        for key in ("kind", "kappa", "lambda", "alpha", "theta"))),
                       GridSpec(int(value["n_x"]), int(value["n_theta"])))
        params, grid = request
        head = "\n".join([*_header_lines(params, grid), "# rows_sha256="]).encode("utf-8")
        # The sha line ends in 64 hex digits and a newline; the body is every byte after it.
        sha, body = data[len(head):len(head) + 65], data[len(head) + 65:]
        row = b"\n" if SpectrumKind.of(params.kind) is SpectrumKind.REAL_LINE else b",,\n"
        seps = body.translate(None, _NOT_SEPARATOR)
        if not (data.startswith(head) and sha == f"{_rows_sha256(body)}\n".encode("utf-8")
                and body.endswith(b"\n") and seps == row * (len(seps) // len(row))
                # A row of fields joined by commas is never empty; a row of one field
                # is empty where two newlines meet.
                and (row != b"\n" or b"\n\n" not in b"\n" + body)):
            raise ValueError("not this request's header, or rows that do not match rows_sha256 "
                             "or their kind's field count")
        return (_spectrum(text, params, grid) if points else None), text
    except (ValueError, KeyError, UsageError) as exc:
        raise MalformedSpectrumFile(f"malformed spectrum file {path}: {exc!r}") from exc


def _spectrum(text: str, params: OperatorParams, grid: GridSpec) -> SpectrumSet:
    """The spectrum of an accepted spectrum CSV text: each row's first field, a real point,
    or its first two, a complex one."""
    rows = text.split("\n")[len(_header_lines(params, grid)) + 1:-1]
    kind = SpectrumKind.of(params.kind)
    if kind is SpectrumKind.REAL_LINE:
        values = [float(row) for row in rows]
    else:
        values = [complex(float(re_s), float(im_s))
                  for re_s, im_s, _ in (row.split(",") for row in rows)]
    return SpectrumSet.build(kind, np.asarray(values), params=params, grid=grid)


# -- ring SVG ------------------------------------------------------------------

def write_rings_svg(spectra: list[SpectrumSet], path: str) -> None:
    """Concentric-ring plot: one ring per spectrum, radius grows with index.

    All spectra must be on the unit circle and share the same alpha; the
    real and imaginary axes are drawn through the common center.  Output
    bytes are a deterministic function of the input.
    """
    if not spectra:
        raise InvalidParams("write_rings_svg needs at least one spectrum")
    alphas = {str(s.params.alpha) for s in spectra if s.params is not None}
    if any(s.kind is not SpectrumKind.UNIT_CIRCLE for s in spectra):
        raise InvalidParams("ring plots require UNIT_CIRCLE spectra")
    if len(alphas) > 1:
        raise InvalidParams(f"ring plots require a single alpha, got {sorted(alphas)}")

    r0, dr, pad = 60.0, 36.0, 24.0
    outer = r0 + dr * (len(spectra) - 1)
    half = outer + pad
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{-half:.1f} {-half:.1f} {2 * half:.1f} {2 * half:.1f}">',
        f'<line x1="{-half + 4:.1f}" y1="0" x2="{half - 4:.1f}" y2="0" '
        f'stroke="#999" stroke-width="0.6"/>',
        f'<line x1="0" y1="{-half + 4:.1f}" x2="0" y2="{half - 4:.1f}" '
        f'stroke="#999" stroke-width="0.6"/>',
    ]
    for i, s in enumerate(spectra):
        r = r0 + dr * i
        ph = principal_args(s.points)
        xs, ys = r * np.cos(ph), -r * np.sin(ph)
        d = "".join(f"M{x:.3f} {y:.3f}h0" for x, y in zip(xs, ys))
        parts.append(
            f'<path d="{d}" fill="none" stroke="#000" stroke-width="1.4" '
            f'stroke-linecap="round"/>'
        )
    parts.append("</svg>")
    _atomic_write(path, "\n".join(parts) + "\n")


# -- cache ---------------------------------------------------------------------

def cache_key(params: OperatorParams, grid: GridSpec) -> str:
    """SHA-256 of the version, the tolerances and the request's header lines."""
    blob = "\n".join([__version__, repr(UNIT_MODULUS_TOL), repr(DEDUP_TOL),
                      *_header_lines(params, grid)])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def compute_spectrum(
    params: OperatorParams, grid: GridSpec, cache_dir: str | None = None, points: bool = True
) -> tuple[SpectrumSet | None, str | None]:
    """Compute a spectrum, consulting/propagating the CSV cache if enabled.

    Returns the spectrum and its entry's text: the bytes read on a hit, the
    bytes just written on a miss, None without a cache.  A hit reads its
    rows as numbers only for ``points``; without, its spectrum is None.
    """
    if cache_dir is None:
        return _compute(params, grid), None
    path = os.path.join(cache_dir, cache_key(params, grid) + ".csv")
    try:
        return read_spectrum_text(path, (params, grid), points)
    except (FileNotFoundError, MalformedSpectrumFile):
        pass  # a missing entry, or one not accepted for this request, is recomputed
    s = _compute(params, grid)
    return s, write_spectrum_csv(s, path)


def _compute(params: OperatorParams, grid: GridSpec) -> SpectrumSet:
    if params.is_mother:
        return mother_spectrum(params, grid)
    return spectrum_fixed_theta(params, grid)


# -- argument plumbing -----------------------------------------------------------

def _parsed(flag: str, parse, text):
    """parse(text), reporting a value it cannot use as a usage error that names the flag."""
    try:
        return parse(text)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParams(f"bad {flag} value {text!r}: {exc}") from exc


def _floats(text: str) -> list[float]:
    """A comma list of numbers, by the nonempty float-list parser of the checks' kappas."""
    return _PARSE["kappas"](text.split(","))


def _operators(args, alphas=()) -> tuple[list[float], float, GridSpec, list[OperatorParams]]:
    """A command's operator flags, each parsed once, and checked before anything is swept.

    Returns (kappas, lambda, grid, params), params holding one OperatorParams
    per kappa and alpha: the --alpha flag, which a command that has it
    requires, else ``alphas``.  Only compute --format svg reads a --kappa list, --grid N,M
    needs --theta mother (the one scope with a theta axis), eigenphase
    outputs (zoom, SVG rings) need a unit-circle kind, and every sweep must
    pass the size preflight before the first one runs.  Each alpha is
    size-checked as it is drawn, so an oversized one stops a lazy list there.
    """
    if hasattr(args, "alpha"):
        if args.alpha is None:
            raise InvalidParams(f"{args.command} requires --alpha")
        alphas = [_parsed("--alpha", _PARSE["alpha"], args.alpha)]
    kind = _parsed("--kind", _PARSE["kind"], args.kind)
    kappas = _parsed("--kappa", _floats, args.kappa)
    lam = _parsed("--lambda", _PARSE["lambda"], args.lam)
    theta = _parsed("--theta", _PARSE["theta"], getattr(args, "theta", MOTHER))
    sizes = _parsed("--grid", lambda text: [int(n) for n in text.split(",")], args.grid)
    svg = getattr(args, "format", None) == "svg"
    if len(kappas) > 1 and not svg:
        raise InvalidParams(f"{args.command} reads a single --kappa; "
                            "a list is read only by compute --format svg")
    if len(sizes) > 2 or len(sizes) == 2 and not (hasattr(args, "theta") and theta == MOTHER):
        raise InvalidParams(f"--grid expects N, or N,M with --theta mother, got {args.grid!r}")
    if SpectrumKind.of(kind) is SpectrumKind.REAL_LINE and (svg or args.command == "zoom"):
        raise InvalidParams(f"{args.command} shows eigenphases; --kind {kind.value} has a "
                            "real spectrum")
    grid, params = GridSpec(sizes[0], sizes[-1]), []
    for pa in (OperatorParams(kind, k, lam, a, theta) for a in alphas for k in kappas):
        _preflight(pa, grid)
        params.append(pa)
    return kappas, lam, grid, params


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out, text)


def _emit_table(lines: list[str], columns, out: str | None) -> None:
    """Emit a table: its header lines, then the CSV rows of its columns."""
    _emit("\n".join(lines) + "\n" + _csv_body(columns).decode("ascii"), out)


def _add_operator_flags(p: argparse.ArgumentParser, alpha: bool = True, theta: bool = True) -> None:
    p.add_argument("--kind", choices=[k.value for k in OperatorKind], default="ukh")
    if alpha:
        p.add_argument("--alpha", help="frequency as a p/q literal")
    p.add_argument("--kappa", default="1", help="time scale (comma list allowed for SVG rings)")
    p.add_argument("--lambda", dest="lam", default=1.0, help="coupling")
    if theta:
        p.add_argument("--theta", default=MOTHER, help="phase in [0,1) or 'mother'")
    p.add_argument("--grid", default="100",
                   help="N grid points per axis, or N,M (x, theta) with --theta mother")
    p.add_argument("--out", default=None, help="output path (default: standard output)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call; every dispatch reuses it unchanged."""
    parser = argparse.ArgumentParser(
        prog="spectra",
        description="Spectra of Harper-family and kicked-rotor operators at rational frequency.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute one spectrum and write CSV or SVG rings")
    _add_operator_flags(p)
    p.add_argument("--format", choices=["csv", "svg"], default="csv")
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("bandwidth", help="band statistics over a list of alphas")
    _add_operator_flags(p, alpha=False)
    p.add_argument("--alpha-list", required=True, help="fib:a..b or farey:qmax")
    p.add_argument("--merge-gap", default="auto",
                   help="'auto' (4x error bound), 'track' (per-band-index edges) or a number")
    p.add_argument("--cache-dir", default=None, help="rejected with --merge-gap track")
    p.set_defaults(func=_cmd_bandwidth)

    p = sub.add_parser("butterfly", help="union spectra over all Farey rationals")
    _add_operator_flags(p, alpha=False, theta=False)
    p.add_argument("--alpha-list", required=True, help="farey:qmax")
    p.set_defaults(func=_cmd_butterfly)

    p = sub.add_parser("zoom", help="nested eigenphase windows around a center")
    _add_operator_flags(p)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--center", default=None, help="window center (default: phase median)")
    p.add_argument("--factors", required=True, help="comma-separated zoom factors > 1")
    p.set_defaults(func=_cmd_zoom)

    p = sub.add_parser("verify", help="run verification checks and report JSON records")
    # Flags override the config keys the selected checks read (a flag that no
    # selected check reads is rejected) and reach run_check as strings, which
    # its per-key parsers read; anything omitted has no command default and
    # falls back to the check's own, so every check stays runnable bare.
    p.add_argument("--check", required=True, help="check id or 'all'")
    _add_operator_flags(p)
    p.set_defaults(func=_cmd_verify, kind=None, kappa=None, lam=None, theta=None, grid=None)

    p = sub.add_parser("cache", help="cache maintenance")
    p.add_argument("action", choices=["clear"])
    p.add_argument("--cache-dir", required=True)
    p.set_defaults(func=_cmd_cache)

    return parser


# -- commands --------------------------------------------------------------------

def _cmd_compute(args) -> int:
    if args.format == "svg" and args.out is None:
        raise InvalidParams("--format svg requires --out")
    _, _, grid, params = _operators(args)
    svg = args.format == "svg"
    spectra = [compute_spectrum(pa, grid, args.cache_dir, points=svg) for pa in params]
    if svg:
        write_rings_svg([s for s, _ in spectra], args.out)
    else:
        s, text = spectra[0]
        _emit(text or spectrum_csv_text(s), args.out)
    return 0


def _cmd_bandwidth(args) -> int:
    if args.merge_gap == "track" and args.cache_dir is not None:
        raise InvalidParams("bandwidth --merge-gap track does not read --cache-dir")
    gap = args.merge_gap
    if gap != "track":
        gap = _parsed("--merge-gap", _PARSE["merge_gap"], gap)
    alphas = _parsed("--alpha-list", _PARSE["alpha_list"], args.alpha_list)
    _, _, grid, params = _operators(args, alphas)
    # The sweeps' shared header: the request's lines but the per-alpha ones.
    lines = [ln for ln in _header_lines(params[0], grid)
             if not ln.startswith(("# alpha=", "# error_bound="))]
    lines += [f"# merge_gap={args.merge_gap}", "p,q,alpha,bands,width,error_bound"]
    rows = []
    for pa in params:
        if gap == "track":
            bands = tracked_bands(pa, grid)
        else:
            s, _ = compute_spectrum(pa, grid, args.cache_dir)
            bands = merge_bands(s, auto_merge_gap(s, gap))
        alpha = pa.alpha
        rows.append((alpha.p, alpha.q, alpha.value, len(bands), total_bandwidth(bands),
                     grid_error_bound(pa, grid)))
    _emit_table(lines, zip(*rows), args.out)
    return 0


def _cmd_butterfly(args) -> int:
    if not args.alpha_list.startswith("farey:"):
        raise InvalidParams("butterfly sweeps Farey rationals; use --alpha-list farey:qmax")
    # Farey order opens with 1/q_max; butterfly_dataset draws the list itself.
    first = next(_parsed("--alpha-list", _PARSE["alpha_list"], args.alpha_list))
    kappas, lam, grid, _ = _operators(args)
    ds = butterfly_dataset(args.kind, kappas[0], lam, first.q, grid.n_x)
    # The kind, kappa and lambda lines of the first sweep's request head the table.
    request = OperatorParams(ds.kind, ds.kappa, ds.lam, first, MOTHER)
    lines = [*_header_lines(request, grid)[:3], f"# q_max={ds.q_max}", f"# grid_n={ds.grid_n}",
             "p,q,value"]
    _emit_table(lines, [ds.p, ds.q, ds.values], args.out)
    return 0


def _cmd_zoom(args) -> int:
    center = None if args.center is None else _parsed("--center", _PARSE["center"], args.center)
    factors = _parsed("--factors", lambda text: _PARSE["factors"](_floats(text)), args.factors)
    _, _, grid, (pa,) = _operators(args)
    phases = eigenphases(compute_spectrum(pa, grid, args.cache_dir)[0])
    center = float(np.median(phases)) if center is None else center
    windows = zoom_windows(phases, center, factors)
    lines = [
        f"# center={center!r}",
        f"# factors={args.factors}",
        "window,lo,hi,phase",
    ]
    sizes = [w.points.size for w in windows]
    _emit_table(lines, [np.repeat(np.arange(len(windows)), sizes),
                        np.repeat([w.lo for w in windows], sizes),
                        np.repeat([w.hi for w in windows], sizes),
                        np.concatenate([w.points for w in windows])], args.out)
    return 0


def _cmd_verify(args) -> int:
    ids = CHECK_IDS if args.check == "all" else (args.check,)
    keys = {cid: check_keys(cid) for cid in ids}
    given = {"kind": args.kind, "alpha": args.alpha, "kappa": args.kappa, "lambda": args.lam,
             "theta": args.theta, "n": args.grid}
    flag = {k: "--grid" if k == "n" else f"--{k}" for k in given}
    cfg = {k: v for k, v in given.items() if v is not None}
    unread = sorted(set(cfg) - frozenset().union(*keys.values()))
    if unread:
        raise InvalidParams(f"verify --check {args.check} does not read "
                            f"{', '.join(flag[k] for k in unread)}")
    # Every check's config is parsed and checked before the first check sweeps;
    # run_check's parsers accept their own output.  Of several checks, one whose
    # own rule refuses the values is left out, and named on the error stream.
    cfg = {k: _parsed(flag[k], _PARSE[k], v) for k, v in cfg.items()}
    cfgs = {}
    for cid in ids:
        try:
            cfgs[cid] = check_config(cid, {k: v for k, v in cfg.items() if k in keys[cid]})
        except InvalidParams as exc:
            if len(ids) == 1:
                raise
            print(f"spectra: verify: leaving out {cid}: {exc}", file=sys.stderr)
    reports = [run_check(cid, c).to_dict() for cid, c in cfgs.items()]
    text = json.dumps(reports, indent=2, sort_keys=True) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_cache(args) -> int:
    if os.path.isdir(args.cache_dir):
        for name in sorted(os.listdir(args.cache_dir)):
            if name.endswith(".csv"):
                os.unlink(os.path.join(args.cache_dir, name))
    return 0


def dispatch(argv) -> int:
    """Parse argv and run one command, mapping failures to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"spectra: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"spectra: numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"spectra: numerical failure: out of memory: {exc or 'allocation failed'}",
              file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"spectra: I/O failure: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
