"""Command-line front end.

``spectra <compute|bandwidth|butterfly|zoom|verify|cache> [flags]``

Computes and persists spectra, band statistics, butterflies, zooms and
verification reports.  Outputs are deterministic: identical configurations
produce byte-identical CSV/SVG files.  Data goes to files or standard
output only; diagnostics go to the error stream.  Exit codes: 0 success,
2 usage error, 3 numerical failure, 4 I/O failure.  Every flag value is
parsed and checked before anything is swept or written.
"""

from __future__ import annotations

import argparse
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
    check_keys,
    farey_rationals,
    golden_convergents,
    run_check,
    total_bandwidth,
    zoom_windows,
    butterfly as butterfly_dataset,
)
from .errors import (
    EmptySpectrum,
    InvalidParams,
    KindMismatch,
    MalformedSpectrumFile,
    NumericalError,
    UsageError,
)
from .linalg import (
    DEDUP_TOL,
    UNIT_MODULUS_TOL,
    UNITARY_TOL,
    principal_args,
)
from .operators import MOTHER, OperatorKind, OperatorParams, RationalAlpha
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
        return np.format_float_positional(v, precision=17, unique=False, fractional=True, trim="k")
    return repr(v)


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

def spectrum_csv_text(s: SpectrumSet) -> str:
    lines = [f"# kind={s.params.kind.value}" if s.params else f"# kind={s.kind.value}"]
    if s.params is not None:
        lines += [
            f"# kappa={s.params.kappa!r}",
            f"# lambda={s.params.lam!r}",
            f"# alpha={s.params.alpha}",
            f"# theta={MOTHER if s.params.is_mother else repr(s.params.theta)}",
        ]
    if s.grid is not None:
        lines += [f"# n_x={s.grid.n_x}", f"# n_theta={s.grid.n_theta}"]
    lines.append(f"# error_bound={s.error_bound!r}")
    if s.kind is SpectrumKind.REAL_LINE:
        lines.extend(_fmt(v) for v in s.points)
    else:
        phases = principal_args(s.points)
        lines.extend(
            f"{_fmt(z.real)},{_fmt(z.imag)},{_fmt(ph)}" for z, ph in zip(s.points, phases)
        )
    return "\n".join(lines) + "\n"


def write_spectrum_csv(s: SpectrumSet, path: str) -> None:
    """Persist a SpectrumSet: `# key=value` header lines, then sorted rows."""
    _atomic_write(path, spectrum_csv_text(s))


def read_spectrum_csv(path: str) -> SpectrumSet:
    """Inverse of write_spectrum_csv; reproduces the SpectrumSet exactly.

    Raises MalformedSpectrumFile if any row or header line does not parse.
    """
    try:
        return _read_spectrum_csv(path)
    except (ValueError, KeyError, UsageError) as exc:
        raise MalformedSpectrumFile(f"malformed spectrum file {path}: {exc!r}") from exc


_OPERATOR_KEYS = ("kind", "kappa", "lambda", "alpha", "theta")
_GRID_KEYS = ("n_x", "n_theta")


def _read_spectrum_csv(path: str) -> SpectrumSet:
    header: dict[str, str] = {}
    rows: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                key, _, val = (part.strip() for part in line[1:].partition("="))
                if key in header:
                    raise ValueError(f"repeated header line {line!r}")
                header[key] = val
            elif line:
                rows.append(line)
    # Exactly the lines spectrum_csv_text writes: kind and error_bound always,
    # the operator lines all or none, the grid lines both or neither.
    has_params, has_grid = "kappa" in header, "n_x" in header
    expected = {"kind", "error_bound"}.union(_OPERATOR_KEYS if has_params else (),
                                             _GRID_KEYS if has_grid else ())
    if set(header) != expected:
        raise ValueError(f"header keys {sorted(header)}, expected {sorted(expected)}")
    params = None
    if has_params:
        params = OperatorParams(*(_PARSE[key](header[key]) for key in _OPERATOR_KEYS))
    grid = GridSpec(*(int(header[key]) for key in _GRID_KEYS)) if has_grid else None
    # Rows are read by the header's kind: one number on the line, three on the circle.
    header_kind = params.kind if params else SpectrumKind(header["kind"])
    if header_kind in (OperatorKind.H, SpectrumKind.REAL_LINE):
        kind, values = SpectrumKind.REAL_LINE, [float(row) for row in rows]
    else:
        kind, values = SpectrumKind.UNIT_CIRCLE, [
            complex(float(re_s), float(im_s)) for re_s, im_s, _ in (row.split(",") for row in rows)]
    return SpectrumSet.build(kind, np.asarray(values), params=params, grid=grid,
                             error_bound=float(header["error_bound"]))


# -- ring SVG ------------------------------------------------------------------

def write_rings_svg(spectra: list[SpectrumSet], path: str) -> None:
    """Concentric-ring plot: one ring per spectrum, radius grows with index.

    All spectra must be on the unit circle and share the same alpha; the
    real and imaginary axes are drawn through the common center.  Output
    bytes are a deterministic function of the input.
    """
    if not spectra:
        raise EmptySpectrum("write_rings_svg needs at least one spectrum")
    alphas = {str(s.params.alpha) for s in spectra if s.params is not None}
    if any(s.kind is not SpectrumKind.UNIT_CIRCLE for s in spectra):
        raise KindMismatch("ring plots require UNIT_CIRCLE spectra")
    if len(alphas) > 1:
        raise KindMismatch(f"ring plots require a single alpha, got {sorted(alphas)}")

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
    """Stable hash of everything a spectrum depends on; any change changes it."""
    payload = {
        "kind": params.kind.value,
        "kappa": params.kappa,
        "lambda": params.lam,
        "p": params.alpha.p,
        "q": params.alpha.q,
        "scope": MOTHER if params.is_mother else "fixed",
        "theta": None if params.is_mother else params.theta,
        "n_x": grid.n_x,
        "n_theta": grid.n_theta,
        "tolerances": [UNITARY_TOL, UNIT_MODULUS_TOL, DEDUP_TOL],
        "version": __version__,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def compute_spectrum(
    params: OperatorParams, grid: GridSpec, cache_dir: str | None = None
) -> SpectrumSet:
    """Compute a spectrum, consulting/propagating the CSV cache if enabled."""
    if cache_dir is None:
        return _compute(params, grid)
    path = os.path.join(cache_dir, cache_key(params, grid) + ".csv")
    try:
        s = read_spectrum_csv(path)
    except (FileNotFoundError, MalformedSpectrumFile):
        s = None
    # A missing, unreadable or empty entry, or one that is not of this request,
    # is a miss: recompute and overwrite it.
    if s is not None and len(s) and (s.params, s.grid, s.error_bound) == (
            params, grid, grid_error_bound(params, grid)):
        return s
    s = _compute(params, grid)
    write_spectrum_csv(s, path)
    return s


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


def _alpha_list(text: str) -> list[RationalAlpha]:
    """farey:qmax, or fib:a..b for the a-th to b-th golden-ratio convergents."""
    kind, _, arg = text.partition(":")
    if kind == "farey":
        return farey_rationals(int(arg))
    if kind == "fib":
        a, _, b = arg.partition("..")
        lo, hi = int(a), int(b)
        if 1 <= lo <= hi:
            return golden_convergents(hi)[lo - 1:]
    raise ValueError("expected fib:a..b with 1 <= a <= b, or farey:qmax")


def _operators(args, alphas=()) -> tuple[list[float], float, GridSpec, list[OperatorParams]]:
    """A command's operator flags, each parsed once, and checked before anything is swept.

    Returns (kappas, lambda, grid, params), params holding one OperatorParams
    per kappa and alpha: the --alpha flag if the command has one, else
    ``alphas``.  Only compute --format svg reads a --kappa list, --grid N,M
    needs --theta mother (the one scope with a theta axis), eigenphase
    outputs (zoom, SVG rings) need a unit-circle kind, and every sweep must
    pass the size preflight before the first one runs.
    """
    if hasattr(args, "alpha"):
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
    if kind is OperatorKind.H and (svg or args.command == "zoom"):
        raise InvalidParams(f"{args.command} shows eigenphases; --kind h has a real spectrum")
    params = [OperatorParams(kind, k, lam, a, theta) for k in kappas for a in alphas]
    grid = GridSpec(sizes[0], sizes[-1])
    for pa in params:
        _preflight(pa, grid)
    return kappas, lam, grid, params


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out, text)


def _add_operator_flags(p: argparse.ArgumentParser, alpha: bool = True, theta: bool = True) -> None:
    p.add_argument("--kind", choices=[k.value for k in OperatorKind], default="ukh")
    if alpha:
        p.add_argument("--alpha", required=True, help="frequency as a p/q literal")
    p.add_argument("--kappa", default="1", help="time scale (comma list allowed for SVG rings)")
    p.add_argument("--lambda", dest="lam", default=1.0, help="coupling")
    if theta:
        p.add_argument("--theta", default=MOTHER, help="phase in [0,1) or 'mother'")
    p.add_argument("--grid", default="100",
                   help="N grid points per axis, or N,M (x, theta) with --theta mother")
    p.add_argument("--out", default=None, help="output path (default: standard output)")


def build_parser() -> argparse.ArgumentParser:
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
    # its per-key parsers read; anything omitted falls back to the check's own
    # defaults, so every check stays runnable bare.
    p.add_argument("--check", required=True, help="check id or 'all'")
    p.add_argument("--kind", choices=[k.value for k in OperatorKind], default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--kappa", default=None)
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--theta", default=None)
    p.add_argument("--grid", default=None, help="N grid points per axis")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

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
    spectra = [compute_spectrum(pa, grid, args.cache_dir) for pa in params]
    if args.format == "svg":
        write_rings_svg(spectra, args.out)
    else:
        _emit(spectrum_csv_text(spectra[0]), args.out)
    return 0


def _cmd_bandwidth(args) -> int:
    if args.merge_gap == "track" and args.cache_dir is not None:
        raise InvalidParams("bandwidth --merge-gap track does not read --cache-dir")
    gap = args.merge_gap
    if gap != "track":
        gap = _parsed("--merge-gap", _PARSE["merge_gap"], gap)
        if gap != "auto" and not gap > 0:
            raise InvalidParams("--merge-gap must be auto, track or a number > 0, "
                                f"got {args.merge_gap!r}")
    alphas = _parsed("--alpha-list", _alpha_list, args.alpha_list)
    kappas, lam, grid, params = _operators(args, alphas)
    lines = [
        f"# kind={args.kind}",
        f"# kappa={kappas[0]!r}",
        f"# lambda={lam!r}",
        f"# n_x={grid.n_x}",
        f"# n_theta={grid.n_theta}",
        f"# merge_gap={args.merge_gap}",
        "p,q,alpha,bands,width,error_bound",
    ]
    for pa in params:
        if gap == "track":
            bands = tracked_bands(pa, grid)
            bound = grid_error_bound(pa, grid)
        else:
            s = compute_spectrum(pa, grid, args.cache_dir)
            bands = merge_bands(s, auto_merge_gap(s) if gap == "auto" else gap)
            bound = s.error_bound
        alpha = pa.alpha
        lines.append(
            f"{alpha.p},{alpha.q},{_fmt(alpha.value)},{len(bands)},"
            f"{_fmt(total_bandwidth(bands))},{_fmt(bound)}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_butterfly(args) -> int:
    if not args.alpha_list.startswith("farey:"):
        raise InvalidParams("butterfly sweeps Farey rationals; use --alpha-list farey:qmax")
    q_max = _parsed("--alpha-list", lambda text: int(text.partition(":")[2]), args.alpha_list)
    kappas, lam, grid, _ = _operators(args)
    ds = butterfly_dataset(args.kind, kappas[0], lam, q_max, grid.n_x)
    lines = [
        f"# kind={ds.kind.value}",
        f"# kappa={ds.kappa!r}",
        f"# lambda={ds.lam!r}",
        f"# q_max={ds.q_max}",
        f"# grid_n={ds.grid_n}",
        "p,q,value",
    ]
    lines.extend(f"{p},{q},{_fmt(v)}" for p, q, v in zip(ds.p, ds.q, ds.values))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_zoom(args) -> int:
    center = None if args.center is None else _parsed("--center", float, args.center)
    if center is not None and not -np.pi < center <= np.pi:
        raise InvalidParams(f"--center must lie in (-pi, pi], got {args.center!r}")
    factors = _parsed("--factors", _floats, args.factors)
    if not all(f > 1.0 for f in factors):
        raise InvalidParams(f"--factors must all be > 1, got {args.factors!r}")
    _, _, grid, (pa,) = _operators(args)
    phases = eigenphases(compute_spectrum(pa, grid, args.cache_dir))
    center = float(np.median(phases)) if center is None else center
    windows = zoom_windows(phases, center, factors)
    lines = [
        f"# center={center!r}",
        f"# factors={args.factors}",
        "window,lo,hi,phase",
    ]
    for i, w in enumerate(windows):
        lines.extend(f"{i},{_fmt(w.lo)},{_fmt(w.hi)},{_fmt(p)}" for p in w.points)
    _emit("\n".join(lines) + "\n", args.out)
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
    # Parsed before the first check sweeps; run_check's parsers accept their own output.
    cfg = {k: _parsed(flag[k], _PARSE[k], v) for k, v in cfg.items()}
    reports = [
        run_check(cid, {k: v for k, v in cfg.items() if k in keys[cid]}).to_dict() for cid in ids
    ]
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
