import argparse
import hashlib
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from kickspec.cli import (
    _csv_body,
    _fmt,
    _header_lines,
    build_parser,
    cache_key,
    compute_spectrum,
    dispatch,
    read_spectrum_csv,
    read_spectrum_text,
    spectrum_csv_text,
    write_rings_svg,
    write_spectrum_csv,
)
from kickspec.analysis import _PARSE, CHECK_IDS, zoom_windows
from kickspec.analysis import butterfly as butterfly_dataset
from kickspec.errors import InvalidParams, MalformedSpectrumFile, NumericalError
from kickspec.operators import MOTHER, OperatorParams, RationalAlpha
from kickspec.spectra import (
    GridSpec,
    SpectrumKind,
    SpectrumSet,
    auto_merge_gap,
    eigenphases,
    grid_error_bound,
    merge_bands,
    mother_spectrum,
    spectrum_fixed_theta,
    tracked_bands,
)


def params(kind="ukh", kappa=1.0, lam=1.0, p=1, q=3, theta=MOTHER):
    return OperatorParams(kind, kappa, lam, RationalAlpha(p, q), theta)


# -- formatting and round trip ----------------------------------------------------


def test_fmt_examples():
    assert _fmt(1.0) == "1.00000000000000000"
    assert _fmt(0.0) == "0"
    assert _fmt(-0.0) == "0"


def test_fmt_round_trips():
    rng = np.random.default_rng(0)
    vals = list(rng.uniform(-10, 10, size=200)) + [np.pi, 1e-15, -1e-300, 3.5e16]
    for v in vals:
        assert float(_fmt(v)) == v


def test_fmt_is_numpys_17_digit_positional_form():
    # Over [1/16, 1e16), _fmt's f-string gives the string of numpy's
    # non-unique positional formatter: random magnitudes of either sign and
    # the exact binary ties m / 2^k, where a rounding rule would show.
    rng = np.random.default_rng(3)
    mags = 2.0 ** rng.uniform(-4.0, np.log2(1e16), size=2000)
    ties = [m / 2.0 ** k for k in range(19) for m in range(1, 4000, 2)]
    for v in [*mags, *-mags, *ties]:
        if 0.0625 <= abs(v) < 1e16:
            assert _fmt(v) == np.format_float_positional(v, precision=17, unique=False,
                                                         fractional=True, trim="k")


def _fmt_rows(columns):
    """The CSV rows of columns, each field written on its own: ints by str, floats by _fmt."""
    return "".join(",".join(str(v) if isinstance(v, np.integer) else _fmt(v) for v in row) + "\n"
                   for row in zip(*columns)).encode("ascii")


# |v| 10^17 is the half-integer m 5^17 / 2 at v = m / 2^18 with m odd: the
# exact ties of the 17th digit, rounded half-even, both up and down.
_TIES = np.arange(2**14 + 1, 2**14 + 200, 2) / 2.0**18
_EDGES = np.array([
    0.0, -0.0, 1 / 16, -1 / 16, np.nextafter(1 / 16, 0), -np.nextafter(1 / 16, 0),
    np.nextafter(10.0, 0), -np.nextafter(10.0, 0), 10.0, -10.0, 5e-324, -5e-324,
    np.nextafter(1e16, 0), -np.nextafter(1e16, 0), 1e16, (10 * 2**18 - 1) / 2**18,
    -(10 * 2**18 - 1) / 2**18, 0.5 + 1 / 2**18, -(0.5 + 3 / 2**18), *_TIES, *-_TIES,
])


def test_csv_body_is_fmt_at_every_branch_edge():
    # Each float column mixes the 17-digit fast fields with both _fmt fallbacks.
    rng = np.random.default_rng(7)
    columns = [np.arange(_EDGES.size) - 9, _EDGES, rng.permutation(_EDGES), _EDGES[::-1]]
    assert _csv_body(columns) == _fmt_rows(columns)
    assert _csv_body([_EDGES[:0], _EDGES[:0]]) == b""


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-10**12, 10**12), _FINITE,
                          st.one_of(_FINITE, st.floats(-10.0, 10.0))), min_size=1, max_size=30))
def test_csv_body_is_fmt_on_any_finite_double(rows):
    columns = [np.array(col) for col in zip(*rows)]
    assert _csv_body(columns) == _fmt_rows(columns)


def test_a_zoom_window_with_no_rows_writes_none(tmp_path):
    out = tmp_path / "z.csv"
    assert dispatch(["zoom", "--alpha", "1/3", "--grid", "2", "--center", "3.1",
                     "--factors", "1000", "--out", str(out)]) == 0
    windows = zoom_windows(eigenphases(mother_spectrum(params(), GridSpec(2, 2))), 3.1, [1000.0])
    assert windows[1].points.size == 0
    assert out.read_text() == "\n".join(["# center=3.1", "# factors=1000", "window,lo,hi,phase",
                                         *oracles.zoom_rows(windows), ""])


def test_csv_outputs_are_the_per_value_rows(tmp_path):
    # Byte-identity pin: an h, a ukh and a uordkr spectrum CSV at 8/13, and the
    # bandwidth, butterfly and zoom tables of the cli_survey benchmark's argv
    # list, against the rows the oracles write one value at a time.
    alpha = RationalAlpha(8, 13)
    for s in [spectrum_fixed_theta(OperatorParams("h", 1.0, 1.0, alpha, 0.0211), GridSpec(2000)),
              mother_spectrum(OperatorParams("ukh", 1.0, 1.0, alpha, MOTHER), GridSpec(40, 40)),
              mother_spectrum(OperatorParams("uordkr", 1.0, 1.0, alpha, MOTHER), GridSpec(40, 40))]:
        assert spectrum_csv_text(s) == oracles.spectrum_csv_text(s)

    def rows(argv):
        out = tmp_path / "t.csv"
        assert dispatch(argv + ["--out", str(out)]) == 0
        lines = out.read_text().split("\n")
        return lines[[ln.startswith("#") for ln in lines].index(False) + 1:]

    grid = GridSpec(8, 8)
    for gap, cache in (("auto", ["--cache-dir", str(tmp_path / "c")]), ("track", [])):
        expected = []
        for a in _PARSE["alpha_list"]("fib:5..8"):
            pa = OperatorParams("ukh", 1.0, 1.0, a, MOTHER)
            s = mother_spectrum(pa, grid)
            bands = tracked_bands(pa, grid) if gap == "track" else merge_bands(s, auto_merge_gap(s))
            expected.append(oracles.bandwidth_row(a, bands, grid_error_bound(pa, grid)))
        assert rows(["bandwidth", "--alpha-list", "fib:5..8", "--grid", "8", "--merge-gap", gap,
                     *cache]) == [*expected, ""]
    ds = butterfly_dataset("ukh", 0.5, 1.0, 13, 48)
    assert rows(["butterfly", "--kind", "ukh", "--kappa", "0.5", "--alpha-list", "farey:13",
                 "--grid", "48"]) == [*oracles.butterfly_rows(ds), ""]
    phases = eigenphases(mother_spectrum(params(p=89, q=144), GridSpec(3, 3)))
    windows = zoom_windows(phases, float(np.median(phases)), [20.0, 10.0])
    assert rows(["zoom", "--alpha", "89/144", "--grid", "3", "--factors", "20,10"]) == [
        *oracles.zoom_rows(windows), ""]


def test_single_point_csv_row():
    # ukh at kappa = 0 is the identity: one point, 1.
    s = spectrum_fixed_theta(params(kappa=0.0, theta=0.0), GridSpec(1))
    assert len(s) == 1
    text = spectrum_csv_text(s)
    assert text.splitlines()[-1] == "1.00000000000000000,0,0"


def test_the_writer_refuses_a_spectrum_that_is_not_a_sweeps(tmp_path):
    s = mother_spectrum(params(), GridSpec(3, 3))
    path = tmp_path / "s.csv"
    for other in [
        SpectrumSet.build(SpectrumKind.REAL_LINE, [-1.5, 0.25, 3.0]),
        SpectrumSet.build(s.kind, s.points, params=s.params),
        SpectrumSet.build(s.kind, s.points, grid=s.grid),
    ]:
        with pytest.raises(InvalidParams):
            write_spectrum_csv(other, str(path))
        assert not path.exists()


def test_csv_round_trip_exact(tmp_path):
    s = mother_spectrum(params(), GridSpec(6, 6))
    path = str(tmp_path / "s.csv")
    write_spectrum_csv(s, path)
    back = read_spectrum_csv(path)
    assert back.kind is s.kind
    assert np.array_equal(back.points, s.points)
    assert back.error_bound == s.error_bound
    assert back.params == s.params
    assert back.grid == s.grid


def test_csv_header_contains_error_bound(tmp_path):
    pa = params()
    grid = GridSpec(6, 6)
    s = mother_spectrum(pa, grid)
    text = spectrum_csv_text(s)
    assert f"# error_bound={grid_error_bound(pa, grid)!r}" in text


def test_csv_real_line_round_trip(tmp_path):
    s = mother_spectrum(params(kind="h", kappa=0.0), GridSpec(5, 5))
    path = str(tmp_path / "h.csv")
    write_spectrum_csv(s, path)
    back = read_spectrum_csv(path)
    assert back.kind is SpectrumKind.REAL_LINE
    assert np.array_equal(back.points, s.points)


def test_bad_list_values_are_exit_2(capsys):
    fib = ["bandwidth", "--alpha-list", "fib:1..3", "--grid", "4", "--merge-gap"]
    cases = [
        ("--alpha-list", ["bandwidth", "--alpha-list", "farey:x", "--grid", "3"]),
        ("--alpha-list", ["butterfly", "--alpha-list", "fib:1..2", "--grid", "3"]),
        # Lists that name no alpha.
        ("--alpha-list", ["bandwidth", "--alpha-list", "farey:1", "--grid", "3"]),
        ("--alpha-list", ["butterfly", "--alpha-list", "farey:1", "--grid", "3"]),
        ("--alpha-list", ["bandwidth", "--alpha-list", "farey:0", "--grid", "3"]),
        ("--alpha-list", ["butterfly", "--alpha-list", "farey:0", "--grid", "3"]),
        ("--factors", ["zoom", "--alpha", "1/3", "--grid", "3", "--factors", "2,nope"]),
        ("--factors", ["zoom", "--alpha", "3/5", "--grid", "4", "--factors", "nan"]),
        ("--factors", ["zoom", "--alpha", "3/5", "--grid", "2", "--factors", ","]),
        ("--kappa", ["compute", "--alpha", "1/3", "--grid", "2", "--kappa", "1,"]),
        ("reads a single --kappa", ["zoom", "--alpha", "3/5", "--grid", "2", "--factors", "2",
                                    "--kappa", "1,2"]),
        ("--merge-gap", fib + ["abc"]),
        ("--merge-gap", fib + ["nan"]),
        ("compute requires --alpha", ["compute", "--grid", "2"]),
        ("zoom requires --alpha", ["zoom", "--grid", "2", "--factors", "2"]),
        ("--format svg requires --out", ["compute", "--alpha", "1/3", "--grid", "2",
                                         "--format", "svg"]),
        # Finite, but a kick phase or the hopping scale would overflow.
        ("kappa", ["compute", "--alpha", "1/2", "--grid", "2", "--kappa", "1e308"]),
        ("kappa", ["compute", "--alpha", "1/2", "--grid", "2", "--kappa", "1e200",
                   "--lambda", "1e200"]),
    ]
    for flag, argv in cases:
        assert dispatch(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("spectra: ") and err.count("\n") == 1 and flag in err, err


@pytest.mark.parametrize("argv", [
    ["bandwidth", "--alpha-list", "fib:1..2", "--grid", "2", "--merge-gap", "abc"],
    ["bandwidth", "--alpha-list", "fib:1..2", "--grid", "2", "--merge-gap", "-1"],
    ["zoom", "--alpha", "3/5", "--grid", "2", "--factors", "0.5"],
    ["zoom", "--alpha", "3/5", "--grid", "2", "--factors", "2", "--center", "4"],
    ["zoom", "--kind", "h", "--alpha", "3/5", "--grid", "2", "--factors", "2"],
    ["compute", "--kind", "h", "--alpha", "3/5", "--grid", "2", "--format", "svg",
     "--kappa", "1,2"],
    ["compute", "--grid", "2"],
    ["zoom", "--grid", "2", "--factors", "2"],
], ids=["merge-gap-abc", "merge-gap-negative", "factors-below-1", "center-out-of-range",
        "zoom-kind-h", "svg-kind-h", "compute-no-alpha", "zoom-no-alpha"])
def test_usage_error_sweeps_and_writes_nothing(tmp_path, capsys, built, argv):
    cache, out = tmp_path / "cache", tmp_path / "out"
    cache.mkdir()
    assert dispatch(argv + ["--cache-dir", str(cache), "--out", str(out)]) == 2
    assert os.listdir(cache) == []
    assert not out.exists()
    assert built == []
    capsys.readouterr()


@st.composite
def requests(draw, q_max=13):
    """A sweep request (params, grid) on a grid of at most 3 x 3 nodes."""
    q = draw(st.integers(1, q_max))
    p = draw(st.sampled_from([p for p in range(q) if math.gcd(p, q) == 1]))
    theta = draw(st.just(MOTHER) | st.sampled_from([0.0, 0.25, 1.25])
                 | st.floats(0.0, 1.0, exclude_max=True))
    pa = params(kind=draw(st.sampled_from(["h", "uh", "ukh", "uordkr"])),
                kappa=draw(st.sampled_from([0.5, 1.0])), p=p, q=q, theta=theta)
    return pa, GridSpec(draw(st.integers(1, 3)), draw(st.integers(1, 3)))


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@given(req=requests())
@settings(max_examples=60, deadline=None)
def test_a_sweeps_csv_round_trips(csv_dir, req):
    pa, grid = req
    s = (mother_spectrum if pa.is_mother else spectrum_fixed_theta)(pa, grid)
    path = str(csv_dir / "s.csv")
    write_spectrum_csv(s, path)
    back = read_spectrum_csv(path)
    assert (back.kind, back.params, back.grid, back.error_bound) == (
        s.kind, s.params, s.grid, s.error_bound)
    assert np.array_equal(back.points, s.points)


@given(a=requests(q_max=3), b=requests(q_max=3))
@example(a=(params("h", kappa=0.5), GridSpec(2, 3)), b=(params("h"), GridSpec(2, 3)))
@example(a=(params(theta=0.25), GridSpec(2, 3)), b=(params(theta=1.25), GridSpec(2, 3)))
@example(a=(params(theta=0.25), GridSpec(2, 3)), b=(params(theta=0.25), GridSpec(2, 2)))
@settings(max_examples=100, deadline=None)
def test_cache_keys_are_equal_exactly_when_headers_are(a, b):
    assert (cache_key(*a) == cache_key(*b)) == (_header_lines(*a) == _header_lines(*b))


def test_csv_fixed_theta_round_trip(tmp_path):
    s = spectrum_fixed_theta(params(theta=0.125), GridSpec(7))
    path = str(tmp_path / "f.csv")
    write_spectrum_csv(s, path)
    back = read_spectrum_csv(path)
    assert back.params == s.params
    assert np.array_equal(back.points, s.points)


# -- SVG ---------------------------------------------------------------------------


def test_rings_svg_layout_and_determinism(tmp_path):
    a = RationalAlpha(8, 13)
    spectra = [
        mother_spectrum(OperatorParams("ukh", k, 1.0, a, MOTHER), GridSpec(4, 4))
        for k in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
    ]
    p1, p2 = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
    write_rings_svg(spectra, p1)
    write_rings_svg(spectra, p2)
    b1, b2 = open(p1, "rb").read(), open(p2, "rb").read()
    assert b1 == b2
    text = b1.decode()
    assert text.count("<path") == 6
    assert text.count("<line") == 2


def test_rings_svg_rejects_bad_input(tmp_path):
    with pytest.raises(InvalidParams, match="write_rings_svg needs at least one spectrum"):
        write_rings_svg([], str(tmp_path / "x.svg"))
    real = SpectrumSet.build(SpectrumKind.REAL_LINE, [0.0])
    with pytest.raises(InvalidParams, match="ring plots require UNIT_CIRCLE spectra"):
        write_rings_svg([real], str(tmp_path / "x.svg"))
    s1 = mother_spectrum(params(q=3), GridSpec(2, 2))
    s2 = mother_spectrum(params(q=5, p=2), GridSpec(2, 2))
    with pytest.raises(InvalidParams, match=re.escape("ring plots require a single alpha, "
                                                      "got ['1/3', '2/5']")):
        write_rings_svg([s1, s2], str(tmp_path / "x.svg"))
    assert not os.path.exists(str(tmp_path / "x.svg"))


# -- dispatch ------------------------------------------------------------------------


def test_compute_writes_csv(tmp_path):
    out = str(tmp_path / "s.csv")
    code = dispatch([
        "compute", "--kind", "ukh", "--alpha", "1/3", "--kappa", "1", "--lambda", "1",
        "--theta", "mother", "--grid", "5", "--out", out,
    ])
    assert code == 0
    back = read_spectrum_csv(out)
    direct = mother_spectrum(params(q=3), GridSpec(5, 5))
    assert np.array_equal(back.points, direct.points)
    rows = [l for l in open(out) if not l.startswith("#")]
    assert len(rows) == len(direct)


def test_compute_mother_kicked_8_13(tmp_path):
    # The flagship configuration: every deduplicated sample of the 13-band
    # union spectrum lands in the file, one row per point.
    out = str(tmp_path / "s.csv")
    code = dispatch([
        "compute", "--kind", "ukh", "--alpha", "8/13", "--kappa", "1", "--lambda", "1",
        "--theta", "mother", "--grid", "100", "--out", out,
    ])
    assert code == 0
    direct = mother_spectrum(
        OperatorParams("ukh", 1.0, 1.0, RationalAlpha(8, 13), MOTHER), GridSpec(100, 100)
    )
    rows = [l for l in open(out) if not l.startswith("#")]
    assert len(rows) == len(direct)
    assert len(direct) <= 13 * 100 * 100


def test_compute_rejects_non_coprime_alpha(tmp_path):
    code = dispatch([
        "compute", "--alpha", "4/6", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2


def test_compute_rectangular_grid(tmp_path):
    out = str(tmp_path / "r.csv")
    code = dispatch([
        "compute", "--alpha", "1/3", "--theta", "mother", "--grid", "6,3", "--out", out,
    ])
    assert code == 0
    text = open(out).read()
    assert "# n_x=6" in text and "# n_theta=3" in text


def test_compute_bad_usage_is_exit_2():
    assert dispatch(["compute"]) == 2  # --alpha missing
    assert dispatch(["no-such-command"]) == 2


@pytest.mark.parametrize("argv", [
    ["compute", "--alpha", "1/3", "--seed", "1"],
    ["compute", "--alpha", "1/3", "--format", "json"],
    ["bandwidth", "--alpha-list", "fib:1..2", "--seed", "1"],
    ["bandwidth", "--alpha-list", "fib:1..2", "--format", "csv"],
    ["bandwidth", "--alpha-list", "fib:1..2", "--alpha", "1/2"],
    ["butterfly", "--alpha-list", "farey:3", "--seed", "1"],
    ["butterfly", "--alpha-list", "farey:3", "--theta", "0.1"],
    ["butterfly", "--alpha-list", "farey:3", "--format", "csv"],
    ["butterfly", "--alpha-list", "farey:3", "--cache-dir", "c"],
    ["butterfly", "--alpha-list", "farey:3", "--alpha", "1/2"],
    ["zoom", "--alpha", "1/3", "--factors", "2", "--seed", "1"],
    ["zoom", "--alpha", "1/3", "--factors", "2", "--format", "csv"],
    ["verify", "--check", "all", "--seed", "1"],
    ["verify", "--check", "all", "--format", "json"],
    ["verify", "--check", "all", "--cache-dir", "c"],
    ["verify", "--check", "alpha-continuity", "--grid", "2", "--alpha", "1/3"],
    ["verify", "--check", "mother-equality", "--grid", "2", "--kind", "h"],
    ["verify", "--check", "last-measure-trend", "--grid", "2", "--lambda", "3"],
    ["verify", "--check", "theta-period", "--grid", "2", "--theta", "0.3"],
    ["verify", "--check", "kappa-cubed", "--grid", "2", "--kappa", "0.1"],
    ["verify", "--check", "aubry-andre", "--grid", "6,99"],
    ["bandwidth", "--alpha-list", "fib:1..2", "--merge-gap", "track", "--cache-dir", "c"],
    ["compute", "--kind", "ukh", "--alpha", "1/3", "--theta", "0.2", "--grid", "4,7"],
    ["bandwidth", "--alpha-list", "fib:1..2", "--theta", "0.3", "--grid", "4,9"],
    ["zoom", "--alpha", "1/3", "--factors", "2", "--theta", "0.2", "--grid", "4,7"],
    ["butterfly", "--alpha-list", "farey:3", "--grid", "8,3"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_unread_flags_are_rejected(argv, capsys):
    assert dispatch(argv) == 2
    capsys.readouterr()


_FUZZ_VALUES = ["nan", "inf", "-inf", "-1", "0", "", "abc", "0.5", "1", "2", "1,2", "1e308"]
# Valid values, drawn half the time so that the other flags get past parsing.
_FUZZ_VALID = {"--grid": ["1", "2", "2,1"], "--theta": ["mother", "0.25"],
               "--alpha-list": ["farey:2", "farey:3"]}
# Cache directories stay inside the test's temporary directory; "file" is a
# regular file there, so a cache write under it is an I/O failure.
_FUZZ_CACHE_DIRS = ["{tmp}/cache", "{tmp}/file"]
_FUZZ_COMMANDS = {  # fixed argv, flags always drawn, flags drawn or left out
    "bandwidth": (["bandwidth", "--alpha-list", "fib:1..1"], ["--grid"],
                  ["--merge-gap", "--kappa", "--lambda"]),
    "butterfly": (["butterfly"], ["--alpha-list", "--grid"], ["--kappa", "--lambda"]),
    "cache": (["cache", "clear"], ["--cache-dir"], []),
    "compute": (["compute", "--alpha", "1/2"], ["--grid"],
                ["--theta", "--kappa", "--lambda", "--cache-dir"]),
    "zoom": (["zoom", "--alpha", "1/2"], ["--grid", "--factors"],
             ["--center", "--kappa", "--lambda"]),
    "verify": (["verify", "--check", "band-count", "--alpha", "1/2"], ["--grid"],
               ["--kappa", "--lambda"]),
    "verify-mapping": (["verify", "--check", "spectral-mapping", "--alpha", "1/2"],
                       ["--grid", "--theta"], ["--kappa", "--lambda"]),
}


@st.composite
def fuzzed_argv(draw):
    argv, always, maybe = _FUZZ_COMMANDS[draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))]
    argv = list(argv)
    for flag in always + [f for f in maybe if draw(st.booleans())]:
        if flag == "--cache-dir":
            argv += [flag, draw(st.sampled_from(_FUZZ_CACHE_DIRS))]
            continue
        valid = _FUZZ_VALID.get(flag, _FUZZ_VALUES)
        argv += [flag, draw(st.sampled_from(valid) | st.sampled_from(_FUZZ_VALUES))]
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "file").write_text("x")
    return d


@given(argv=fuzzed_argv())
@example(argv=["bandwidth", "--alpha-list", "fib:1..1", "--grid", "2", "--merge-gap", "abc"])
@settings(max_examples=100, deadline=None)
def test_fuzzed_argv_exits_with_a_contract_code(fuzz_dir, argv):
    # Values from the pool keep every grid at 2 points or fewer per axis.
    argv = [a.replace("{tmp}", str(fuzz_dir)) for a in argv]
    assert dispatch(argv) in (0, 2, 3, 4)


def test_readme_flag_table_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme[readme.index("| command "):].split("\n\n")[0].splitlines()[2:]
    documented = {}
    for row in table:
        command, flags = row.strip("|").split("|", 1)
        documented[command.strip().strip("`")] = set(re.findall(r"--[\w-]+", flags))
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    parsed = {
        name: {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }
    assert documented == parsed


def test_help_is_exit_0(capsys):
    assert dispatch(["--help"]) == 0
    capsys.readouterr()


def test_compute_svg_rings(tmp_path):
    out = str(tmp_path / "rings.svg")
    code = dispatch([
        "compute", "--kind", "ukh", "--alpha", "8/13", "--kappa", "0.25,0.5,1",
        "--theta", "mother", "--grid", "3", "--format", "svg", "--out", out,
    ])
    assert code == 0
    assert open(out).read().count("<path") == 3


def test_compute_io_failure_is_exit_4(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    out = str(blocker / "sub" / "s.csv")  # parent is a regular file
    assert dispatch(["compute", "--alpha", "1/3", "--grid", "3", "--out", out]) == 4
    # os.replace onto a directory fails after the temp file, written beside it, is
    # complete; the temp file is removed.
    (tmp_path / "dir").mkdir()
    out = str(tmp_path / "dir")
    assert dispatch(["compute", "--alpha", "1/3", "--grid", "3", "--out", out]) == 4
    assert sorted(os.listdir(tmp_path)) == ["dir", "file"]
    assert os.listdir(out) == []


def test_numerical_failure_is_exit_3(tmp_path, monkeypatch):
    import kickspec.cli as cli

    def boom(*args, **kwargs):
        raise NumericalError("synthetic solver failure")

    monkeypatch.setattr(cli, "compute_spectrum", boom)
    code = dispatch(["compute", "--alpha", "1/3", "--grid", "3",
                     "--out", str(tmp_path / "x.csv")])
    assert code == 3


def test_memory_error_is_exit_3(tmp_path, monkeypatch, capsys):
    import kickspec.cli as cli

    def boom(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.00 TiB")

    monkeypatch.setattr(cli, "_compute", boom)
    code = dispatch(["compute", "--alpha", "1/3", "--grid", "3",
                     "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert capsys.readouterr().err.strip().count("\n") == 0  # one line, no traceback
    assert not (tmp_path / "x.csv").exists()


def test_oversized_grid_is_exit_2_before_allocating(tmp_path, capsys):
    # 1.5e6^2 reduced nodes would need about 500 TB; the preflight refuses them from arithmetic.
    code = dispatch(["compute", "--alpha", "8/13", "--grid", "3000000",
                     "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "physical memory" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_a_grid_of_10_to_the_12_nodes_is_exit_2(tmp_path, capsys):
    # Axes this long fail with a MemoryError if built before the size check.
    code = dispatch(["compute", "--alpha", "8/13", "--grid", "1000000000000",
                     "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "physical memory" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_verify_parses_every_value_before_the_first_check(monkeypatch, capsys):
    import kickspec.cli as cli

    monkeypatch.setattr(cli, "run_check", lambda *args: pytest.fail("a check ran"))
    # --theta is read only by the fourth check, spectral-mapping.
    assert dispatch(["verify", "--check", "all", "--grid", "2", "--theta", "abc"]) == 2
    assert "--theta" in capsys.readouterr().err


_REFUSED = [
    (["--lambda", "0", "--grid", "4"], "AUBRY_ANDRE", "AUBRY_ANDRE requires lambda != 0"),
    (["--lambda", "0", "--grid", "4"], "KAPPA_CUBED", "KAPPA_CUBED requires lambda != 0"),
    (["--grid", "1"], "LAST_MEASURE_TREND", "LAST_MEASURE_TREND requires n >= 2"),
    (["--lambda", "1", "--grid", "4"], "AUBRY_ANDRE",
     "AUBRY_ANDRE requires lambda != 0 and lambda != 1"),
    (["--alpha", "0/1", "--grid", "2"], "KAPPA_CUBED",
     "KAPPA_CUBED requires lambda != 0 and q >= 2"),
    # Its bound there, 6.28, passes every chordal distance.
    (["--alpha", "0/1", "--grid", "2"], "THETA_CONTINUITY",
     "THETA_CONTINUITY requires a grid whose bound is below 2"),
]


@pytest.mark.parametrize("argv,check,message", _REFUSED,
                         ids=["lambda-0", "kappa-cubed-lambda-0", "grid-1", "lambda-1",
                              "kappa-cubed-q-1", "theta-continuity-q-1"])
def test_verify_refuses_a_config_that_measures_nothing_before_it_sweeps(argv, check, message,
                                                                        built, capsys):
    assert dispatch(["verify", "--check", check, *argv]) == 2
    assert message in capsys.readouterr().err
    assert built == []


@pytest.mark.parametrize("argv", [["--lambda", "0", "--grid", "4"], ["--grid", "1"],
                                  ["--lambda", "1", "--grid", "4"],
                                  ["--alpha", "0/1", "--grid", "2"]],
                         ids=["lambda-0", "grid-1", "lambda-1", "alpha-0-1"])
def test_verify_all_leaves_out_a_check_that_refuses_the_values(argv, tmp_path, capsys):
    # Of several checks, each one whose own rule refuses an override is left out
    # and named; the others run with it.  A value that fails to parse still refuses all.
    left_out = {check: message for a, check, message in _REFUSED if a == argv}
    out = tmp_path / "all.json"
    assert dispatch(["verify", "--check", "all", *argv, "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert all(f"leaving out {check}: {message}" in err for check, message in left_out.items())
    assert err.count("leaving out") == len(left_out)
    reports = {r["check"]: r for r in json.loads(out.read_text())}
    assert list(reports) == [cid for cid in CHECK_IDS if cid not in left_out]
    assert reports["MOTHER_EQUALITY"]["pass"]
    assert dispatch(["verify", "--check", "all", *argv, "--lambda", "one"]) == 2


def test_verify_reports_only(tmp_path):
    # A check that runs and fails is reported, not an exit code: on a 4 x 4
    # grid the auto merge gap joins the five bands of 1/5 into one.
    out = tmp_path / "band.json"
    assert dispatch(["verify", "--check", "band-count", "--grid", "4", "--out", str(out)]) == 0
    (report,) = json.loads(out.read_text())
    assert report["pass"] is False


@pytest.mark.parametrize("flag", ["--kappa", "--lambda", "--grid", "--theta"])
@pytest.mark.parametrize("command", [["compute", "--alpha", "3/5"],
                                     ["verify", "--check", "spectral-mapping"]],
                         ids=["compute", "verify"])
def test_an_empty_operator_flag_is_a_usage_error(command, flag, built, capsys):
    # An empty value is parsed like any other, not taken for the flag's absence.
    assert dispatch([*command, flag, ""]) == 2
    assert f"bad {flag} value ''" in capsys.readouterr().err
    assert built == []


def test_dispatch_builds_its_parser_once(tmp_path, monkeypatch, capsys):
    made, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    argv = ["cache", "clear", "--cache-dir", str(tmp_path / "none")]
    assert dispatch(argv) == 0
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert dispatch(argv) == 0
    assert dispatch(["compute", "--alpha", "3/5", "--kappa", ""]) == 2
    assert made == []
    capsys.readouterr()


def test_preflight_counts_the_q_by_q_arrays(tmp_path, monkeypatch, capsys):
    # One grid node at q = 1499: 24 kB of pairs and eigenvalues, but about
    # 54 MB of q x q matrices, so 32 MiB of physical memory refuses it.
    import kickspec.spectra as spectra

    sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 32 * 2**20 // 4096}
    monkeypatch.setattr(spectra.os, "sysconf", sizes.__getitem__)
    out = tmp_path / "x.csv"
    code = dispatch(["compute", "--kind", "h", "--alpha", "1/1499", "--grid", "1",
                     "--theta", "0", "--out", str(out)])
    assert code == 2
    assert "physical memory" in capsys.readouterr().err
    assert not out.exists()


def test_verify_spectral_mapping_mother_scope(tmp_path):
    out = str(tmp_path / "report.json")
    code = dispatch(["verify", "--check", "spectral-mapping", "--theta", "mother",
                     "--grid", "4", "--out", out])
    assert code == 0
    (report,) = json.loads(open(out).read())
    assert report["params"]["theta"] == "mother"
    assert report["pass"]


def test_verify_mother_equality(tmp_path):
    out = str(tmp_path / "report.json")
    code = dispatch([
        "verify", "--check", "mother-equality", "--alpha", "8/13", "--kappa", "0.5",
        "--lambda", "1", "--grid", "40", "--out", out,
    ])
    assert code == 0
    reports = json.loads(open(out).read())
    assert len(reports) == 1
    assert reports[0]["check"] == "MOTHER_EQUALITY"
    assert reports[0]["pass"] is True


def test_verify_all_runs_every_check(tmp_path):
    out = str(tmp_path / "all.json")
    code = dispatch([
        "verify", "--check", "all", "--alpha", "2/3", "--grid", "8", "--out", out,
    ])
    assert code == 0
    reports = json.loads(open(out).read())
    assert len(reports) == 9


def test_bandwidth_command(tmp_path):
    out = str(tmp_path / "w.csv")
    code = dispatch([
        "bandwidth", "--kind", "ukh", "--kappa", "1", "--lambda", "1",
        "--alpha-list", "fib:1..3", "--grid", "6", "--theta", "mother", "--out", out,
    ])
    assert code == 0
    lines = [l for l in open(out).read().splitlines() if l and not l.startswith("#")]
    assert lines[0] == "p,q,alpha,bands,width,error_bound"
    assert len(lines) == 4  # header + 1/2, 2/3, 3/5
    assert lines[1].startswith("1,2,")


def test_bandwidth_track_mode(tmp_path):
    out = str(tmp_path / "wt.csv")
    code = dispatch([
        "bandwidth", "--kind", "ukh", "--alpha-list", "fib:1..2", "--grid", "6",
        "--theta", "mother", "--merge-gap", "track", "--out", out,
    ])
    assert code == 0


def test_butterfly_command(tmp_path):
    out = str(tmp_path / "b.csv")
    code = dispatch([
        "butterfly", "--kind", "ukh", "--kappa", "0.5", "--alpha-list", "farey:4",
        "--grid", "6", "--out", out,
    ])
    assert code == 0
    lines = [l for l in open(out).read().splitlines() if l and not l.startswith("#")]
    assert lines[0] == "p,q,value"
    assert len(lines) > 1


def test_table_headers_describe_the_sweep(tmp_path):
    # A bandwidth table records the theta it swept, and bandwidth and
    # butterfly tables the kappa: 0.0 for kind h, as in its spectrum CSV.
    def header(argv):
        out = tmp_path / "t.csv"
        assert dispatch(argv + ["--out", str(out)]) == 0
        return [ln for ln in out.read_text().splitlines() if ln.startswith("#")]

    bandwidth = ["bandwidth", "--alpha-list", "fib:1..2", "--grid", "4"]
    assert "# theta=mother" in header(bandwidth + ["--theta", "mother"])
    assert "# theta=0.3" in header(bandwidth + ["--theta", "0.3"])
    h = ["--kind", "h", "--kappa", "2", "--theta", "0.3", "--grid", "4"]
    spectrum = header(["compute", "--alpha", "1/2"] + h)
    table = header(["bandwidth", "--alpha-list", "fib:1..2"] + h)
    assert "# kappa=0.0" in spectrum
    assert set(table) - set(spectrum) == {"# merge_gap=auto"}
    butterfly = header(["butterfly", "--alpha-list", "farey:3", "--kind", "h", "--kappa", "2",
                        "--grid", "4"])
    assert "# kappa=0.0" in butterfly


@pytest.mark.parametrize("kind,kappa", [("ukh", "0.5"), ("h", "2")])
def test_butterfly_table_header_is_pinned(tmp_path, kind, kappa):
    out = tmp_path / "b.csv"
    assert dispatch(["butterfly", "--kind", kind, "--kappa", kappa, "--alpha-list", "farey:13",
                     "--grid", "48", "--out", str(out)]) == 0
    swept = "0.0" if kind == "h" else kappa  # kind h sweeps no kappa
    assert out.read_text().splitlines()[:6] == [
        f"# kind={kind}", f"# kappa={float(swept)!r}", "# lambda=1.0", "# q_max=13",
        "# grid_n=48", "p,q,value"]


def test_zoom_command(tmp_path):
    out = str(tmp_path / "z.csv")
    code = dispatch([
        "zoom", "--kind", "ukh", "--alpha", "3/5", "--grid", "6", "--theta", "mother",
        "--factors", "4,2", "--out", out,
    ])
    assert code == 0
    lines = [l for l in open(out).read().splitlines() if l and not l.startswith("#")]
    assert lines[0] == "window,lo,hi,phase"
    windows = {int(l.split(",")[0]) for l in lines[1:]}
    assert windows == {0, 1, 2}


# -- cache -----------------------------------------------------------------------------


def _last_row(row):
    return lambda text: "".join(text.splitlines(True)[:-1]) + row + "\n"


def _header_line(line):
    key = line.partition("=")[0]
    return lambda text: "".join(line + "\n" if ln.partition("=")[0] == key else ln
                                for ln in text.splitlines(True))


def _swapped_first_lines(text):
    first, second, rest = text.split("\n", 2)
    return "\n".join([second, first, rest])


def _blank_line_after_first_row(text):
    lines = text.splitlines(True)
    i = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    return "".join([*lines[:i + 1], "\n", *lines[i + 1:]])


# Entries that keep every header value (kind ukh, kappa = lambda = 1) and
# every row but are not the text spectrum_csv_text writes.
_NOT_THE_WRITERS_TEXT = {
    "kappa-digits": lambda text: text.replace("# kappa=1.0\n", "# kappa=1.00\n"),
    "kappa-spaces": lambda text: text.replace("# kappa=1.0\n", "# kappa = 1.0\n"),
    "swapped-lines": _swapped_first_lines,
    "blank-row": _blank_line_after_first_row,
}


@pytest.mark.parametrize("tamper", [
    _last_row("garbage,row"),
    _last_row("1.0,2.0"),
    _header_line("# kappa=abc"),
    _header_line("# alpha=4/6"),
    _header_line("# n_x=three"),
    _header_line("# kind=nope"),
    *_NOT_THE_WRITERS_TEXT.values(),
], ids=["garbage,row-None", "1.0,2.0-None", "-# kappa=abc", "-# alpha=4/6", "-# n_x=three",
        "-# kind=nope", *_NOT_THE_WRITERS_TEXT])
def test_read_spectrum_csv_rejects_malformed_input(tmp_path, tamper):
    path = tmp_path / "s.csv"
    write_spectrum_csv(mother_spectrum(params(), GridSpec(3, 3)), str(path))
    text = path.read_text()
    assert tamper(text) != text
    path.write_text(tamper(text))
    with pytest.raises(MalformedSpectrumFile):
        read_spectrum_csv(str(path))


def test_garbled_cache_entry_is_recomputed(tmp_path):
    cache = str(tmp_path / "c")
    cold, warm = str(tmp_path / "cold.csv"), str(tmp_path / "warm.csv")
    argv = ["compute", "--alpha", "1/3", "--grid", "3", "--cache-dir", cache]
    assert dispatch(argv + ["--out", cold]) == 0
    (entry,) = [os.path.join(cache, name) for name in os.listdir(cache)]
    lines = open(entry).read().splitlines()
    open(entry, "w").write("\n".join(lines[:-1] + ["garbage,row"]) + "\n")
    assert dispatch(argv + ["--out", warm]) == 0
    assert open(warm, "rb").read() == open(cold, "rb").read()
    assert open(entry).read().splitlines() == lines


def _lines(text, keep):
    return "".join(ln for ln in text.splitlines(True) if keep(ln))


def _retouched_first_row(text):
    """The entry with the last three digits of its first row's first field changed."""
    lines = text.splitlines(True)
    i = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    field, sep, rest = lines[i].partition(",")
    lines[i] = field[:-3] + ("999" if field[-3:] != "999" else "000") + sep + rest
    return "".join(lines)


def _rehashed(edit):
    """A tamper that edits an entry's row lines, then sets rows_sha256 to match them."""
    def tamper(text):
        head, sha, rest = text.partition("# rows_sha256=")
        body = "".join(edit(rest.split("\n", 1)[1].splitlines(True)))
        return f"{head}{sha}{hashlib.sha256(body.encode('utf-8')).hexdigest()}\n{body}"
    return tamper


def _first_row(row):
    return _rehashed(lambda rows: [row(rows[0][:-1]) + "\n", *rows[1:]])


_BLANK_ROW = _rehashed(lambda rows: [rows[0], "\n", *rows[1:]])
_THREE_FIELDS = _first_row(lambda row: f"{row},0,0")
_ONE_FIELD = _first_row(lambda row: row.split(",")[0])
_NOT_A_NUMBER = _first_row(lambda row: ",".join(["abc", *row.split(",")[1:]]))
_OFF_THE_CIRCLE = _first_row(lambda row: "2.0,0,0")


_BANDWIDTH = ["bandwidth", "--alpha-list", "fib:3..4", "--grid", "8"]
_COMPUTE = ["compute", "--alpha", "1/3", "--grid", "3"]
_ZOOM = ["zoom", "--alpha", "1/3", "--grid", "3", "--factors", "2"]
_H = ["--kind", "h"]


@pytest.mark.parametrize("argv,tamper", [
    (_BANDWIDTH, lambda text: _lines(text, lambda ln: not ln.startswith("# error_bound="))),
    (_COMPUTE, lambda text: text.replace("# kind=ukh", "# kind=h")),
    (_COMPUTE, lambda text: text.replace("# n_theta=3", "# n_theta=4")),
    (_COMPUTE, lambda text: re.sub(r"# error_bound=.*", "# error_bound=0.5", text)),
    (_COMPUTE, lambda text: ""),
    (_ZOOM, lambda text: ""),
    (_BANDWIDTH, lambda text: ""),
    (_ZOOM, lambda text: _lines(text, lambda ln: ln.startswith("#"))),
    (_COMPUTE, _retouched_first_row),
    *((_COMPUTE, tamper) for tamper in _NOT_THE_WRITERS_TEXT.values()),
    # Tampers that rows_sha256 matches.
    *((argv, _BLANK_ROW) for argv in (_COMPUTE, _ZOOM, _BANDWIDTH, _COMPUTE + _H, _BANDWIDTH + _H)),
    (_COMPUTE + _H, _THREE_FIELDS),
    (_BANDWIDTH + _H, _THREE_FIELDS),
    *((argv, _ONE_FIELD) for argv in (_COMPUTE, _ZOOM, _BANDWIDTH)),
    *((argv, _NOT_A_NUMBER) for argv in (_ZOOM, _BANDWIDTH, _BANDWIDTH + _H)),
    (_ZOOM, _OFF_THE_CIRCLE),
    (_BANDWIDTH, _OFF_THE_CIRCLE),
], ids=["no-error-bound", "kind-h", "other-grid", "other-bound", "empty-compute", "empty-zoom",
        "empty-bandwidth", "no-rows", "retouched-row", *_NOT_THE_WRITERS_TEXT,
        "rehashed-blank-compute", "rehashed-blank-zoom", "rehashed-blank-bandwidth",
        "rehashed-blank-compute-h", "rehashed-blank-bandwidth-h", "rehashed-three-fields-compute-h",
        "rehashed-three-fields-bandwidth-h", "rehashed-one-field-compute",
        "rehashed-one-field-zoom", "rehashed-one-field-bandwidth", "rehashed-not-a-number-zoom",
        "rehashed-not-a-number-bandwidth", "rehashed-not-a-number-bandwidth-h",
        "rehashed-off-the-circle-zoom", "rehashed-off-the-circle-bandwidth"])
def test_a_cache_hit_checks_what_it_reads(tmp_path, argv, tamper):
    # An entry whose header is incomplete, names another request or is not
    # the writer's text, or whose rows are missing, lack their kind's field
    # count or do not match its rows_sha256, is recomputed and overwritten,
    # re-hashed or not; so, where points are read, is one whose fields are
    # not numbers or not the kind's points.
    cache = tmp_path / "c"
    cold, warm = str(tmp_path / "cold.csv"), str(tmp_path / "warm.csv")
    assert dispatch(argv + ["--cache-dir", str(cache), "--out", cold]) == 0
    entries = {path: path.read_text() for path in cache.iterdir()}
    for path, text in entries.items():
        path.write_text(tamper(text))
    assert dispatch(argv + ["--cache-dir", str(cache), "--out", warm]) == 0
    assert open(warm, "rb").read() == open(cold, "rb").read()
    assert {path: path.read_text() for path in cache.iterdir()} == entries


def test_a_file_of_another_request_is_not_accepted(tmp_path):
    # A valid file of 2/3 planted under the key of 1/3: only its alpha line
    # differs from this request's header, and it is recomputed.
    mine, other, grid = params(p=1, q=3), params(p=2, q=3), GridSpec(3, 3)
    entry = tmp_path / (cache_key(mine, grid) + ".csv")
    write_spectrum_csv(mother_spectrum(other, grid), str(entry))
    assert read_spectrum_csv(str(entry)).params == other
    with pytest.raises(MalformedSpectrumFile):
        read_spectrum_text(str(entry), (mine, grid))
    s, text = compute_spectrum(mine, grid, str(tmp_path))
    assert s.params == mine
    assert text == entry.read_text() == spectrum_csv_text(mother_spectrum(mine, grid))


def test_a_cached_compute_renders_its_spectrum_at_most_once(tmp_path, monkeypatch):
    # A miss renders the entry once and prints those bytes; a hit prints the
    # bytes it read and renders nothing.
    import kickspec.cli as cli

    render, rendered = cli.spectrum_csv_text, []

    def counted(s):
        rendered.append(s)
        return render(s)

    monkeypatch.setattr(cli, "spectrum_csv_text", counted)
    cache = tmp_path / "c"
    cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
    assert dispatch(_COMPUTE + ["--cache-dir", str(cache), "--out", str(cold)]) == 0
    assert len(rendered) == 1
    assert dispatch(_COMPUTE + ["--cache-dir", str(cache), "--out", str(warm)]) == 0
    assert len(rendered) == 1
    (entry,) = cache.iterdir()
    assert cold.read_bytes() == warm.read_bytes() == entry.read_bytes()


@pytest.mark.parametrize("argv,builds", [(_COMPUTE, 0), (_ZOOM, 1), (_BANDWIDTH, 1)],
                         ids=["compute", "zoom", "bandwidth"])
def test_a_hit_reads_numbers_only_where_points_are_read(tmp_path, monkeypatch, argv, builds):
    # A compute CSV hit checks its entry and prints its bytes; zoom and
    # bandwidth --merge-gap auto read the points, one spectrum per entry.
    import kickspec.cli as cli

    cache = tmp_path / "c"
    cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
    assert dispatch(argv + ["--cache-dir", str(cache), "--out", str(cold)]) == 0
    entries = sorted(cache.iterdir())
    build, built = SpectrumSet.build.__func__, []

    def counted(cls, *args, **kwargs):
        built.append(args)
        return build(cls, *args, **kwargs)

    def no_sweep(*args):
        raise AssertionError("a hit sweeps nothing")

    monkeypatch.setattr(SpectrumSet, "build", classmethod(counted))
    monkeypatch.setattr(cli, "_compute", no_sweep)
    assert dispatch(argv + ["--cache-dir", str(cache), "--out", str(warm)]) == 0
    assert len(built) == builds * len(entries)
    assert warm.read_bytes() == cold.read_bytes()
    if argv is _COMPUTE:
        assert warm.read_bytes() == entries[0].read_bytes()


@pytest.mark.parametrize("argv", [_COMPUTE, _COMPUTE + _H], ids=["ukh", "h"])
def test_a_compute_hit_serves_rehashed_rows_that_are_not_numbers(tmp_path, argv):
    # rows_sha256 is an integrity check, not a signature, and compute reads no
    # number: an entry edited to a non-number and re-hashed is served as written.
    cache = tmp_path / "c"
    warm = tmp_path / "warm.csv"
    assert dispatch(argv + ["--cache-dir", str(cache), "--out", str(tmp_path / "cold.csv")]) == 0
    (entry,) = cache.iterdir()
    entry.write_text(_NOT_A_NUMBER(entry.read_text()))
    assert dispatch(argv + ["--cache-dir", str(cache), "--out", str(warm)]) == 0
    assert warm.read_bytes() == entry.read_bytes()
    assert "\nabc" in warm.read_text()


def test_every_alpha_is_size_checked_before_the_first_sweep(tmp_path, monkeypatch, capsys):
    import kickspec.spectra as spectra

    grid = GridSpec(400, 400)
    fits = spectra._sweep_bytes(params(p=5, q=8), grid)
    too_big = spectra._sweep_bytes(params(p=8, q=13), grid)
    sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": (fits + too_big) // 2 // 4096}
    monkeypatch.setattr(spectra.os, "sysconf", sizes.__getitem__)
    cache = tmp_path / "c"
    code = dispatch(["bandwidth", "--alpha-list", "fib:1..5", "--grid", "400",
                     "--cache-dir", str(cache), "--out", str(tmp_path / "b.csv")])
    assert code == 2
    assert "at q = 13" in capsys.readouterr().err
    assert not cache.exists() or not any(cache.iterdir())


def test_every_butterfly_grid_is_size_checked_before_the_first_sweep(tmp_path, monkeypatch,
                                                                      built, capsys):
    import kickspec.spectra as spectra
    from kickspec.analysis import _butterfly_sweeps

    # Memory between the largest estimate of the command's sweeps and the next
    # one refuses only the largest, which comes after others in Farey order.
    sweeps = _butterfly_sweeps("ukh", 1.0, 1.0, 13, 200)
    need = [spectra._sweep_bytes(pa, grid) for pa, grid in sweeps]
    too_big, fits = max(need), max(n for n in need if n < max(need))
    largest = need.index(too_big)
    assert largest > 0
    sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": (fits + too_big) // 2 // 4096}
    monkeypatch.setattr(spectra.os, "sysconf", sizes.__getitem__)
    out = tmp_path / "b.csv"
    code = dispatch(["butterfly", "--alpha-list", "farey:13", "--grid", "200", "--out", str(out)])
    assert code == 2
    assert f"at q = {sweeps[largest][0].alpha.q} needs" in capsys.readouterr().err
    assert built == []
    assert not out.exists()


@pytest.mark.parametrize("argv,refused,most", [
    (["bandwidth", "--alpha-list", "fib:1..100000"], 10946, 19),
    (["bandwidth", "--kind", "uordkr", "--alpha-list", "fib:1..100000"], 10946, 19),
    (["butterfly", "--alpha-list", "farey:20000"], 20000, 2),
], ids=["fib", "fib-uordkr", "farey"])
def test_an_oversized_alpha_list_is_refused_before_it_is_made(tmp_path, monkeypatch, built,
                                                               capsys, argv, refused, most):
    # The lists hold 10^5 and about 1.2 * 10^8 alphas.  Each alpha is made as
    # it is drawn and size-checked at once, so the command stops at the first
    # too large for 8 GiB, having made a handful, and builds no matrix.
    import kickspec.analysis as analysis
    import kickspec.spectra as spectra

    made = []

    class Counted(RationalAlpha):
        def __post_init__(self):
            made.append(self)
            assert len(made) <= most, "the list is made before its entries are size-checked"
            super().__post_init__()

    monkeypatch.setattr(analysis, "RationalAlpha", Counted)
    sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 8 * 2**30 // 4096}
    monkeypatch.setattr(spectra.os, "sysconf", sizes.__getitem__)
    out = tmp_path / "t.csv"
    assert dispatch(argv + ["--grid", "2", "--out", str(out)]) == 2
    assert f"at q = {refused} needs" in capsys.readouterr().err
    assert 0 < len(made) <= most
    assert built == []
    assert not out.exists()


def test_a_butterfly_table_larger_than_memory_is_refused_before_the_first_sweep(
        tmp_path, monkeypatch, built, capsys):
    # farey:150 on a grid of 2 keeps up to 686,732 values (one node an alpha from q = 3),
    # about 84 MiB at analysis._ROW_BYTES, while its largest sweep needs under 4 MiB: with
    # 16 MiB every sweep passes its own check, and the table is refused before any is run.
    # (farey:1000 at 8 GiB is this case: each sweep under 120 MB, a table of 2e8 values.)
    import kickspec.analysis as analysis
    import kickspec.spectra as spectra

    sweeps = analysis._butterfly_sweeps("ukh", 1.0, 1.0, 150, 2)
    rows = sum(grid.n_x * grid.n_theta * pa.alpha.q for pa, grid in sweeps)
    assert rows == 686732
    assert max(spectra._sweep_bytes(pa, grid) for pa, grid in sweeps) < 4 * 2**20
    assert rows * analysis._ROW_BYTES > 64 * 2**20
    sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 16 * 2**20 // 4096}
    monkeypatch.setattr(spectra.os, "sysconf", sizes.__getitem__)
    out = tmp_path / "b.csv"
    code = dispatch(["butterfly", "--alpha-list", "farey:150", "--grid", "2", "--out", str(out)])
    assert code == 2
    assert "GiB of it the rows kept beside it, more than the 0.0156 GiB" in capsys.readouterr().err
    assert built == []
    assert not out.exists()
    # With the memory the table needs, the same request runs.
    sizes["SC_PHYS_PAGES"] = 2**30 // 4096
    assert len(analysis._butterfly_sweeps("ukh", 1.0, 1.0, 150, 2)) == len(sweeps)


def test_an_oversized_butterfly_table_is_refused_before_its_list_is_drawn(
        tmp_path, monkeypatch, built, capsys):
    # farey:1000 on a grid of 2 names 304,191 alphas and a table of about 2e8 values,
    # 24 GiB at analysis._ROW_BYTES, while each sweep fits 8 GiB.  The table's size comes
    # from the totient counts per q, so the refusal makes one request per q (each q's
    # largest sweep, 1/q, and the last alpha), not one per alpha.
    import kickspec.analysis as analysis
    import kickspec.spectra as spectra

    made = []

    class Counted(OperatorParams):
        def __post_init__(self):
            made.append(self)
            super().__post_init__()

    monkeypatch.setattr(analysis, "OperatorParams", Counted)
    sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 8 * 2**30 // 4096}
    monkeypatch.setattr(spectra.os, "sysconf", sizes.__getitem__)
    out = tmp_path / "b.csv"
    argv = ["butterfly", "--kind", "ukh", "--alpha-list", "farey:1000", "--grid", "2"]
    assert dispatch(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "grid 1x1 at q = 1000 needs" in err and "GiB of it the rows kept beside it" in err
    assert 0 < len(made) <= 1000
    assert built == []
    assert not out.exists()


# Keys of version 0.1.0 for the two configurations of test_cache_keys_are_pinned.
V010_KEYS = {
    "ukh": "9bb4495a3a94acb3549b173fb7e833ea7bd5fbd6c02527b2114bc5111d3009eb",
    "h": "45705a3853f3f66c8db62cbf5d1628b7283ddb60be69154525a0dfa93f490743",
}


def test_cache_key_sensitivity():
    pa, grid = params(), GridSpec(5, 5)
    k1 = cache_key(pa, grid)
    assert k1 == cache_key(params(), GridSpec(5, 5))
    assert k1 != cache_key(params(kappa=2.0), grid)
    assert k1 != cache_key(pa, GridSpec(5, 6))
    assert k1 != cache_key(params(theta=0.0), grid)


# Keys of version 0.2.0, whose theta kicks were dense Fourier products.
V020_KEYS = {
    "ukh": "21f64d88512ee3ef9e36b47807b8d8042d1abcb1ef236543e0513b51a8ef4354",
    "h": "c1f66c926bc97d81a449c9c6d090cc6f7285e2945bbb502f08e30aee09872041",
}


# Keys of version 0.3.0, whose entries carried no rows_sha256 line.
V030_KEYS = {
    "ukh": "3e98cfab2c924fca104573aa0b6f1e133cbb436b86c73e58ee317c433da7d7ac",
    "h": "76bcd5c1c674e9ea436641d16504845ba3b07bc1b44dc1f598efc62095e242ce",
}


# Keys of version 0.4.0, which solved both nodes of every self-dual swap pair.
V040_KEYS = {
    "ukh": "74ea5df9eb4702b1c8b1b3bded4535508c48b90c3204021a362f3f23b4a5eef6",
    "h": "2a3e1a3db04dfaec37b8c2cb29eda3600b29d44fb8cd6967342fbea1c2a557a6",
}


# Keys of version 0.5.0, which hashed a JSON payload of the request.
V050_KEYS = {
    "ukh": "eafe02055b1c4baf43a9e9714b7b9a429e7162918b3b9dc58bb35a3f4fbb7f4b",
    "h": "4d708e0acac2492ebe52a17478bf19bb0104982024c183e643e2bf7f2c7b0afe",
}


# Keys of version 0.6.0, which solved every joint-mirror pair of a uordkr mother grid.
V060_KEYS = {
    "ukh": "c1499a57b2adc935e37498bbc5cca88ead5cbe9027f2e5533bd43230ad50c31a",
    "h": "58cd6a2dcba2eae7b613e507b1353125c2e6fafd7e20d5160f709dd6e35b261f",
}

# Keys of version 0.7.0, which solved the circulant Harper matrices of h and uh sweeps.
V070_KEYS = {
    "ukh": "c258d0b40e39fc5c03c221529c56101f52df7c0640181f3b9e1290c5500cc064",
    "h": "77fd6bf27618f81167c8ff4c3ffe3fc07df8163131bdd3e357174ffa3c7771ba",
}

# Keys of version 0.8.0, which solved both nodes of every half-shift pair at odd q.
V080_KEYS = {
    "ukh": "c311d45f106785c8f45a53726ce76cd1b21f981e719c06909e68ccd7cd91377e",
    "h": "69d23e0626e7e5fa694f35bf9bb00c9a9eb4320b9f66d350cb9353f216587eff",
}

# Keys of version 0.9.0, which solved each corner node's ukh and uordkr matrix whole.
V090_KEYS = {
    "ukh": "d19998cbea4d3f6c29b306308e489f787108298e5aa99c37a869bc7903bc93a9",
    "h": "8665e53fd21ef5f4127c5141ecbf4135e087fa244b22be1b97f68ad684e77342",
}

# Keys of version 0.10.0, which solved every matrix of a kicked sweep by the complex eigvalsh.
V0100_KEYS = {
    "ukh": "ea2b070ff724e98cf7d81dbccd4e1dd999529000a3b6b1950f8e4d280a30d1f8",
    "h": "f9ff6ea06dfae28bbd869cf19c0ca54f9b06d54ee1773f230e252892738db14a",
}

# Keys of version 0.11.0, which retried a flagged Cayley matrix as -U and then by eigvals.
V0110_KEYS = {
    "ukh": "8269238dd3639806dc51b93c711db01f4cca2d33093102e935f424fbca6d0c11",
    "h": "4135dc71f78caab8fa3ca9ca72f2ce6d1326595a46b5c7c95fe62c276c8d7f2c",
}

# Keys of version 0.12.0, which solved h and uh corner nodes whole and built each kicked
# corner's q x q matrix before gathering its parity blocks.
V0120_KEYS = {
    "ukh": "b0ddeceee5a8cfe6b8e4cb143329900cf6034abbac021c603c1a9e83cb822ffe",
    "h": "b0d3f4403737679a1a8e184b6d71135936d23d89c6ec0579f43c552d5a919ef8",
}

# Keys of version 0.13.0, which solved every gauged Cayley matrix by the complex inverse.
V0130_KEYS = {
    "ukh": "e3af088918cbec55e272b42ee12dc6d3bddd08efccafa6b7a4b73b4c7a87cff6",
    "h": "6e0961508e9a0f3c02c0eb509d3ed3c4f6b3238b3ed506310e2718e7e878fcc1",
}

# Keys of version 0.14.0, which built each whole uordkr matrix as the product (A E D_beta) E*.
V0140_KEYS = {
    "ukh": "0cd04fc9070491ef047bdc6b2344761bd03d43644570391532a0dfbbb44a542e",
    "h": "bea0bdc1d0544a465741c2b3fbe2499f0d484b093f94ef1bd6a5b9221443a6c0",
}

# Keys of version 0.15.0, which left every solver call on the default BLAS thread count.
V0150_KEYS = {
    "ukh": "59a5531311ec82ed6f9025001b6514f8cf95220569c1501af6d51f7b1d7aa224",
    "h": "f393743a5cf1dad67887e41a4fbd6ada5da3e9ed41e3135b689a118c94cffaeb",
}


def test_cache_keys_are_pinned():
    # Entries written by earlier versions stay valid only while these hold.
    ukh = cache_key(OperatorParams("ukh", 1.0, 1.0, RationalAlpha(8, 13), MOTHER), GridSpec(5, 5))
    h = cache_key(OperatorParams("h", 1.0, 0.5, RationalAlpha(1, 3), 0.25), GridSpec(7))
    assert ukh == "abb98557848f02c3337cfdc6e484f132df0745d6fb104ac1ccbec51cd50c8cae"
    assert h == "186e3fe867e634ed4f633fd53a88441f38ea2243e39358c605294b88401e1260"
    # Version 0.1.0 swept every grid node, 0.2.0 built the theta kicks as
    # dense Fourier products, 0.3.0 wrote no rows_sha256 line, and 0.4.0
    # solved both nodes of each self-dual swap pair; their entries differ in
    # the last bits or in the header.  0.5.0 wrote the same entries under
    # keys of a JSON payload; they are recomputed, not served.  0.6.0
    # solved other nodes of a uordkr mother grid, whose values differ in the
    # last bits, and 0.7.0 the circulant Harper matrices, whose h and uh values
    # differ from the Jacobi matrices' in the last bits.  0.8.0 solved both
    # nodes of each half-shift pair at odd q, whose values differ in the last bits.
    # 0.9.0 solved each corner node of a ukh or uordkr sweep at q >= 80 whole, not
    # as its two parity blocks, whose values differ in the last bits.  0.10.0 solved
    # the matrices on the time-reversal line by the complex eigvalsh, not the real one.
    # 0.11.0 retried a flagged Cayley matrix as -U and then by eigvals, not turned
    # to its widest eigenphase gap, whose values differ in the last bits.
    # 0.12.0 solved the h and uh corner nodes whole, and the kicked corners' blocks
    # gathered from the built q x q matrix, whose values differ in the last bits.
    # 0.13.0 solved each gauged Cayley matrix by the complex inverse, not one real
    # solve, whose values differ in the last bits.  0.14.0 built each whole uordkr
    # matrix as a product with E*, not gathered from its chirped circulant, whose
    # values differ in the last bits.  0.15.0 ran solver calls under the thread
    # floor on the default BLAS thread count, not one thread, whose values differ
    # in the last bits.
    assert {ukh, h}.isdisjoint(V010_KEYS.values())
    assert {ukh, h}.isdisjoint(V020_KEYS.values())
    assert {ukh, h}.isdisjoint(V030_KEYS.values())
    assert {ukh, h}.isdisjoint(V040_KEYS.values())
    assert {ukh, h}.isdisjoint(V050_KEYS.values())
    assert {ukh, h}.isdisjoint(V060_KEYS.values())
    assert {ukh, h}.isdisjoint(V070_KEYS.values())
    assert {ukh, h}.isdisjoint(V080_KEYS.values())
    assert {ukh, h}.isdisjoint(V090_KEYS.values())
    assert {ukh, h}.isdisjoint(V0100_KEYS.values())
    assert {ukh, h}.isdisjoint(V0110_KEYS.values())
    assert {ukh, h}.isdisjoint(V0120_KEYS.values())
    assert {ukh, h}.isdisjoint(V0130_KEYS.values())
    assert {ukh, h}.isdisjoint(V0140_KEYS.values())
    assert {ukh, h}.isdisjoint(V0150_KEYS.values())


def test_parent_cache_entry_is_not_served(tmp_path):
    cache = tmp_path / "c"
    cache.mkdir()
    cold, warm = str(tmp_path / "cold.csv"), str(tmp_path / "warm.csv")
    argv = ["compute", "--alpha", "8/13", "--grid", "5"]  # ukh, kappa = lambda = 1, mother
    assert dispatch(argv + ["--out", cold]) == 0
    s = read_spectrum_csv(cold)
    planted = SpectrumSet.build(s.kind, s.points * np.exp(0.125j), params=s.params, grid=s.grid)
    for keys in (V010_KEYS, V050_KEYS, V060_KEYS, V070_KEYS, V080_KEYS, V090_KEYS, V0100_KEYS,
                 V0110_KEYS, V0120_KEYS, V0130_KEYS, V0140_KEYS, V0150_KEYS):
        write_spectrum_csv(planted, str(cache / (keys["ukh"] + ".csv")))
    assert dispatch(argv + ["--cache-dir", str(cache), "--out", warm]) == 0
    assert open(warm, "rb").read() == open(cold, "rb").read()
    assert len(os.listdir(cache)) == 13


def test_cache_differential_and_clear(tmp_path):
    cache = str(tmp_path / "cache")
    cold = str(tmp_path / "cold.csv")
    warm = str(tmp_path / "warm.csv")
    plain = str(tmp_path / "plain.csv")
    argv = ["compute", "--alpha", "2/5", "--grid", "6", "--theta", "mother"]
    assert dispatch(argv + ["--out", cold, "--cache-dir", cache]) == 0
    assert dispatch(argv + ["--out", warm, "--cache-dir", cache]) == 0
    assert dispatch(argv + ["--out", plain]) == 0
    cold_b, warm_b, plain_b = (open(p, "rb").read() for p in (cold, warm, plain))
    assert cold_b == warm_b == plain_b
    assert len(os.listdir(cache)) == 1
    assert dispatch(["cache", "clear", "--cache-dir", cache]) == 0
    assert os.listdir(cache) == []
