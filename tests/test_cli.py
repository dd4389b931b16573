import argparse
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kickspec.cli import (
    _fmt,
    build_parser,
    cache_key,
    dispatch,
    read_spectrum_csv,
    spectrum_csv_text,
    write_rings_svg,
    write_spectrum_csv,
)
from kickspec.errors import EmptySpectrum, KindMismatch, MalformedSpectrumFile
from kickspec.operators import MOTHER, OperatorParams, RationalAlpha
from kickspec.spectra import (
    GridSpec,
    SpectrumKind,
    SpectrumSet,
    grid_error_bound,
    mother_spectrum,
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


def test_single_point_csv_row():
    s = SpectrumSet.build(SpectrumKind.UNIT_CIRCLE, [1.0 + 0.0j])
    text = spectrum_csv_text(s)
    assert text.splitlines()[-1] == "1.00000000000000000,0,0"


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


def test_csv_synthetic_real_line_round_trip(tmp_path):
    s = SpectrumSet.build(SpectrumKind.REAL_LINE, [-1.5, 0.25, 3.0])
    path = str(tmp_path / "bare.csv")
    write_spectrum_csv(s, path)
    back = read_spectrum_csv(path)
    assert back.kind is SpectrumKind.REAL_LINE
    assert np.array_equal(back.points, s.points)


def test_bad_list_values_are_exit_2(capsys):
    fib = ["bandwidth", "--alpha-list", "fib:1..3", "--grid", "4", "--merge-gap"]
    cases = [
        ("--alpha-list", ["bandwidth", "--alpha-list", "farey:x", "--grid", "3"]),
        ("--alpha-list", ["butterfly", "--alpha-list", "fib:1..2", "--grid", "3"]),
        ("--factors", ["zoom", "--alpha", "1/3", "--grid", "3", "--factors", "2,nope"]),
        ("--factors", ["zoom", "--alpha", "3/5", "--grid", "4", "--factors", "nan"]),
        ("--factors", ["zoom", "--alpha", "3/5", "--grid", "2", "--factors", ","]),
        ("--kappa", ["compute", "--alpha", "1/3", "--grid", "2", "--kappa", "1,"]),
        ("--merge-gap", fib + ["abc"]),
        ("--merge-gap", fib + ["nan"]),
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
], ids=["merge-gap-abc", "merge-gap-negative", "factors-below-1", "center-out-of-range",
        "zoom-kind-h", "svg-kind-h"])
def test_usage_error_sweeps_and_writes_nothing(tmp_path, capsys, argv):
    cache, out = tmp_path / "cache", tmp_path / "out"
    cache.mkdir()
    assert dispatch(argv + ["--cache-dir", str(cache), "--out", str(out)]) == 2
    assert os.listdir(cache) == []
    assert not out.exists()
    capsys.readouterr()


def test_csv_fixed_theta_round_trip(tmp_path):
    from kickspec.spectra import spectrum_fixed_theta

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
    with pytest.raises(EmptySpectrum):
        write_rings_svg([], str(tmp_path / "x.svg"))
    real = SpectrumSet.build(SpectrumKind.REAL_LINE, [0.0])
    with pytest.raises(KindMismatch):
        write_rings_svg([real], str(tmp_path / "x.svg"))
    s1 = mother_spectrum(params(q=3), GridSpec(2, 2))
    s2 = mother_spectrum(params(q=5, p=2), GridSpec(2, 2))
    with pytest.raises(KindMismatch):
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


def test_numerical_failure_is_exit_3(tmp_path, monkeypatch):
    import kickspec.cli as cli
    from kickspec.errors import NoConvergence

    def boom(*args, **kwargs):
        raise NoConvergence("synthetic solver failure")

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


def test_verify_parses_every_value_before_the_first_check(monkeypatch, capsys):
    import kickspec.cli as cli

    monkeypatch.setattr(cli, "run_check", lambda *args: pytest.fail("a check ran"))
    # --theta is read only by the fourth check, spectral-mapping.
    assert dispatch(["verify", "--check", "all", "--grid", "2", "--theta", "abc"]) == 2
    assert "--theta" in capsys.readouterr().err


def test_preflight_counts_the_q_by_q_arrays(tmp_path, monkeypatch, capsys):
    # One grid node at q = 1499: 24 kB of pairs and eigenvalues, but about
    # 90 MB of q x q matrices, so 64 MiB of physical memory refuses it.
    import kickspec.spectra as spectra

    sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 64 * 2**20 // 4096}
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


@pytest.mark.parametrize("row,header", [
    ("garbage,row", None),
    ("1.0,2.0", None),
    ("", "# kappa=abc"),
    ("", "# alpha=4/6"),
    ("", "# n_x=three"),
    ("", "# kind=nope"),
])
def test_read_spectrum_csv_rejects_malformed_input(tmp_path, row, header):
    path = str(tmp_path / "s.csv")
    write_spectrum_csv(mother_spectrum(params(), GridSpec(3, 3)), path)
    lines = open(path).read().splitlines()
    if row:
        lines[-1] = row
    if header:
        key = header.partition("=")[0]
        lines = [header if ln.partition("=")[0] == key else ln for ln in lines]
    open(path, "w").write("\n".join(lines) + "\n")
    with pytest.raises(MalformedSpectrumFile):
        read_spectrum_csv(path)


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


_BANDWIDTH = ["bandwidth", "--alpha-list", "fib:3..4", "--grid", "8"]
_COMPUTE = ["compute", "--alpha", "1/3", "--grid", "3"]
_ZOOM = ["zoom", "--alpha", "1/3", "--grid", "3", "--factors", "2"]


@pytest.mark.parametrize("argv,tamper", [
    (_BANDWIDTH, lambda text: _lines(text, lambda ln: not ln.startswith("# error_bound="))),
    (_COMPUTE, lambda text: text.replace("# kind=ukh", "# kind=h")),
    (_COMPUTE, lambda text: text.replace("# n_theta=3", "# n_theta=4")),
    (_COMPUTE, lambda text: re.sub(r"# error_bound=.*", "# error_bound=0.5", text)),
    (_COMPUTE, lambda text: ""),
    (_ZOOM, lambda text: ""),
    (_BANDWIDTH, lambda text: ""),
    (_ZOOM, lambda text: _lines(text, lambda ln: ln.startswith("#"))),
], ids=["no-error-bound", "kind-h", "other-grid", "other-bound", "empty-compute", "empty-zoom",
        "empty-bandwidth", "no-rows"])
def test_a_cache_hit_checks_what_it_reads(tmp_path, argv, tamper):
    # An entry whose header is incomplete or names another request, or whose
    # rows are missing or do not parse by its kind, is recomputed and overwritten.
    cache = tmp_path / "c"
    cold, warm = str(tmp_path / "cold.csv"), str(tmp_path / "warm.csv")
    assert dispatch(argv + ["--cache-dir", str(cache), "--out", cold]) == 0
    entries = {path: path.read_text() for path in cache.iterdir()}
    for path, text in entries.items():
        path.write_text(tamper(text))
    assert dispatch(argv + ["--cache-dir", str(cache), "--out", warm]) == 0
    assert open(warm, "rb").read() == open(cold, "rb").read()
    assert {path: path.read_text() for path in cache.iterdir()} == entries


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


def test_cache_keys_are_pinned():
    # Entries written by earlier versions stay valid only while these hold.
    ukh = cache_key(OperatorParams("ukh", 1.0, 1.0, RationalAlpha(8, 13), MOTHER), GridSpec(5, 5))
    h = cache_key(OperatorParams("h", 1.0, 0.5, RationalAlpha(1, 3), 0.25), GridSpec(7))
    assert ukh == "3e98cfab2c924fca104573aa0b6f1e133cbb436b86c73e58ee317c433da7d7ac"
    assert h == "76bcd5c1c674e9ea436641d16504845ba3b07bc1b44dc1f598efc62095e242ce"
    # Version 0.1.0 swept every grid node and 0.2.0 built the theta kicks as
    # dense Fourier products; their entries differ in the last bits.
    assert {ukh, h}.isdisjoint(V010_KEYS.values())
    assert {ukh, h}.isdisjoint(V020_KEYS.values())


def test_parent_cache_entry_is_not_served(tmp_path):
    cache = tmp_path / "c"
    cache.mkdir()
    cold, warm = str(tmp_path / "cold.csv"), str(tmp_path / "warm.csv")
    argv = ["compute", "--alpha", "8/13", "--grid", "5"]  # ukh, kappa = lambda = 1, mother
    assert dispatch(argv + ["--out", cold]) == 0
    s = read_spectrum_csv(cold)
    planted = SpectrumSet.build(s.kind, s.points * np.exp(0.125j), params=s.params,
                                grid=s.grid, error_bound=s.error_bound)
    write_spectrum_csv(planted, str(cache / (V010_KEYS["ukh"] + ".csv")))
    assert dispatch(argv + ["--cache-dir", str(cache), "--out", warm]) == 0
    assert open(warm, "rb").read() == open(cold, "rb").read()


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
