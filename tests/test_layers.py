"""The layer boundary: the private names one kickspec module takes from another."""

import ast
import pathlib

import kickspec

SRC = pathlib.Path(kickspec.__file__).parent
MODULES = {path.stem for path in SRC.glob("*.py")} - {"__init__"}

# Each private name a module may take from another, and the modules that may
# take it: the sweep kernel, its size check, and the set and the tracked bands
# of its values from spectra, the general solver of spectra's general route,
# the BLAS thread rule that spectra runs each solver call through, the corner
# nodes' parity blocks and the time-reversal gauges that the sweep solves with,
# and the per-key parsers the command line shares with the checks.
ALLOWED = {
    ("spectra", "_sweep_values"): {"analysis"},
    ("spectra", "_preflight"): {"analysis", "cli"},
    ("spectra", "_tracked"): {"analysis"},
    ("spectra", "_spectrum"): {"analysis"},
    ("linalg", "_general_eigvals"): {"spectra"},
    ("linalg", "_one_thread_below"): {"spectra"},
    ("operators", "_corner_blocks"): {"spectra"},
    ("operators", "_reversal_gauge"): {"spectra"},
    ("analysis", "_PARSE"): {"cli"},
}


def _source(node: ast.ImportFrom) -> str | None:
    """The kickspec module an import reads from, or None for another package."""
    if node.level == 1:
        return node.module or "__init__"
    if node.module and node.module.split(".")[0] == "kickspec":
        return node.module.partition(".")[2] or "__init__"
    return None


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports():
    """(importer, source, name) for every private name, or whole module, that a
    kickspec module imports from another; a whole module would put its private
    names one attribute away."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and _source(node) is not None:
                found.update((path.stem, _source(node), alias.name) for alias in node.names
                             if _private(alias.name) or alias.name in MODULES)
    return found


def test_modules_take_only_the_kernel_entry_points_private():
    found = private_imports()
    assert ("analysis", "spectra", "_sweep_values") in found
    stray = sorted(f for f in found if f[0] not in ALLOWED.get(f[1:], ()))
    assert stray == []


def test_the_package_exports_its_layer_modules_public_names():
    # __init__ names no public symbol itself: it star-imports the four layer
    # modules and joins their __all__ lists, so each name is declared once.
    import kickspec.analysis
    import kickspec.linalg
    import kickspec.operators
    import kickspec.spectra

    layers = [kickspec.analysis, kickspec.linalg, kickspec.operators, kickspec.spectra]
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(init) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert imported == {"*", "__all__"}
    owners = {name: m for m in layers for name in m.__all__}
    assert sorted(kickspec.__all__) == sorted(["__version__", *owners])
    for name, module in owners.items():
        assert getattr(kickspec, name) is getattr(module, name)
