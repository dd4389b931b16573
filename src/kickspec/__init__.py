"""Spectra of almost Mathieu, kicked Harper and on-resonance double kicked
rotor operators at rational frequency alpha = p/q, computed through exact
q x q representations, with certified grid-error bounds and an analysis
suite that turns the family's spectral identities into executable checks.
"""

__version__ = "0.3.0"

from .analysis import (
    ButterflyDataset,
    CheckReport,
    CHECK_IDS,
    PowerLawFit,
    ZoomWindow,
    alpha_jump_witness,
    bands_in_window,
    butterfly,
    farey_rationals,
    golden_convergents,
    hausdorff,
    powerlaw_fit,
    run_check,
    total_bandwidth,
    zoom_windows,
)
from .linalg import eig_unitary, principal_args
from .operators import (
    MOTHER,
    DcpEigensystem,
    OperatorKind,
    OperatorParams,
    RationalAlpha,
    dcp_eigensystem,
    operator_stack,
)
from .spectra import (
    BandList,
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

__all__ = [
    "__version__",
    "MOTHER",
    "ButterflyDataset",
    "BandList",
    "CheckReport",
    "CHECK_IDS",
    "DcpEigensystem",
    "GridSpec",
    "OperatorKind",
    "OperatorParams",
    "PowerLawFit",
    "RationalAlpha",
    "SpectrumKind",
    "SpectrumSet",
    "ZoomWindow",
    "alpha_jump_witness",
    "auto_merge_gap",
    "bands_in_window",
    "butterfly",
    "dcp_eigensystem",
    "eig_unitary",
    "eigenphases",
    "farey_rationals",
    "golden_convergents",
    "grid_error_bound",
    "hausdorff",
    "merge_bands",
    "mother_spectrum",
    "operator_stack",
    "powerlaw_fit",
    "principal_args",
    "run_check",
    "spectrum_fixed_theta",
    "total_bandwidth",
    "tracked_bands",
    "zoom_windows",
]
