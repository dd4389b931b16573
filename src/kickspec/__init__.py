"""Spectra of almost Mathieu, kicked Harper and on-resonance double kicked
rotor operators at rational frequency alpha = p/q, computed through exact
q x q representations, with certified grid-error bounds and an analysis
suite that turns the family's spectral identities into executable checks.

The package exports the public names of its four layer modules, each
declared once, in that module's ``__all__``.
"""

__version__ = "0.16.0"

from .analysis import *
from .analysis import __all__ as _analysis
from .linalg import *
from .linalg import __all__ as _linalg
from .operators import *
from .operators import __all__ as _operators
from .spectra import *
from .spectra import __all__ as _spectra

__all__ = ["__version__", *_analysis, *_linalg, *_operators, *_spectra]
