"""One-dimensional Dunkl harmonic analysis at desk scale: kernel, translation,
convolution, transform, generalized Taylor remainders, and Besov-type
smoothness diagnostics."""

from .special import AlphaParam, dunkl_kernel
from .funcalg import GaussPolyFunction, dunkl_apply, dunkl_power, dilate, hermite_phi
from .quad import LpContext, integrate, lp_norm

__all__ = [
    "AlphaParam",
    "dunkl_kernel",
    "GaussPolyFunction",
    "dunkl_apply",
    "dunkl_power",
    "dilate",
    "hermite_phi",
    "LpContext",
    "integrate",
    "lp_norm",
]

__version__ = "0.1.0"
