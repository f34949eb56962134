"""Elastic scattering coefficients of 2-D inclusions.

Computes scattering-coefficient matrices from boundary integral
equations, reconstructs them from simulated multi-static measurements,
and designs multi-layer coatings that suppress the leading coefficients
of a traction-free cavity (near-cloaking enhancement).
"""

from .bie import DensityPair, QuadratureGrid, build_grid, solve_transmission
from .cloak import LayeredStructure, analytic_disk_esc, layered_esc
from .curves import Circle, Ellipse, FourierRadius, Kite, curve_from_dict
from .esc import EscMatrix, compute_esc
from .msr import MsrConfig, MsrDataset, reconstruct, simulate_msr
from .wavefields import Material, MaterialPair

__version__ = "0.1.0"

__all__ = [
    "Material",
    "MaterialPair",
    "Circle",
    "Ellipse",
    "Kite",
    "FourierRadius",
    "curve_from_dict",
    "build_grid",
    "QuadratureGrid",
    "DensityPair",
    "solve_transmission",
    "EscMatrix",
    "compute_esc",
    "MsrConfig",
    "MsrDataset",
    "simulate_msr",
    "reconstruct",
    "LayeredStructure",
    "layered_esc",
    "analytic_disk_esc",
    "__version__",
]
