"""Numerical laboratory for the commutative model of the basic current-group
representation: special functions, Fourier/Levy-Khinchin quadrature, the
matrix group and its boundary action, the (mu, nu) measure pair, samplers,
representation operators, and machine-checkable identity suites."""

from .errors import (
    CalibrationError,
    ConvergenceError,
    DomainError,
    NotInGroupError,
    PointAtInfinityError,
)
from .gridfn import CellGrid, GridFunction, grid_1d_sqrt, grid_2d_sqrt, tabulate
from .group import (GroupElement, GroupWord, TriangularElement, act, cocycle_beta, form_matrix,
                    make_s)
from .measures import Partition, Refinement, split_evenly
from .process import PointConfiguration, SeededStream, sample_marginal, sample_process
from .quadrature import QuadratureReport, RadialProfile, cached_cn, radial_fourier
from .specfun import Dimensions, FourierConstant, bessel_k, v_rho
from .suites import CheckReport, RunConfig, run_suite

__version__ = "0.1.0"

__all__ = [
    "CalibrationError", "CellGrid", "CheckReport",
    "ConvergenceError", "Dimensions", "DomainError", "FourierConstant",
    "GridFunction", "GroupElement", "GroupWord", "NotInGroupError",
    "Partition", "PointAtInfinityError", "PointConfiguration",
    "QuadratureReport", "RadialProfile", "Refinement", "RunConfig",
    "SeededStream", "TriangularElement", "act", "bessel_k", "cached_cn",
    "cocycle_beta", "form_matrix", "grid_1d_sqrt", "grid_2d_sqrt", "make_s",
    "radial_fourier", "run_suite", "sample_marginal", "sample_process",
    "split_evenly", "tabulate", "v_rho",
]
