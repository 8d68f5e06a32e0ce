"""Numerical operator algebra on a truncated fuzzy 3-space with graded
monopole sectors, plus a verification harness for its identities."""

__version__ = "0.1.0"

from .fock import FockBasis, build_basis, interior_projector, ladder
from .liouville import Space, SuperOp, anticommutator, commutator, get_space
from .ncspace import NcCoordinates, build_coordinates, verify_coordinate_algebra
from .sector import (
    MonopoleSector,
    SectorVector,
    build_sector,
    graded_residual,
    inner_product,
    sector_matrix,
)

__all__ = [
    "FockBasis",
    "build_basis",
    "interior_projector",
    "ladder",
    "Space",
    "SuperOp",
    "anticommutator",
    "commutator",
    "get_space",
    "NcCoordinates",
    "build_coordinates",
    "verify_coordinate_algebra",
    "MonopoleSector",
    "SectorVector",
    "build_sector",
    "graded_residual",
    "inner_product",
    "sector_matrix",
]
