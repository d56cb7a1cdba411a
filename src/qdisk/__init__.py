"""qdisk: two-valued Dirichlet minimizers on the planar unit disk.

Subpackages cover the matching metric on unordered pairs (qpoint), the exact
catalog of homogeneous conformal sheet pairs and their seam matching
(forms), discrete disk fields with frequency-function analytics (field),
spectral and relaxation minimizers for circle boundary data (minimizer),
blow-up extraction and catalog identification (blowup), and a CLI (cli).
"""

from .errors import (
    AmbiguousClass,
    DegenerateField,
    DegeneratePair,
    GridTooCoarse,
    NoCatalogMatch,
    NotStationary,
    QdiskError,
    ZeroBoundaryMass,
    ZeroEnergy,
    ZeroSpectrum,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousClass",
    "DegenerateField",
    "DegeneratePair",
    "GridTooCoarse",
    "NoCatalogMatch",
    "NotStationary",
    "QdiskError",
    "ZeroBoundaryMass",
    "ZeroEnergy",
    "ZeroSpectrum",
]
