"""Exception types shared across the toolkit."""


class QdiskError(Exception):
    """Base class for all toolkit errors."""


class GridTooCoarse(QdiskError):
    """Requested radius or grid resolution below the supported minimum."""


class ZeroBoundaryMass(QdiskError):
    """The function vanishes on the requested circle; frequency undefined."""


class DegeneratePair(QdiskError):
    """Both sheets are the zero form; the function is identically 2[[0]]."""


class AmbiguousClass(QdiskError):
    """Sheet values collide; the continuation class is not determined."""


class ZeroSpectrum(QdiskError):
    """All spectral coefficients are below threshold."""


class ZeroEnergy(QdiskError):
    """Dirichlet energy too small to normalize against."""


class DegenerateField(QdiskError):
    """All sampled pair distances vanish; no exponent can be fitted."""


class NoCatalogMatch(QdiskError):
    """The field does not fit any admissible homogeneous catalog entry."""


class NotStationary(QdiskError):
    """The relaxation oracle's result is not a minimizer of the discrete energy."""
