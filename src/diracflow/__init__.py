"""diracflow: a numerical laboratory for 1-D Dirac-Schrodinger index theory.

The package verifies, by independent computations on finite-dimensional
fibers, the identity chain

    index of the discretized operator  =  spectral flow of the potential
    =  relative index of the endpoint spectral projections
    =  signed hypersurface pairing over the boundary of the support set,

together with cut-and-paste additivity, quantitative Fredholm lower
bounds, and a suite of operator inequalities exercised on seeded random
matrices and truncation towers.
"""

from .errors import (
    AmbiguousRank,
    CollarMismatch,
    ConfigError,
    DegeneratePath,
    DiracflowError,
    GeneratorError,
    HypothesisUnmet,
    InvalidInput,
    NonIntegerTrace,
    NotDiagonalizable,
    NotInvertible,
    NotRelativelyCompact,
    PathTooCoarse,
    RefineGrid,
    TheoremViolation,
    TowerTooShallow,
)
from .opcore import (
    DEFAULT_TOL,
    HermitianOperator,
    Projection,
    Tolerances,
    TruncationTower,
    bounded_transform,
    eigh,
    inv_sqrt_via_quadrature,
    null_space,
    positive_projection,
    tower_instantiate,
)
from .relindex import (
    check_additivity,
    homotopy_constancy,
    rel_index,
    rel_index_restricted,
)
from .specflow import (
    PotentialPath,
    endpoint_identity,
    sf_crossings,
    sf_partition,
)

__version__ = "0.1.0"
