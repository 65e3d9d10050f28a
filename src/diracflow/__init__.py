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

__version__ = "0.1.0"
