"""Numerical laboratory for snoidal periodic traveling waves of the phi^4 equation.

Submodules:
  elliptic   - AGM-based K(k), E(k) and Jacobi sn/cn/dn
  waves      - snoidal profile construction and the period-speed relation
  spectral   - linearized operators, spectra, constrained-index data, d''(c)
  evolution  - zero-mean projected splitting integrator and orbit distance
  errors     - the exception classes the command line maps to exit codes
  cli        - command-line front end (wave / spectrum / evolve / stability / sweep)
"""

from .elliptic import EllipticModulus, complete_E, complete_K, jacobi_sn_cn_dn
from .waves import (
    ModulusBoundaryError,
    OutOfRangeError,
    WaveParameters,
    ode_residual,
    profile_eval,
    sample_wave,
    solve_modulus,
)

__all__ = [
    "EllipticModulus",
    "complete_K",
    "complete_E",
    "jacobi_sn_cn_dn",
    "WaveParameters",
    "OutOfRangeError",
    "ModulusBoundaryError",
    "solve_modulus",
    "profile_eval",
    "sample_wave",
    "ode_residual",
]
