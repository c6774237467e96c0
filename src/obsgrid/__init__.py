"""Observability-constant maximization for parabolic systems over relaxed
sensor densities: spectral Gram assembly, Frank-Wolfe with the bathtub
oracle, the sigma_1 limit problem, and asymptotic experiment harnesses.
"""

from .spectral import (DomainSpec, FactoredScalar, SpectralModel, build_model,
                       gamma_from_lambda, tau)
from .geometry import Grid, bathtub, l1_distance, make_grid, project_box_mean
from .gram import (GramForm, min_eigpair, obs_constant, obs_constant_rand,
                   quadratic_decomposition)
from .optimize import (Certificate, OptResult, bang_bang_fraction,
                       lower_bound_certificate, maximize_obs, maximize_sigma1,
                       supergradient)
from .limit import (LimitSolution, cesaro_mean, estimate_bathtub_constant,
                    kkt_check, limit_set, sigma1, tube_linearity)

__version__ = "0.1.0"
