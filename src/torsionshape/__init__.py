"""Shape optimization for the overdetermined torsion free-boundary problem.

Minimizes the torsional energy under a weighted volume constraint with a
positively homogeneous weight, recovers the free-boundary condition
|grad u| = g by a closed-form homothety, and verifies the qualitative
properties of the solutions against analytic radial oracles.
"""

from . import oracle
from .domain import (Ball, BoundarySamples, Domain, Ellipse, Field, GridSpec,
                     Sublevel, boundary_samples, build_domain,
                     hausdorff_distance, load_domain, reinitialize,
                     save_domain, scale_domain, volume)
from .optimizer import (OptimizationTrace, estimate_multiplier, fbp_rescale,
                        optimize, rescale_to_constraint, shape_derivative)
from .torsion import (StressField, boundary_gradient, energy_J,
                      objective_scale_invariant, phi_constraint, residual_fbp,
                      solve_torsion, weighted_perimeter)
from .weight import (Weight, eval_weight, fourier_weight, make_weight,
                     radial_weight, sublevel_radius)

__version__ = "0.1.0"
