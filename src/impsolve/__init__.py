"""Power-series solution of implicit equations with certified convergence regions.

The package solves ``y = psi(x, y)`` as a formal power series in x,
dominates the equation by a comparison equation of positive type, runs
the monotone fixed-point iteration that certifies convergence with
a-posteriori error bounds, and locates the boundary of the convergence
region through the vertical-tangent condition on the comparison graph.
"""

from .errors import DomainError, SpecFormatError
from .hille import (FAILED, FOUND, UNBOUNDED, GraphPoint, HillePoint,
                    RadiusEstimate, RayRadius, RegionSample, empirical_radius,
                    hille_point, radius_along_ray, region_to_csv, trace_graph)
from .kantorovich import (DEFAULT_BUDGET, DEFAULT_TOL, INSIDE, OUTSIDE,
                          UNRESOLVED, IterationTrace, Membership,
                          certificate_check, error_bound, iterate_comparison,
                          iterate_primal, membership, trace_to_csv)
from .lattice import (AGGREGATE, COMPONENTWISE, SCALAR, ComparisonEquation,
                      EquationSpec, LatticeVec, MajorantSampleReport,
                      MajorantViolation, check_majorant_samples,
                      equation_from_dict, equation_to_dict, majorant, norm)
from .series import (EXACT, FLOAT, Series, SeriesMap, compose_series,
                     format_value, multiindex_factorial, parse_value,
                     series_compose)
from .solver import (ITERATIVE, PARTITION_ORACLE,
                     PARTITION_ORACLE_MAX_DEGREE, SolutionSeries,
                     formal_iterates, residual, resolve_linear, solve_formal,
                     solve_partition_oracle)

__version__ = "0.1.0"
