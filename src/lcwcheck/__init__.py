"""Curvature obstructions to local limiting Carleman weights.

A metric that admits a local limiting Carleman weight near a point must
have, at that point, a Weyl operator with the eigenflag property (in
dimension >= 4) or a singular Cotton-York tensor (in dimension 3).  This
package computes both tensors exactly from a closed-form metric via
Taylor jets (of order 2 for the Weyl tensor, 3 for Cotton-York) and
decides the contrapositive: a positive eigenflag residual, or a nonzero
Cotton-York determinant, certifies that no such weight exists on any
neighborhood of the point.
"""

__version__ = "0.1.0"

from .bivectors import (BivectorBasis, WeylOperator, bianchi_map, lift_orthogonal,
                        operator_to_tensor, ricci_contraction, to_operator,
                        weyl_part)
from .cottonyork import (CottonYorkTensor, classify_cy, stratum_param,
                         symmetric3_eigenvalues)
from .curvature import (CurvaturePackage, DimensionError, cotton_york,
                        curvature_package, kulkarni_nomizu, obstruction_tensors,
                        orthonormal_frame, rotate_tensor, schouten, weyl_tensor)
from .eigenflag import (CertifiedBound, EigenflagReport, certify_positive_minimum,
                        classify_weyl_spectrum, codim_eigenflag,
                        construct_stratum4, min_residual, min_residuals, residual,
                        sphere_start_set)
from .exprs import EvalError, ExprError, ParseError, eval_expr, parse_expr
from .genericity import (PointVerdict, SampleStats, ScanResult, grid_points,
                         obstruct_point, obstruct_points, random_polynomial_metric,
                         residual_statistics, sample_weyl, scan_metric)
from .jets import Jet3, MetricJets, MetricNotPositive, metric_jets
from .metrics import (MetricError, MetricSpec, conformally_flat_metric,
                      euclidean_metric, load_metric, make_metric, parse_metric,
                      sphere_stereographic_metric)
from .perturb import (AlgebraicCurvature, CottonCoefficients, CySolution,
                      RankDeficiencyError, cubic_metric_spec, cy_linear_map,
                      perturb_curvature, solve_cy_target)
