"""Evolutes, involutes, and developable surfaces of space curves.

Three evolute constructions (osculating-sphere centers, the regression edge
of the rectifying developable, and the taut-string family), their involutes,
the associated developable surfaces and singularities, and the rolling-plane
monodromy of closed curves.
"""

from .catalog import CATALOG, CurveSpec, preset, preset_names
from .classify import Verdict, classify
from .curves import Curve, ExprCurve, FrenetODECurve, branch_grids
from .envelope import (Line3, PlaneFamily, RuledPatch, developable_patch,
                       edge_cusps, edge_points, polar_line, ruling_directions)
from .errors import (CuspPoint, DegenerateCurvature, DomainError,
                     GeometryError, IdentityMonodromy, InfinityEscape,
                     IntegrationFailure, LengthMismatch, LineThroughEdge,
                     NotClosed, ParseError, PureTranslation, TorsionVanishes)
from .evolute import (EvoluteCurve, conformal_torsion, evolute_curvature_torsion,
                      interior_sign, osculating_circle,
                      osculating_circles_disjoint, osculating_sphere,
                      second_evolute_residual)
from .expr import Expr, evaluate, parse, parse_curve, to_source
from .frenet import (ArclengthMap, CongruenceReport, FrenetEval, arclength,
                     indicatrix_geodesic_curvature, is_congruent, sigma_values,
                     total_absolute_torsion, total_curvature, total_torsion)
from .monge import (MongeEvoluteCurve, MongeInvoluteCurve, envelope_meetings,
                    monge_evolutes_closed, offset_angles, signed_length,
                    string_residual)
from .pseudo import PseudoEvoluteCurve, PseudoInvoluteCurve, geodesic_residual
from .report import curve_report, identity_residuals
from .rolling import (Development, PlanarIsometry, TracedInvoluteCurve,
                      closed_involute, monodromy)

__version__ = "0.1.0"

import types as _types

__all__ = [name for name, value in list(globals().items())
           if not name.startswith("_")
           and not isinstance(value, _types.ModuleType)]
