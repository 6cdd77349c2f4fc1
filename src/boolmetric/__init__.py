"""Exact computation in Boolean-valued metric spaces.

Points carry coordinates in a Boolean algebra and the distance between
two points is the join of the coordinatewise symmetric differences.  The
package computes the alpha invariants that classify finite convex spaces
up to isometry, constructs orthogonal bases, hulls and complements,
extends partial isometries and contractions to whole spaces, solves the
associated triangular equation systems, and produces finite witnesses
showing where all of this breaks over the incomplete algebra of finite
and cofinite sets.
"""

from types import ModuleType as _Module

from .algebra import (FINITE_ATOMIC, FINITE_COFINITE, MAX_NATURAL, Algebra,
                      BitsElement, Element, SetElement, atomic_algebra, atoms, complement,
                      difference, fincof_algebra, inf_family, join, leq, meet,
                      sup_family, symdiff)
from .counterexamples import (IdealDescriptor, LineExtension, Witness,
                              bounded_candidates,
                              contraction_obstruction_witness, flatten_pair,
                              in_ideal, in_orthogonal_ideal, in_sum_ideal,
                              is_disjoint_pair, is_line_point, is_split_pair,
                              isometry_obstruction_witness, line_extension,
                              split_line_point, unflatten_line_point)
from .errors import (BoolmetricError, CapExceededError, InfeasibleError,
                     NotInHullError, ParseError, StructureError,
                     UnsupportedOperationError, VerificationError)
from .extension import (UniquenessReport, WittInstance, conv_extend,
                        corner_images, cube_generators, extend_contraction,
                        extend_isometry, is_monotone, monotone_decompose,
                        orthogonal_join, uniqueness_certify,
                        witt_first_failure, witt_level, witt_residual,
                        witt_solve)
from .invariants import (AlphaProfile, Base, alpha_profile,
                         alpha_profile_of_points, build_base,
                         construct_isometry, decide_isometric,
                         homogeneity_isometry)
from .io import (ParsedInput, ParsedMap, format_algebra, format_map,
                 format_space, parse_input, read_input)
from .spaces import (ConvexCoefficients, FiniteSpace, MapVerdict, PartialMap,
                     Point, check_map, conv_hull, convex_combine, decompose,
                     distance, is_orthogonal, norm, orthogonal_complement,
                     space)
from .suites import (SUITES, RunConfig, SuiteResult, brute_force_isometry,
                     enumerate_contractive_extensions, identity_map, run_suite,
                     witt_cube_solutions)

__version__ = "0.1.0"

# The names imported above, not the submodules their imports bind.
__all__ = [name for name, value in list(globals().items())
           if not name.startswith("_") and not isinstance(value, _Module)] + ["__version__"]
