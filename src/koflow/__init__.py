"""KO-valued indices and spectral flow for real skew-adjoint matrices
with Clifford symmetries."""

from .abs_index import Group, KOClass, abs_class, forgetful, group_of
from .clifford import (CliffordRep, ValidationReport, are_equivalent,
                       check_relations, cl11_tensor, decompose, direct_sum,
                       intertwiner, irreducible_dimension, irreducible_rep,
                       rep_from_json, rep_to_json, restrict_to_subspace,
                       signature_swap, volume_element)
from .errors import (AmbiguousKernelError, IllConditionedError,
                     InvalidModuleError, ObstructionError, ValidationError)
from .flow import (SkewPath, cayley, clamp_phase, classical_sf, complete_phase,
                   endpoint_flow, spectral_flow)
from .models import (RealStructure, aii_path, flux_path, hermitian_double,
                     kitaev_path, realify, standard_quaternionic)
from .pairs import (ComplexStructure, MidpointPair, OddStructure, ProjectionPair,
                    midpoint_operators, orthogonal_pair_parity, pair_index,
                    projection_pair_index, projections_to_structures,
                    spectral_submodule)
from .rs_verify import (DiscreteOperator, RSProblem, RSReport,
                        assemble_rs_operator, assemble_rs_operator_alt,
                        convergence_study, numeric_kernel, verify_rs)

__all__ = [name for name in dir() if not name.startswith("_")]
