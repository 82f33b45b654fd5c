"""Exact filtrations, sub-coalgebras, cohomology and growth for comodules
over the coordinate algebras of affine group schemes in characteristic p."""

__version__ = "0.1.0"

from .cobar import (ChainComplex, SubCoalgebra, cobar_complex, cohomology_dims,
                    injective_test, injectivity_profile)
from .comodules import (Comodule, ModuleExprError, StreamModule, build_module,
                        detpow, direct_sum, dual, frobenius_twist, natural,
                        parse_module_expr, polyaffine, primitives, regular,
                        regular_stream, sym_power, tensor,
                        translationinvariants, trivial, twiststream)
from .config import Limits, ResourceLimitError, load_limits
from .coordalg import (Element, Group, GroupSpecError, TensorElement,
                       UnsupportedOperation, group_from_spec,
                       truncated_exponential_degree)
from .filtration import (CanonicalLevel, ExplicitSubspace, FiltrationResult,
                         InternalInvariantError, coalgebra_closure,
                         filtration_dims, restrict, structure_constants,
                         tensor_containment)
from .growth import GrowthReport, classify, equal_growth
from .linalg import Subspace, kernel, matrank, rref
from .suites import run_property_suite

__all__ = [name for name in dir() if not name.startswith("_")]
