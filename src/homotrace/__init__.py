"""Finite-dimensional homotopy transfer and trace machinery.

The package computes, for a dg algebra acting on a dg module with
finite-dimensional cohomology, the transferred A-infinity morphism into
endomorphisms of cohomology, the induced maps on Hochschild and cyclic
chains, and the resulting (higher) supertraces.  Every identity the
construction is supposed to satisfy is executable, in exact rational or
complex floating arithmetic.
"""

from homotrace.glinalg import (
    GradedVectorSpace,
    GradedMap,
    compose,
    tensor_map,
    supercommutator,
)
from homotrace.dgcore import (
    DgAlgebra,
    DgModuleBundle,
    EndoAlgebra,
    Splitting,
    CohomologyData,
    ValidationReport,
    validate_bundle,
    check_splitting,
    cohomology,
    build_splitting_projector,
    build_splitting_hodge,
    euler_characteristic,
    endomorphism_algebra,
    endomorphism_bundle,
    make_algebra,
    algebra_from_operators,
)
from homotrace.transfer import (
    ConfigurationPoint,
    OperatorForm,
    AInfinityMorphism,
    Slot,
    propagator,
    operator_form,
    transfer_closed,
    transfer_quadrature,
    transferred_morphism,
    ainfinity_defect,
    almost_closed_check,
)
from homotrace.hochschild import (
    HochschildChain,
    ChainMapReport,
    hochschild_boundary,
    boundary_parts,
    cyclic_shift,
    cyclic_shift_term,
    cyclic_project,
    push_chain,
    chain_map_defect,
    target_algebra,
)
from homotrace.traces import (
    TraceFunctional,
    supertrace_on_cohomology,
    canonical_supertrace,
    projected_supertrace,
    transferred_trace,
    trace_functional,
    trace_defect,
    cyclic_trace,
    transferred_cyclic_trace,
    antisymmetrized_supertrace,
)
from homotrace.instances import (
    Instance,
    matrix_instance,
    t1_instance,
    torus_instance,
    torus_element,
    random_instance,
    to_float_instance,
)
from homotrace.serialize import (
    save_instance,
    load_instance,
    load_chains,
    instance_to_dict,
    instance_from_dict,
    chains_to_dict,
)

__all__ = [name for name in dir() if not name.startswith("_")]
