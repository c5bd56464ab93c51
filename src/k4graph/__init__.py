"""Exact lattice arithmetic and the adjacency graphs of real K3 involutions
and real nonsingular cubic fourfolds."""

from .lattice import (
    GramLattice,
    LatticeError,
    LatticeVector,
    direct_sum,
    direct_sum_all,
    find_characteristic,
    from_summands,
    inner,
    is_even,
    make_standard,
    norm,
    orthogonal_sublattice,
    reflect,
    rescale,
    signature,
    twist,
)
from .finite_forms import (
    DiscriminantGroup,
    FiniteQuadraticForm,
    FormError,
    brown_invariant,
    discriminant_group,
    discriminant_quadratic,
    forms_isomorphic,
    lattices_equivalent,
    parity,
    smith_normal_form,
)
from .catalog import (
    Catalog,
    CatalogError,
    K3Vertex,
    TopType,
    VertexKey,
    build_catalog,
)
from .elements import (
    ElementClass,
    SearchBudgetError,
    WitnessError,
    classify_element,
    construct_witness,
    enumerate_vectors,
    exists_class,
    search_witness,
)
from .graphs import (
    DeformationGraph,
    EdgeLabel,
    FlipTriple,
    GraphEdge,
    IRR_ID,
    K4VertexData,
    StructuralError,
    basic_cycles_regular,
    build_k3_graph,
    build_k4_graph,
    construct_flip_triple,
    find_flip_triple,
    flip,
    graph_dot,
    graph_json_dict,
    k4_equals_k3_after_swap,
    regular_subgraphs_and_F,
    structural_checks,
    synthesize_k4_plus,
    verify_flip_cycle,
)

__version__ = "0.1.0"
