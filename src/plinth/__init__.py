"""Permutation-group toolkit and verification suite for 2-arc-transitive
graphs on cartesian decompositions."""

from .perm import (
    PermGroup,
    Permutation,
    derived_subgroup,
    element_of_order,
    intersection_small,
    is_k_transitive,
    minimal_block_systems,
    point_stabilizer,
    random_subgroup_of_order,
    small_generating_set,
)
from .algebra import (
    Field,
    extend_to_lines,
    gq_automorphism_group,
    identify_extension_flavor,
    psl2_action,
    sp4,
    symplectic_gq,
)
from .actions import (
    CosetAction,
    EncodedProductAction,
    SubgroupClassAction,
    component,
    coset_action,
    cyclic_class_action,
    product_action_wreath,
    top_projection,
)
from .graphs import (
    Graph,
    OrbitalData,
    direct_power,
    is_connected,
    orbital_graph,
    s_arc_transitivity_max,
    suborbits,
    two_arc_transitive,
)
from .autgq import ColoredGraph, graph_automorphism_group, incidence_graph
from .cartesian import (
    CartesianDecomposition,
    InclusionType,
    blowup_embedding,
    classify_inclusion,
    cross_check_examples,
    find_grid_decompositions,
    index2_subgroups,
    load_examples_table,
    load_factorization_table,
    verify_psl2_factorization_row,
)

__version__ = "0.1.0"
