"""Tagged-edge combinatorics of the once-punctured polygon."""

from .geometry import (
    InvalidEdgeError,
    Position,
    TaggedEdge,
    ccw_neighbor,
    delta_len,
    edge_index,
    edge_of_index,
    edge_sort_key,
    elementary_moves,
    enumerate_tagged_edges,
    pos,
    pos_inv,
    tau,
    tau_power,
)
from .crossing import crossing_number, crossing_row, crossing_table
from .mesh import (
    Morphism,
    MorphismSpace,
    RowTargets,
    compose,
    hom_dim_closed_form,
    hom_dim_cluster,
    hom_row_closed_form,
    hom_row_cluster,
    morphism_space,
)
from .clusterops import ArTriangle, TheoremReport, ar_triangle, ext1_dim, verify_theorem2
from .triangulation import (
    ExchangeData,
    ExchangeError,
    QuiverPresentation,
    Triangulation,
    enumerate_triangulations,
    exchange_sides,
    fan_triangulation,
    flip,
    maximal_noncrossing_sets,
    quiver_of_triangulation,
)
from .tilted import (
    ArQuiver,
    DimensionVector,
    VanishingReport,
    ar_quiver_of_category,
    ar_quiver_of_tilted,
    dimension_vector,
    loewy_string,
    vanishing_paths_report,
)

__version__ = "0.1.0"
