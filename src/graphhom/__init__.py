"""Persistent discrete cubical homology of weighted graphs.

Core surface: reflexive graphs and their constructions (graphs), singular
cubes and Betti numbers (cubical), filtered persistence with a fast
edge-space engine that also computes the flag-complex baseline (persistence,
engine), bottleneck distance (bottleneck), correlation/metric filtration
builders (builders, series), experiment harnesses (experiments), file
ingestion (ingest) and the command-line interface (cli).  Betti numbers are
the bars that never die: the engine gives degrees 0 and 1, the cube-level
reduction degrees 2 and up.
"""

__version__ = "0.1.0"

from .graphs import (  # noqa: F401
    WeightedGraph,
    line_graph,
    cycle_graph,
    box_product,
    hypercube,
    grid_graph,
    greene_sphere,
    complete_graph,
    all_pairs_distances,
)
from .cubical import (  # noqa: F401
    ChainComplexZ2,
    face,
    is_degenerate,
    enumerate_cubes,
    boundary_matrix,
    betti_numbers,
)
from .persistence import (  # noqa: F401
    FilteredComplex,
    assign_filtration,
    reduce,
)
from .engine import weighted_graph_persistence, flag_persistence  # noqa: F401
from .bottleneck import bottleneck  # noqa: F401
from .diagrams import (  # noqa: F401
    PersistenceDiagram,
    PersistencePair,
    nontrivial_length,
    longest_bar,
    cycle_vertices,
)
from .builders import (  # noqa: F401
    r_squared,
    multivariate_r2,
    correlation_graph,
    metric_graph,
)
from .series import SeriesTable  # noqa: F401
