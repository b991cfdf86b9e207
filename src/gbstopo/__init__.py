"""Complex-weighted network analysis through a simulated Gaussian boson
sampler: clique search, Betti numbers, Euler-characteristic filtration
surfaces, clique percolation and entropy indicators.
"""

from .graph import (
    ComplexGraph,
    VertexSet,
    clique_density,
    edge_filter,
    is_clique,
    load_graph,
    random_dual_layer,
    save_graph,
)
from .encoding import GBSEncoding, encode, reconstruct, takagi
from .sampler import (
    PatternDistribution,
    SampleBatch,
    apply_loss,
    conditional_pattern_histogram,
    enumerate_distribution,
    hafnian,
    pattern_probability,
    sample_gbs,
    sample_squashed,
    sample_uniform,
)
from .cliques import (
    Clique,
    CliqueComplex,
    SearchReport,
    enumerate_cliques,
    find_cliques,
    greedy_shrink,
    local_search,
)
from .tda import (
    BettiProfile,
    BoundaryMatrix,
    FiltrationSurface,
    PersistencePair,
    betti_numbers,
    boundary_matrix,
    clique_persistence,
    euler_characteristic,
    euler_entropy,
    euler_entropy_path,
    filtration_surface,
    gf2_rank,
    tpt_points,
)
from .percolation import (
    PercolationReport,
    SweepConfig,
    SweepResult,
    curve_correlation,
    damage,
    percolation_clusters,
    percolation_entropy_sweep,
    renyi_entropy,
)

__version__ = "0.1.0"
