"""covdex: co-density bounds and constructive edge-cover decompositions
for loopless multigraphs, with independent brute-force oracles."""

from .coloring import (
    Chain,
    EdgeColoring,
    chain,
    chains,
    color_masks,
    find_coloring,
    is_proper,
    is_s_dense,
    kempe_swap,
)
from .decomposer import (
    CoverDecomposition,
    DecomposeOptions,
    FailureReport,
    Puncture,
    decompose,
    map_back,
    orient_and_augment,
    puncture,
    regularize,
)
from .density import (
    GuptaBound,
    OddSetCertificate,
    all_min_optimal_sets,
    codensity,
    gupta_bound,
    min_optimal_containing,
)
from .dense_lift import (
    BlockColoring,
    assemble_lift,
    make_block,
    permute_block_palette,
)
from .errors import (
    AugmentationFailed,
    BudgetExhausted,
    CodensityDropped,
    CovdexError,
    DegreeBoundFailed,
    DensityMismatch,
    DisjointnessViolation,
    EdgeNotIncident,
    GraphFormatError,
    LiftInvariantViolated,
    LoopEdge,
    NoFeasiblePermutation,
    NoInternalEdge,
    PreconditionViolated,
    StageAssertionFailed,
    TooLarge,
    VertexOutOfRange,
)
from .multigraph import (
    Edge,
    Multigraph,
    SplitRecord,
    SplitTrace,
    build,
    format_graph,
    induced_subgraph,
    parse_graph,
    read_graph,
    split_off,
    write_graph,
)
from .oracle import (
    FuzzConfig,
    VerificationResult,
    brute_codensity,
    brute_cover_index,
    random_multigraph,
    verify_decomposition,
)
from .special_coloring import Potentials, potentials, special_coloring

__version__ = "0.1.0"
