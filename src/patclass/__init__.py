"""Pattern-based graph classification workbench.

Submodules: graphdata (loading), miner (frequent subgraph mining),
footprints (binary occurrence matrix), measures (38 quality measures),
properties (exhaustive property checks), clusterer (footprint clustering),
rankcmp (tau / RBO), shapley (gold standard), classify (linear SVM),
cli (command line).
"""

from .footprints import ContingencyCounts, FootprintMatrix, build_matrix
from .graphdata import AttributedGraph, GraphDataset, parse_spmf, parse_tudataset
from .measures import MEASURE_NAMES, Ranking, effective_score, rank, score
from .miner import Pattern, PatternSet, canonical_code, mine_frequent

__all__ = [
    "AttributedGraph", "GraphDataset", "parse_spmf", "parse_tudataset",
    "Pattern", "PatternSet", "mine_frequent", "canonical_code",
    "FootprintMatrix", "ContingencyCounts", "build_matrix",
    "MEASURE_NAMES", "Ranking", "score", "effective_score", "rank",
]
