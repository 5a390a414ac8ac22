"""Footprint clustering: complete-linkage agglomeration over Manhattan
distance, threshold cuts, and medoid representatives.

The Manhattan distance between two footprints is the number of graphs on
which the patterns disagree, so distances and merge heights are integers.
Cutting the dendrogram at threshold t yields clusters whose maximum pairwise
footprint distance is at most t; t = 0 groups exactly the identical
footprints. Tie-breaks (merge order, medoids) are by ascending pattern id so
runs are reproducible.

Agglomeration is the generic algorithm with a nearest-neighbour cache
(Müllner 2011, arXiv:1109.2378): each cluster caches its nearest partner
under the tie rule, and a merge rescans only the clusters whose cache it
made stale. That costs O(p^2) plus O(p) per rescan, not O(p^3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .footprints import FootprintMatrix


class ClusterError(ValueError):
    pass


def manhattan_matrix(matrix: FootprintMatrix,
                     pattern_ids: Sequence[int]) -> np.ndarray:
    """Symmetric integer matrix of footprint Hamming distances."""
    ids = list(pattern_ids)
    if not ids:
        raise ClusterError("at least one pattern required")
    packed = matrix.packed[:, ids]  # (bytes, p)
    p = len(ids)
    dist = np.zeros((p, p), dtype=np.int64)
    for i in range(p):
        xor = packed[:, i:i + 1] ^ packed[:, i:]
        dist[i, i:] = np.bitwise_count(xor).sum(axis=0)
    dist = np.maximum(dist, dist.T)
    return dist


@dataclass(frozen=True)
class Dendrogram:
    """Merge list of a complete-linkage agglomeration.

    Leaves are 0..p-1 (positions in pattern_ids); merge k creates cluster
    p + k. Heights are integer Manhattan distances and non-decreasing.
    """

    merges: tuple[tuple[int, int, int, int], ...]  # (x, y, height, new_id)
    pattern_ids: tuple[int, ...]
    n_graphs: int

    @property
    def n_leaves(self) -> int:
        return len(self.pattern_ids)

    def __post_init__(self):
        if len(self.merges) != max(0, self.n_leaves - 1):
            raise ClusterError("a dendrogram over p leaves needs p-1 merges")
        heights = [h for (_x, _y, h, _n) in self.merges]
        if any(h2 < h1 for h1, h2 in zip(heights, heights[1:])):
            raise ClusterError("merge heights must be non-decreasing")


@dataclass(frozen=True)
class ClusterCut:
    """Partition of pattern ids at a distance threshold, with medoids."""

    clusters: tuple[tuple[int, ...], ...]
    threshold: int
    representatives: tuple[int, ...]

    def __post_init__(self):
        for rep, cluster in zip(self.representatives, self.clusters):
            if rep not in cluster:
                raise ClusterError("representative must belong to its cluster")


def agglomerate_complete(distances: np.ndarray,
                         pattern_ids: Sequence[int] | None = None,
                         n_graphs: int | None = None) -> Dendrogram:
    """Complete-linkage agglomeration of the given distance matrix.

    At every step the pair of clusters with minimal complete-linkage distance
    merges; ties pick the lexicographically smallest (min member id, second
    min member id) pair. Deterministic; pattern_ids must be distinct.

    Each active row caches its nearest partner under the pair key
    height * p^2 + rank(smaller min member) * p + rank(larger min member),
    one int64 that orders pairs exactly as the tie rule does. A merge
    updates the surviving row with the elementwise maximum and rescans only
    that row and the rows whose cached partner was one of the two merged
    rows: O(p^2) time in the typical case and one p x p working matrix.
    """
    d = np.asarray(distances)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ClusterError("distance matrix must be square")
    p = d.shape[0]
    if pattern_ids is None:
        pattern_ids = range(p)
    ids = tuple(pattern_ids)
    if len(ids) != p:
        raise ClusterError("pattern_ids must match the matrix size")
    if len(set(ids)) != p:
        raise ClusterError("pattern_ids must be distinct")
    if n_graphs is None:
        n_graphs = int(d.max()) if p > 1 else 0
    if p < 2:
        return Dendrogram((), ids, int(n_graphs))

    work = d.astype(np.int64)               # complete-linkage distances
    big = np.iinfo(np.int64).max
    span = max(abs(int(work.max())), abs(int(work.min()))) + 1
    if span * p * p > big:
        raise ClusterError("distances too large for the int64 pair key")
    p2 = p * p
    alive = np.ones(p, dtype=bool)
    cluster_id = list(range(p))             # row index -> current cluster id
    # row index -> rank of the cluster's smallest pattern id among all ids
    min_rank = np.empty(p, dtype=np.int64)
    min_rank[sorted(range(p), key=ids.__getitem__)] = np.arange(p)
    nn = np.zeros(p, dtype=np.int64)        # cached nearest partner per row
    nn_key = np.full(p, big, dtype=np.int64)

    def rescan(rows: np.ndarray) -> None:
        r = min_rank[rows, None]
        keys = (work[rows] * p2 + np.minimum(r, min_rank) * p
                + np.maximum(r, min_rank))
        keys[:, ~alive] = big
        keys[np.arange(len(rows)), rows] = big
        nn[rows] = keys.argmin(axis=1)
        nn_key[rows] = keys[np.arange(len(rows)), nn[rows]]

    for start in range(0, p, 256):          # bounds the p x p temporaries
        rescan(np.arange(start, min(start + 256, p)))
    merges = []
    for next_id in range(p, 2 * p - 1):
        a = int(nn_key.argmin())
        b = int(nn[a])
        h = int(work[a, b])
        cx, cy = sorted((cluster_id[a], cluster_id[b]))
        merges.append((cx, cy, h, next_id))
        # complete linkage update: row a absorbs b with elementwise max
        new_row = np.maximum(work[a], work[b])
        work[a, :] = new_row
        work[:, a] = new_row
        alive[b] = False
        nn_key[b] = big
        cluster_id[a] = next_id
        min_rank[a] = min(min_rank[a], min_rank[b])
        # Only row a and rows whose cached partner was a or b can be stale.
        # For any other row z, the smaller min member of a∪b gives the tie
        # part (min(r, m), max(r, m)), which is monotone in m, so
        #   key(z, a∪b) = (max(h_za, h_zb), min(tie_za, tie_zb))
        #              >= min(key(z, a), key(z, b)) > key(z, nn[z]),
        # the last step strict because distinct ids make keys distinct. A
        # merged cluster can lower a pair's tie part at equal height, but
        # never below a cached row minimum, so no other row needs a refresh.
        stale = np.flatnonzero(alive & ((nn == a) | (nn == b)))
        rescan(np.union1d(stale, [a]))

    return Dendrogram(tuple(merges), ids, int(n_graphs))


def _medoid(rows: Sequence[int], distances: np.ndarray, weights: np.ndarray,
            ids: Sequence[int]) -> int:
    """Id of the row minimizing the weighted total distance to the others;
    ties by ascending id."""
    totals = distances[np.ix_(rows, rows)] @ weights[rows]
    best = totals.min()
    return min(ids[r] for r, t in zip(rows, totals.tolist()) if t == best)


@dataclass(frozen=True)
class FootprintClustering:
    """Dedup-aware clustering workspace for one footprint matrix.

    Identical footprints are collapsed before agglomeration: they sit at
    distance 0, so they always merge first and never change a complete-linkage
    maximum. Cuts are expanded back to full pattern-id clusters with
    multiplicity-weighted medoids, which reproduces exactly what clustering
    the uncollapsed columns would produce at a fraction of the cost.
    """

    groups: tuple[tuple[int, ...], ...]   # identical-footprint groups
    group_reps: tuple[int, ...]           # smallest id per group
    distances: np.ndarray                 # over group representatives
    dendrogram: Dendrogram

    @staticmethod
    def build(matrix: FootprintMatrix) -> "FootprintClustering":
        from .footprints import distinct_footprint_groups
        groups = tuple(tuple(g) for g in distinct_footprint_groups(matrix))
        reps = tuple(g[0] for g in groups)
        dist = manhattan_matrix(matrix, reps)
        dendro = agglomerate_complete(dist, reps, n_graphs=matrix.n_graphs)
        return FootprintClustering(groups, reps, dist, dendro)

    def cut(self, threshold_pct: float | Fraction) -> ClusterCut:
        """Apply every merge with height <= floor(threshold_pct * n_graphs),
        with leaf i standing for the pattern ids groups[i] (smallest first),
        weighted by their count in the medoid choice.

        threshold_pct is a fraction of the graph count (the maximal possible
        Manhattan distance); threshold 0 groups exactly the identical
        footprints. A Fraction, as the commands pass, floors an exact product.
        """
        if not (0.0 <= threshold_pct <= 1.0):
            raise ClusterError("threshold_pct must be in [0, 1]")
        dendrogram, groups = self.dendrogram, self.groups
        threshold = math.floor(threshold_pct * dendrogram.n_graphs)
        members: dict[int, list[int]] = {i: [i] for i in range(dendrogram.n_leaves)}
        for (x, y, h, new_id) in dendrogram.merges:
            if h > threshold:
                break
            members[new_id] = members.pop(x) + members.pop(y)
        weights = np.array([len(g) for g in groups], dtype=np.int64)
        leaf_ids = [g[0] for g in groups]
        found = []
        for rows in members.values():
            cluster = tuple(sorted(pid for r in rows for pid in groups[r]))
            found.append((cluster, _medoid(rows, self.distances, weights, leaf_ids)))
        found.sort(key=lambda cr: cr[0][0])
        return ClusterCut(clusters=tuple(c for c, _r in found),
                          threshold=threshold,
                          representatives=tuple(r for _c, r in found))


def clusters_csv(cut_result: ClusterCut) -> str:
    lines = ["cluster_id,pattern_id,is_representative"]
    for cid, cluster in enumerate(cut_result.clusters):
        rep = cut_result.representatives[cid]
        for pid in cluster:
            lines.append(f"{cid},{pid},{int(pid == rep)}")
    return "\n".join(lines) + "\n"


def dendrogram_csv(dendrogram: Dendrogram) -> str:
    lines = ["merge_index,left,right,height"]
    for i, (x, y, h, _new) in enumerate(dendrogram.merges):
        lines.append(f"{i},{x},{y},{h}")
    return "\n".join(lines) + "\n"
