"""Footprint clustering: complete-linkage agglomeration over Manhattan
distance, threshold cuts, and medoid representatives.

The Manhattan distance between two footprints is the number of graphs on
which the patterns disagree, so distances and merge heights are integers.
Cutting the dendrogram at threshold t yields clusters whose maximum pairwise
footprint distance is at most t; t = 0 groups exactly the identical
footprints. t is an integer: the commands floor their share of the graph
count to it. Tie-breaks (merge order, medoids) are by ascending pattern id so
runs are reproducible.

Distances are popcounts of XORed 64-bit words, with no BLAS call: a Gram
matrix gives the same integers, but on a 2-core host its threaded gemm took
three times as long at p = 563 and kept both cores busy.

Agglomeration is the generic algorithm with a nearest-neighbour cache
(Müllner 2011, arXiv:1109.2378): each cluster caches its nearest partner
under the tie rule, and a merge rescans only the clusters whose cache it
made stale. Leaf i is row i of the distances, and the representatives
arrive in ascending pattern id, so a row's index is its tie rank. The
heights live in one int32 copy of the distances, and a merged cluster
keeps the smaller of its two rows, so the tie rule is the first index of an
argmin and a rescan is one argmin over a row. That costs O(p^2) plus O(p)
per rescan, not O(p^3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import footprints as _footprints  # per-call lookup: perfbench wraps distinct_footprint_groups
from .footprints import FootprintMatrix


class ClusterError(ValueError):
    pass


def manhattan_matrix(matrix: FootprintMatrix,
                     pattern_ids: Sequence[int]) -> np.ndarray:
    """Symmetric int32 matrix of footprint Hamming distances, each at most
    n_graphs.

    The one reader of packed bits: it packs the given columns into 64-bit
    words, then fills 64 rows at a time, per word one XOR, one popcount and
    one add. Beyond the 4 p^2-byte result the memory is a bool copy of the
    columns while packing, two packed copies (8 bytes per pattern and 64
    graphs) and one block's XOR words and counts, 9 * 64 * p bytes.
    """
    ids = list(pattern_ids)
    if not ids:
        raise ClusterError("at least one pattern required")
    p, n_bytes = len(ids), -(-matrix.n_graphs // 8)
    padded = np.zeros((p, -(-n_bytes // 8) * 8), dtype=np.uint8)
    padded[:, :n_bytes] = np.packbits(matrix.bits[:, ids], axis=0).T
    # (words, p): row w holds every footprint's graphs 64w .. 64w + 63
    words = padded.view(np.uint64).T.copy()
    dist = np.zeros((p, p), dtype=np.int32)
    rows = min(p, 64)
    xor = np.empty((rows, p), dtype=np.uint64)
    count = np.empty((rows, p), dtype=np.uint8)
    for start in range(0, p, rows):
        block = dist[start:start + rows]
        x, c = xor[:len(block)], count[:len(block)]
        for word in words:
            np.bitwise_xor(word[start:start + rows, None], word, out=x)
            block += np.bitwise_count(x, out=c)
    return dist


@dataclass(frozen=True)
class Dendrogram:
    """Merge list of a complete-linkage agglomeration.

    Leaves are 0..p-1 (rows of the distance matrix); merge k creates
    cluster p + k. Heights are integer Manhattan distances and
    non-decreasing.
    """

    merges: tuple[tuple[int, int, int, int], ...]  # (x, y, height, new_id)
    n_leaves: int

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


def agglomerate_complete(distances: np.ndarray) -> Dendrogram:
    """Complete-linkage agglomeration of the given distance matrix, leaf i
    for row i.

    At every step the pair of clusters with minimal complete-linkage distance
    merges; ties pick the lexicographically smallest (min member leaf, second
    min member leaf) pair. Deterministic.

    One p x p int32 copy of the distances holds the live heights; the
    diagonal and retired columns hold the int32 maximum, and the input is
    never written. A merged cluster keeps the smaller of its two rows, so
    pair (r, z) always has the tie part (min(r, z), max(r, z)): at equal
    heights a row's partners rank by column, and its nearest partner is the
    first argmin of its row. Each live row caches that partner and height. A
    merge writes the elementwise maximum of the two rows to the survivor's
    row and column, retires the other, and rescans only the rows whose
    cached partner was one of the two: O(p^2) time in the typical case. The
    memory is the height matrix, 4 p^2 bytes.
    Distances of magnitude 2^31 - 1 or more raise ClusterError.
    """
    d = np.asarray(distances)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ClusterError("distance matrix must be square")
    p = d.shape[0]
    if p < 2:
        return Dendrogram((), p)

    top = np.iinfo(np.int32).max
    if max(abs(int(d.max())), abs(int(d.min()))) >= top:
        raise ClusterError("distances too large for the int32 height matrix")
    heights = d.astype(np.int32)
    np.fill_diagonal(heights, top)
    cluster_id = list(range(p))              # row -> current cluster id
    nn = heights.argmin(axis=1)              # cached nearest partner per row
    nn_height = heights[np.arange(p), nn]
    merges = []
    for next_id in range(p, 2 * p - 1):
        # s, the first row at the least cached height, is the smaller row of
        # the pair the tie rule picks: a row r < s at that height would pair
        # with a smaller min member
        s = int(nn_height.argmin())
        o = int(nn[s])
        merges.append((*sorted((cluster_id[s], cluster_id[o])),
                       int(heights[s, o]), next_id))
        # complete linkage update: row s absorbs row o with the elementwise
        # maximum, which keeps the int32 maximum at (s, s), (s, o) and in
        # retired columns; a retired row caches no partner and is not read
        cluster_id[s] = next_id
        row = heights[s]
        heights[:, s] = np.maximum(row, heights[o], out=row)
        heights[:, o] = top
        nn[o], nn_height[o] = -1, top
        # Only rows whose cached partner was s or o can be stale, row s
        # among them: any other row z keeps the tie part of pair (z, s) and
        # its height can only grow, so nn[z] stays its first argmin.
        stale = ((nn == s) | (nn == o)).nonzero()[0]
        nn[stale] = near = heights[stale].argmin(axis=1)
        nn_height[stale] = heights[stale, near]

    return Dendrogram(tuple(merges), p)


def _medoid(footprints: np.ndarray, ids: Sequence[int]) -> int:
    """The first of the ascending ids whose footprint column has the least
    total Manhattan distance to the columns of all ids, duplicates included.
    With m ids and present[g] of their columns set on graph g, column j's
    total sums present[g] where its bit g is 0 and m - present[g] where it
    is 1: one integer pass over the columns, with no pairwise distance."""
    cols = footprints[:, ids]
    present = cols.sum(axis=1, keepdims=True)
    totals = np.where(cols, len(ids) - present, present).sum(axis=0)
    return ids[int(totals.argmin())]


@dataclass(frozen=True)
class FootprintClustering:
    """Dedup-aware clustering workspace for one footprint matrix.

    Identical footprints are collapsed before agglomeration: they sit at
    distance 0, so they always merge first and never change a complete-linkage
    maximum. Cuts are expanded back to full pattern-id clusters, with medoids
    read from the columns of all their ids, which reproduces exactly what
    clustering the uncollapsed columns would produce at a fraction of the
    cost. No distance matrix outlives `build`; the matrix's bits are shared.
    """

    groups: tuple[tuple[int, ...], ...]   # identical-footprint groups
    footprints: np.ndarray                # the matrix's bits, graphs x ids
    dendrogram: Dendrogram

    @staticmethod
    def build(matrix: FootprintMatrix) -> "FootprintClustering":
        groups = tuple(tuple(g) for g in _footprints.distinct_footprint_groups(matrix))
        reps = tuple(g[0] for g in groups)
        dendro = agglomerate_complete(manhattan_matrix(matrix, reps))
        return FootprintClustering(groups, matrix.bits, dendro)

    def cut(self, threshold: int) -> ClusterCut:
        """Apply every merge with height <= threshold, a non-negative
        integer Manhattan distance, with leaf i standing for the pattern ids
        groups[i] (smallest first). Threshold 0 groups exactly the identical
        footprints.
        """
        if not isinstance(threshold, (int, np.integer)) or threshold < 0:
            raise ClusterError("threshold must be a non-negative integer")
        dendrogram, groups = self.dendrogram, self.groups
        members: dict[int, list[int]] = {i: [i] for i in range(dendrogram.n_leaves)}
        for (x, y, h, new_id) in dendrogram.merges:
            if h > threshold:
                break
            members[new_id] = members.pop(x) + members.pop(y)
        found = []
        for rows in members.values():
            if len(rows) == 1:   # one footprint: every total is 0
                found.append((groups[rows[0]], groups[rows[0]][0]))
                continue
            cluster = tuple(sorted(pid for r in rows for pid in groups[r]))
            found.append((cluster, _medoid(self.footprints, cluster)))
        found.sort(key=lambda cr: cr[0][0])
        return ClusterCut(clusters=tuple(c for c, _r in found),
                          threshold=int(threshold),
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
