"""Binary pattern-occurrence matrix H and per-pattern class contingencies.

Row i / column j of H is 1 iff pattern j occurs in graph i; column j is the
pattern's footprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graphdata import POSITIVE, GraphDataset
from .miner import Pattern, PatternSet


class FootprintError(ValueError):
    pass


@dataclass(frozen=True)
class ContingencyCounts:
    """(supp in positive class, supp in negative class, class sizes).

    The sole input to every quality measure: TP = a, FP = b,
    FN = n_pos - a, TN = n_neg - b.
    """

    a: int
    b: int
    n_pos: int
    n_neg: int

    def __post_init__(self):
        if not (0 <= self.a <= self.n_pos and 0 <= self.b <= self.n_neg):
            raise FootprintError(f"invalid contingency {self}")
        if self.a + self.b < 1:
            raise FootprintError("patterns must occur in at least one graph")


class FootprintMatrix:
    """Immutable n_graphs x n_patterns binary matrix with class labels."""

    def __init__(self, bits: np.ndarray, labels: Sequence[int]):
        bits = np.asarray(bits, dtype=bool)
        if bits.ndim != 2:
            raise FootprintError("bits must be a 2-D matrix")
        labels = np.asarray(labels, dtype=np.int8)
        if labels.shape != (bits.shape[0],):
            raise FootprintError("labels length must equal the number of graph rows")
        if not set(np.unique(labels)) <= {-1, 1}:
            raise FootprintError("labels must be +1/-1")
        col_counts = bits.sum(axis=0)
        if bits.shape[1] and col_counts.min() < 1:
            j = int(np.argmin(col_counts))
            raise FootprintError(f"pattern column {j} has zero support")
        self._bits = bits
        self._bits.setflags(write=False)
        self._labels = labels
        self._labels.setflags(write=False)
        pos_mask = labels == POSITIVE
        self._n_pos = int(pos_mask.sum())
        # per-pattern supports in each class: the (a, b) of every contingency
        pos_counts = bits[pos_mask].sum(axis=0)
        self._class_supports = (pos_counts.tolist(), (col_counts - pos_counts).tolist())

    @property
    def n_graphs(self) -> int:
        return self._bits.shape[0]

    @property
    def n_patterns(self) -> int:
        return self._bits.shape[1]

    @property
    def bits(self) -> np.ndarray:
        return self._bits

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    @property
    def n_pos(self) -> int:
        return self._n_pos

    @property
    def n_neg(self) -> int:
        return self.n_graphs - self._n_pos


def build_matrix(pattern_set: PatternSet | Iterable[Pattern],
                 dataset: GraphDataset) -> FootprintMatrix:
    """H with column order = pattern id order.

    Column j is filled from pattern j's `graph_ids`, the containing graphs
    the miner records. A pattern whose ids are empty, or name a graph the
    dataset lacks, is rejected: zero support violates the footprint
    invariant.
    """
    patterns = list(pattern_set)
    n = len(dataset)
    bits = np.zeros((n, len(patterns)), dtype=bool)
    for j, p in enumerate(patterns):
        if not p.graph_ids:
            raise FootprintError(f"pattern {p.pattern_id} has zero support in dataset")
        if max(p.graph_ids) >= n:
            raise FootprintError(f"pattern {p.pattern_id} references unknown graphs")
        bits[list(p.graph_ids), j] = True
    return FootprintMatrix(bits, list(dataset.labels()))


def contingency(matrix: FootprintMatrix, pattern_id: int) -> ContingencyCounts:
    if not (0 <= pattern_id < matrix.n_patterns):
        raise FootprintError(f"pattern id {pattern_id} out of range")
    pos_counts, neg_counts = matrix._class_supports
    return ContingencyCounts(
        a=pos_counts[pattern_id], b=neg_counts[pattern_id],
        n_pos=matrix.n_pos, n_neg=matrix.n_neg)


def distinct_footprint_groups(matrix: FootprintMatrix) -> list[list[int]]:
    """Groups of pattern ids with bit-identical columns, ordered by the
    smallest member id; singletons included."""
    seen: dict[bytes, list[int]] = {}
    for j, column in enumerate(matrix.bits.T):
        seen.setdefault(column.tobytes(), []).append(j)
    return sorted(seen.values(), key=lambda grp: grp[0])


def matrix_csv(matrix: FootprintMatrix) -> str:
    """`graph_id, pattern_id, present` rows, one per cell, row by row."""
    p = matrix.n_patterns
    # tails[v][j] is the "j,v" end of cell j in a row whose bit j is v; a
    # row is its cells' tails joined by "\n<graph id>,", and a row of no
    # cells writes no line
    tails = np.array([[f"{j},{v}" for j in range(p)] for v in (0, 1)], dtype=object)
    lines = ["graph_id,pattern_id,present"]
    if p:
        for i, row in enumerate(matrix.bits):
            lines.append(f"{i}," + f"\n{i},".join(
                np.where(row, tails[1], tails[0]).tolist()))
    return "\n".join(lines) + "\n"


def contingency_csv(matrix: FootprintMatrix) -> str:
    lines = ["pattern_id,a,b,n_pos,n_neg"]
    for j in range(matrix.n_patterns):
        c = contingency(matrix, j)
        lines.append(f"{j},{c.a},{c.b},{c.n_pos},{c.n_neg}")
    return "\n".join(lines) + "\n"
