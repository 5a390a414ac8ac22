"""Seeded SPMF dataset generators for the benchmark workloads.

patclass sees only the text these functions return. The same seed always
gives the same bytes; nothing here reads the clock or global random state.
"""

from __future__ import annotations

import random

# Skewed label frequencies: a few common atoms and bonds, a rare tail.
MOLECULE_VERTEX_WEIGHTS = (40, 22, 14, 10, 7, 4, 3)
MOLECULE_EDGE_WEIGHTS = (60, 25, 10, 5)
# Rare-label chain planted in most positives and few negatives, so the
# classes differ in structure, not only by chance.
MOTIF_VERTEX_LABELS = (6, 5, 6)
MOTIF_EDGE_LABEL = 3
MOTIF_RATE_POS = 0.6
MOTIF_RATE_NEG = 0.1


def _backbone(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Tree edges joining each vertex v > 0 to one of the previous 3."""
    return [(rng.randint(max(0, v - 3), v - 1), v) for v in range(1, n)]


def _ring_closures(rng: random.Random, n: int, taken, count: int) -> list[tuple[int, int]]:
    """`count` new vertex pairs (u < v) that are not in `taken`."""
    pairs: list[tuple[int, int]] = []
    while len(pairs) < count:
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in taken and (u, v) not in pairs:
            pairs.append((u, v))
    return pairs


def _spmf_graph(gid: int, cls: int, labels: list[int],
                edges: dict[tuple[int, int], int]) -> list[str]:
    out = [f"t # {gid} {cls}"]
    out += [f"v {i} {lab}" for i, lab in enumerate(labels)]
    out += [f"e {u} {v} {el}" for (u, v), el in sorted(edges.items())]
    return out


def molecule_like(seed: int, n_graphs: int) -> str:
    """Balanced molecule-like graphs.

    12-24 vertices on a tree backbone whose parent is one of the previous 3
    vertices, 7 skewed vertex labels, 4 edge labels and 1-2 ring closures.
    Positives carry the rare-label motif more often than negatives.
    """
    rng = random.Random(seed)

    def vertex_label() -> int:
        return rng.choices(range(len(MOLECULE_VERTEX_WEIGHTS)), MOLECULE_VERTEX_WEIGHTS)[0]

    def edge_label() -> int:
        return rng.choices(range(len(MOLECULE_EDGE_WEIGHTS)), MOLECULE_EDGE_WEIGHTS)[0]

    lines: list[str] = []
    for gid in range(n_graphs):
        cls = gid % 2
        n = rng.randint(12, 24)
        planted = rng.random() < (MOTIF_RATE_POS if cls else MOTIF_RATE_NEG)
        backbone = n - len(MOTIF_VERTEX_LABELS) if planted else n
        labels = [vertex_label() for _ in range(backbone)]
        edges = {pair: edge_label() for pair in _backbone(rng, backbone)}
        if planted:
            prev = rng.randrange(backbone)
            for lab in MOTIF_VERTEX_LABELS:
                labels.append(lab)
                edges[(prev, len(labels) - 1)] = MOTIF_EDGE_LABEL
                prev = len(labels) - 1
        for pair in _ring_closures(rng, n, edges, rng.randint(1, 2)):
            edges[pair] = edge_label()
        lines += _spmf_graph(gid, cls, labels, edges)
    return "\n".join(lines) + "\n"
