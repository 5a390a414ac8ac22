"""Frequent connected subgraph mining (gSpan-style) with canonical DFS codes.

A pattern is identified by its minimal DFS code: a sequence of extension
tuples (i, j, label_i, edge_label, label_j) over DFS discovery indices.
Two patterns are isomorphic iff their minimal codes are equal. Support is
presence-based: the number of graphs containing at least one embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .graphdata import AttributedGraph, GraphDataset, StructuralError

DfsEdge = tuple[int, int, int, int, int]  # (i, j, label_i, edge_label, label_j)
DfsCode = tuple[DfsEdge, ...]


class MinerError(ValueError):
    pass


@dataclass(frozen=True)
class Pattern:
    """Connected pattern in canonical (minimal) DFS code form."""

    pattern_id: int
    code: DfsCode
    n_vertices: int
    n_edges: int
    graph_ids: tuple[int, ...] = ()  # containing graphs, cached by the miner

    @property
    def support(self) -> int:
        return len(self.graph_ids)

    def to_graph(self) -> AttributedGraph:
        return code_to_graph(self.code, graph_id=self.pattern_id)


@dataclass(frozen=True)
class PatternSet:
    patterns: tuple[Pattern, ...]
    min_support: int
    truncated: bool = False

    def __post_init__(self):
        codes = set()
        for i, p in enumerate(self.patterns):
            if p.pattern_id != i:
                raise MinerError("pattern ids must be 0..|P|-1 in order")
            if p.code in codes:
                raise MinerError(f"duplicate pattern code at id {i}")
            codes.add(p.code)

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self):
        return iter(self.patterns)


def code_to_graph(code: DfsCode, graph_id: int = 0) -> AttributedGraph:
    """Materialize the pattern graph described by a DFS code."""
    if not code:
        raise MinerError("empty DFS code")
    vlabels: dict[int, int] = {}
    edges = []
    for (i, j, li, el, lj) in code:
        vlabels.setdefault(i, li)
        vlabels.setdefault(j, lj)
        if vlabels[i] != li or vlabels[j] != lj:
            raise MinerError("inconsistent vertex labels in DFS code")
        edges.append((min(i, j), max(i, j), el))
    n = len(vlabels)
    if sorted(vlabels) != list(range(n)):
        raise MinerError("DFS indices must be 0..n-1")
    return AttributedGraph(graph_id, tuple(vlabels[k] for k in range(n)),
                           tuple(sorted(edges)), None)


# ---------------------------------------------------------------------------
# DFS-code ordering (Yan & Han). The miner only ever orders the rightmost-
# path extensions of one code, where backward edges share i = the rightmost
# vertex and forward edges share j = n_vertices, or the single-edge seeds
# (0, 1, ...). On such a set the order is: backward edges by j, then forward
# edges from the deepest source up, each tie broken by labels.
# ---------------------------------------------------------------------------

def _edge_key(e: DfsEdge) -> tuple:
    i, j = e[0], e[1]
    return (i < j, j if i > j else -i, e[2:])


# ---------------------------------------------------------------------------
# Embeddings. An embedding is a (graph id, vertex map) pair; the vertex map
# takes DFS index k to the graph vertex vmap[k]. Hosts map a graph id to its
# (adjacency, vertex labels).
# ---------------------------------------------------------------------------

Embedding = tuple[int, tuple[int, ...]]
Hosts = dict[int, tuple[list[list[tuple[int, int]]], tuple[int, ...]]]


def _hosts(graphs: Iterable[AttributedGraph]) -> Hosts:
    return {g.graph_id: (g.adjacency(), g.vertex_labels) for g in graphs}


def _seeds(graphs: Iterable[AttributedGraph]) -> dict[DfsEdge, list[Embedding]]:
    """Single-edge codes (0, 1, la, el, lb) with la <= lb, the orientation
    that can be minimal, with their embeddings."""
    seeds: dict[DfsEdge, list[Embedding]] = {}
    for g in graphs:
        for (u, v, el) in g.edges:
            for (x, y) in ((u, v), (v, u)):
                lx, ly = g.vertex_labels[x], g.vertex_labels[y]
                if lx <= ly:
                    tup = (0, 1, lx, el, ly)
                    seeds.setdefault(tup, []).append((g.graph_id, (x, y)))
    return seeds


def _rightmost_path(code: DfsCode) -> list[int]:
    """DFS indices from root to the rightmost vertex, derived from the code."""
    parent = {j: i for (i, j, *_r) in code if i < j}  # forward edges discover j
    path = [max(parent)]
    while path[-1] in parent:
        path.append(parent[path[-1]])
    return path[::-1]


def _extensions(code: DfsCode, embeddings: list[Embedding],
                hosts: Hosts) -> dict[DfsEdge, list[Embedding]]:
    """Rightmost-path extensions of every embedding, grouped by DFS edge: a
    forward edge appends the new vertex to the vertex map, a backward edge
    keeps it."""
    path = _rightmost_path(code)
    rm = path[-1]
    # An embedding is injective, so the graph edge between vmap[rm] and
    # vmap[di] is in use exactly when the code has an edge between rm and di.
    # Backward edges may therefore go to the path vertices the code does not
    # yet link to rm, whatever the embedding.
    linked = {j if i == rm else i for (i, j, *_r) in code if rm in (i, j)}
    back = set(path[:-1]) - linked
    grouped: dict[DfsEdge, list[Embedding]] = {}
    for emb in embeddings:
        gid, vmap = emb
        adj, labels = hosts[gid]
        u = vmap[rm]
        for (nbr, el) in adj[u]:
            if nbr in vmap:
                di = vmap.index(nbr)
                if di in back:
                    tup = (rm, di, labels[u], el, labels[nbr])
                    grouped.setdefault(tup, []).append(emb)
        for di in path:
            src = vmap[di]
            for (nbr, el) in adj[src]:
                if nbr not in vmap:
                    tup = (di, rm + 1, labels[src], el, labels[nbr])
                    grouped.setdefault(tup, []).append((gid, vmap + (nbr,)))
    return grouped


def _min_code(graph: AttributedGraph, stop: Optional[DfsCode] = None) -> DfsCode:
    """Minimal DFS code of a connected graph, grown by the smallest extension
    over all self-embeddings. With stop, return at the first edge where the
    minimal code departs from stop."""
    hosts = _hosts([graph])
    code: DfsCode = ()
    grouped = _seeds([graph])
    while True:
        edge = min(grouped, key=_edge_key)
        code += (edge,)
        departed = stop is not None and edge != stop[len(code) - 1]
        if departed or len(code) == graph.n_edges:
            return code
        grouped = _extensions(code, grouped[edge], hosts)


def _is_connected(graph: AttributedGraph) -> bool:
    if graph.n_vertices == 0:
        return False
    adj = graph.adjacency()
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for (v, _el) in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == graph.n_vertices


def canonical_code(graph: AttributedGraph) -> DfsCode:
    """Minimal DFS code of a connected graph with >= 1 edge.

    Equal for isomorphic inputs, distinct otherwise.
    """
    if graph.n_edges == 0:
        raise MinerError("patterns must have at least one edge")
    if not _is_connected(graph):
        raise StructuralError("canonical code requires a connected graph")
    return _min_code(graph)


def _is_min(code: DfsCode) -> bool:
    """Whether a code the miner grew (so connected) is its graph's minimal
    code; stops at the first edge where the minimal code departs from it."""
    return code == _min_code(code_to_graph(code), stop=code)


def mine_frequent(dataset: GraphDataset, min_support: int,
                  max_patterns: Optional[int] = None,
                  max_edges: Optional[int] = None) -> PatternSet:
    """All connected patterns with graph support >= min_support.

    Rightmost-path extension with minimal-DFS-code pruning; patterns are
    emitted in canonical (lexicographic DFS code) search order, so the output
    is deterministic. When max_patterns patterns are kept, the search stops
    there and the truncated flag is set. min_support, max_patterns and
    max_edges below 1 raise MinerError.
    """
    if min_support < 1:
        raise MinerError("min_support must be >= 1")
    if max_patterns is not None and max_patterns < 1:
        raise MinerError("max_patterns must be >= 1")
    if max_edges is not None and max_edges < 1:
        raise MinerError("max_edges must be >= 1")
    if len(dataset) == 0:
        raise MinerError("dataset is empty")
    hosts = _hosts(dataset)
    patterns: list[Pattern] = []
    # Depth-first search on an explicit stack of (code, embeddings, graph
    # ids). Frequent children are pushed last first, so they pop in DFS-code
    # order and each subtree is finished before its next sibling.
    stack: list[tuple[DfsCode, list[Embedding], set[int]]] = []

    def push(code: DfsCode, grouped: dict[DfsEdge, list[Embedding]]) -> None:
        for edge in sorted(grouped, key=_edge_key, reverse=True):
            gids = {gid for gid, _vmap in grouped[edge]}
            if len(gids) >= min_support:
                stack.append((code + (edge,), grouped[edge], gids))

    push((), _seeds(dataset))
    while stack and len(patterns) != max_patterns:
        code, embeddings, gids = stack.pop()
        if not _is_min(code):
            continue
        patterns.append(Pattern(
            pattern_id=len(patterns), code=code,
            n_vertices=max(max(i, j) for i, j, *_ in code) + 1,
            n_edges=len(code), graph_ids=tuple(sorted(gids))))
        if max_edges is None or len(code) < max_edges:
            push(code, _extensions(code, embeddings, hosts))

    return PatternSet(tuple(patterns), min_support=min_support,
                      truncated=len(patterns) == max_patterns)


# ---------------------------------------------------------------------------
# Pattern set export (SPMF graph format + sidecar support file).
# ---------------------------------------------------------------------------

def export_patterns(pattern_set: PatternSet) -> tuple[str, str]:
    """Return (patterns_text, support_text) in the SPMF `t #` format."""
    from .graphdata import serialize_spmf, GraphDataset as _DS
    graphs = tuple(p.to_graph() for p in pattern_set)
    text = serialize_spmf(_DS(graphs))
    support = "".join(f"{p.pattern_id} {p.support}\n" for p in pattern_set)
    return text, support
