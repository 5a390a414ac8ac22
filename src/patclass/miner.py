"""Frequent connected subgraph mining (gSpan-style) with canonical DFS codes.

A pattern is identified by its minimal DFS code: a sequence of extension
tuples (i, j, label_i, edge_label, label_j) over DFS discovery indices.
Two patterns are isomorphic iff their minimal codes are equal. Support is
presence-based: the number of graphs containing at least one embedding.

One walk, _extensions, lists a code's rightmost-path extensions. The search
skips an edge group with fewer embeddings than min_support before counting
its graphs. The minimality check starts from the candidate's first edge and
bounds each step by the candidate's next edge. Codes carry their rightmost
path.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Optional

from .graphdata import AttributedGraph, GraphDataset, StructuralError, serialize_spmf

DfsEdge = tuple[int, int, int, int, int]  # (i, j, label_i, edge_label, label_j)
DfsCode = tuple[DfsEdge, ...]


class MinerError(ValueError):
    pass


@dataclass(frozen=True)
class Pattern:
    """Connected pattern in canonical (minimal) DFS code form. Its sizes
    are read from the code and its support from graph_ids."""

    pattern_id: int
    code: DfsCode
    graph_ids: tuple[int, ...] = ()  # containing graphs, cached by the miner

    @property
    def n_vertices(self) -> int:
        return max(max(i, j) for i, j, *_ in self.code) + 1

    @property
    def n_edges(self) -> int:
        return len(self.code)

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


def _label_triple(edge: DfsEdge) -> tuple[int, int, int]:
    """The labels of edge as a single-edge code writes them: (min label,
    edge label, max label)."""
    li, el, lj = edge[2:]
    return (li, el, lj) if li <= lj else (lj, el, li)


# ---------------------------------------------------------------------------
# Embeddings. An embedding is a (graph id, vertex map) pair; the vertex map
# takes DFS index k to the graph vertex vmap[k]. Hosts map a graph id to its
# (adjacency, vertex labels).
# ---------------------------------------------------------------------------

Embedding = tuple[int, tuple[int, ...]]
Host = tuple[list[list[tuple[int, int]]], tuple[int, ...]]
Hosts = dict[int, Host]


def _hosts(graphs: Iterable[AttributedGraph]) -> Hosts:
    return {g.graph_id: (g.adjacency(), g.vertex_labels) for g in graphs}


def _code_host(code: DfsCode) -> Host:
    """The (adjacency, vertex labels) of the graph a code the miner grew
    describes, without building and validating an AttributedGraph. It is
    sized for len(code) + 1 vertices, the most a connected code has; a
    vertex the code does not name is isolated, so no walk reaches it."""
    labels = [0] * (len(code) + 1)
    adj: list[list[tuple[int, int]]] = [[] for _ in labels]
    for (i, j, li, el, lj) in code:
        labels[i], labels[j] = li, lj
        adj[i].append((j, el))
        adj[j].append((i, el))
    return adj, tuple(labels)


def _seeds(hosts: Hosts) -> dict[DfsEdge, list[Embedding]]:
    """Single-edge codes (0, 1, la, el, lb) with la <= lb, the orientation
    that can be minimal, with their embeddings."""
    seeds: defaultdict[DfsEdge, list[Embedding]] = defaultdict(list)
    for gid, (adj, labels) in hosts.items():
        for x, nbrs in enumerate(adj):
            lx = labels[x]
            for (y, el) in nbrs:
                if lx <= labels[y]:
                    seeds[(0, 1, lx, el, labels[y])].append((gid, (x, y)))
    return seeds


def _grow_path(path: tuple[int, ...], edge: DfsEdge) -> tuple[int, ...]:
    """The rightmost path, root first, of a code whose path was `path` once
    edge is appended: a forward edge (i, j) keeps the path up to i and adds
    j, a backward edge keeps it. The empty code's path is its root, (0,)."""
    i, j = edge[0], edge[1]
    return path[:path.index(i) + 1] + (j,) if i < j else path


def _extensions(code: DfsCode, embeddings: list[Embedding], hosts: Hosts,
                path: tuple[int, ...], bound: Optional[DfsEdge] = None
                ) -> dict[DfsEdge, list[Embedding]]:
    """Rightmost-path extensions of every embedding of code, whose rightmost
    path is `path`, grouped by DFS edge: a forward edge appends the new
    vertex to the vertex map, a backward edge keeps it.

    With bound, one extension of code, only bound's group is kept, and the
    walk returns {} at the first extension that sorts before bound. Within
    one extension set _edge_key is unique (backward edges share i, forward
    edges share j), so bound's group is returned exactly when bound is the
    smallest extension."""
    rm = path[-1]
    # An embedding is injective, so the graph edge between vmap[rm] and
    # vmap[di] is in use exactly when the code has an edge between rm and di.
    # Backward edges may therefore go to the path vertices the code does not
    # yet link to rm, whatever the embedding.
    linked = {j if i == rm else i for (i, j, *_r) in code if rm in (i, j)}
    back = set(path[:-1]) - linked
    key = None if bound is None else _edge_key(bound)
    grouped: defaultdict[DfsEdge, list[Embedding]] = defaultdict(list)
    for emb in embeddings:
        gid, vmap = emb
        adj, labels = hosts[gid]
        u = vmap[rm]
        for (nbr, el) in adj[u]:
            if nbr in vmap:
                di = vmap.index(nbr)
                if di in back:
                    edge = (rm, di, labels[u], el, labels[nbr])
                    if bound is None or edge == bound:
                        grouped[edge].append(emb)
                    elif _edge_key(edge) < key:
                        return {}
        for di in path:
            src = vmap[di]
            for (nbr, el) in adj[src]:
                if nbr not in vmap:
                    edge = (di, rm + 1, labels[src], el, labels[nbr])
                    if bound is None or edge == bound:
                        grouped[edge].append((gid, vmap + (nbr,)))
                    elif _edge_key(edge) < key:
                        return {}
    return grouped


def _min_code(host: Host, stop: Optional[DfsCode] = None) -> DfsCode:
    """Minimal DFS code of a connected graph, given as one host, grown by the
    smallest extension over all self-embeddings.

    With stop, a DFS code of the host's graph, return the longest prefix of
    stop that the minimal code starts with: stop itself exactly when it is
    minimal. The minimal code starts with the graph's smallest label triple,
    so when an edge of stop has a smaller triple than stop[0] the result is
    (). Otherwise the walk starts from stop[0]'s embeddings alone (both
    orientations when its end labels are equal) and passes each next edge of
    stop to _extensions as the bound."""
    adj, labels = host
    hosts = {0: host}
    if stop is None:
        grouped = _seeds(hosts)
        edge = min(grouped, key=_edge_key)
    elif min(map(_label_triple, stop)) != stop[0][2:]:
        return ()
    else:
        edge = stop[0]
        grouped = {edge: [(0, (x, y)) for x, nbrs in enumerate(adj)
                          for (y, el) in nbrs if (labels[x], el, labels[y]) == edge[2:]]}
    n_edges = sum(map(len, adj)) // 2
    code, path = (edge,), (0, 1)
    while len(code) < n_edges:
        bound = None if stop is None else stop[len(code)]
        grouped = _extensions(code, grouped[edge], hosts, path, bound)
        edge = min(grouped, key=_edge_key) if bound is None else bound
        if edge not in grouped:
            return code
        code += (edge,)
        path = _grow_path(path, edge)
    return code


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
    return _min_code((graph.adjacency(), graph.vertex_labels))


def _below_first(code: DfsCode, edge: DfsEdge) -> bool:
    """Whether edge, as a single-edge code, sorts before the first edge of
    code (gSpan's first-edge pruning). The graph of code + (edge,) then has
    a smaller first edge than its code, so that code is not minimal and
    _is_min would reject it."""
    return bool(code) and _label_triple(edge) < code[0][2:]


def _is_min(code: DfsCode) -> bool:
    """Whether a code the miner grew (so connected) is its graph's minimal
    code; stops at the first edge where the minimal code departs from it,
    before any walk when an edge has a smaller label triple than the first."""
    return code == _min_code(_code_host(code), stop=code)


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
    # Depth-first search on an explicit stack of (code, rightmost path,
    # embeddings, graph ids). Frequent children are pushed last first, so
    # they pop in DFS-code order and each subtree is finished before its
    # next sibling.
    stack: list[tuple[DfsCode, tuple[int, ...], list[Embedding], set[int]]] = []

    def push(code: DfsCode, path: tuple[int, ...],
             grouped: dict[DfsEdge, list[Embedding]]) -> None:
        frequent = {}
        for edge, embeddings in grouped.items():
            # a group's support is at most its number of embeddings
            if len(embeddings) >= min_support:
                gids = {gid for gid, _vmap in embeddings}
                if len(gids) >= min_support and not _below_first(code, edge):
                    frequent[edge] = gids
        for edge in sorted(frequent, key=_edge_key, reverse=True):
            stack.append((code + (edge,), _grow_path(path, edge), grouped[edge],
                          frequent[edge]))

    push((), (0,), _seeds(hosts))
    while stack:
        code, path, embeddings, gids = stack.pop()
        if not _is_min(code):
            continue
        patterns.append(Pattern(len(patterns), code, tuple(sorted(gids))))
        if len(patterns) == max_patterns:
            break
        if max_edges is None or len(code) < max_edges:
            push(code, path, _extensions(code, embeddings, hosts, path))

    return PatternSet(tuple(patterns), min_support=min_support,
                      truncated=len(patterns) == max_patterns)


# ---------------------------------------------------------------------------
# Pattern set export (SPMF graph format + sidecar support file).
# ---------------------------------------------------------------------------

def export_patterns(pattern_set: PatternSet) -> tuple[str, str]:
    """Return (patterns_text, support_text) in the SPMF `t #` format."""
    graphs = tuple(p.to_graph() for p in pattern_set)
    text = serialize_spmf(GraphDataset(graphs))
    support = "".join(f"{p.pattern_id} {p.support}\n" for p in pattern_set)
    return text, support
