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
# Embeddings. An embedding maps DFS indices to graph vertices and records
# which graph edges are in use, so extensions never reuse an edge.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Embedding:
    gid: int
    vmap: tuple[int, ...]          # dfs index -> graph vertex
    edges: frozenset[tuple[int, int]]  # normalized used edges

    def extend(self, edge: tuple[int, int], vertex: Optional[int]) -> "_Embedding":
        vmap = self.vmap + (vertex,) if vertex is not None else self.vmap
        return _Embedding(self.gid, vmap, self.edges | {edge})


def _rightmost_path(code: DfsCode) -> list[int]:
    """DFS indices from root to the rightmost vertex, derived from the code."""
    path: list[int] = []
    rightmost = -1
    parent: dict[int, int] = {}
    for (i, j, *_rest) in code:
        if j > i:  # forward edge discovers j
            parent[j] = i
            if j > rightmost:
                rightmost = j
    node = rightmost
    path = [node]
    while node in parent:
        node = parent[node]
        path.append(node)
    return list(reversed(path))  # root ... rightmost


def _extensions(code: DfsCode, embeddings: list[_Embedding],
                adj_cache: dict[int, list[list[tuple[int, int]]]],
                vlabel_cache: dict[int, tuple[int, ...]]):
    """Candidate rightmost-path extensions grouped by DFS edge tuple."""
    path = _rightmost_path(code)
    rm = path[-1]
    n_vertices = rm + 1
    on_path = set(path)
    grouped: dict[DfsEdge, list[tuple[_Embedding, tuple[int, int], Optional[int]]]] = {}

    for emb in embeddings:
        adj = adj_cache[emb.gid]
        vlabels = vlabel_cache[emb.gid]
        mapped = set(emb.vmap)
        rm_vertex = emb.vmap[rm]
        # Backward: rightmost vertex to an earlier rightmost-path vertex.
        for (nbr, el) in adj[rm_vertex]:
            if nbr not in mapped:
                continue
            key = (min(rm_vertex, nbr), max(rm_vertex, nbr))
            if key in emb.edges:
                continue
            di = emb.vmap.index(nbr)
            if di not in on_path or di == rm:
                continue
            tup: DfsEdge = (rm, di, vlabels[rm_vertex], el, vlabels[nbr])
            grouped.setdefault(tup, []).append((emb, key, None))
        # Forward: any rightmost-path vertex to a new vertex.
        for di in path:
            src = emb.vmap[di]
            for (nbr, el) in adj[src]:
                if nbr in mapped:
                    continue
                key = (min(src, nbr), max(src, nbr))
                tup = (di, n_vertices, vlabels[src], el, vlabels[nbr])
                grouped.setdefault(tup, []).append((emb, key, nbr))
    return grouped


def _min_code_of_graph(graph: AttributedGraph) -> DfsCode:
    """Minimal DFS code by greedy minimal extension over self-embeddings."""
    if graph.n_edges == 0:
        raise MinerError("patterns must have at least one edge")
    if not _is_connected(graph):
        raise StructuralError("canonical code requires a connected graph")
    adj_cache = {graph.graph_id: graph.adjacency()}
    vlabel_cache = {graph.graph_id: graph.vertex_labels}

    # Minimal starting edge over both orientations of every edge.
    best: Optional[DfsEdge] = None
    for (u, v, el) in graph.edges:
        for (x, y) in ((u, v), (v, u)):
            tup: DfsEdge = (0, 1, graph.vertex_labels[x], el, graph.vertex_labels[y])
            if best is None or tup < best:
                best = tup
    assert best is not None
    code: list[DfsEdge] = [best]
    embeddings = []
    for (u, v, el) in graph.edges:
        for (x, y) in ((u, v), (v, u)):
            if (graph.vertex_labels[x], el, graph.vertex_labels[y]) == best[2:]:
                embeddings.append(_Embedding(graph.graph_id, (x, y),
                                             frozenset({(min(x, y), max(x, y))})))
    while len(code) < graph.n_edges:
        grouped = _extensions(tuple(code), embeddings, adj_cache, vlabel_cache)
        tup = min(grouped, key=_edge_key)
        code.append(tup)
        new_embs = []
        for (emb, key, nbr) in grouped[tup]:
            new_embs.append(emb.extend(key, nbr))
        embeddings = new_embs
    return tuple(code)


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
    return _min_code_of_graph(graph)


def _is_min(code: DfsCode) -> bool:
    return code == _min_code_of_graph(code_to_graph(code))


class _Budget:
    def __init__(self, max_patterns: Optional[int]):
        self.max_patterns = max_patterns
        self.truncated = False

    def exhausted(self, count: int) -> bool:
        if self.max_patterns is not None and count >= self.max_patterns:
            self.truncated = True
            return True
        return False


def mine_frequent(dataset: GraphDataset, min_support: int,
                  max_patterns: Optional[int] = None,
                  max_edges: Optional[int] = None) -> PatternSet:
    """All connected patterns with graph support >= min_support.

    Rightmost-path extension with minimal-DFS-code pruning; patterns are
    emitted in canonical (lexicographic DFS code) search order, so the output
    is deterministic. When max_patterns cuts the search short, the truncated
    flag is set and the first patterns in search order are kept.
    """
    if min_support < 1:
        raise MinerError("min_support must be >= 1")
    if len(dataset) == 0:
        raise MinerError("dataset is empty")
    adj_cache = {g.graph_id: g.adjacency() for g in dataset}
    vlabel_cache = {g.graph_id: g.vertex_labels for g in dataset}

    # Frequent single-edge seeds: minimal orientation (la <= lb).
    seeds: dict[DfsEdge, dict[int, list[_Embedding]]] = {}
    for g in dataset:
        for (u, v, el) in g.edges:
            for (x, y) in ((u, v), (v, u)):
                lx, ly = g.vertex_labels[x], g.vertex_labels[y]
                if lx > ly:
                    continue
                tup: DfsEdge = (0, 1, lx, el, ly)
                emb = _Embedding(g.graph_id, (x, y), frozenset({(min(x, y), max(x, y))}))
                seeds.setdefault(tup, {}).setdefault(g.graph_id, []).append(emb)

    patterns: list[Pattern] = []
    budget = _Budget(max_patterns)

    def recurse(code: DfsCode, by_graph: dict[int, list[_Embedding]]):
        if budget.exhausted(len(patterns)):
            return
        if not _is_min(code):
            return
        # _is_min validated the code: its DFS indices are 0..n-1, one edge each
        patterns.append(Pattern(
            pattern_id=len(patterns), code=code,
            n_vertices=max(max(i, j) for i, j, *_ in code) + 1,
            n_edges=len(code), graph_ids=tuple(sorted(by_graph))))
        if max_edges is not None and len(code) >= max_edges:
            return
        embeddings = [e for embs in by_graph.values() for e in embs]
        grouped = _extensions(code, embeddings, adj_cache, vlabel_cache)
        for tup in sorted(grouped, key=_edge_key):
            ext_by_graph: dict[int, list[_Embedding]] = {}
            for (emb, key, nbr) in grouped[tup]:
                ext_by_graph.setdefault(emb.gid, []).append(emb.extend(key, nbr))
            if len(ext_by_graph) < min_support:
                continue
            recurse(code + (tup,), ext_by_graph)
            if budget.exhausted(len(patterns)):
                return

    for tup in sorted(seeds, key=_edge_key):
        by_graph = seeds[tup]
        if len(by_graph) < min_support:
            continue
        if max_edges is not None and max_edges < 1:
            break
        recurse((tup,), by_graph)
        if budget.exhausted(len(patterns)):
            break

    return PatternSet(tuple(patterns), min_support=min_support, truncated=budget.truncated)


# ---------------------------------------------------------------------------
# Subgraph isomorphism (pattern containment).
# ---------------------------------------------------------------------------

def contains(pattern: Pattern | AttributedGraph, graph: AttributedGraph) -> bool:
    """True iff a label-preserving subgraph isomorphism maps pattern into graph.

    Backtracking over pattern vertices in a connectivity-respecting order with
    degree and label pruning. Non-induced: extra edges in the graph between
    mapped vertices are allowed.
    """
    pg = pattern.to_graph() if isinstance(pattern, Pattern) else pattern
    if pg.n_vertices > graph.n_vertices or pg.n_edges > graph.n_edges:
        return False
    gadj = {i: {} for i in range(graph.n_vertices)}
    for (u, v, el) in graph.edges:
        gadj[u][v] = el
        gadj[v][u] = el
    padj = pg.adjacency()
    gdeg = [len(gadj[i]) for i in range(graph.n_vertices)]
    pdeg = [len(padj[i]) for i in range(pg.n_vertices)]

    glabel_counts: dict[int, int] = {}
    for l in graph.vertex_labels:
        glabel_counts[l] = glabel_counts.get(l, 0) + 1
    plabel_counts: dict[int, int] = {}
    for l in pg.vertex_labels:
        plabel_counts[l] = plabel_counts.get(l, 0) + 1
    for l, c in plabel_counts.items():
        if glabel_counts.get(l, 0) < c:
            return False

    # Order pattern vertices so each one touches a mapped one where possible;
    # disconnected patterns start a fresh component.
    order = [0]
    placed = {0}
    while len(order) < pg.n_vertices:
        nxt = next((i for i in range(pg.n_vertices)
                    if i not in placed and any(j in placed for (j, _e) in padj[i])),
                   None)
        if nxt is None:
            nxt = next(i for i in range(pg.n_vertices) if i not in placed)
        order.append(nxt)
        placed.add(nxt)

    mapping: dict[int, int] = {}
    used: set[int] = set()

    def backtrack(k: int) -> bool:
        if k == len(order):
            return True
        pv = order[k]
        anchors = [(j, el) for (j, el) in padj[pv] if j in mapping]
        if anchors:
            j0, el0 = anchors[0]
            candidates = [w for w, el in gadj[mapping[j0]].items() if el == el0]
        else:
            candidates = list(range(graph.n_vertices))
        for w in candidates:
            if w in used:
                continue
            if graph.vertex_labels[w] != pg.vertex_labels[pv]:
                continue
            if gdeg[w] < pdeg[pv]:
                continue
            ok = True
            for (j, el) in anchors:
                if gadj[mapping[j]].get(w) != el:
                    ok = False
                    break
            if not ok:
                continue
            mapping[pv] = w
            used.add(w)
            if backtrack(k + 1):
                return True
            del mapping[pv]
            used.remove(w)
        return False

    return backtrack(0)


def graph_support(pattern: Pattern | AttributedGraph, dataset: GraphDataset) -> int:
    """Number of graphs containing the pattern at least once (presence-based)."""
    return sum(1 for g in dataset if contains(pattern, g))


# ---------------------------------------------------------------------------
# Pattern set export / import (SPMF graph format + sidecar support file).
# ---------------------------------------------------------------------------

def export_patterns(pattern_set: PatternSet) -> tuple[str, str]:
    """Return (patterns_text, support_text) in the SPMF `t #` format."""
    from .graphdata import serialize_spmf, GraphDataset as _DS
    graphs = tuple(p.to_graph() for p in pattern_set)
    text = serialize_spmf(_DS(graphs))
    support = "".join(f"{p.pattern_id} {p.support}\n" for p in pattern_set)
    return text, support


def import_patterns(text: str | Iterable[str],
                    dataset: Optional[GraphDataset] = None,
                    min_support: int = 1) -> PatternSet:
    """Parse pre-mined patterns; recompute support against dataset if given."""
    from .graphdata import parse_spmf
    parsed = parse_spmf(text)
    patterns = []
    seen = set()
    for g in parsed:
        code = canonical_code(g)
        if code in seen:
            continue
        seen.add(code)
        gids: tuple[int, ...] = ()
        if dataset is not None:
            gids = tuple(h.graph_id for h in dataset if contains(g, h))
        patterns.append(Pattern(
            pattern_id=len(patterns), code=code,
            n_vertices=g.n_vertices, n_edges=g.n_edges, graph_ids=gids))
    return PatternSet(tuple(patterns), min_support=min_support)
