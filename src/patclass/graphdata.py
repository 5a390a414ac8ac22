"""Labeled graph collections: loading, validation, balancing, and summary stats.

Graphs are undirected, with integer label ids on vertices and edges.
String labels in source files are interned to dense ids in file order.
Class labels are binary: POSITIVE (+1) / NEGATIVE (-1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

POSITIVE = 1
NEGATIVE = -1


class GraphDataError(ValueError):
    """Base error for dataset loading and validation."""


class ParseError(GraphDataError):
    """Malformed input line; message carries the line number."""


class StructuralError(GraphDataError):
    """Graph-level violation: bad vertex reference, self-loop, duplicate edge."""


class ConsistencyError(GraphDataError):
    """Cross-file or cross-field mismatch in multi-file formats."""


@dataclass(frozen=True)
class AttributedGraph:
    """Undirected labeled graph with an optional binary class label.

    Edges are stored as (u, v, edge_label) with u < v. Unlabeled source data
    uses a single label id 0 on every vertex and edge.
    """

    graph_id: int
    vertex_labels: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]
    class_label: Optional[int] = None

    def __post_init__(self):
        n = len(self.vertex_labels)
        seen = set()
        for (u, v, el) in self.edges:
            if u == v:
                raise StructuralError(f"graph {self.graph_id}: self-loop on vertex {u}")
            if not (0 <= u < v < n):
                raise StructuralError(
                    f"graph {self.graph_id}: edge ({u},{v}) references a missing vertex"
                    f" (n={n})")
            if (u, v) in seen:
                raise StructuralError(f"graph {self.graph_id}: duplicate edge ({u},{v})")
            seen.add((u, v))
        if self.class_label not in (None, POSITIVE, NEGATIVE):
            raise GraphDataError(f"graph {self.graph_id}: bad class label {self.class_label}")

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_labels)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per-vertex list of (neighbor, edge_label)."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n_vertices)]
        for (u, v, el) in self.edges:
            adj[u].append((v, el))
            adj[v].append((u, el))
        return adj


@dataclass(frozen=True)
class GraphDataset:
    """Immutable collection of graphs with ids renumbered 0..N-1."""

    graphs: tuple[AttributedGraph, ...]

    def __post_init__(self):
        for i, g in enumerate(self.graphs):
            if g.graph_id != i:
                raise GraphDataError(f"graph ids must be 0..N-1 in order, got {g.graph_id} at {i}")

    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self):
        return iter(self.graphs)

    @property
    def n_pos(self) -> int:
        return sum(1 for g in self.graphs if g.class_label == POSITIVE)

    @property
    def n_neg(self) -> int:
        return sum(1 for g in self.graphs if g.class_label == NEGATIVE)

    def labels(self) -> tuple[int, ...]:
        lab = tuple(g.class_label for g in self.graphs)
        if any(l is None for l in lab):
            raise GraphDataError("dataset has unlabeled graphs")
        return lab  # type: ignore[return-value]


@dataclass(frozen=True)
class DatasetStats:
    n_graphs: int
    avg_vertices: float
    avg_edges: float
    mean_avg_degree: float
    avg_density: float
    avg_global_clustering: Optional[float]


def _renumber(graphs: Sequence[AttributedGraph]) -> GraphDataset:
    out = tuple(
        AttributedGraph(i, g.vertex_labels, g.edges, g.class_label)
        for i, g in enumerate(graphs))
    return GraphDataset(out)


def _map_class_labels(raw: dict[int, int]) -> dict[int, int]:
    """Map a 2-value raw label set to {+,-}; smaller raw value -> negative."""
    values = sorted(set(raw.values()))
    if len(values) != 2:
        raise ConsistencyError(f"expected exactly 2 distinct class labels, got {values}")
    lo, hi = values
    return {gid: (NEGATIVE if v == lo else POSITIVE) for gid, v in raw.items()}


def parse_spmf(text: str | Iterable[str], labels_text: Optional[str | Iterable[str]] = None,
               ) -> GraphDataset:
    """Parse the gSpan/SPMF transaction format.

    ``t # <gid>`` starts a graph (an optional trailing integer is its class),
    ``v <vid> <vlabel>`` and ``e <src> <dst> <elabel>`` add vertices and edges.
    Blank lines and '#'-prefixed lines are ignored. Class labels may instead
    come from ``labels_text`` with one ``<gid> <class>`` pair per line. A
    repeated header gid raises ParseError; a label line for a gid the text
    lacks, or for a gid labelled before, raises ConsistencyError.
    """
    lines = text.splitlines() if isinstance(text, str) else list(text)
    blocks: list[tuple[int, list[int], list[tuple[int, int, int]]]] = []
    raw_class: dict[int, int] = {}
    cur_vlabels: Optional[dict[int, int]] = None
    cur_edges: list[tuple[int, int, int]] = []
    cur_gid = -1
    gids: set[int] = set()

    def flush():
        if cur_vlabels is None:
            return
        n = len(cur_vlabels)
        if sorted(cur_vlabels) != list(range(n)):
            raise StructuralError(f"graph {cur_gid}: vertex ids must be 0..n-1")
        vlabels = [cur_vlabels[i] for i in range(n)]
        blocks.append((cur_gid, vlabels, list(cur_edges)))

    for lineno, rawline in enumerate(lines, start=1):
        line = rawline.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "t":
                if parts[1] != "#":
                    raise ValueError
                flush()
                cur_gid = int(parts[2])
                if cur_gid in gids:
                    raise ParseError(f"line {lineno}: repeated graph id {cur_gid}")
                gids.add(cur_gid)
                cur_vlabels = {}
                cur_edges = []
                if len(parts) >= 4:
                    raw_class[cur_gid] = int(parts[3])
                elif len(parts) != 3:
                    raise ValueError
            elif parts[0] == "v":
                if cur_vlabels is None:
                    raise ParseError(f"line {lineno}: vertex before any 't #' header")
                vid, vlabel = int(parts[1]), int(parts[2])
                if len(parts) != 3 or vid in cur_vlabels:
                    raise ValueError
                cur_vlabels[vid] = vlabel
            elif parts[0] == "e":
                if cur_vlabels is None:
                    raise ParseError(f"line {lineno}: edge before any 't #' header")
                if len(parts) != 4:
                    raise ValueError
                u, v, el = int(parts[1]), int(parts[2]), int(parts[3])
                cur_edges.append((min(u, v), max(u, v), el))
            else:
                raise ValueError
        except ParseError:
            raise
        except (ValueError, IndexError):
            raise ParseError(f"line {lineno}: malformed line {line!r}") from None
    flush()

    if labels_text is not None:
        llines = (labels_text.splitlines() if isinstance(labels_text, str)
                  else list(labels_text))
        labelled: set[int] = set()
        for lineno, rawline in enumerate(llines, start=1):
            line = rawline.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                gid, cls = int(parts[0]), int(parts[1])
            except (ValueError, IndexError):
                raise ParseError(f"label line {lineno}: malformed line {line!r}") from None
            if gid not in gids:
                raise ConsistencyError(f"label line {lineno}: no graph with id {gid}")
            if gid in labelled:
                raise ConsistencyError(f"label line {lineno}: graph {gid} labelled twice")
            labelled.add(gid)
            raw_class[gid] = cls

    mapped: dict[int, int] = {}
    if raw_class:
        missing = [gid for gid, _, _ in blocks if gid not in raw_class]
        if missing:
            raise ConsistencyError(f"graphs without class label: {missing}")
        mapped = _map_class_labels(raw_class)

    graphs = []
    for pos, (gid, vlabels, edges) in enumerate(blocks):
        if len({(u, v) for (u, v, _el) in edges}) != len(edges):
            raise StructuralError(f"graph {pos}: duplicate edges in input")
        graphs.append(AttributedGraph(
            graph_id=pos,
            vertex_labels=tuple(vlabels),
            edges=tuple(sorted(edges)),
            class_label=mapped.get(gid)))
    return GraphDataset(tuple(graphs))


def serialize_spmf(dataset: GraphDataset) -> str:
    """Inverse of parse_spmf; class labels (when present) ride on the 't #' line."""
    out = []
    for g in dataset:
        if g.class_label is None:
            out.append(f"t # {g.graph_id}")
        else:
            out.append(f"t # {g.graph_id} {1 if g.class_label == POSITIVE else 0}")
        for vid, vlabel in enumerate(g.vertex_labels):
            out.append(f"v {vid} {vlabel}")
        for (u, v, el) in g.edges:
            out.append(f"e {u} {v} {el}")
    return "\n".join(out) + "\n"


def _read_lines(src: str | Iterable[str]) -> list[str]:
    lines = src.splitlines() if isinstance(src, str) else list(src)
    return [ln.strip() for ln in lines if ln.strip()]


def _rows(name: str, lines: list[str], row: Callable) -> list:
    """`row` applied to every line; a line it rejects raises ParseError
    naming the file and the line (numbered among the non-blank lines)."""
    out = []
    for lineno, line in enumerate(lines, start=1):
        try:
            out.append(row(line))
        except (ValueError, OverflowError):
            raise ParseError(f"{name} line {lineno}: malformed line {line!r}") from None
    return out


def _label(text: str) -> int:
    return int(float(text))


def _pair(text: str) -> tuple[int, int]:
    u, v = text.replace(",", " ").split()
    return int(u), int(v)


def parse_tudataset(adjacency: str | Iterable[str],
                    graph_indicator: str | Iterable[str],
                    graph_labels: str | Iterable[str],
                    node_labels: Optional[str | Iterable[str]] = None,
                    edge_labels: Optional[str | Iterable[str]] = None) -> GraphDataset:
    """Parse the TUDataset multi-file convention (1-based ids in all files).

    ``adjacency`` holds comma-separated edge pairs with both directions
    present; ``edge_labels`` has one value per direction row. Missing label
    files default every label to 0.
    """
    indicator = _rows("graph_indicator", _read_lines(graph_indicator), int)
    n_nodes = len(indicator)

    glabels_raw = _rows("graph_labels", _read_lines(graph_labels), _label)
    n_graphs = len(glabels_raw)
    if any(g < 1 or g > n_graphs for g in indicator):
        bad = next(g for g in indicator if g < 1 or g > n_graphs)
        raise ConsistencyError(
            f"graph_indicator references graph {bad}, valid range is 1..{n_graphs}")

    if node_labels is not None:
        nl_lines = _read_lines(node_labels)
        if len(nl_lines) != n_nodes:
            raise ConsistencyError(
                f"node_labels has {len(nl_lines)} rows, graph_indicator has {n_nodes}")
        vlabels_raw = _rows("node_labels", nl_lines, _label)
    else:
        vlabels_raw = [0] * n_nodes

    pairs = _rows("adjacency", _read_lines(adjacency), _pair)
    for lineno, (u, v) in enumerate(pairs, start=1):
        if not (1 <= u <= n_nodes and 1 <= v <= n_nodes):
            raise ConsistencyError(f"adjacency line {lineno}: node id out of range")

    if edge_labels is not None:
        el_lines = _read_lines(edge_labels)
        if len(el_lines) != len(pairs):
            raise ConsistencyError(
                f"edge_labels has {len(el_lines)} rows, adjacency has {len(pairs)}")
        elabels_raw = _rows("edge_labels", el_lines, _label)
    else:
        elabels_raw = [0] * len(pairs)

    # Normalize directions; a pair seen with two different labels is rejected.
    norm: dict[tuple[int, int], int] = {}
    for (u, v), el in zip(pairs, elabels_raw):
        if u == v:
            raise StructuralError(f"self-loop on node {u}")
        key = (min(u, v), max(u, v))
        if key in norm and norm[key] != el:
            raise ConsistencyError(f"edge {key} has conflicting labels")
        norm[key] = el

    # Group nodes per graph, remap to local 0-based ids.
    node_of_graph: dict[int, list[int]] = {}
    for node, gid in enumerate(indicator, start=1):
        node_of_graph.setdefault(gid, []).append(node)
    local: dict[int, tuple[int, int]] = {}
    for gid, nodes in node_of_graph.items():
        for li, node in enumerate(nodes):
            local[node] = (gid, li)

    edges_of_graph: dict[int, list[tuple[int, int, int]]] = {g: [] for g in range(1, n_graphs + 1)}
    for (u, v), el in sorted(norm.items()):
        gu, lu = local[u]
        gv, lv = local[v]
        if gu != gv:
            raise ConsistencyError(f"edge ({u},{v}) crosses graphs {gu} and {gv}")
        a, b = min(lu, lv), max(lu, lv)
        edges_of_graph[gu].append((a, b, el))

    mapped = _map_class_labels({g: glabels_raw[g - 1] for g in range(1, n_graphs + 1)})
    graphs = []
    for gid in range(1, n_graphs + 1):
        nodes = node_of_graph.get(gid, [])
        vlabels = tuple(vlabels_raw[node - 1] for node in nodes)
        graphs.append(AttributedGraph(
            graph_id=gid - 1,
            vertex_labels=vlabels,
            edges=tuple(sorted(edges_of_graph[gid])),
            class_label=mapped[gid]))
    return GraphDataset(tuple(graphs))


def load_tudataset(directory, name: str) -> GraphDataset:
    """Load ``<name>_A.txt`` etc. from a directory on disk."""
    from pathlib import Path
    d = Path(directory)

    def read(suffix: str, required: bool) -> Optional[str]:
        p = d / f"{name}_{suffix}.txt"
        if not p.exists():
            if required:
                raise GraphDataError(f"missing file {p}")
            return None
        return p.read_text()

    return parse_tudataset(
        adjacency=read("A", True),
        graph_indicator=read("graph_indicator", True),
        graph_labels=read("graph_labels", True),
        node_labels=read("node_labels", False),
        edge_labels=read("edge_labels", False))


def balance_undersample(dataset: GraphDataset, seed: int) -> GraphDataset:
    """Down-sample the majority class uniformly at random to the minority size.

    Deterministic given the seed; graph order is otherwise preserved. Already
    balanced input is returned unchanged.
    """
    pos = [g for g in dataset if g.class_label == POSITIVE]
    neg = [g for g in dataset if g.class_label == NEGATIVE]
    if not pos or not neg:
        raise GraphDataError("both classes must be non-empty to balance")
    if len(pos) == len(neg):
        return dataset
    major, minor = (pos, neg) if len(pos) > len(neg) else (neg, pos)
    rng = random.Random(seed)
    keep_ids = set(g.graph_id for g in rng.sample(major, len(minor)))
    kept = [g for g in dataset if g.class_label == minor[0].class_label
            or g.graph_id in keep_ids]
    return _renumber(kept)


def _graph_clustering(g: AttributedGraph) -> Optional[float]:
    """Global clustering coefficient 3*triangles / connected-triples, or None."""
    adj = [set() for _ in range(g.n_vertices)]
    for (u, v, _el) in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    triples = sum(len(a) * (len(a) - 1) // 2 for a in adj)
    if triples == 0:
        return None
    triangles = 0
    for (u, v, _el) in g.edges:
        triangles += len(adj[u] & adj[v])
    # each triangle counted once per edge, i.e. 3 times in total
    return triangles / triples


def dataset_stats(dataset: GraphDataset) -> DatasetStats:
    """Per-graph averages; density is 2m/(n(n-1)) for n >= 2, else 0."""
    if len(dataset) == 0:
        raise GraphDataError("dataset is empty")
    n_graphs = len(dataset)
    verts = [g.n_vertices for g in dataset]
    edges = [g.n_edges for g in dataset]
    degs = [2 * g.n_edges / g.n_vertices if g.n_vertices else 0.0 for g in dataset]
    dens = [2 * g.n_edges / (g.n_vertices * (g.n_vertices - 1)) if g.n_vertices >= 2 else 0.0
            for g in dataset]
    clus = [c for c in (_graph_clustering(g) for g in dataset) if c is not None]
    return DatasetStats(
        n_graphs=n_graphs,
        avg_vertices=sum(verts) / n_graphs,
        avg_edges=sum(edges) / n_graphs,
        mean_avg_degree=sum(degs) / n_graphs,
        avg_density=sum(dens) / n_graphs,
        avg_global_clustering=(sum(clus) / len(clus)) if clus else None)
