"""Independent brute-force oracles, and the helpers only tests call.

The oracles are deliberately naive: permutation search for isomorphism,
exhaustive edge-subset enumeration for subgraph classes, O(s^2) pair scans
for rank correlation, the pairwise DFS-edge comparison of Yan & Han, an
O(p^3) reference agglomerator, the cut that replays a dendrogram over one
leaf per pattern and scans each cluster's distances pair by pair for its
medoid, the minimality check and the footprint CSV
writer as first written (through a validated graph with an extension walk
of its own that tracks used edges, and cell by cell), the
one-fold-at-a-time SVM trainer and cross-validation loop, the one-coalition-at-a-time permutation-sampling
Shapley loop, the property checks, ranking and score table that score
every operand with a fresh call, and a row check that compares every pair.

The helpers are what no command calls, kept here so `src/` holds only what
a command, the benchmark or `patclass.__all__` reaches: the backtracking
subgraph isomorphism `contains` (the fast support recount next to
`brute_force_contains`), `graph_support`, `import_patterns`, sorted degree
sequences, `rightmost_path`, read from a code for the miner's extension
walk, one model's
`predict` and the label-based `prf1` (cross-validation scores its folds from
stacked decisions and counts), one property check
or appendix result at a time (`check`, `recheck_counterexample`,
`check_independence_equilibrium`, `check_ps2_exclusivity`), the batch and
uncached forms of a one-subset Shapley game, the RBO checks (un-normalized
RBO, prefix monotonicity), `RankingPair`, `write_tudataset`, the
TUDataset writer that lets a test read one dataset in both input formats,
`perfbench_module`, which loads a benchmark script by path, and
`molecule_like_text`, the benchmark's generated dataset.
"""

from __future__ import annotations

import importlib.util
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import permutations
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Optional, Sequence

import numpy as np

from patclass.classify import (EPOCHS, ClassifyError, EvalReport, LinearModel,
                                stratified_folds)
from patclass.clusterer import ClusterCut
from patclass.footprints import ContingencyCounts, contingency
from patclass.graphdata import POSITIVE, AttributedGraph, GraphDataset, parse_spmf
from patclass.measures import (MEASURE_NAMES, Ranking, effective, effective_score,
                               prob_kit, score, scorer)
from patclass.miner import Pattern, PatternSet, canonical_code, code_to_graph
from patclass.properties import _PROPERTY_TABLE, PropertyReport, _check
from patclass.rankcmp import RankCmpError, _ids, kendall_tau, rbo


def perm_canonical_form(vlabels, edges):
    """Lexicographically minimal (labels, sorted edges) over all vertex
    permutations. Identifies the isomorphism class of a small graph."""
    n = len(vlabels)
    best = None
    for perm in permutations(range(n)):
        # perm[v] is the new index of old vertex v
        lab = [0] * n
        for old, new in enumerate(perm):
            lab[new] = vlabels[old]
        es = tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v]), el)
                          for (u, v, el) in edges))
        cand = (tuple(lab), es)
        if best is None or cand < best:
            best = cand
    return best


def graph_canonical_form(g: AttributedGraph):
    return perm_canonical_form(g.vertex_labels, g.edges)


def brute_force_isomorphic(g1: AttributedGraph, g2: AttributedGraph) -> bool:
    if g1.n_vertices != g2.n_vertices or g1.n_edges != g2.n_edges:
        return False
    return graph_canonical_form(g1) == graph_canonical_form(g2)


def connected_edge_subsets(g: AttributedGraph, max_edges=None):
    """All edge subsets that form a connected subgraph (>= 1 edge)."""
    edges = list(g.edges)
    m = len(edges)
    limit = m if max_edges is None else min(m, max_edges)
    seen = set()
    frontier = [frozenset([i]) for i in range(m)]
    seen.update(frontier)
    out = list(frontier)
    while frontier:
        nxt = []
        for subset in frontier:
            if len(subset) >= limit:
                continue
            verts = set()
            for i in subset:
                u, v, _ = edges[i]
                verts.update((u, v))
            for j in range(m):
                if j in subset:
                    continue
                u, v, _ = edges[j]
                if u in verts or v in verts:
                    bigger = subset | {j}
                    if bigger not in seen:
                        seen.add(bigger)
                        nxt.append(bigger)
        out.extend(nxt)
        frontier = nxt
    return out


def subgraph_from_edges(g: AttributedGraph, subset):
    """Materialize the subgraph induced by an edge subset (vertices re-indexed)."""
    edges = [g.edges[i] for i in sorted(subset)]
    verts = sorted({u for (u, v, _e) in edges} | {v for (u, v, _e) in edges})
    remap = {v: i for i, v in enumerate(verts)}
    new_edges = tuple(sorted((remap[u], remap[v], el) for (u, v, el) in edges))
    vlabels = tuple(g.vertex_labels[v] for v in verts)
    return AttributedGraph(0, vlabels, new_edges, None)


def connected_subgraph_classes(g: AttributedGraph, max_edges=None):
    """Map canonical form -> one representative subgraph, over all connected
    subgraphs of g with >= 1 edge."""
    classes = {}
    for subset in connected_edge_subsets(g, max_edges):
        sub = subgraph_from_edges(g, subset)
        form = graph_canonical_form(sub)
        if form not in classes:
            classes[form] = sub
    return classes


def brute_force_contains(pattern: AttributedGraph, graph: AttributedGraph) -> bool:
    """Injective label-preserving vertex-map enumeration."""
    np_, ng = pattern.n_vertices, graph.n_vertices
    if np_ > ng:
        return False
    gset = {}
    for (u, v, el) in graph.edges:
        gset[(u, v)] = el
        gset[(v, u)] = el
    for combo in permutations(range(ng), np_):
        if any(pattern.vertex_labels[i] != graph.vertex_labels[combo[i]]
               for i in range(np_)):
            continue
        if all(gset.get((combo[u], combo[v])) == el for (u, v, el) in pattern.edges):
            return True
    return False


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


def import_patterns(text: str | Iterable[str],
                    dataset: Optional[GraphDataset] = None,
                    min_support: int = 1) -> PatternSet:
    """Parse pre-mined patterns; recompute support against dataset if given."""
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
        patterns.append(Pattern(pattern_id=len(patterns), code=code, graph_ids=gids))
    return PatternSet(tuple(patterns), min_support=min_support)


def degree_sequence(g: AttributedGraph) -> tuple[int, ...]:
    """The sorted vertex degrees of g, an isomorphism invariant."""
    deg = [0] * g.n_vertices
    for (u, v, _el) in g.edges:
        deg[u] += 1
        deg[v] += 1
    return tuple(sorted(deg))


def reference_edge_lt(e1, e2) -> bool:
    """The DFS-edge total order of Yan & Han on (i, j, label_i, edge_label,
    label_j): edges are compared first by their (i, j) role (backward/forward
    position rules), then by labels."""
    i1, j1 = e1[0], e1[1]
    i2, j2 = e2[0], e2[1]
    f1, f2 = i1 < j1, i2 < j2
    if (i1, j1) == (i2, j2):
        return e1[2:] < e2[2:]
    if f1 and f2:
        return j1 < j2 or (j1 == j2 and i1 > i2)
    if (not f1) and (not f2):
        return i1 < i2 or (i1 == i2 and j1 < j2)
    if (not f1) and f2:   # backward vs forward
        return i1 < j2
    return j1 <= i2       # forward vs backward


def reference_edge_key(edge):
    """A sort key that orders DFS edges by `reference_edge_lt`."""
    return cmp_to_key(lambda e1, e2: -1 if reference_edge_lt(e1, e2)
                      else int(reference_edge_lt(e2, e1)))(edge)


def rightmost_path(code) -> tuple[int, ...]:
    """DFS indices from the root to the rightmost vertex, read from the
    forward edges of the code."""
    parent = {j: i for (i, j, *_r) in code if i < j}
    path = [max(parent)]
    while path[-1] in parent:
        path.append(parent[path[-1]])
    return tuple(path[::-1])


def reference_extensions(code, embeddings, adj, labels):
    """The rightmost-path extension walk as first written, on one graph. An
    embedding is a (vertex map, used graph edges) pair; a backward edge goes
    from the rightmost vertex to a rightmost-path vertex over a graph edge
    the embedding does not use yet, a forward edge from a rightmost-path
    vertex to an unmapped vertex."""
    path = rightmost_path(code)
    rm = path[-1]
    grouped: dict = {}
    for (vmap, used) in embeddings:
        u = vmap[rm]
        for (nbr, el) in adj[u]:
            step = frozenset((u, nbr))
            if nbr in vmap and vmap.index(nbr) in path[:-1] and step not in used:
                grouped.setdefault((rm, vmap.index(nbr), labels[u], el, labels[nbr]),
                                   []).append((vmap, used | {step}))
        for di in path:
            src = vmap[di]
            for (nbr, el) in adj[src]:
                if nbr not in vmap:
                    grouped.setdefault((di, rm + 1, labels[src], el, labels[nbr]),
                                       []).append((vmap + (nbr,), used | {frozenset((src, nbr))}))
    return grouped


def reference_is_min(code) -> bool:
    """The miner's minimality check as first written: materialize the code's
    graph through the validating `code_to_graph`, seed the walk from every
    edge in both orientations, and grow the minimal code by the extension
    that is smallest under `reference_edge_lt` until it departs from `code`
    or covers every edge. It shares nothing with the miner but
    `code_to_graph`."""
    graph = code_to_graph(code)
    adj, labels = graph.adjacency(), graph.vertex_labels
    grouped: dict = {}
    for (u, v, el) in graph.edges:
        for (x, y) in ((u, v), (v, u)):
            if labels[x] <= labels[y]:
                grouped.setdefault((0, 1, labels[x], el, labels[y]), []).append(
                    ((x, y), frozenset({frozenset((x, y))})))
    walk = ()
    while True:
        edge = min(grouped, key=reference_edge_key)
        walk += (edge,)
        if edge != code[len(walk) - 1] or len(walk) == graph.n_edges:
            return walk == code
        grouped = reference_extensions(walk, grouped[edge], adj, labels)


def reference_matrix_csv(matrix) -> str:
    """`footprints.csv` as first written: one formatted line per cell."""
    cells = tuple([f",{j},{v}" for j in range(matrix.n_patterns)] for v in (0, 1))
    lines = ["graph_id,pattern_id,present"]
    for i, row in enumerate(matrix.bits.astype(np.uint8).tolist()):
        graph = str(i)
        lines.extend([graph + cells[v][j] for j, v in enumerate(row)])
    return "\n".join(lines) + "\n"


def naive_kendall_tau(order_a, order_b):
    """O(s^2) concordant/discordant pair scan over two strict rankings."""
    ids = list(order_a)
    ra = {p: i for i, p in enumerate(order_a)}
    rb = {p: i for i, p in enumerate(order_b)}
    s = len(ids)
    total = 0
    for i in range(s):
        for j in range(i + 1, s):
            da = ra[ids[i]] - ra[ids[j]]
            db = rb[ids[i]] - rb[ids[j]]
            total += (1 if da * db > 0 else -1)
    return total / (s * (s - 1) / 2)


def reference_equivalence_blocks(rankings):
    """(blocks, min_tau) by a union-find over the pairwise min tau: measures
    m1 < m2 join when their tau is 1.0 on every dataset. Blocks and their
    members are in ascending name, as `rankcmp.equivalence_blocks` gives."""
    datasets = sorted(rankings)
    measures = sorted(rankings[datasets[0]])
    min_tau = {}
    parent = {m: m for m in measures}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, m1 in enumerate(measures):
        for m2 in measures[i + 1:]:
            t = min(kendall_tau(rankings[d][m1], rankings[d][m2]) for d in datasets)
            min_tau[(m1, m2)] = t
            if t == 1.0:
                parent[find(m1)] = find(m2)

    groups = {}
    for m in measures:
        groups.setdefault(find(m), []).append(m)
    blocks = tuple(sorted((tuple(sorted(g)) for g in groups.values()),
                          key=lambda blk: blk[0]))
    return blocks, min_tau


def naive_rbo(list_a, list_b, p, depth):
    """Term-by-term truncated RBO, normalized by the identical-prefix value."""
    raw = 0.0
    norm = 0.0
    for d in range(1, depth + 1):
        over = len(set(list_a[:d]) & set(list_b[:d]))
        raw += p ** (d - 1) * over / d
        norm += p ** (d - 1)
    return raw / norm


def naive_complete_linkage(dist):
    """O(p^3) reference agglomerator with the leaf-pair tie-break.

    dist: dict or 2D indexable of pairwise distances. Returns the merge list
    [(cluster_x, cluster_y, height, new_id)] using the same conventions as
    the clusterer: leaves 0..p-1, new clusters numbered from p; ties compare
    the clusters' smallest leaves.
    """
    p = len(dist)
    members = {i: frozenset([i]) for i in range(p)}
    next_id = p
    merges = []
    while len(members) > 1:
        best = None
        for x in sorted(members):
            for y in sorted(members):
                if x >= y:
                    continue
                h = max(dist[a][b] for a in members[x] for b in members[y])
                key = tuple(sorted((min(members[x]), min(members[y]))))
                cand = (h, key, x, y)
                if best is None or (cand[0], cand[1]) < (best[0], best[1]):
                    best = cand
        h, _key, x, y = best
        merges.append((x, y, h, next_id))
        members[next_id] = members.pop(x) | members.pop(y)
        next_id += 1
    return merges


def cut(dendrogram, threshold, distances):
    """Cut a dendrogram built over one leaf per pattern id, leaf i for id i:
    replay every merge with height <= threshold, and give each cluster the
    medoid that scanning its distances picks. Threshold 0 groups exactly the
    identical footprints."""
    members = {leaf: [leaf] for leaf in range(dendrogram.n_leaves)}
    for (x, y, h, new_id) in dendrogram.merges:
        if h <= threshold:
            members[new_id] = members.pop(x) + members.pop(y)
    clusters = sorted(tuple(sorted(leaves)) for leaves in members.values())
    return ClusterCut(clusters=tuple(clusters), threshold=threshold,
                      representatives=medoids(clusters, distances))


def medoids(clusters, distances):
    """Per cluster, the member minimizing the total distance to the others,
    summed pair by pair over the rows of `distances` (pattern id i is row
    i); ties by ascending pattern id."""

    def total(cluster, pid):
        return sum(int(distances[pid][other]) for other in cluster)

    return tuple(min(sorted(cluster), key=lambda pid: total(cluster, pid))
                 for cluster in clusters)


def random_graph(rng, n_vertices, edge_prob, n_vlabels, n_elabels, graph_id=0,
                 class_label=None):
    vlabels = tuple(rng.randrange(n_vlabels) for _ in range(n_vertices))
    edges = []
    for u in range(n_vertices):
        for v in range(u + 1, n_vertices):
            if rng.random() < edge_prob:
                edges.append((u, v, rng.randrange(n_elabels)))
    return AttributedGraph(graph_id, vlabels, tuple(edges), class_label)


def write_tudataset(dataset: GraphDataset, directory: Path, name: str) -> None:
    """Write `dataset` as `<name>_A.txt`, `_graph_indicator`, `_graph_labels`
    (1 = positive, 0 = negative), `_node_labels` and `_edge_labels`: 1-based
    node ids, both directions of every edge, one edge label per direction."""
    adjacency, edge_labels, indicator, node_labels = [], [], [], []
    for g in dataset:
        first = len(indicator) + 1  # global id of the graph's vertex 0
        indicator += [g.graph_id + 1] * g.n_vertices
        node_labels += g.vertex_labels
        for (u, v, el) in g.edges:
            adjacency += [f"{first + u}, {first + v}", f"{first + v}, {first + u}"]
            edge_labels += [el, el]
    files = {"A": adjacency, "graph_indicator": indicator,
             "graph_labels": [1 if g.class_label == POSITIVE else 0 for g in dataset],
             "node_labels": node_labels, "edge_labels": edge_labels}
    directory.mkdir(parents=True, exist_ok=True)
    for suffix, rows in files.items():
        (directory / f"{name}_{suffix}.txt").write_text("".join(f"{r}\n" for r in rows))


def perfbench_module(name: str):
    """`perfbench/<name>.py`, loaded by path (perfbench is not a package)."""
    path = Path(__file__).parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def molecule_like_text(seed: int, n_graphs: int) -> str:
    """The SPMF text of the benchmark's generated dataset."""
    return perfbench_module("generate").molecule_like(seed, n_graphs)


def _reference_objective(z, y, v, lam):
    margins = y * (z @ v)
    hinge = np.maximum(0.0, 1.0 - margins)
    return float(0.5 * lam * (v @ v) + hinge.mean())


def reference_train(x, y, c=1.0):
    """Subgradient SVM on one training set, one epoch at a time, with the
    objective recomputed from fresh margins; returns (weights, bias, trace).
    It trains on a row-major copy of `x`: BLAS sums follow the memory layout
    they are given, so the trace would otherwise depend on it."""
    x = np.ascontiguousarray(x)
    y = np.asarray(y, dtype=np.float64)
    n, d = x.shape
    lam = 1.0 / (c * n)
    z = np.hstack([x, np.ones((n, 1))])
    v = np.zeros(d + 1)
    best_v = v.copy()
    best_obj = _reference_objective(z, y, v, lam)
    trace = [best_obj]
    for t in range(1, EPOCHS + 1):
        eta = 1.0 / (lam * t)
        margins = y * (z @ v)
        viol = margins < 1.0
        grad = lam * v - (z[viol].T @ y[viol]) / n
        v = v - eta * grad
        obj = _reference_objective(z, y, v, lam)
        if obj < best_obj:
            best_obj = obj
            best_v = v.copy()
        trace.append(best_obj)
    return best_v[:d], float(best_v[d]), tuple(trace)


def predict(model: LinearModel, x: np.ndarray) -> np.ndarray:
    """Labels sign(w.x + b); the sign of 0 is positive by convention."""
    if x.shape[1] != model.weights.shape[0]:
        raise ClassifyError("feature dimension mismatch")
    return np.where(x @ model.weights + model.bias >= 0.0, 1, -1)


def prf1(predicted, truth) -> tuple[float, float, float]:
    """Precision/recall/F1 on the positive class; 0/0 cases yield 0."""
    pred = np.asarray(predicted)
    true = np.asarray(truth)
    if pred.shape != true.shape:
        raise ClassifyError("prediction/truth length mismatch")
    tp = int(((pred == 1) & (true == 1)).sum())
    fp = int(((pred == 1) & (true == -1)).sum())
    fn = int(((pred == -1) & (true == 1)).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)) if precision + recall else 0.0
    return precision, recall, f1


def reference_cross_validate(x, y, k=5, c=1.0, seed=0):
    """Stratified k-fold CV that trains each fold on its own."""
    folds = stratified_folds(y.tolist(), k, seed)
    ps, rs, fs = [], [], []
    for fold in folds:
        mask = np.ones(len(y), dtype=bool)
        mask[fold] = False
        weights, bias, _trace = reference_train(x[mask], y[mask], c=c)
        pred = np.where(x[fold] @ weights + bias >= 0.0, 1, -1)
        p, r, f = prf1(pred, y[fold])
        ps.append(p)
        rs.append(r)
        fs.append(f)
    return EvalReport(
        precision=float(np.mean(ps)), recall=float(np.mean(rs)),
        f1=float(np.mean(fs)), k=k,
        fold_precision=tuple(ps), fold_recall=tuple(rs), fold_f1=tuple(fs))


def reference_sampled_shapley(ids, f, n_permutations, seed):
    """Permutation-sampling Shapley that walks each seeded permutation and
    calls f on each prefix as it grows; returns (values, std_error)."""
    rng = random.Random(seed)
    sums = {pid: 0.0 for pid in ids}
    sqsums = {pid: 0.0 for pid in ids}
    for _ in range(n_permutations):
        order = list(ids)
        rng.shuffle(order)
        prefix = set()
        prev = float(f(frozenset()))
        for pid in order:
            prefix.add(pid)
            cur = float(f(frozenset(prefix)))
            marginal = cur - prev
            sums[pid] += marginal
            sqsums[pid] += marginal * marginal
            prev = cur
    values = {pid: sums[pid] / n_permutations for pid in ids}
    std_error = {}
    for pid in ids:
        if n_permutations > 1:
            var = (sqsums[pid] - n_permutations * values[pid] ** 2) / (n_permutations - 1)
            std_error[pid] = math.sqrt(max(0.0, var) / n_permutations)
        else:
            std_error[pid] = float("inf")
    return values, std_error


def batch(game):
    """The batch form of a one-subset game, as CachedCharacteristic takes it."""
    return lambda subsets: [game(s) for s in subsets]


def uncached(game):
    """A characteristic without a cache: `many` calls the game once per
    subset it is given, the empty one included."""
    return SimpleNamespace(many=batch(game))


@dataclass(frozen=True)
class RankingPair:
    """Two rankings under comparison. Tau requires a shared universe; RBO
    accepts different id sets."""

    ranking_a: Sequence
    ranking_b: Sequence

    @property
    def shared_universe(self) -> bool:
        return set(_ids(self.ranking_a)) == set(_ids(self.ranking_b))

    def tau(self) -> float:
        return kendall_tau(self.ranking_a, self.ranking_b)

    def rbo(self, p: float = 0.9, depth: int | None = None) -> float:
        return rbo(self.ranking_a, self.ranking_b, p=p, depth=depth)


def rbo_raw(ranking_a, ranking_b, p: float, depth: int) -> float:
    """Un-normalized truncated sum (1-p) * sum p^(d-1) * overlap/d."""
    if not (0.0 < p < 1.0):
        raise RankCmpError("p must be in (0, 1)")
    a = _ids(ranking_a)
    b = _ids(ranking_b)
    total = 0.0
    for d in range(1, depth + 1):
        over = len(set(a[:d]) & set(b[:d]))
        total += p ** (d - 1) * over / d
    return (1 - p) * total


def rbo_prefix_monotonicity_check(base, extension, p: float) -> bool:
    """True iff the un-normalized RBO' never decreases with depth when one
    ranking is a prefix of the other.

    RBO'(s+1) - RBO'(s) = (1-p) p^s overlap(s+1)/(s+1), accumulated
    incrementally; overlaps are non-negative, so any decrease is a bug.
    """
    b = _ids(base)
    e = _ids(extension)
    if e[:len(b)] != b:
        raise RankCmpError("extension must extend base")
    seen_b: set = set()
    seen_e: set = set()
    overlap = 0
    raw = 0.0
    prev = -1.0
    weight = 1.0
    for d in range(1, len(e) + 1):
        fresh = set()
        if d <= len(b):
            seen_b.add(b[d - 1])
            fresh.add(b[d - 1])
        seen_e.add(e[d - 1])
        fresh.add(e[d - 1])
        for el in fresh:
            if el in seen_b and el in seen_e:
                overlap += 1
        raw += (1 - p) * weight * overlap / d
        weight *= p
        if raw < prev - 1e-15:
            return False
        prev = raw
    return True


def _reference_report(measure, prop, violation):
    if violation is None:
        return PropertyReport(measure, prop, True, None, None)
    c1, c2, s1, s2 = violation
    return PropertyReport(measure, prop, False, (c1, c2), (s1, s2))


def reference_row_check(raw, measure, prop, n, rows):
    """A falling or rising property over hand-made rows of (a, b) keys,
    every pair i < j of a row compared on the effective scale, each row
    scored whole before its pairs. The first violating pair in row order,
    then (i, j) order, is the counterexample, the key expected to score
    higher first."""
    falls = prop == "Contrastivity"
    for row in rows:
        effs = [effective(measure, raw(ab)) for ab in row]
        for i in range(len(row)):
            for j in range(i + 1, len(row)):
                hi, lo = (i, j) if falls else (j, i)
                if not effs[hi] > effs[lo]:
                    return _reference_report(
                        measure, prop, (ContingencyCounts(*row[hi], n, n),
                                        ContingencyCounts(*row[lo], n, n),
                                        effs[hi], effs[lo]))
    return _reference_report(measure, prop, None)


def reference_contrastivity(measure, n):
    if n < 2:
        raise ValueError("n must be >= 2")
    for a in range(1, n):
        effs = [effective_score(measure, ContingencyCounts(a, b, n, n))
                for b in range(n + 1)]
        for b in range(n + 1):
            for b2 in range(b + 1, n + 1):
                if not effs[b] > effs[b2]:
                    return _reference_report(measure, "Contrastivity",
                                             (ContingencyCounts(a, b, n, n),
                                              ContingencyCounts(a, b2, n, n),
                                              effs[b], effs[b2]))
    return _reference_report(measure, "Contrastivity", None)


def reference_jumpiness(measure, n):
    if n < 2:
        raise ValueError("n must be >= 2")
    effs = {a: effective_score(measure, ContingencyCounts(a, 0, n, n))
            for a in range(1, n + 1)}
    for a2 in range(1, n + 1):
        for a in range(a2 + 1, n + 1):
            if not effs[a] > effs[a2]:
                return _reference_report(measure, "Jumpiness",
                                         (ContingencyCounts(a, 0, n, n),
                                          ContingencyCounts(a2, 0, n, n),
                                          effs[a], effs[a2]))
    return _reference_report(measure, "Jumpiness", None)


def reference_class_symmetry(measure, n):
    for a in range(n + 1):
        for b in range(n + 1):
            if a + b == 0:
                continue
            s1 = score(measure, ContingencyCounts(a, b, n, n))
            s2 = score(measure, ContingencyCounts(b, a, n, n))
            if s1 != s2:
                return _reference_report(measure, "ClassSymmetry",
                                         (ContingencyCounts(a, b, n, n),
                                          ContingencyCounts(b, a, n, n), s1, s2))
    return _reference_report(measure, "ClassSymmetry", None)


def reference_pattern_symmetry(measure, n):
    for a in range(n + 1):
        for b in range(n + 1):
            if not (1 <= a + b <= 2 * n - 1):
                continue
            s1 = score(measure, ContingencyCounts(a, b, n, n))
            s2 = score(measure, ContingencyCounts(n - a, n - b, n, n))
            if s1 != s2:
                return _reference_report(measure, "PatternSymmetry",
                                         (ContingencyCounts(a, b, n, n),
                                          ContingencyCounts(n - a, n - b, n, n),
                                          s1, s2))
    return _reference_report(measure, "PatternSymmetry", None)


def reference_ps2(measure, n):
    for t in range(1, 2 * n + 1):
        lo = max(0, t - n)
        hi = min(n, t)
        effs = {a: effective_score(measure, ContingencyCounts(a, t - a, n, n))
                for a in range(lo, hi + 1)}
        for a2 in range(lo, hi + 1):
            for a in range(a2 + 1, hi + 1):
                if not effs[a] > effs[a2]:
                    return _reference_report(measure, "PS2",
                                             (ContingencyCounts(a, t - a, n, n),
                                              ContingencyCounts(a2, t - a2, n, n),
                                              effs[a], effs[a2]))
    return _reference_report(measure, "PS2", None)


def reference_property_matrix(n, measures=None):
    """Every (measure, property) verdict, each check scoring its operands
    with fresh `score`/`effective_score` calls."""
    checks = (reference_contrastivity, reference_jumpiness,
              reference_class_symmetry, reference_pattern_symmetry)
    measures = list(measures) if measures is not None else list(MEASURE_NAMES)
    return [check(m, n) for m in measures for check in checks]


def check(measure, prop, n):
    """One property verdict of one measure, through the checker
    `property_matrix` walks, with a fresh table and score for every (a, b)
    key the check reads."""
    formula = scorer(measure, prob_kit)
    return _check(lambda ab: formula(ContingencyCounts(*ab, n, n)), measure, prop, n,
                  _PROPERTY_TABLE[prop][1](n))


def recheck_counterexample(report: PropertyReport) -> bool:
    """Re-evaluate a false verdict's counterexample; True iff it still
    violates the property."""
    if report.holds or report.counterexample is None:
        return False
    c1, c2 = report.counterexample
    if _PROPERTY_TABLE[report.property][0] == "invariant":
        return score(report.measure, c1) != score(report.measure, c2)
    return not (effective_score(report.measure, c1)
                > effective_score(report.measure, c2))


def check_independence_equilibrium(n: int) -> bool:
    """Independence (p(P, pos) = p(P) p(pos)) and equilibrium
    (p(pos|P) = p(neg|P)) coincide on every balanced table."""
    for a in range(n + 1):
        for b in range(n + 1):
            if a + b == 0:
                continue
            independent = Fraction(a, 2 * n) == Fraction(a + b, 2 * n) * Fraction(1, 2)
            equilibrium = Fraction(a, a + b) == Fraction(b, a + b)
            if independent != equilibrium:
                return False
    return True


def check_ps2_exclusivity(n: int) -> list[tuple[str, bool, bool]]:
    """Per measure: (name, PS2 holds, Class Symmetry holds). No measure may
    have both."""
    return [(m, check(m, "PS2", n).holds, check(m, "ClassSymmetry", n).holds)
            for m in MEASURE_NAMES]


def reference_rank(measure, matrix, pattern_ids):
    ids = list(pattern_ids)
    effs = {pid: effective_score(measure, contingency(matrix, pid)) for pid in ids}
    order = sorted(ids, key=lambda pid: (-effs[pid], pid))
    return Ranking(tuple(order), tuple(effs[pid] for pid in order))


def reference_scores_csv(matrix, pattern_ids, measures):
    """The score table with one `score` and one `effective_score` call per
    (pattern, measure) cell."""
    def fmt(x):
        return {math.inf: "inf", -math.inf: "-inf"}.get(x, repr(x))

    lines = ["pattern_id,measure,raw_score,effective_score,rank"]
    for m in measures:
        ranking = reference_rank(m, matrix, pattern_ids)
        pos = {pid: r for r, pid in enumerate(ranking.pattern_ids, start=1)}
        for pid in pattern_ids:
            c = contingency(matrix, pid)
            lines.append(f"{pid},{m},{fmt(score(m, c))},"
                         f"{fmt(effective_score(m, c))},{pos[pid]}")
    return "\n".join(lines) + "\n"
