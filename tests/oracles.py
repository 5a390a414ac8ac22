"""Independent brute-force oracles used to validate the fast implementations.

Everything here is deliberately naive: permutation search for isomorphism,
exhaustive edge-subset enumeration for subgraph classes, O(s^2) pair scans
for rank correlation, an O(p^3) reference agglomerator, and the one-fold-
at-a-time SVM trainer and cross-validation loop.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from patclass.classify import EPOCHS, EvalReport, prf1, stratified_folds
from patclass.graphdata import AttributedGraph


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


def naive_rbo(list_a, list_b, p, depth):
    """Term-by-term truncated RBO, normalized by the identical-prefix value."""
    raw = 0.0
    norm = 0.0
    for d in range(1, depth + 1):
        over = len(set(list_a[:d]) & set(list_b[:d]))
        raw += p ** (d - 1) * over / d
        norm += p ** (d - 1)
    return raw / norm


def naive_complete_linkage(dist, ids=None):
    """O(p^3) reference agglomerator with the id-pair tie-break.

    dist: dict or 2D indexable of pairwise distances. Returns the merge list
    [(cluster_x, cluster_y, height, new_id)] using the same conventions as
    the clusterer: leaves 0..p-1, new clusters numbered from p. ids[i] is
    the pattern id of leaf i (default: i); ties compare the clusters'
    smallest pattern ids.
    """
    p = len(dist)
    if ids is None:
        ids = range(p)
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
                key = tuple(sorted((min(ids[i] for i in members[x]),
                                    min(ids[i] for i in members[y]))))
                cand = (h, key, x, y)
                if best is None or (cand[0], cand[1]) < (best[0], best[1]):
                    best = cand
        h, _key, x, y = best
        merges.append((x, y, h, next_id))
        members[next_id] = members.pop(x) | members.pop(y)
        next_id += 1
    return merges


def random_graph(rng, n_vertices, edge_prob, n_vlabels, n_elabels, graph_id=0,
                 class_label=None):
    vlabels = tuple(rng.randrange(n_vlabels) for _ in range(n_vertices))
    edges = []
    for u in range(n_vertices):
        for v in range(u + 1, n_vertices):
            if rng.random() < edge_prob:
                edges.append((u, v, rng.randrange(n_elabels)))
    return AttributedGraph(graph_id, vlabels, tuple(edges), class_label)


def _reference_objective(z, y, v, lam):
    margins = y * (z @ v)
    hinge = np.maximum(0.0, 1.0 - margins)
    return float(0.5 * lam * (v @ v) + hinge.mean())


def reference_train(x, y, c=1.0):
    """Subgradient SVM on one training set, one epoch at a time, with the
    objective recomputed from fresh margins; returns (weights, bias, trace)."""
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
