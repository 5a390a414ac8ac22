"""Independent brute-force oracles used to validate the fast implementations.

Everything here is deliberately naive: permutation search for isomorphism,
exhaustive edge-subset enumeration for subgraph classes, O(s^2) pair scans
for rank correlation, an O(p^3) reference agglomerator, and the one-fold-
at-a-time SVM trainer and cross-validation loop, the one-coalition-at-a-time
permutation-sampling Shapley loop, and the property checks,
ranking and score table that score every operand with a fresh call. The RBO
checks used only by tests (un-normalized RBO, prefix monotonicity) and
`RankingPair` live here too.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

import numpy as np

from patclass.classify import EPOCHS, EvalReport, prf1, stratified_folds
from patclass.footprints import ContingencyCounts, contingency
from patclass.graphdata import AttributedGraph
from patclass.measures import MEASURE_NAMES, Ranking, effective_score, score
from patclass.properties import PropertyReport
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


def _reference_report(measure, prop, n, violation):
    if violation is None:
        return PropertyReport(measure, prop, True, None, None, n)
    c1, c2, s1, s2 = violation
    return PropertyReport(measure, prop, False, (c1, c2), (s1, s2), n)


def reference_contrastivity(measure, n):
    if n < 2:
        raise ValueError("n must be >= 2")
    for a in range(1, n):
        effs = [effective_score(measure, ContingencyCounts(a, b, n, n))
                for b in range(n + 1)]
        for b in range(n + 1):
            for b2 in range(b + 1, n + 1):
                if not effs[b] > effs[b2]:
                    return _reference_report(measure, "Contrastivity", n,
                                             (ContingencyCounts(a, b, n, n),
                                              ContingencyCounts(a, b2, n, n),
                                              effs[b], effs[b2]))
    return _reference_report(measure, "Contrastivity", n, None)


def reference_jumpiness(measure, n):
    if n < 2:
        raise ValueError("n must be >= 2")
    effs = {a: effective_score(measure, ContingencyCounts(a, 0, n, n))
            for a in range(1, n + 1)}
    for a2 in range(1, n + 1):
        for a in range(a2 + 1, n + 1):
            if not effs[a] > effs[a2]:
                return _reference_report(measure, "Jumpiness", n,
                                         (ContingencyCounts(a, 0, n, n),
                                          ContingencyCounts(a2, 0, n, n),
                                          effs[a], effs[a2]))
    return _reference_report(measure, "Jumpiness", n, None)


def reference_class_symmetry(measure, n):
    for a in range(n + 1):
        for b in range(n + 1):
            if a + b == 0:
                continue
            s1 = score(measure, ContingencyCounts(a, b, n, n))
            s2 = score(measure, ContingencyCounts(b, a, n, n))
            if s1 != s2:
                return _reference_report(measure, "ClassSymmetry", n,
                                         (ContingencyCounts(a, b, n, n),
                                          ContingencyCounts(b, a, n, n), s1, s2))
    return _reference_report(measure, "ClassSymmetry", n, None)


def reference_pattern_symmetry(measure, n):
    for a in range(n + 1):
        for b in range(n + 1):
            if not (1 <= a + b <= 2 * n - 1):
                continue
            s1 = score(measure, ContingencyCounts(a, b, n, n))
            s2 = score(measure, ContingencyCounts(n - a, n - b, n, n))
            if s1 != s2:
                return _reference_report(measure, "PatternSymmetry", n,
                                         (ContingencyCounts(a, b, n, n),
                                          ContingencyCounts(n - a, n - b, n, n),
                                          s1, s2))
    return _reference_report(measure, "PatternSymmetry", n, None)


def reference_property_matrix(n, measures=None):
    """Every (measure, property) verdict, each check scoring its operands
    with fresh `score`/`effective_score` calls."""
    checks = (reference_contrastivity, reference_jumpiness,
              reference_class_symmetry, reference_pattern_symmetry)
    measures = list(measures) if measures is not None else list(MEASURE_NAMES)
    return [check(m, n) for m in measures for check in checks]


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
