import hashlib
import random
from functools import cmp_to_key
from inspect import signature

import pytest

from patclass import miner
from patclass.graphdata import (AttributedGraph, GraphDataset, StructuralError,
                                parse_spmf)
from patclass.miner import (MinerError, canonical_code, code_to_graph,
                            export_patterns, mine_frequent)

from oracles import (brute_force_contains, brute_force_isomorphic,
                     connected_subgraph_classes, contains, graph_canonical_form,
                     graph_support, import_patterns, molecule_like_text,
                     random_graph, reference_edge_lt, reference_is_min,
                     rightmost_path)


def molecule_like(seed, n_graphs):
    """The benchmark's generated dataset, parsed."""
    return parse_spmf(molecule_like_text(seed, n_graphs))


def triangle(labels=(0, 0, 0), elabels=(0, 0, 0), gid=0, cls=None):
    return AttributedGraph(gid, labels,
                           ((0, 1, elabels[0]), (0, 2, elabels[1]), (1, 2, elabels[2])),
                           cls)


def path3(labels=(0, 1, 2), elabels=(0, 0), gid=0):
    return AttributedGraph(gid, labels, ((0, 1, elabels[0]), (1, 2, elabels[1])), None)


class TestCanonicalCode:
    def test_triangle_orderings_equal(self):
        g1 = AttributedGraph(0, (1, 2, 3), ((0, 1, 0), (0, 2, 1), (1, 2, 2)), None)
        # relabel vertices 0->2, 1->0, 2->1
        g2 = AttributedGraph(0, (2, 3, 1), ((0, 1, 2), (0, 2, 0), (1, 2, 1)), None)
        assert canonical_code(g1) == canonical_code(g2)

    def test_path_reversal_equal(self):
        g1 = AttributedGraph(0, (0, 1, 2), ((0, 1, 5), (1, 2, 7)), None)
        g2 = AttributedGraph(0, (2, 1, 0), ((0, 1, 7), (1, 2, 5)), None)
        assert canonical_code(g1) == canonical_code(g2)

    def test_disconnected_errors(self):
        g = AttributedGraph(0, (0, 0, 0, 0), ((0, 1, 0), (2, 3, 0)), None)
        with pytest.raises(StructuralError):
            canonical_code(g)

    def test_edgeless_errors(self):
        with pytest.raises(MinerError):
            canonical_code(AttributedGraph(0, (0,), (), None))

    def test_code_roundtrip(self):
        g = triangle((0, 1, 1), (2, 0, 1))
        code = canonical_code(g)
        assert brute_force_isomorphic(code_to_graph(code), g)

    def test_codes_partition_three_edge_graphs(self):
        # All connected graphs with exactly 3 edges over 2 vertex labels:
        # enumerate as connected subgraphs of small dense hosts, then check the
        # code partition matches the brute-force isomorphism classes.
        rng = random.Random(7)
        reps = {}
        for _ in range(40):
            host = random_graph(rng, 5, 0.7, 2, 2)
            for form, sub in connected_subgraph_classes(host, max_edges=3).items():
                if sub.n_edges == 3:
                    reps.setdefault(form, sub)
        graphs = list(reps.values())
        assert len(graphs) > 5
        for i, gi in enumerate(graphs):
            for gj in graphs[i + 1:]:
                same_code = canonical_code(gi) == canonical_code(gj)
                assert same_code == brute_force_isomorphic(gi, gj)

    def test_random_pairs_against_oracle(self):
        rng = random.Random(3)
        pool = []
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 5), 0.6, 2, 2)
            sub = connected_subgraph_classes(g)
            pool.extend(sub.values())
        rng.shuffle(pool)
        pool = pool[:40]
        for i in range(0, len(pool) - 1, 2):
            g1, g2 = pool[i], pool[i + 1]
            assert (canonical_code(g1) == canonical_code(g2)) == \
                brute_force_isomorphic(g1, g2)


class TestEdgeOrder:
    def test_tuple_key_matches_reference_order(self, monkeypatch):
        """Every extension set that mining a molecule-like dataset orders, and
        its seed set, sorts the same under the tuple key as under the pairwise
        DFS-edge comparison."""
        ds = molecule_like(1, 40)

        seeds = set()
        for g in ds:
            for (u, v, el) in g.edges:
                lu, lv = sorted((g.vertex_labels[u], g.vertex_labels[v]))
                seeds.add((0, 1, lu, el, lv))
        edge_sets = [list(seeds)]
        real = miner._extensions

        def recording(*args, **kwargs):
            grouped = real(*args, **kwargs)
            # a bounded call returns at most the bound's group: no ordering
            if signature(real).bind(*args, **kwargs).arguments.get("bound") is None:
                edge_sets.append(list(grouped))
            return grouped

        monkeypatch.setattr(miner, "_extensions", recording)
        mine_frequent(ds, min_support=4, max_edges=4)
        assert len(edge_sets) > 100
        assert any(e[0] > e[1] for edges in edge_sets for e in edges)  # backward

        def cmp(e1, e2):
            return -1 if reference_edge_lt(e1, e2) else int(reference_edge_lt(e2, e1))

        for edges in edge_sets:
            assert (sorted(edges, key=miner._edge_key)
                    == sorted(edges, key=cmp_to_key(cmp))), edges


class TestMinimality:
    def test_early_exit_agrees_with_full_canonical_code(self):
        """Every node of the rightmost-path extension tree of a few hosts, up
        to 4 edges, is minimal under the early-exit check exactly when it
        equals the canonical code of its graph. A node that the first-edge
        rule drops has a canonical code with a smaller first edge."""
        rng = random.Random(13)
        outcomes = set()
        early = dropped = 0
        for gid in range(4):
            host = random_graph(rng, 6, 0.5, 2, 2, graph_id=gid)
            hosts = miner._hosts([host])
            stack = [((edge,), embs) for edge, embs in miner._seeds(hosts).items()]
            while stack:
                code, embs = stack.pop()
                is_min = miner._is_min(code)
                canonical = canonical_code(code_to_graph(code))
                assert is_min == (code == canonical), code
                if miner._below_first(code[:-1], code[-1]):
                    dropped += 1
                    assert canonical[0] < code[0], code
                outcomes.add(is_min)
                early += len(miner._min_code(miner._code_host(code), stop=code)) < len(code)
                if len(code) < 4:
                    grouped = miner._extensions(code, embs, hosts, rightmost_path(code))
                    stack.extend((code + (edge,), e) for edge, e in grouped.items())
        assert outcomes == {True, False}
        assert early > 0 and dropped > 0

    def test_bounded_check_agrees_with_the_oracle_to_six_edges(self):
        """Every node of the unpruned rightmost-path extension tree, up to 6
        edges, of three molecule-like graphs and an all-equal-label host
        (symmetric first edges, seeded in both orientations): _is_min equals
        the independent oracle. Accepted codes, codes rejected at the first
        edge and codes rejected by a smaller later edge all occur."""
        equal = AttributedGraph(0, (0,) * 5, ((0, 1, 0), (0, 4, 0), (1, 2, 0),
                                              (1, 3, 0), (2, 3, 0), (3, 4, 0)), None)
        outcomes = set()
        for host in list(molecule_like(1, 3)) + [equal]:
            hosts = miner._hosts([host])
            stack = [((edge,), embs) for edge, embs in miner._seeds(hosts).items()]
            while stack:
                code, embs = stack.pop()
                is_min = miner._is_min(code)
                assert is_min == reference_is_min(code), code
                agreed = len(miner._min_code(miner._code_host(code), stop=code))
                outcome = "accepted" if is_min else "first" if agreed == 0 else "later"
                outcomes.add((outcome, host is equal))
                if len(code) < 6:
                    grouped = miner._extensions(code, embs, hosts, rightmost_path(code))
                    stack.extend((code + (edge,), e) for edge, e in grouped.items())
        # on the all-equal host every label triple ties, so nothing is
        # rejected at its first edge
        assert outcomes == {("accepted", False), ("first", False), ("later", False),
                            ("accepted", True), ("later", True)}


class TestFirstEdgePruning:
    """The search drops a frequent child whose new edge, as a single-edge
    code, sorts before the child's first edge. Only non-minimal codes are
    dropped (on small hosts: TestMinimality), none of them reaches the
    minimality check, and the output is the one of the search without the
    rule."""

    @staticmethod
    def mine_recording(monkeypatch, ds, **caps):
        """The mined set, the children dropped by the rule and the codes
        that reached _is_min."""
        dropped, checked = [], []
        below, is_min = miner._below_first, miner._is_min

        def recording(code, edge):
            if below(code, edge):
                dropped.append(code + (edge,))
                return True
            return False

        def counting(code):
            checked.append(code)
            return is_min(code)

        monkeypatch.setattr(miner, "_below_first", recording)
        monkeypatch.setattr(miner, "_is_min", counting)
        return mine_frequent(ds, **caps), dropped, checked

    def test_dropped_children_are_not_minimal_on_molecule_like_data(self, monkeypatch):
        ds = molecule_like(1, 60)
        _mined, dropped, _checked = self.mine_recording(
            monkeypatch, ds, min_support=3, max_edges=5)
        assert len(dropped) > 50
        for child in dropped:
            assert canonical_code(code_to_graph(child))[0] < child[0], child
            assert not reference_is_min(child)

    def test_no_dropped_child_reaches_the_minimality_check(self, monkeypatch):
        ds = molecule_like(2, 80)
        mined, dropped, checked = self.mine_recording(
            monkeypatch, ds, min_support=3, max_edges=5)
        assert dropped and not set(dropped) & set(checked)
        # without the rule, the dropped children pop and fail the check, on
        # top of the codes checked with it
        monkeypatch.setattr(miner, "_below_first", lambda code, edge: False)
        n_checked = len(checked)
        checked.clear()
        assert mine_frequent(ds, min_support=3, max_edges=5) == mined
        assert set(dropped) <= set(checked)
        assert len(checked) == n_checked + len(dropped)

    # graphs, min_support, max_patterns, max_edges
    CONFIGS = [(150, 3, 600, 6), (100, 6, None, 6), (150, 2, None, 4),
               (60, 2, None, None), (188, 5, None, None), (120, 4, 300, None)]

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: "/".join(
        "-" if v is None else str(v) for v in c))
    def test_same_pattern_set_as_the_search_without_pruning(self, monkeypatch,
                                                           config, seed):
        """Codes, order, graph ids and the truncated flag equal those of the
        search as first written: no first-edge rule, and the minimality
        check through a validated graph."""
        n, min_support, max_patterns, max_edges = config
        ds = molecule_like(seed, n)
        caps = dict(min_support=min_support, max_patterns=max_patterns,
                    max_edges=max_edges)
        got = mine_frequent(ds, **caps)
        monkeypatch.setattr(miner, "_below_first", lambda code, edge: False)
        monkeypatch.setattr(miner, "_is_min", reference_is_min)
        assert got == mine_frequent(ds, **caps)


class TestContains:
    def test_single_edge_present(self):
        pat = AttributedGraph(0, (1, 2), ((0, 1, 3),), None)
        g = AttributedGraph(0, (2, 1, 0), ((0, 1, 3), (1, 2, 0)), None)
        assert contains(pat, g)

    def test_absent_label(self):
        pat = AttributedGraph(0, (9, 9), ((0, 1, 0),), None)
        g = triangle()
        assert not contains(pat, g)

    def test_path_vs_star_matches_oracle(self):
        star = AttributedGraph(0, (0, 1, 1, 2), ((0, 1, 0), (0, 2, 0), (0, 3, 0)), None)
        for labs in [(1, 0, 1), (1, 0, 2), (1, 1, 2), (0, 1, 0)]:
            pat = path3(labs)
            assert contains(pat, star) == brute_force_contains(pat, star)

    def test_random_against_oracle(self):
        rng = random.Random(11)
        for _ in range(120):
            g = random_graph(rng, rng.randint(3, 6), 0.5, 2, 2)
            p = random_graph(rng, rng.randint(2, 4), 0.7, 2, 2)
            if not p.edges:
                continue
            assert contains(p, g) == brute_force_contains(p, g)


class TestMineFrequent:
    def test_triangle_yields_three_patterns(self):
        ds = GraphDataset((triangle(),))
        ps = mine_frequent(ds, min_support=1)
        assert len(ps) == 3
        sizes = sorted((p.n_vertices, p.n_edges) for p in ps)
        assert sizes == [(2, 1), (3, 2), (3, 3)]

    def test_sizes_are_read_from_the_code(self):
        p = miner.Pattern(0, ((0, 1, 0, 0, 1),), (0,))
        assert (p.n_vertices, p.n_edges, p.support) == (2, 1, 1)
        # TestFirstEdgePruning's first configuration: 600 patterns, <= 6 edges
        mined = mine_frequent(molecule_like(1, 150), min_support=3,
                              max_patterns=600, max_edges=6)
        assert len(mined) == 600
        for p in mined:
            g = code_to_graph(p.code)
            assert (p.n_vertices, p.n_edges) == (g.n_vertices, g.n_edges), p.code

    def test_min_support_above_n_empty(self):
        ds = GraphDataset((triangle(),))
        assert len(mine_frequent(ds, min_support=2)) == 0

    def test_min_support_validation(self):
        with pytest.raises(MinerError):
            mine_frequent(GraphDataset((triangle(),)), min_support=0)

    @pytest.mark.parametrize("caps", [{"max_patterns": 0}, {"max_patterns": -1},
                                      {"max_edges": 0}, {"max_edges": -2}])
    def test_cap_validation(self, caps):
        with pytest.raises(MinerError):
            mine_frequent(GraphDataset((triangle(),)), min_support=1, **caps)

    def test_max_edges_cap(self):
        ds = GraphDataset((triangle(),))
        for max_edges in (1, 2):
            ps = mine_frequent(ds, min_support=1, max_edges=max_edges)
            assert sorted(p.n_edges for p in ps) == list(range(1, max_edges + 1))

    def test_max_patterns_truncates_deterministically(self):
        rng = random.Random(5)
        ds = GraphDataset(tuple(random_graph(rng, 5, 0.6, 2, 1, graph_id=i)
                                for i in range(4)))
        full = mine_frequent(ds, min_support=1)
        cut = mine_frequent(ds, min_support=1, max_patterns=4)
        assert cut.truncated and not full.truncated
        assert [p.code for p in cut] == [p.code for p in full][:4]
        # the flag means the cap was reached, even when nothing was left
        assert mine_frequent(ds, min_support=1, max_patterns=len(full)).truncated

    def test_support_counts_graphs_not_embeddings(self):
        """The search skips a group with fewer embeddings than min_support
        before counting its graphs, and keeps or drops by the graph count.
        Graph 0 is a 0-labelled centre with two 1-labelled leaves and one
        2-labelled leaf, graph 1 the centre with one leaf of each."""
        star = AttributedGraph(0, (0, 1, 1, 2), ((0, 1, 0), (0, 2, 0), (0, 3, 0)), None)
        fork = AttributedGraph(1, (0, 1, 2), ((0, 1, 0), (0, 2, 0)), None)
        ds = GraphDataset((star, fork))
        first = (0, 1, 0, 0, 1)
        hosts = miner._hosts(ds)
        grouped = miner._extensions((first,), miner._seeds(hosts)[first], hosts, (0, 1))
        kept, dropped = (0, 2, 0, 0, 2), (0, 2, 0, 0, 1)
        # three embeddings in two graphs, two embeddings in one graph
        assert [gid for gid, _vmap in grouped[kept]] == [0, 0, 1]
        assert [gid for gid, _vmap in grouped[dropped]] == [0, 0]
        mined = {p.code: p.graph_ids for p in mine_frequent(ds, min_support=2)}
        assert mined[(first, kept)] == (0, 1)
        assert (first, dropped) not in mined
        assert set(mined) == {(first,), ((0, 1, 0, 0, 2),), (first, kept)}

    def test_no_extension_after_the_last_pattern(self, monkeypatch):
        """The pattern that fills max_patterns is not extended."""
        def refuse(*args):
            raise AssertionError("extended after the last pattern")

        monkeypatch.setattr(miner, "_extensions", refuse)
        ps = mine_frequent(GraphDataset((triangle(),)), min_support=1, max_patterns=1)
        assert ps.truncated and [p.code for p in ps] == [((0, 1, 0, 0, 0),)]

    def test_completeness_against_brute_force(self):
        rng = random.Random(17)
        graphs = tuple(random_graph(rng, rng.randint(2, 5), 0.5, 2, 2, graph_id=i)
                       for i in range(12))
        ds = GraphDataset(graphs)
        mined = mine_frequent(ds, min_support=1, max_edges=4)
        expected = {}
        for g in ds:
            for form, sub in connected_subgraph_classes(g, max_edges=4).items():
                expected.setdefault(form, sub)
        got_forms = {graph_canonical_form(p.to_graph()) for p in mined}
        assert got_forms == set(expected)
        # support counts match independent recounts
        for p in mined:
            assert p.support == graph_support(p, ds)
            assert p.graph_ids == tuple(
                g.graph_id for g in ds if brute_force_contains(p.to_graph(), g))

    def test_anti_monotonicity(self):
        rng = random.Random(23)
        graphs = tuple(random_graph(rng, 5, 0.5, 2, 1, graph_id=i) for i in range(8))
        ds = GraphDataset(graphs)
        mined = mine_frequent(ds, min_support=1, max_edges=4)
        by_code = {p.code: p for p in mined}
        for p in mined:
            if p.n_edges == 1:
                continue
            g = p.to_graph()
            for drop in range(g.n_edges):
                edges = g.edges[:drop] + g.edges[drop + 1:]
                kept = sorted({u for (u, v, _e) in edges} | {v for (u, v, _e) in edges})
                if len(kept) == 0:
                    continue
                remap = {v: i for i, v in enumerate(kept)}
                sub = AttributedGraph(
                    0, tuple(g.vertex_labels[v] for v in kept),
                    tuple(sorted((remap[u], remap[v], el) for (u, v, el) in edges)), None)
                from patclass.miner import _is_connected
                if not _is_connected(sub):
                    continue
                sub_code = canonical_code(sub)
                assert sub_code in by_code
                assert by_code[sub_code].support >= p.support

    # seed, graphs, vertex range, edge prob, min_support, max_patterns,
    # max_edges, truncated, sha256 of the exported patterns and support texts
    PINNED = [
        (101, 30, (6, 10), 0.3, 2, None, None, False,
         "65844de14f67d065b785a0d93df0d5abd5c68f6eea595495365ca3ea7404ddae",
         "23a7022d3968304b57e061720e0ec4c269be185372b42eeff3a18d26002d3fb8"),
        (202, 30, (5, 9), 0.45, 2, 150, 5, True,
         "9e43d991c2974eacbd49a23399234f02e43218e999c5c098e6adadb5d67b3b0a",
         "e281a86fd75687b2273c9293ad64d5f852b1722bbbddb4eefcd51432e1f5a442"),
        (303, 40, (4, 8), 0.5, 4, None, 4, False,
         "c48cdd0bdc034b0ee63a690b34b86a06f0e980d1406bceafb4b2aebcc5bad6b3",
         "65b2f4e64b72ff7091c38d37808fb8ae63dbfb9223efc24b1dc5797c7db0dc8b"),
    ]

    @pytest.mark.parametrize("case", PINNED, ids=lambda c: f"seed{c[0]}")
    def test_pinned_search_order(self, case):
        """Exported bytes (codes in search order, supports) and the truncated
        flag are pinned for an uncapped run, a run cut by max_patterns and an
        edge-capped run."""
        (seed, n, (lo, hi), p, min_support, max_patterns, max_edges,
         truncated, text_sha, support_sha) = case
        rng = random.Random(seed)
        ds = GraphDataset(tuple(random_graph(rng, rng.randint(lo, hi), p, 3, 2, graph_id=i)
                                for i in range(n)))
        ps = mine_frequent(ds, min_support=min_support,
                           max_patterns=max_patterns, max_edges=max_edges)
        text, support = export_patterns(ps)
        assert ps.truncated == truncated
        assert hashlib.sha256(text.encode()).hexdigest() == text_sha
        assert hashlib.sha256(support.encode()).hexdigest() == support_sha

    def test_mining_support_threshold_contract(self):
        rng = random.Random(31)
        graphs = tuple(random_graph(rng, 5, 0.5, 2, 1, graph_id=i) for i in range(10))
        ds = GraphDataset(graphs)
        all_pats = mine_frequent(ds, min_support=1, max_edges=3)
        for k in (2, 3, 5):
            sub = mine_frequent(ds, min_support=k, max_edges=3)
            assert {p.code for p in sub} == {p.code for p in all_pats if p.support >= k}
            assert all(p.support >= k for p in sub)


class TestSupport:
    def test_whole_graph_supported(self):
        g = triangle()
        ds = GraphDataset((g,))
        ps = mine_frequent(ds, min_support=1)
        tri = [p for p in ps if p.n_edges == 3][0]
        assert graph_support(tri, ds) >= 1

    def test_long_path_vs_triangles(self):
        pat = AttributedGraph(0, (0, 0, 0, 0), ((0, 1, 0), (1, 2, 0), (2, 3, 0)), None)
        ds = GraphDataset((triangle(gid=0), triangle(gid=1)))
        assert graph_support(pat, ds) == 0


class TestExportImport:
    def test_roundtrip(self):
        rng = random.Random(41)
        ds = GraphDataset(tuple(random_graph(rng, 4, 0.6, 2, 2, graph_id=i)
                                for i in range(5)))
        mined = mine_frequent(ds, min_support=1, max_edges=3)
        text, support = export_patterns(mined)
        back = import_patterns(text, dataset=ds)
        assert {p.code for p in back} == {p.code for p in mined}
        sup = {int(a): int(b) for a, b in
               (line.split() for line in support.strip().splitlines())}
        orig = {p.pattern_id: p.support for p in mined}
        assert sup == orig
        # recomputed supports agree with mined caches
        by_code_new = {p.code: p.support for p in back}
        by_code_old = {p.code: p.support for p in mined}
        assert by_code_new == by_code_old
