import random

import pytest

from patclass.graphdata import (NEGATIVE, POSITIVE, AttributedGraph,
                                ConsistencyError, GraphDataError, GraphDataset,
                                ParseError, StructuralError, balance_undersample,
                                dataset_stats, parse_spmf, parse_tudataset,
                                serialize_spmf)

from oracles import degree_sequence, random_graph

MINIMAL = "t # 0\nv 0 1\nv 1 1\ne 0 1 0"


class TestParseSpmf:
    def test_minimal_file(self):
        ds = parse_spmf(MINIMAL)
        assert len(ds) == 1
        g = ds.graphs[0]
        assert g.n_vertices == 2 and g.n_edges == 1
        assert g.vertex_labels == (1, 1)
        assert g.edges == ((0, 1, 0),)

    def test_empty_input(self):
        assert len(parse_spmf("")) == 0

    def test_comments_and_blank_lines(self):
        text = "# header\n\n" + MINIMAL + "\n\n# trailer\n"
        assert len(parse_spmf(text)) == 1

    def test_bad_edge_index_names_graph(self):
        text = "t # 0\nv 0 1\nv 1 1\ne 0 1 0\nt # 1\nv 0 1\nv 1 1\ne 0 5 0"
        with pytest.raises(StructuralError, match="graph 1"):
            parse_spmf(text)

    def test_malformed_line_has_lineno(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_spmf("t # 0\nv zero 1")

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            parse_spmf("t # 0\nq 1 2")

    def test_trailing_class_labels(self):
        text = "t # 0 1\nv 0 0\nv 1 0\ne 0 1 0\nt # 1 0\nv 0 0\nv 1 0\ne 0 1 0"
        ds = parse_spmf(text)
        assert ds.graphs[0].class_label == POSITIVE  # larger raw value
        assert ds.graphs[1].class_label == NEGATIVE

    def test_separate_label_file(self):
        text = "t # 0\nv 0 0\nv 1 0\ne 0 1 0\nt # 1\nv 0 0\nv 1 0\ne 0 1 0"
        ds = parse_spmf(text, labels_text="0 5\n1 2\n")
        assert ds.graphs[0].class_label == POSITIVE
        assert ds.graphs[1].class_label == NEGATIVE

    def test_missing_label_is_error(self):
        text = "t # 0\nv 0 0\nv 1 0\ne 0 1 0\nt # 1\nv 0 0\nv 1 0\ne 0 1 0"
        with pytest.raises(ConsistencyError):
            parse_spmf(text, labels_text="0 1\n")

    def test_repeated_header_is_error(self):
        # a repeated gid used to relabel the earlier graph: here graph 0 to -1
        text = "\n".join(f"t # {gid} {cls}\nv 0 0\nv 1 0\ne 0 1 0"
                         for gid, cls in ((0, 1), (1, 0), (2, 1), (0, 0)))
        with pytest.raises(ParseError, match="line 13: repeated graph id 0"):
            parse_spmf(text)

    @pytest.mark.parametrize("labels, message", [
        ("0 1\n1 0\n7 1\n", "label line 3: no graph with id 7"),
        ("0 1\n1 0\n0 0\n", "label line 3: graph 0 labelled twice")],
        ids=["unknown", "repeated"])
    def test_unknown_or_repeated_label_gid_is_error(self, labels, message):
        text = "t # 0\nv 0 0\nv 1 0\ne 0 1 0\nt # 1\nv 0 0\nv 1 0\ne 0 1 0"
        with pytest.raises(ConsistencyError, match=message):
            parse_spmf(text, labels_text=labels)

    def test_duplicate_edge_rejected(self):
        text = "t # 0\nv 0 1\nv 1 1\ne 0 1 0\ne 1 0 0"
        with pytest.raises(StructuralError):
            parse_spmf(text)

    def test_self_loop_rejected(self):
        with pytest.raises(StructuralError):
            parse_spmf("t # 0\nv 0 1\ne 0 0 0")

    def test_roundtrip_isomorphic(self):
        rng = random.Random(2)
        graphs = tuple(random_graph(rng, rng.randint(2, 6), 0.5, 3, 2, graph_id=i,
                                    class_label=POSITIVE if i % 2 else NEGATIVE)
                       for i in range(8))
        ds = GraphDataset(graphs)
        back = parse_spmf(serialize_spmf(ds))
        assert len(back) == len(ds)
        for g, h in zip(ds, back):
            assert degree_sequence(g) == degree_sequence(h)
            assert sorted(g.vertex_labels) == sorted(h.vertex_labels)
            assert sorted(e[2] for e in g.edges) == sorted(e[2] for e in h.edges)
            assert g.class_label == h.class_label


class TestParseTU:
    def fixture(self, **kw):
        args = dict(
            adjacency="1, 2\n2, 1\n2, 3\n3, 2\n",
            graph_indicator="1\n1\n1\n",
            graph_labels="1\n",
            node_labels="4\n5\n6\n",
            edge_labels="7\n7\n8\n8\n")
        args.update(kw)
        return args

    def test_single_graph(self):
        # needs two graphs for a valid class mapping
        args = self.fixture(
            adjacency="1, 2\n2, 1\n2, 3\n3, 2\n4, 5\n5, 4\n",
            graph_indicator="1\n1\n1\n2\n2\n",
            graph_labels="1\n-1\n",
            node_labels="4\n5\n6\n4\n4\n",
            edge_labels="7\n7\n8\n8\n7\n7\n")
        ds = parse_tudataset(**args)
        assert len(ds) == 2
        g = ds.graphs[0]
        assert g.vertex_labels == (4, 5, 6)
        assert degree_sequence(g) == (1, 1, 2)
        assert g.edges == ((0, 1, 7), (1, 2, 8))
        assert g.class_label == POSITIVE and ds.graphs[1].class_label == NEGATIVE

    def test_indicator_zero_is_error(self):
        args = self.fixture(graph_indicator="0\n1\n1\n", graph_labels="1\n")
        with pytest.raises(ConsistencyError):
            parse_tudataset(**args)

    def test_absent_node_labels_default_zero(self):
        args = self.fixture(
            adjacency="1, 2\n2, 1\n3, 4\n4, 3\n",
            graph_indicator="1\n1\n2\n2\n",
            graph_labels="0\n1\n",
            node_labels=None, edge_labels=None)
        ds = parse_tudataset(**args)
        for g in ds:
            assert set(g.vertex_labels) == {0}
            assert all(el == 0 for (_u, _v, el) in g.edges)

    def test_row_count_mismatch(self):
        args = self.fixture(node_labels="4\n5\n")
        with pytest.raises(ConsistencyError):
            parse_tudataset(**args)

    @pytest.mark.parametrize("key, text, bad", [
        ("adjacency", "1, 2\n1, x\n2, 3\n3, 2\n", "line 2: malformed line '1, x'"),
        ("node_labels", "4\nx\n6\n", "line 2: malformed line 'x'"),
        ("edge_labels", "7\n7\n8\ninf\n", "line 4: malformed line 'inf'"),
        ("graph_indicator", "1\n1\ny\n", "line 3: malformed line 'y'")],
        ids=["adjacency", "node_labels", "edge_labels", "graph_indicator"])
    def test_non_integer_row_is_parse_error(self, key, text, bad):
        with pytest.raises(ParseError, match=f"{key} {bad}"):
            parse_tudataset(**self.fixture(**{key: text}))

    def test_cross_graph_edge(self):
        args = self.fixture(
            adjacency="1, 2\n2, 1\n2, 3\n3, 2\n",
            graph_indicator="1\n1\n2\n",
            graph_labels="0\n1\n",
            node_labels="1\n1\n1\n", edge_labels=None)
        with pytest.raises(ConsistencyError):
            parse_tudataset(**args)


class TestBalance:
    def make(self, n_pos, n_neg):
        rng = random.Random(0)
        graphs = []
        for i in range(n_pos + n_neg):
            graphs.append(random_graph(rng, 3, 0.9, 2, 1, graph_id=i,
                                       class_label=POSITIVE if i < n_pos else NEGATIVE))
        return GraphDataset(tuple(graphs))

    def test_sizes(self):
        ds = balance_undersample(self.make(5, 3), seed=1)
        assert ds.n_pos == 3 and ds.n_neg == 3

    def test_already_balanced_identity(self):
        ds = self.make(4, 4)
        assert balance_undersample(ds, seed=9) is ds

    def test_deterministic(self):
        base = self.make(7, 3)
        a = balance_undersample(base, seed=42)
        b = balance_undersample(base, seed=42)
        assert [g.vertex_labels for g in a] == [g.vertex_labels for g in b]
        assert [g.class_label for g in a] == [g.class_label for g in b]

    def test_empty_class_error(self):
        ds = self.make(3, 0)
        with pytest.raises(GraphDataError):
            balance_undersample(ds, seed=0)

    def test_idempotent(self):
        once = balance_undersample(self.make(9, 4), seed=5)
        twice = balance_undersample(once, seed=99)
        assert twice is once


class TestStats:
    def test_triangle(self):
        g = AttributedGraph(0, (0, 0, 0), ((0, 1, 0), (0, 2, 0), (1, 2, 0)), None)
        st = dataset_stats(GraphDataset((g,)))
        assert st.avg_vertices == 3 and st.avg_edges == 3
        assert st.avg_density == 1.0
        assert st.avg_global_clustering == 1.0

    def test_single_edge(self):
        g = AttributedGraph(0, (0, 0), ((0, 1, 0),), None)
        st = dataset_stats(GraphDataset((g,)))
        assert st.avg_density == 1.0
        assert st.avg_global_clustering is None

    def test_empty_dataset_error(self):
        with pytest.raises(GraphDataError):
            dataset_stats(GraphDataset(()))

    def test_square_has_triples_but_no_triangles(self):
        g = AttributedGraph(0, (0, 0, 0, 0),
                            ((0, 1, 0), (1, 2, 0), (2, 3, 0), (0, 3, 0)), None)
        st = dataset_stats(GraphDataset((g,)))
        assert st.avg_global_clustering == 0.0
        assert st.mean_avg_degree == 2.0
