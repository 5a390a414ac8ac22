import random

import numpy as np
import pytest

from patclass.footprints import (ContingencyCounts, FootprintError,
                                 FootprintMatrix, build_matrix, contingency,
                                 contingency_csv, distinct_footprint_groups,
                                 matrix_csv)
from patclass.graphdata import NEGATIVE, POSITIVE, GraphDataset
from patclass.miner import mine_frequent

from oracles import graph_support, random_graph


def random_matrix(rng, n, p):
    while True:
        bits = np.array([[rng.random() < 0.4 for _ in range(p)] for _ in range(n)])
        if bits.sum(axis=0).min() >= 1:
            labels = [POSITIVE] * (n // 2) + [NEGATIVE] * (n - n // 2)
            return FootprintMatrix(bits, labels)


class TestBuildMatrix:
    def make_dataset(self, seed=13, n=8):
        rng = random.Random(seed)
        graphs = tuple(random_graph(rng, rng.randint(3, 5), 0.6, 2, 1, graph_id=i,
                                    class_label=POSITIVE if i < n // 2 else NEGATIVE)
                       for i in range(n))
        return GraphDataset(graphs)

    def test_six_graph_example_column(self, six_graph_matrix):
        assert list(six_graph_matrix.bits[:, 0].astype(int)) == [1, 1, 1, 0, 0, 0]

    def test_columns_match_independent_recount(self):
        ds = self.make_dataset()
        mined = mine_frequent(ds, min_support=1, max_edges=3)
        mat = build_matrix(mined, ds)
        for p in mined:
            popcount = int(mat.bits[:, p.pattern_id].sum())
            assert popcount == graph_support(p, ds)

    def test_all_ones_column(self):
        mat = FootprintMatrix(np.ones((4, 1), dtype=bool), [1, 1, -1, -1])
        assert contingency(mat, 0) == ContingencyCounts(2, 2, 2, 2)

    def test_zero_support_column_rejected(self):
        with pytest.raises(FootprintError):
            FootprintMatrix(np.zeros((3, 1), dtype=bool), [1, 1, -1])

    def test_pattern_without_graph_ids_rejected(self):
        # columns come from graph_ids alone: empty ids are zero support
        ds = self.make_dataset(seed=29)
        mined = mine_frequent(ds, min_support=1, max_edges=3)
        stripped = [p.__class__(p.pattern_id, p.code, p.n_vertices, p.n_edges, ())
                    for p in mined]
        with pytest.raises(FootprintError, match="pattern 0 has zero support"):
            build_matrix(stripped, ds)


class TestContingency:
    def test_fig_p4(self, six_graph_matrix):
        c = contingency(six_graph_matrix, 3)
        assert (c.a, c.b, c.n_pos, c.n_neg) == (2, 3, 3, 3)

    def test_fig_p2(self, six_graph_matrix):
        c = contingency(six_graph_matrix, 1)
        assert (c.a, c.b) == (3, 2)

    def test_sum_is_popcount(self, six_graph_matrix):
        for j in range(4):
            c = contingency(six_graph_matrix, j)
            assert c.a + c.b == int(six_graph_matrix.bits[:, j].sum())
            assert (c.a + c.b + (c.n_pos - c.a) + (c.n_neg - c.b)
                    == six_graph_matrix.n_graphs)

    def test_out_of_range(self, six_graph_matrix):
        with pytest.raises(FootprintError):
            contingency(six_graph_matrix, 4)

    def test_matches_recount_with_mixed_labels(self):
        rng = random.Random(5)
        mat = random_matrix(rng, 12, 9)
        labels = mat.labels.tolist()
        rng.shuffle(labels)
        mat = FootprintMatrix(mat.bits, labels)
        for j in range(mat.n_patterns):
            col = mat.bits[:, j].tolist()
            a = sum(1 for v, lab in zip(col, labels) if v and lab == POSITIVE)
            b = sum(1 for v, lab in zip(col, labels) if v and lab == NEGATIVE)
            assert contingency(mat, j) == ContingencyCounts(a, b, 6, 6)

    def test_invalid_counts_rejected(self):
        with pytest.raises(FootprintError):
            ContingencyCounts(4, 0, 3, 3)
        with pytest.raises(FootprintError):
            ContingencyCounts(0, 0, 3, 3)


class TestGroups:
    def test_all_distinct(self):
        rng = random.Random(3)
        mat = random_matrix(rng, 16, 6)
        # force distinct columns
        if any(len(g) > 1 for g in distinct_footprint_groups(mat)):
            pytest.skip("rare duplicate draw")
        assert distinct_footprint_groups(mat) == [[j] for j in range(6)]

    def test_duplicated_pair(self):
        bits = np.array([[1, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=bool)
        mat = FootprintMatrix(bits, [1, -1, 1])
        assert distinct_footprint_groups(mat) == [[0, 1], [2]]

    def test_matches_pairwise_oracle(self):
        rng = random.Random(11)
        bits = np.array([[rng.random() < 0.3 for _ in range(50)] for _ in range(20)])
        bits[0, :] = True  # keep every column supported
        labels = [1] * 10 + [-1] * 10
        mat = FootprintMatrix(bits, labels)
        groups = distinct_footprint_groups(mat)
        group_of = {}
        for gi, grp in enumerate(groups):
            for j in grp:
                group_of[j] = gi
        for i in range(50):
            for j in range(i + 1, 50):
                same = bool((bits[:, i] == bits[:, j]).all())
                assert (group_of[i] == group_of[j]) == same


class TestCsv:
    def test_matrix_csv_schema(self, six_graph_matrix):
        text = matrix_csv(six_graph_matrix)
        lines = text.strip().splitlines()
        assert lines[0] == "graph_id,pattern_id,present"
        assert len(lines) == 1 + 6 * 4
        assert lines[1] == "0,0,1"

    def test_contingency_csv(self, six_graph_matrix):
        text = contingency_csv(six_graph_matrix)
        lines = text.strip().splitlines()
        assert lines[0] == "pattern_id,a,b,n_pos,n_neg"
        assert lines[1] == "0,3,0,3,3"
        assert lines[4] == "3,2,3,3,3"
