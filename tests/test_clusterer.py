import random
import tracemalloc

import numpy as np
import pytest

from patclass.clusterer import (ClusterError, FootprintClustering,
                                agglomerate_complete, clusters_csv,
                                dendrogram_csv, manhattan_matrix)
from patclass.footprints import FootprintMatrix, distinct_footprint_groups

from oracles import cut, naive_complete_linkage


def matrix_from_columns(cols, labels=None):
    bits = np.array(cols, dtype=bool).T
    n = bits.shape[0]
    if labels is None:
        labels = [1] * (n // 2) + [-1] * (n - n // 2)
    return FootprintMatrix(bits, labels)


def random_footprints(rng, n_graphs, n_patterns):
    while True:
        bits = np.array([[rng.random() < 0.5 for _ in range(n_patterns)]
                         for _ in range(n_graphs)])
        if bits.sum(axis=0).min() >= 1:
            labels = [1] * (n_graphs // 2) + [-1] * (n_graphs - n_graphs // 2)
            return FootprintMatrix(bits, labels)


class TestManhattan:
    def test_installed_numpy_has_bitwise_count(self):
        # manhattan_matrix needs np.bitwise_count, which numpy has from 2.0
        # on: the version pyproject.toml pins
        import patclass.clusterer as mod
        assert hasattr(mod.np, "bitwise_count")

    def test_identical_columns_zero(self):
        mat = matrix_from_columns([[1, 0, 1, 0], [1, 0, 1, 0]])
        d = manhattan_matrix(mat, [0, 1])
        assert d[0, 1] == 0

    def test_counted_positions(self):
        mat = matrix_from_columns([[1, 0, 1, 0], [1, 1, 1, 1]])
        d = manhattan_matrix(mat, [0, 1])
        assert d[0, 1] == 2

    @pytest.mark.parametrize("n_graphs", [1, 7, 8, 9, 23, 63, 64, 65, 129])
    def test_matches_bit_loop_oracle(self, n_graphs):
        # n_graphs straddles the byte and 64-bit word boundaries of the
        # padding; 150 of 160 columns in shuffled order span three 64-row
        # blocks
        rng = np.random.default_rng(n_graphs)
        bits = rng.random((n_graphs, 160)) < 0.4
        bits[rng.integers(0, n_graphs, 160), np.arange(160)] = True
        mat = FootprintMatrix(bits, [1] * (n_graphs // 2)
                              + [-1] * (n_graphs - n_graphs // 2))
        ids = rng.permutation(160)[:150].tolist()
        d = manhattan_matrix(mat, ids)
        assert d.dtype == np.int32
        for i, a in enumerate(ids):
            for j, b in enumerate(ids):
                assert d[i, j] == int((bits[:, a] != bits[:, b]).sum())

    def test_peak_memory_result_and_one_block(self):
        # the int32 result, 4 p^2 bytes, three copies of the footprints at 8
        # bytes per pattern and 64 graphs, one 64-row block of XOR words and
        # counts, and 256 KiB for numpy's cast buffers and the id lists; a
        # copy of the result, as a symmetrizing maximum takes, or an int64
        # result would break it
        rng = np.random.default_rng(0)
        p, n = 600, 150
        bits = rng.random((n, p)) < 0.3
        bits[0] = True
        mat = FootprintMatrix(bits, [1] * 75 + [-1] * 75)
        manhattan_matrix(mat, range(10))   # imports, untraced
        tracemalloc.start()
        try:
            manhattan_matrix(mat, range(p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * p * p + 3 * 8 * -(-n // 64) * p + 9 * 64 * p + 2 ** 18

    def test_empty_ids_rejected(self):
        mat = matrix_from_columns([[1, 0]])
        with pytest.raises(ClusterError):
            manhattan_matrix(mat, [])


class TestAgglomerate:
    def test_two_patterns_single_merge(self):
        d = np.array([[0, 3], [3, 0]])
        dg = agglomerate_complete(d)
        assert dg.merges == ((0, 1, 3, 2),)

    def test_three_equidistant_tie_break(self):
        d = np.array([[0, 2, 2], [2, 0, 2], [2, 2, 0]])
        dg = agglomerate_complete(d)
        # first merge must pick pair (0, 1); heights equal
        assert dg.merges[0][:3] == (0, 1, 2)
        assert dg.merges[1][2] == 2

    def test_matches_reference_agglomerator(self):
        rng = random.Random(9)
        for trial in range(20):
            p = rng.randint(2, 7)
            mat = random_footprints(rng, 12, p)
            d = manhattan_matrix(mat, list(range(p)))
            dg = agglomerate_complete(d)
            ref = naive_complete_linkage([list(row) for row in d])
            assert list(dg.merges) == ref

    @staticmethod
    def tie_heavy(rng, p):
        """Symmetric integer distances in {0..3} with a zero diagonal."""
        upper = np.triu(rng.integers(0, 4, (p, p)), 1)
        return upper + upper.T

    def test_tie_heavy_ascending_ids_match_oracle(self):
        rng = np.random.default_rng(21)
        for p in list(range(2, 41)) * 2:
            d = self.tie_heavy(rng, p)
            dg = agglomerate_complete(d)
            assert list(dg.merges) == naive_complete_linkage(d.tolist()), p

    @pytest.mark.parametrize("seed", [23, 24, 25])
    def test_tie_heavy_p80_matches_oracle(self, seed):
        # past the small cases above
        rng = np.random.default_rng(seed)
        d = self.tie_heavy(rng, 80)
        assert list(agglomerate_complete(d).merges) == \
            naive_complete_linkage(d.tolist())

    def test_merged_min_member_decides_equal_height_tie(self):
        # Leaves 0 and 3 merge at 0 into cluster 4, whose smallest leaf is
        # 0. At height 2, pair (leaf 1, 4) has key (0, 1) and pair (leaf 1,
        # leaf 2) has key (1, 2): the merged cluster goes first.
        d = np.array([[0, 1, 1, 0],
                      [1, 0, 2, 2],
                      [1, 2, 0, 3],
                      [0, 2, 3, 0]])
        expected = [(0, 3, 0, 4), (1, 4, 2, 5), (2, 5, 3, 6)]
        assert naive_complete_linkage(d.tolist()) == expected
        assert list(agglomerate_complete(d).merges) == expected

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_input_left_unchanged(self, dtype):
        # the heights are a copy: the oracles and callers read the distances
        # after the call, and an int32 input must not be taken as the
        # height matrix itself
        rng = np.random.default_rng(26)
        d = self.tie_heavy(rng, 30).astype(dtype)
        before = d.copy()
        agglomerate_complete(d)
        assert d.dtype == dtype
        assert np.array_equal(d, before)

    def test_pair_key_overflow_rejected(self):
        d = np.array([[0, 2 ** 62], [2 ** 62, 0]])
        with pytest.raises(ClusterError):
            agglomerate_complete(d)

    def test_peak_memory_height_matrix(self):
        # one p x p int32 copy of the distances as heights, plus 128 KiB
        # for the per-row vectors and the merge list: 1.6 MB at p = 600
        rng = np.random.default_rng(0)
        p, n = 600, 150
        bits = rng.random((n, p)) < 0.3
        bits[0] = True
        d = manhattan_matrix(FootprintMatrix(bits, [1] * 75 + [-1] * 75), range(p))
        agglomerate_complete(d[:10, :10])   # imports, untraced
        tracemalloc.start()
        try:
            agglomerate_complete(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * p * p + 2 ** 17

    def test_heights_non_decreasing(self):
        rng = random.Random(4)
        mat = random_footprints(rng, 16, 14)
        d = manhattan_matrix(mat, list(range(14)))
        dg = agglomerate_complete(d)
        hs = [h for (_x, _y, h, _n) in dg.merges]
        assert hs == sorted(hs)


class TestCut:
    def test_threshold_zero_equals_distinct_groups(self):
        cols = [[1, 0, 1, 0], [1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 1, 1], [0, 1, 1, 0]]
        mat = matrix_from_columns(cols)
        ids = list(range(5))
        d = manhattan_matrix(mat, ids)
        dg = agglomerate_complete(d)
        c = cut(dg, 0, d)
        groups = [tuple(g) for g in distinct_footprint_groups(mat)]
        assert list(c.clusters) == groups

    def test_threshold_one_single_cluster(self):
        rng = random.Random(2)
        mat = random_footprints(rng, 10, 8)
        ids = list(range(8))
        d = manhattan_matrix(mat, ids)
        dg = agglomerate_complete(d)
        c = cut(dg, 10, d)
        assert len(c.clusters) == 1
        assert c.threshold == 10

    def test_monotone_coarsening(self):
        rng = random.Random(7)
        mat = random_footprints(rng, 14, 20)
        ids = list(range(20))
        d = manhattan_matrix(mat, ids)
        dg = agglomerate_complete(d)
        prev = None
        for t in [0, 1, 2, 5, 9, 14]:
            cur = cut(dg, t, d)
            if prev is not None:
                cur_sets = [set(c) for c in cur.clusters]
                for small in prev.clusters:
                    assert any(set(small) <= big for big in cur_sets)
                assert len(cur.clusters) <= len(prev.clusters)
            prev = cur

    def test_complete_linkage_bound(self):
        rng = random.Random(11)
        mat = random_footprints(rng, 12, 15)
        ids = list(range(15))
        d = manhattan_matrix(mat, ids)
        dg = agglomerate_complete(d)
        for t in [0, 3, 6, 9]:
            c = cut(dg, t, d)
            for cluster in c.clusters:
                for i in cluster:
                    for j in cluster:
                        assert d[ids.index(i), ids.index(j)] <= c.threshold

    @pytest.mark.parametrize("threshold", [-1, 0.5])
    def test_negative_or_fractional_threshold_rejected(self, threshold):
        mat = matrix_from_columns([[1, 0], [1, 1]])
        with pytest.raises(ClusterError):
            FootprintClustering.build(mat).cut(threshold)


class TestMedoids:
    def test_singleton(self):
        mat = matrix_from_columns([[1, 0, 0], [0, 1, 0], [0, 0, 1],
                                   [1, 1, 0], [0, 1, 1], [1, 0, 1]])
        c = FootprintClustering.build(mat).cut(0)
        assert c.clusters[5] == (5,)
        assert c.representatives == tuple(range(6))

    def test_chain_picks_middle(self):
        # distances: 0-1: 1, 1-2: 1, 0-2: 2
        mat = matrix_from_columns([[1, 0, 0], [1, 1, 0], [1, 1, 1]])
        c = FootprintClustering.build(mat).cut(2)
        assert c.clusters == ((0, 1, 2),)
        assert c.representatives == (1,)

    def test_duplicates_tied_total_smallest_id_wins(self):
        # footprint A (ids 1, 4) and B (ids 2, 3) sit at distance 2, and C
        # (id 0) at 3 from both: A and B tie at total 7, C has 12
        a, b, c = [1, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]
        mat = matrix_from_columns([c, a, b, b, a])
        cut3 = FootprintClustering.build(mat).cut(3)
        assert cut3.clusters == ((0, 1, 2, 3, 4),)
        assert cut3.representatives == (1,)

    def test_matches_exhaustive_scan(self):
        rng = random.Random(3)
        mat = random_footprints(rng, 10, 12)
        c = FootprintClustering.build(mat).cut(4)
        assert any(len(cluster) > 2 for cluster in c.clusters)
        for cluster, rep in zip(c.clusters, c.representatives):
            totals = {i: sum(int((mat.bits[:, i] != mat.bits[:, j]).sum())
                             for j in cluster)
                      for i in cluster}
            best = min(totals.values())
            candidates = sorted(i for i in cluster if totals[i] == best)
            assert rep == candidates[0]


class TestFootprintClustering:
    def duplicate_rich(self, seed, n_graphs=14, base_p=9, dups=12):
        rng = random.Random(seed)
        base = random_footprints(rng, n_graphs, base_p)
        cols = [base.bits[:, j] for j in range(base_p)]
        for _ in range(dups):
            cols.append(base.bits[:, rng.randrange(base_p)])
        import numpy as np
        bits = np.stack(cols, axis=1)
        labels = [1] * (n_graphs // 2) + [-1] * (n_graphs - n_graphs // 2)
        rng.shuffle(order := list(range(bits.shape[1])))
        return FootprintMatrix(bits[:, order], labels)

    def test_matches_direct_clustering_everywhere(self):
        from patclass.clusterer import FootprintClustering
        for seed in (1, 2, 3, 4):
            mat = self.duplicate_rich(seed)
            ids = list(range(mat.n_patterns))
            d = manhattan_matrix(mat, ids)
            dg = agglomerate_complete(d)
            fast = FootprintClustering.build(mat)
            for t in range(mat.n_graphs + 1):
                direct = cut(dg, t, d)
                deduped = fast.cut(t)
                assert deduped.clusters == direct.clusters, (seed, t)
                assert deduped.representatives == direct.representatives, (seed, t)
                assert deduped.threshold == direct.threshold == t

    def test_scales_past_quadratic_blowup(self):
        # 4000 columns but only ~40 distinct footprints: must finish fast
        import numpy as np
        rng = np.random.default_rng(0)
        base = rng.random((20, 40)) < 0.5
        base[0] = True
        bits = base[:, rng.integers(0, 40, 4000)]
        labels = [1] * 10 + [-1] * 10
        mat = FootprintMatrix(bits, labels)
        from patclass.clusterer import FootprintClustering
        import time
        t0 = time.perf_counter()
        clustering = FootprintClustering.build(mat)
        c = clustering.cut(0)
        assert time.perf_counter() - t0 < 5.0
        from patclass.footprints import distinct_footprint_groups
        assert len(c.clusters) == len(distinct_footprint_groups(mat))

    def test_build_keeps_no_distance_matrix(self):
        # the workspace keeps the groups, the dendrogram and a reference to
        # the matrix's bits; a kept p x p distance matrix, 8 p^2 bytes here
        # with 600 distinct footprints, would break the p^2-byte bound
        rng = np.random.default_rng(0)
        p, n = 600, 150
        bits = rng.random((n, p)) < 0.3
        bits[0] = True
        mat = FootprintMatrix(bits, [1] * 75 + [-1] * 75)
        FootprintClustering.build(matrix_from_columns([[1, 0], [1, 1]]))  # imports, untraced
        tracemalloc.start()
        try:
            clustering = FootprintClustering.build(mat)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert clustering.footprints is mat.bits
        assert held < p * p

    def test_build_peak_two_int32_matrices(self):
        # at its peak build holds the int32 distances and the int32 heights
        # copied from them, 8 p^2 bytes, plus the packing terms of
        # manhattan_matrix's bound; int64 distances or a permuted copy of
        # the heights would break it
        rng = np.random.default_rng(0)
        p, n = 600, 150
        bits = rng.random((n, p)) < 0.3
        bits[0] = True
        mat = FootprintMatrix(bits, [1] * 75 + [-1] * 75)
        FootprintClustering.build(matrix_from_columns([[1, 0], [1, 1]]))  # imports, untraced
        tracemalloc.start()
        try:
            clustering = FootprintClustering.build(mat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert clustering.dendrogram.n_leaves == p
        assert peak <= 8 * p * p + 3 * 8 * -(-n // 64) * p + 9 * 64 * p + 2 ** 18

    def test_groups_looked_up_on_footprints_per_call(self, monkeypatch):
        # perfbench's tracer counts distinct footprints by wrapping
        # footprints.distinct_footprint_groups; a name bound at import
        # would bypass the wrapper and the count would read 0
        from patclass import footprints
        from patclass.clusterer import FootprintClustering
        calls = []

        def wrapped(matrix):
            calls.append(matrix)
            return distinct_footprint_groups(matrix)

        monkeypatch.setattr(footprints, "distinct_footprint_groups", wrapped)
        mat = self.duplicate_rich(1)
        FootprintClustering.build(mat)
        assert calls == [mat]


class TestCsv:
    def test_schemas(self):
        rng = random.Random(5)
        mat = random_footprints(rng, 8, 6)
        ids = list(range(6))
        d = manhattan_matrix(mat, ids)
        dg = agglomerate_complete(d)
        c = cut(dg, 2, d)
        assert clusters_csv(c).startswith("cluster_id,pattern_id,is_representative")
        assert dendrogram_csv(dg).startswith("merge_index,left,right,height")
        assert len(dendrogram_csv(dg).strip().splitlines()) == 6  # header + 5 merges
