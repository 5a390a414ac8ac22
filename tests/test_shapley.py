import itertools
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from patclass.classify import FeatureView, cross_validate
from patclass.footprints import FootprintMatrix
from patclass.shapley import (CachedCharacteristic, ShapleyError, exact_shapley,
                              gold_standard, performance_characteristic,
                              sampled_shapley, shapley_csv)

from oracles import batch, reference_sampled_shapley, uncached


def table_game(table):
    """Characteristic function from an explicit subset table."""
    return CachedCharacteristic(batch(lambda s: table[frozenset(s)]))


def random_game(rng, ids):
    table = {frozenset(): 0.0}
    for r in range(1, len(ids) + 1):
        for combo in itertools.combinations(ids, r):
            table[frozenset(combo)] = rng.random()
    return table


def permutation_oracle(ids, f):
    """Average marginal contribution over all |ids|! orders."""
    totals = {pid: 0.0 for pid in ids}
    count = 0
    for order in itertools.permutations(ids):
        prefix = set()
        prev = f(frozenset())
        for pid in order:
            prefix.add(pid)
            cur = f(frozenset(prefix))
            totals[pid] += cur - prev
            prev = cur
        count += 1
    return {pid: totals[pid] / count for pid in ids}


class TestExact:
    def test_two_symmetric_players(self):
        f = table_game({frozenset(): 0.0, frozenset({1}): 0.5,
                        frozenset({2}): 0.5, frozenset({1, 2}): 1.0})
        values = exact_shapley([1, 2], f)
        assert values == {1: 0.5, 2: 0.5}

    def test_dummy_player(self):
        f = table_game({frozenset(): 0.0, frozenset({1}): 0.8,
                        frozenset({2}): 0.0, frozenset({1, 2}): 0.8})
        values = exact_shapley([1, 2], f)
        assert values[2] == pytest.approx(0.0, abs=1e-12)

    def test_matches_permutation_oracle_4_players(self):
        rng = random.Random(0)
        ids = [3, 7, 9, 12]
        table = random_game(rng, ids)
        f = table_game(table)
        values = exact_shapley(ids, f)
        oracle = permutation_oracle(ids, lambda s: table[frozenset(s)])
        for pid in ids:
            assert values[pid] == pytest.approx(oracle[pid], abs=1e-12)

    def test_efficiency(self):
        rng = random.Random(1)
        ids = list(range(6))
        table = random_game(rng, ids)
        values = exact_shapley(ids, table_game(table))
        assert sum(values.values()) == pytest.approx(
            table[frozenset(ids)] - table[frozenset()], abs=1e-9)

    def test_plain_f_called_once_per_coalition(self):
        rng = random.Random(6)
        ids = [2, 5, 8, 11, 13]
        table = random_game(rng, ids)
        calls = []

        def f(subset):
            calls.append(subset)
            return table[subset]

        assert exact_shapley(ids, uncached(f)) == exact_shapley(ids, table_game(table))
        assert len(calls) == 2 ** len(ids) == len(set(calls))

    def test_limit_enforced(self):
        with pytest.raises(ShapleyError, match="sampled"):
            exact_shapley(list(range(16)), table_game({}))


class TestSampled:
    def test_deterministic(self):
        rng = random.Random(2)
        ids = list(range(5))
        table = random_game(rng, ids)
        a = sampled_shapley(ids, table_game(table), 50, seed=9)
        b = sampled_shapley(ids, table_game(table), 50, seed=9)
        assert a.values == b.values

    def test_symmetric_two_player_every_sample(self):
        f = table_game({frozenset(): 0.0, frozenset({1}): 0.5,
                        frozenset({2}): 0.5, frozenset({1, 2}): 1.0})
        est = sampled_shapley([1, 2], f, 7, seed=0)
        assert est.values[1] == pytest.approx(est.values[2])

    def test_converges_to_exact_8_players(self):
        rng = random.Random(3)
        ids = list(range(8))
        table = random_game(rng, ids)
        exact = exact_shapley(ids, table_game(table))
        est = sampled_shapley(ids, table_game(table), 2000, seed=4)
        for pid in ids:
            assert abs(est.values[pid] - exact[pid]) <= 0.05

    def test_unbiasedness_over_seeds(self):
        rng = random.Random(5)
        ids = list(range(5))
        table = random_game(rng, ids)
        exact = exact_shapley(ids, table_game(table))
        f = table_game(table)
        means = {pid: 0.0 for pid in ids}
        n_seeds = 40
        for seed in range(n_seeds):
            est = sampled_shapley(ids, f, 40, seed=seed)
            for pid in ids:
                means[pid] += est.values[pid] / n_seeds
        for pid in ids:
            assert abs(means[pid] - exact[pid]) <= 0.03

    def test_validation(self):
        with pytest.raises(ShapleyError):
            sampled_shapley([1], lambda s: 0.0, 0, seed=0)
        with pytest.raises(ShapleyError):
            sampled_shapley([], lambda s: 0.0, 5, seed=0)


class TestBatchedAgainstOracle:
    """Filling coalitions one size at a time keeps the bits of the
    one-coalition-at-a-time loop and of a plain (uncached) f."""

    @staticmethod
    def matrix(n_patterns):
        rng = np.random.default_rng(7)
        y = np.array([1] * 12 + [-1] * 13)
        bits = rng.random((25, n_patterns)) < rng.uniform(0.2, 0.6, n_patterns)
        bits[:, 0] = y == 1
        return FootprintMatrix(bits, y.tolist())

    def test_sampled_table_game(self):
        rng = random.Random(8)
        ids = [4, 1, 9, 6, 3, 7]
        table = random_game(rng, ids)

        def plain(subset):
            return table[frozenset(subset)]

        want = reference_sampled_shapley(ids, plain, 9, seed=3)
        for f in (table_game(table), uncached(plain)):
            got = sampled_shapley(ids, f, 9, seed=3)
            assert (got.values, got.std_error) == want

    def test_sampled_performance_characteristic(self):
        m = self.matrix(7)
        ids = list(range(7))

        seen = set()

        def plain(subset):
            seen.add(subset)
            return (cross_validate(FeatureView.from_matrix(m, subset), k=3, seed=1).f1
                    if subset else 0.0)

        f = performance_characteristic(m, k=3, seed=1)
        got = sampled_shapley(ids, f, 5, seed=2)
        assert (got.values, got.std_error) == reference_sampled_shapley(
            ids, plain, 5, seed=2)
        # each distinct prefix is evaluated once; the prefixes of every
        # length are one stream and fit one chunk, which trains as one stack
        # per training-set size (25 rows: two, for k = 3)
        assert f.counts["evaluations"] == len(seen - {frozenset()})
        assert f.counts["fits"] == 2

    def test_one_stream_per_estimator(self):
        # each estimator hands f.many one stream, by nondecreasing size:
        # sampled, the empty prefix and then lengths 1..5 of 4 orders;
        # exact, the 2^5 coalitions by size. The values keep the bits of
        # the one-coalition loop in both modes
        rng = random.Random(12)
        ids = [3, 8, 1, 6, 2]
        table = random_game(rng, ids)

        def plain(subset):
            return table[frozenset(subset)]

        calls = []

        def recording(subsets):
            subsets = list(subsets)
            calls.append([len(s) for s in subsets])
            return [plain(s) for s in subsets]

        f = SimpleNamespace(many=recording)
        got = sampled_shapley(ids, f, 4, seed=6)
        assert (got.values, got.std_error) == reference_sampled_shapley(
            ids, plain, 4, seed=6)
        assert exact_shapley(ids, f) == exact_shapley(ids, uncached(plain))
        assert [len(sizes) for sizes in calls] == [1 + 4 * len(ids), 2 ** len(ids)]
        for sizes in calls:
            assert sizes == sorted(sizes)

    @pytest.mark.parametrize("budget", [1, 9, 40])
    def test_batches_stop_at_the_member_budget(self, monkeypatch, budget):
        # the stream an estimator hands the SVM is cut, in arrival order,
        # into chunks of at most `budget` padded members (a set's columns
        # plus the bias, times the sets in the chunk); a set over it is a
        # chunk of its own. The values keep the bits of the one-coalition
        # loop in both modes
        from patclass import classify
        m = self.matrix(5)
        ids = [3, 0, 4, 1, 2]
        k, n = 3, 25

        def plain(subset):
            return (cross_validate(FeatureView.from_matrix(m, subset), k=k, seed=1).f1
                    if subset else 0.0)

        want_sampled = reference_sampled_shapley(ids, plain, 4, seed=6)
        want_exact = exact_shapley(ids, uncached(plain))
        monkeypatch.setattr(classify, "STACK_FLOATS", budget * k * n)
        chunks = []
        chunked = classify._chunks

        def recording(column_sets, rows):
            for chunk in chunked(column_sets, rows):
                chunks.append([len(cols) for cols in chunk])
                yield chunk

        monkeypatch.setattr(classify, "_chunks", recording)
        f = performance_characteristic(m, k=k, seed=1)
        got = sampled_shapley(ids, f, 4, seed=6)
        assert (got.values, got.std_error) == want_sampled
        assert exact_shapley(ids, f) == want_exact
        for sizes in chunks:
            assert len(sizes) * (max(sizes) + 1) <= budget or len(sizes) == 1
        # each distinct coalition is evaluated once, in one chunk; 25 rows
        # and k = 3 train two stacks per chunk
        assert sum(map(len, chunks)) == f.counts["evaluations"] == 2 ** len(ids) - 1
        assert f.counts["fits"] == 2 * len(chunks)
        if budget == 1:
            assert len(chunks) == 2 ** len(ids) - 1

    def test_exact_performance_characteristic(self):
        m = self.matrix(6)
        ids = [5, 0, 3, 1, 4, 2]

        def plain(subset):
            return (cross_validate(FeatureView.from_matrix(m, subset), k=3, seed=4).f1
                    if subset else 0.0)

        f = performance_characteristic(m, k=3, seed=4)
        assert exact_shapley(ids, f) == exact_shapley(ids, uncached(plain))
        assert f.counts["evaluations"] == 2 ** len(ids) - 1

    def test_sampled_peak_memory_bounded(self):
        # frozenset keys, tens of bytes per member of every prefix, peak
        # above 80 MB here; bitmask keys and one float per (permutation,
        # position) stay near 2 MB
        p = 600
        f = CachedCharacteristic(batch(lambda s: len(s) / p))
        tracemalloc.start()
        try:
            sampled_shapley(list(range(p)), f, 10, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


    def test_batch_features_copied_one_chunk_at_a_time(self, monkeypatch):
        # 80 coalitions of 100 columns, as one size of sampled prefixes over
        # many permutations hands over: their float features take 6.4 MB,
        # but with a cap of one coalition per chunk only one coalition's
        # features and stack are held at a time (1.7 MB peak; 8.1 MB when
        # every coalition's features were built before training)
        from patclass import classify
        n, p, d, sets = 100, 120, 100, 80
        rng = np.random.default_rng(3)
        y = np.array([1, -1] * (n // 2))
        bits = rng.random((n, p)) < 0.4
        bits[0] = True
        m = FootprintMatrix(bits, y.tolist())
        subsets = [rng.choice(p, d, replace=False).tolist() for _ in range(sets)]
        monkeypatch.setattr(classify, "STACK_FLOATS", 5 * n * (d + 1))
        f = performance_characteristic(m)
        tracemalloc.start()
        try:
            got = f.many(subsets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.counts["evaluations"] == sets
        # 5 equal folds of 100 rows: one stack per chunk of one coalition
        assert f.counts["fits"] == sets
        assert peak < sets * n * d * 8 / 3
        assert got[:3] == [performance_characteristic(m)(s) for s in subsets[:3]]


class TestCharacteristic:
    def make_matrix(self):
        rng = np.random.default_rng(0)
        n = 20
        y = np.array([1] * 10 + [-1] * 10)
        separating = (y == 1).astype(bool)
        constant = np.ones(n, dtype=bool)
        noise = rng.random(n) < 0.5
        noise[0] = True
        bits = np.stack([separating, constant, noise], axis=1)
        return FootprintMatrix(bits, y.tolist())

    def test_empty_set_is_zero(self):
        f = performance_characteristic(self.make_matrix(), k=5, seed=0)
        assert f(frozenset()) == 0.0

    def test_separating_pattern_scores_one(self):
        f = performance_characteristic(self.make_matrix(), k=5, seed=0)
        assert f({0}) == 1.0

    def test_constant_pattern_scores_two_thirds(self):
        f = performance_characteristic(self.make_matrix(), k=5, seed=0)
        assert f({1}) == pytest.approx(2 / 3)

    def test_pure_function_of_subset(self):
        f = performance_characteristic(self.make_matrix(), k=5, seed=3)
        assert f({0, 2}) == f({2, 0})
        g = performance_characteristic(self.make_matrix(), k=5, seed=3)
        assert f({0, 2}) == g({0, 2})

    def test_no_miss_no_call(self):
        # the callable gets each distinct miss once, and is not called at
        # all when every subset is cached (the empty one always is): a
        # cross-validation would set up its folds for nothing
        calls = []

        def fn(subsets):
            calls.append(list(subsets))
            return [len(s) for s in calls[-1]]

        f = CachedCharacteristic(fn)
        assert f.many([{1, 2}, {3}, {2, 1}, ()]) == [2.0, 1.0, 2.0, 0.0]
        assert calls == [[frozenset({1, 2}), frozenset({3})]]
        assert f.many([{3}, (), {1, 2}]) == [1.0, 0.0, 2.0]
        assert f({2, 1}) == 2.0 and f(()) == 0.0
        assert len(calls) == 1 and f.counts["evaluations"] == 2

    def test_lazy_values_all_kept(self):
        # a generator of values is read after the stream has added every miss
        f = CachedCharacteristic(lambda subsets: (float(len(s)) for s in subsets))
        assert f.many([{1}, {2}, {1, 2}]) == [1.0, 1.0, 2.0]
        assert f.counts["evaluations"] == 3

    def test_stream_not_read_to_its_end_raises(self):
        def first_only(subsets):
            return [float(len(next(subsets)))]

        with pytest.raises(ShapleyError):
            CachedCharacteristic(first_only).many([{1}, {2}, {1, 2}])
        with pytest.raises(ShapleyError):
            CachedCharacteristic(lambda subsets: [1.0]).many([{1}, {2}])
        with pytest.raises(ShapleyError):  # read to its end, one value short
            CachedCharacteristic(lambda subsets: [1.0 for _ in subsets][1:]
                                 ).many([{1}, {2}])


class TestGoldStandard:
    def test_separating_pattern_ranked_first(self):
        m = TestCharacteristic().make_matrix()
        gold = gold_standard(performance_characteristic(m, seed=0), [0, 1, 2], seed=0)
        assert gold.method == "exact"
        assert gold.ranking.pattern_ids[0] == 0

    def test_duplicate_footprints_tie_by_id(self):
        rng = np.random.default_rng(4)
        y = [1] * 8 + [-1] * 8
        col = (np.array(y) == 1)
        noise = rng.random(16) < 0.5
        noise[0] = True
        bits = np.stack([col, col, noise], axis=1)
        m = FootprintMatrix(bits, y)
        gold = gold_standard(performance_characteristic(m, seed=1), [0, 1, 2], seed=1)
        assert gold.values[0] == pytest.approx(gold.values[1], abs=1e-12)
        first, second = gold.ranking.pattern_ids[:2]
        assert (first, second) == (0, 1)

    def test_sampled_ranking_close_to_exact_on_ten_patterns(self):
        # 10-pattern synthetic set: sampled mode agrees with exact mode at
        # RBO >= 0.9 (p = 0.9)
        rng = np.random.default_rng(5)
        n = 16
        y = np.array([1] * 8 + [-1] * 8)
        cols = [(y == 1)]
        for j in range(9):
            c = rng.random(n) < 0.4
            c[j % n] = True
            cols.append(c)
        m = FootprintMatrix(np.stack(cols, axis=1), y.tolist())
        ids = list(range(10))
        exact = gold_standard(performance_characteristic(m, k=3, seed=2), ids,
                              seed=2, exact_limit=10)
        sampled = gold_standard(performance_characteristic(m, k=3, seed=2), ids,
                                seed=2, exact_limit=5, n_permutations=250)
        assert exact.method == "exact" and sampled.method.startswith("sampled")
        from patclass.rankcmp import rbo
        assert rbo(exact.ranking, sampled.ranking, p=0.9) >= 0.9

    def test_csv_schema(self):
        m = TestCharacteristic().make_matrix()
        gold = gold_standard(performance_characteristic(m, seed=0), [0, 1, 2], seed=0)
        text = shapley_csv(gold)
        lines = text.strip().splitlines()
        assert lines[0] == "pattern_id,shapley_value,std_error,rank"
        assert len(lines) == 4
