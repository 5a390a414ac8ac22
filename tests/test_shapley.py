import itertools
import random

import numpy as np
import pytest

from patclass.footprints import FootprintMatrix
from patclass.shapley import (CachedCharacteristic, ShapleyError, exact_shapley,
                              gold_standard, performance_characteristic,
                              sampled_shapley, shapley_csv)


def table_game(table):
    """Characteristic function from an explicit subset table."""
    return CachedCharacteristic(lambda s: table[frozenset(s)])


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

        assert exact_shapley(ids, f) == exact_shapley(ids, table_game(table))
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


class TestGoldStandard:
    def test_separating_pattern_ranked_first(self):
        m = TestCharacteristic().make_matrix()
        gold = gold_standard(m, [0, 1, 2], seed=0)
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
        gold = gold_standard(m, [0, 1, 2], seed=1)
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
        exact = gold_standard(m, ids, seed=2, k=3, exact_limit=10)
        sampled = gold_standard(m, ids, seed=2, k=3, exact_limit=5,
                                n_permutations=250)
        assert exact.method == "exact" and sampled.method.startswith("sampled")
        from patclass.rankcmp import rbo
        assert rbo(exact.ranking, sampled.ranking, p=0.9) >= 0.9

    def test_csv_schema(self):
        m = TestCharacteristic().make_matrix()
        gold = gold_standard(m, [0, 1, 2], seed=0)
        text = shapley_csv(gold)
        lines = text.strip().splitlines()
        assert lines[0] == "pattern_id,shapley_value,std_error,rank"
        assert len(lines) == 4
