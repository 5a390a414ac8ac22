import random

import pytest

from patclass.rankcmp import RankCmpError, kendall_tau, rbo

from oracles import (RankingPair, naive_kendall_tau, naive_rbo,
                     rbo_prefix_monotonicity_check, rbo_raw)


class TestRankingPair:
    def test_shared_universe_flag(self):
        assert RankingPair([1, 2, 3], [3, 2, 1]).shared_universe
        assert not RankingPair([1, 2], [1, 3]).shared_universe

    def test_delegation(self):
        pair = RankingPair([1, 2, 3], [1, 3, 2])
        assert pair.tau() == pytest.approx(1 / 3)
        assert 0.0 <= pair.rbo(p=0.9) <= 1.0

    def test_tau_needs_shared_universe(self):
        pair = RankingPair([1, 2], [1, 3])
        with pytest.raises(RankCmpError):
            pair.tau()
        assert pair.rbo(p=0.5) < 1.0


class TestKendallTau:
    def test_identical(self):
        assert kendall_tau([1, 2, 3, 4], [1, 2, 3, 4]) == 1.0

    def test_reversed(self):
        assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0

    def test_single_swap(self):
        assert kendall_tau([1, 2, 3], [1, 3, 2]) == pytest.approx(1 / 3)

    def test_symmetry(self):
        rng = random.Random(0)
        for _ in range(20):
            ids = list(range(rng.randint(2, 30)))
            a = ids[:]
            b = ids[:]
            rng.shuffle(a)
            rng.shuffle(b)
            assert kendall_tau(a, b) == pytest.approx(kendall_tau(b, a))

    def test_matches_pair_scan_oracle(self):
        rng = random.Random(1)
        for _ in range(200):
            s = rng.randint(2, 60)
            ids = list(range(s))
            a = ids[:]
            b = ids[:]
            rng.shuffle(a)
            rng.shuffle(b)
            assert kendall_tau(a, b) == pytest.approx(naive_kendall_tau(a, b))

    def test_different_sets_error(self):
        with pytest.raises(RankCmpError):
            kendall_tau([1, 2], [1, 3])

    def test_too_short_error(self):
        with pytest.raises(RankCmpError):
            kendall_tau([1], [1])


class TestRbo:
    def test_identical_lists_score_one(self):
        for p in (0.5, 0.9, 0.98):
            assert rbo([1, 2, 3], [1, 2, 3], p=p) == pytest.approx(1.0)

    def test_disjoint_lists_score_zero(self):
        assert rbo([1, 2], [3, 4], p=0.9) == 0.0

    def test_worked_example(self):
        # [A,B] vs [A,C], p = 0.5, s = 2: raw 0.625, normalized 5/6
        assert rbo(["A", "B"], ["A", "C"], p=0.5, depth=2) == pytest.approx(5 / 6)
        assert rbo_raw(["A", "B"], ["A", "C"], 0.5, 2) == pytest.approx(0.625)

    def test_matches_term_by_term_oracle(self):
        rng = random.Random(2)
        for _ in range(100):
            s = rng.randint(1, 40)
            universe = list(range(80))
            rng.shuffle(universe)
            a = universe[:s]
            rng.shuffle(universe)
            b = universe[:s]
            for p in (0.5, 0.9, 0.98):
                assert rbo(a, b, p=p, depth=s) == pytest.approx(
                    naive_rbo(a, b, p, s), abs=1e-12)

    def test_symmetry(self):
        rng = random.Random(3)
        for _ in range(30):
            universe = list(range(40))
            rng.shuffle(universe)
            a = universe[:10]
            rng.shuffle(universe)
            b = universe[:10]
            assert rbo(a, b, p=0.9) == pytest.approx(rbo(b, a, p=0.9))

    def test_bounded(self):
        rng = random.Random(4)
        for _ in range(50):
            universe = list(range(30))
            rng.shuffle(universe)
            a = universe[:rng.randint(1, 20)]
            rng.shuffle(universe)
            b = universe[:rng.randint(1, 20)]
            v = rbo(a, b, p=0.9)
            assert 0.0 <= v <= 1.0 + 1e-12

    def test_p_validation(self):
        with pytest.raises(RankCmpError):
            rbo([1], [1], p=1.0)
        with pytest.raises(RankCmpError):
            rbo([1], [1], p=0.0)

    def test_prefix_monotonicity(self):
        rng = random.Random(5)
        for _ in range(50):
            full = list(range(30))
            rng.shuffle(full)
            base = full[:rng.randint(1, 29)]
            for p in (0.5, 0.9, 0.98):
                assert rbo_prefix_monotonicity_check(base, full, p)

    def test_prefix_check_rejects_non_prefix(self):
        with pytest.raises(RankCmpError):
            rbo_prefix_monotonicity_check([1, 2], [2, 1, 3], 0.9)
