import random

import pytest

from patclass.measures import Ranking
from patclass.rankcmp import (RankCmpError, _count_inversions, equivalence_blocks,
                              kendall_tau, rbo)

from oracles import (RankingPair, naive_kendall_tau, naive_rbo,
                     rbo_prefix_monotonicity_check, rbo_raw,
                     reference_equivalence_blocks)


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
        # the inversion count behind tau, exactly, on permutations and on
        # values with repeats (equal values are not inverted)
        for s in [*range(12), *(rng.randint(12, 600) for _ in range(12)), 600]:
            values = list(range(s))
            rng.shuffle(values)
            repeats = [rng.randrange(max(1, s // 4)) for _ in range(s)]
            for v in (values, repeats):
                pairs = sum(x > y for i, x in enumerate(v) for y in v[i + 1:])
                assert _count_inversions(v) == pairs

    def test_different_sets_error(self):
        with pytest.raises(RankCmpError):
            kendall_tau([1, 2], [1, 3])

    def test_too_short_error(self):
        with pytest.raises(RankCmpError):
            kendall_tau([1], [1])


def random_rankings(seed, n_datasets=3, n_ids=10):
    """Eight measures' rankings per dataset, scores in 0..3 so ties are
    common. m1 orders like m0 everywhere (by other scores), m2 like m0 on the
    first dataset only, m3 and m4 score every id alike (ascending id), m5
    copies a random earlier measure's order on each dataset, m6 and m7 are
    random."""
    rng = random.Random(seed)
    rankings = {}
    for d in range(n_datasets):
        ids = rng.sample(range(50), n_ids)
        per = {"m0": Ranking.of({pid: rng.randrange(4) for pid in ids})}
        per["m1"] = Ranking.of({pid: 2 * s + 1 for pid, s in
                                zip(per["m0"].pattern_ids, per["m0"].scores)})
        per["m2"] = per["m0"] if d == 0 else Ranking.of(
            {pid: rng.randrange(4) for pid in ids})
        per["m3"] = Ranking.of(dict.fromkeys(ids, 1.0))
        per["m4"] = Ranking.of(dict.fromkeys(ids, -2.0))
        per["m5"] = per[f"m{rng.randrange(5)}"]
        for m in ("m6", "m7"):
            per[m] = Ranking.of({pid: rng.randrange(4) for pid in ids})
        rankings[f"d{d}"] = per
    return rankings


class TestEquivalenceBlocks:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_union_find_over_min_tau(self, seed):
        rankings = random_rankings(seed)
        got = equivalence_blocks(rankings)
        blocks, min_tau = reference_equivalence_blocks(rankings)
        assert got.blocks == blocks
        assert got.min_tau == min_tau
        for pair in ({"m0", "m1"}, {"m3", "m4"}):
            assert any(pair <= set(blk) for blk in got.blocks)
        for d, per in rankings.items():
            assert got.tau[d] == {
                (m1, m2): kendall_tau(per[m1], per[m2]) for (m1, m2) in min_tau}

    def test_identical_on_one_dataset_only_is_no_block(self):
        rankings = random_rankings(0)
        got = equivalence_blocks(rankings)
        assert got.tau["d0"][("m0", "m2")] == 1.0
        assert got.min_tau[("m0", "m2")] < 1.0
        assert not any({"m0", "m2"} <= set(blk) for blk in got.blocks)

    def test_input_errors(self):
        rankings = random_rankings(1)
        with pytest.raises(ValueError, match="at least one dataset"):
            equivalence_blocks({})
        del rankings["d1"]["m7"]
        with pytest.raises(ValueError, match="dataset d1 has a different measure set"):
            equivalence_blocks(rankings)
        rankings = random_rankings(1)
        rankings["d2"]["m6"] = Ranking.of({pid + 100: 0.0 for pid in
                                           rankings["d2"]["m6"].pattern_ids})
        with pytest.raises(RankCmpError, match="dataset d2: tau requires identical id sets"):
            equivalence_blocks(rankings)


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
