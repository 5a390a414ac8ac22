import functools
import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest

from patclass.footprints import ContingencyCounts, FootprintMatrix, contingency
from patclass.measures import (KNOWN_BOUND_EXCEPTIONS, MEASURE_NAMES,
                               REVERSED_MEASURES, MeasureError, effective,
                               effective_score, measure_info, prob_kit, rank,
                               rank_all, score, scorer, scores_csv)

from oracles import reference_rank, reference_scores_csv

INF = math.inf


def C(a, b, n_pos=3, n_neg=3):
    return ContingencyCounts(a, b, n_pos, n_neg)


def matrix_of(counts, n_pos, n_neg):
    """A FootprintMatrix whose column pid has the table counts[pid]."""
    bits = np.zeros((n_pos + n_neg, len(counts)), dtype=bool)
    for pid, c in counts.items():
        bits[:c.a, pid] = True
        bits[n_pos:n_pos + c.b, pid] = True
    mat = FootprintMatrix(bits, [1] * n_pos + [-1] * n_neg)
    assert {pid: contingency(mat, pid) for pid in counts} == counts
    return mat


class TestProbKit:
    def test_fig_p4(self):
        k = prob_kit(C(2, 3))
        assert k.pos_given_pattern == Fraction(2, 5)
        assert k.pattern_given_pos == Fraction(2, 3)
        assert k.joint_absent_pos == Fraction(1, 6)

    def test_fig_p1(self):
        k = prob_kit(C(3, 0))
        assert k.p_pattern == Fraction(3, 6)

    def test_full_support(self):
        k = prob_kit(C(3, 3))
        assert k.p_pattern == 1 and k.p_absent == 0
        # conditionals on the empty absent side fall back to the class prior,
        # keeping the partition identity valid on every table
        assert k.pos_given_absent == Fraction(1, 2)
        assert k.neg_given_absent == Fraction(1, 2)
        assert k.pos_given_absent + k.neg_given_absent == 1

    def test_partition_identities(self):
        for a in range(4):
            for b in range(4):
                if a + b == 0:
                    continue
                k = prob_kit(C(a, b))
                assert k.p_pattern + k.p_absent == 1
                if k.p_pattern > 0:
                    assert k.pos_given_pattern + k.neg_given_pattern == 1
                assert k.pattern_given_pos == 2 * k.joint_pattern_pos  # balanced


class TestScoreExamples:
    def test_conf_fig_p2(self):
        assert score("Conf", C(3, 2)) == 0.6

    def test_cover_equal_for_equal_positive_support(self):
        assert score("Cover", C(3, 0)) == 1.0
        assert score("Cover", C(3, 2)) == 1.0

    def test_acc_fig_p2(self):
        assert score("Acc", C(3, 2)) == pytest.approx(2 / 3)
        assert score("Acc", C(3, 2)) == 3 / 6 + 1 / 6

    def test_gr_jumping_is_infinite(self):
        assert score("GR", C(3, 0)) == INF

    def test_gini_equilibrium_vs_jumping(self):
        assert score("Gini", C(2, 2)) == 0.5
        assert effective_score("Gini", C(2, 2)) == -0.5
        assert score("Gini", C(2, 0)) == 0.0
        assert effective_score("Gini", C(2, 0)) == 0.0

    def test_entropy_bounds_need_base2(self):
        assert score("Entropy", C(2, 2)) == 1.0
        assert score("Entropy", C(2, 0)) == 0.0

    def test_dep_class_swap_example(self):
        # Conf is asymmetric on the worked example; Dep is symmetric.
        assert score("Conf", C(3, 2)) == 0.6
        assert score("Conf", C(2, 3)) == 0.4
        assert score("Dep", C(3, 2)) == score("Dep", C(2, 3))

    def test_strength_of_jumping_pattern_uses_ratio_one(self):
        # GR = +inf, so GR/(GR+1) evaluates as 1 and Strength = p(P, pos)
        assert score("Strength", C(3, 0)) == 0.5

    def test_lift_is_twice_conf_when_balanced(self):
        for a in range(4):
            for b in range(4):
                if a + b == 0:
                    continue
                lift = score("Lift", C(a, b))
                conf = score("Conf", C(a, b))
                assert lift == pytest.approx(2 * conf)

    def test_supdif_balanced_identity(self):
        for a in range(4):
            for b in range(4):
                if a + b == 0:
                    continue
                k = prob_kit(C(a, b))
                expected = 2 * (k.joint_pattern_pos - k.joint_pattern_neg)
                assert score("SupDif", C(a, b)) == float(expected)

    def test_unknown_measure(self):
        with pytest.raises(MeasureError):
            score("Bogus", C(1, 1))

    def test_no_nan_on_exhaustive_domain(self):
        n = 6
        for m in MEASURE_NAMES:
            for a in range(n + 1):
                for b in range(n + 1):
                    if a + b == 0:
                        continue
                    v = score(m, C(a, b, n, n))
                    assert not math.isnan(v)


class TestFrozenValues:
    # Hand-derived on (a=2, b=1, n_pos=n_neg=3): p(P)=1/2, p(pos|P)=2/3,
    # p(P|pos)=2/3, p(P|neg)=1/3, joints (1/3, 1/6, 1/6, 1/3). Rational
    # results are asserted exactly; log/sqrt results to 1e-12.
    EXACT = {
        "AbsSupDif": Fraction(1, 3),
        "Acc": Fraction(2, 3),
        "Brins": Fraction(3, 2),
        "CConf": Fraction(1, 6),
        "CFactor": Fraction(1, 3),
        "Cole": Fraction(1, 3),
        "Conf": Fraction(2, 3),
        "Cover": Fraction(2, 3),
        "Dep": Fraction(1, 6),
        "Excex": Fraction(1, 2),
        "Fisher": Fraction(1, 4),
        "FPR": Fraction(1, 3),
        "Gini": Fraction(4, 9),
        "GR": Fraction(2),
        "Jacc": Fraction(1, 2),
        "Lap": Fraction(3, 5),
        "Lever": Fraction(1, 12),
        "Lift": Fraction(4, 3),
        "NetConf": Fraction(1, 3),
        "OddsR": Fraction(5, 2),
        "RelRisk": Fraction(2),
        "Sebag": Fraction(2),
        "Spec": Fraction(2, 3),
        "Strength": Fraction(2, 9),
        "Sup": Fraction(1, 3),
        "SupDif": Fraction(1, 3),
        "WRACC": Fraction(1, 12),
        "Zhang": Fraction(1, 2),
        "Chi2": Fraction(2, 3),
        "MDisc": Fraction(2),  # log2 of an exact power of two
    }
    APPROX = {
        # Entropy = H(2/3) = log2(3) - 2/3; Gain = (1/3) log2(4/3);
        # InfGain = log2(4/3); Cos = sqrt(4/9); Klos = sqrt(1/3)/6;
        # Pearson = 1/(3 sqrt 6); MutInf = (2/3)log2(4/3) + (1/3)log2(2/3)
        "Entropy": math.log2(3) - 2 / 3,
        "Gain": math.log2(4 / 3) / 3,
        "InfGain": math.log2(4 / 3),
        "Cos": 2 / 3,
        "Klos": math.sqrt(1 / 3) / 6,
        "Pearson": 1 / (3 * math.sqrt(6)),
        "MutInf": (2 / 3) * math.log2(4 / 3) + (1 / 3) * math.log2(2 / 3),
    }

    def test_exact_values(self):
        counts = C(2, 1)
        for name, frac in self.EXACT.items():
            assert score(name, counts) == float(frac), name

    def test_irrational_values(self):
        counts = C(2, 1)
        for name, val in self.APPROX.items():
            assert score(name, counts) == pytest.approx(val, abs=1e-12), name

    def test_colstr_hits_exact_zero_denominator(self):
        # 1 - p(P,pos) - p(neg|absent) = 1 - 1/3 - 2/3 = 0 exactly, so the
        # x/0 convention fires; a float pipeline would return ~6e15 instead
        assert score("ColStr", C(2, 1)) == INF

    def test_all_measures_covered(self):
        assert set(self.EXACT) | set(self.APPROX) | {"ColStr"} == set(MEASURE_NAMES)


class TestEffectiveScore:
    def test_reversed_set(self):
        assert REVERSED_MEASURES == {"FPR", "Gini", "Entropy"}

    def test_fpr_ordering_reverses(self):
        counts = [C(a, b, 5, 5) for a in range(6) for b in range(6) if a + b >= 1]
        raw_order = sorted(range(len(counts)), key=lambda i: -score("FPR", counts[i]))
        eff_order = sorted(range(len(counts)), key=lambda i: -effective_score("FPR", counts[i]))
        raw_scores = [score("FPR", c) for c in counts]
        eff_scores = [effective_score("FPR", c) for c in counts]
        for i in raw_order:
            assert eff_scores[i] == -raw_scores[i] or raw_scores[i] == 0

    def test_non_reversed_identity(self):
        assert effective_score("Conf", C(3, 2)) == score("Conf", C(3, 2))


class TestRanking:
    def test_higher_first(self, six_graph_matrix):
        r = rank("Sup", six_graph_matrix, [0, 2])
        assert r.pattern_ids == (0, 2)

    def test_tie_breaks_by_id(self, six_graph_matrix):
        # patterns 0 and 2 are both jumping; Conf scores both 1
        r = rank("Conf", six_graph_matrix, [2, 0])
        assert r.pattern_ids == (0, 2)
        assert r.scores == (1.0, 1.0)

    def test_sup_matches_sort_oracle(self):
        import random
        rng = random.Random(7)
        counts = {}
        for pid in range(20):
            a = rng.randint(0, 10)
            b = rng.randint(0 if a else 1, 10)
            counts[pid] = ContingencyCounts(a, b, 10, 10)
        r = rank("Sup", matrix_of(counts, 10, 10), list(counts))
        oracle = sorted(counts, key=lambda pid: (-counts[pid].a, pid))
        assert list(r.pattern_ids) == oracle

    def test_empty_ids_rejected(self, six_graph_matrix):
        with pytest.raises(MeasureError):
            rank("Sup", six_graph_matrix, [])


class TestTableMetadata:
    def test_38_measures(self):
        assert len([measure_info(m) for m in MEASURE_NAMES]) == 38
        assert len(MEASURE_NAMES) == 38

    def test_abssupdif_flags(self):
        info = measure_info("AbsSupDif")
        assert info.flags == (False, True, True, True)

    def test_gr_flags(self):
        info = measure_info("GR")
        assert info.flags == (True, False, False, False)

    def test_bounds_on_exhaustive_domain(self):
        n = 10
        for info in map(measure_info, MEASURE_NAMES):
            if info.name in KNOWN_BOUND_EXCEPTIONS:
                continue
            for a in range(n + 1):
                for b in range(n + 1):
                    if a + b == 0:
                        continue
                    v = score(info.name, C(a, b, n, n))
                    if math.isinf(v):
                        continue
                    assert info.lower - 1e-12 <= v <= info.upper + 1e-12, \
                        (info.name, a, b, v)

    def test_known_bound_exceptions_are_real(self):
        n = 10
        # InfGain exceeds 0, Klos drops below 0, ColStr drops below -10
        assert score("InfGain", C(5, 0, n, n)) == 1.0
        assert score("Klos", C(1, 9, n, n)) < 0
        assert min(score("ColStr", C(a, 0, n, n)) for a in range(1, n + 1)) < -10

    def test_argmax_invariance_under_log_base(self):
        # rankings from log-based measures are identical for base 2 and base e
        import random
        rng = random.Random(3)
        counts = {}
        for pid in range(30):
            a = rng.randint(0, 10)
            b = rng.randint(0 if a else 1, 10)
            counts[pid] = ContingencyCounts(a, b, 10, 10)
        ln2 = math.log(2.0)
        log_measures = ("Gain", "InfGain", "MDisc", "MutInf", "Entropy")
        rankings = rank_all(matrix_of(counts, 10, 10), list(counts), log_measures)
        for m in log_measures:
            base2 = rankings[m].pattern_ids
            rescaled = {pid: effective_score(m, c) * ln2 for pid, c in counts.items()}
            basee = tuple(sorted(rescaled, key=lambda pid: (-rescaled[pid], pid)))
            assert base2 == basee


class TestSymmetryInvariants:
    def test_pattern_symmetry_exact(self):
        n = 10
        for m in ("AbsSupDif", "MutInf", "Chi2"):
            for a in range(n + 1):
                for b in range(n + 1):
                    if not (1 <= a + b <= 2 * n - 1):
                        continue
                    assert score(m, C(a, b, n, n)) == score(m, C(n - a, n - b, n, n)), \
                        (m, a, b)

    def test_class_symmetry_exact(self):
        n = 10
        for m in ("AbsSupDif", "Dep", "Entropy", "Fisher", "Gini", "MutInf", "Chi2"):
            for a in range(n + 1):
                for b in range(n + 1):
                    if a + b == 0:
                        continue
                    assert score(m, C(a, b, n, n)) == score(m, C(b, a, n, n)), (m, a, b)


class TestCsvExport:
    def test_schema_and_infinities(self, six_graph_matrix):
        text = scores_csv(six_graph_matrix, [0, 1, 2, 3], measures=["GR", "Conf"])
        lines = text.strip().splitlines()
        assert lines[0] == "pattern_id,measure,raw_score,effective_score,rank"
        gr_rows = [l for l in lines[1:] if l.split(",")[1] == "GR"]
        assert any(",inf," in row for row in gr_rows)
        # P0 is jumping with higher support: GR rank 1; P2 also inf but higher id
        rank_of = {int(r.split(",")[0]): int(r.split(",")[4]) for r in gr_rows}
        assert rank_of[0] == 1 and rank_of[2] == 2


def _tables(n_pos, n_neg):
    return [ContingencyCounts(a, b, n_pos, n_neg)
            for a in range(n_pos + 1) for b in range(n_neg + 1) if a + b]


class TestTableScorer:
    # The memoized path that rank_all, scores_csv and the property matrix
    # take: one kit memo for all measures, one memoized scorer per measure.
    # Every balanced table with n <= 10, plus unbalanced class sizes, so a
    # key that dropped the class sizes would mix tables up
    TABLES = ([c for n in range(1, 11) for c in _tables(n, n)]
              + [c for sizes in ((1, 4), (3, 7), (10, 2), (5, 13))
                 for c in _tables(*sizes)])

    def test_shared_scorer_matches_per_call_scores_bit_for_bit(self):
        want = {(m, c): (score(m, c), effective_score(m, c))
                for m in MEASURE_NAMES for c in self.TABLES}
        # measure by measure, each table twice (the second read is stored),
        # and shuffled, which switches measure on almost every call
        measure_major = [(m, c) for m in MEASURE_NAMES
                         for c in self.TABLES + self.TABLES]
        shuffled = list(want)
        random.Random(11).shuffle(shuffled)
        for pairs in (measure_major, shuffled):
            kit = functools.cache(prob_kit)
            raw = {m: scorer(m, kit) for m in MEASURE_NAMES}
            wrong = [(m, c) for m, c in pairs
                     if struct.pack("<dd", raw[m](c), effective(m, raw[m](c)))
                     != struct.pack("<dd", *want[(m, c)])]
            assert not wrong[:3], f"{len(wrong)} scores differ"
        flat = [x for row in want.values() for x in row]
        assert math.inf in flat and -math.inf in flat

    def test_one_kit_per_distinct_table(self, monkeypatch):
        from patclass import measures
        built = []
        real = measures.prob_kit

        def counting(counts):
            built.append(counts)
            return real(counts)

        monkeypatch.setattr(measures, "prob_kit", counting)
        kit = functools.cache(measures.prob_kit)
        tables = _tables(3, 5)
        for m in MEASURE_NAMES:
            raw = scorer(m, kit)
            for c in tables + tables:
                effective(m, raw(c))
        assert built == tables
        # rank_all builds its own memo the same way, one kit per table
        built.clear()
        mat = matrix_of(dict(enumerate(tables)), 3, 5)
        rank_all(mat, range(len(tables)), MEASURE_NAMES)
        assert built == tables


def _random_matrix(seed):
    rng = np.random.default_rng(seed)
    n_graphs = int(rng.integers(8, 60))
    while True:
        bits = rng.random((n_graphs, 80)) < rng.uniform(0.05, 0.6, 80)
        if bits.sum(axis=0).min() >= 1:
            break
    labels = np.where(rng.random(n_graphs) < rng.uniform(0.2, 0.8), 1, -1)
    labels[:2] = (1, -1)
    return FootprintMatrix(bits, labels.tolist())


class TestSharedScorerOutputs:
    @pytest.mark.parametrize("seed", range(6))
    def test_scores_csv_and_rank_match_per_call_scoring(self, seed):
        mat = _random_matrix(seed)
        ids = random.Random(seed).sample(range(mat.n_patterns), 50)
        # compared as line lists: a failing text comparison is slow to report
        assert (scores_csv(mat, ids).splitlines()
                == reference_scores_csv(mat, ids, MEASURE_NAMES).splitlines())
        rankings = rank_all(mat, ids, MEASURE_NAMES)
        for m in MEASURE_NAMES:
            want = reference_rank(m, mat, ids)
            assert rank(m, mat, ids) == want
            assert rankings[m] == want
