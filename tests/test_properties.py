import numpy as np
import pytest

from patclass import measures, properties
from patclass.footprints import ContingencyCounts, FootprintMatrix
from patclass.measures import MEASURE_NAMES, measure_info, rank
from patclass.properties import properties_csv, property_matrix
from patclass.rankcmp import equivalence_blocks, min_tau_csv

from oracles import (check, check_independence_equilibrium, check_ps2_exclusivity,
                     recheck_counterexample, reference_class_symmetry,
                     reference_property_matrix, reference_ps2)

# The one known gap between exhaustive verdicts and the declared flags:
# ColStr's printed composite formula changes sign where its second denominator
# crosses zero, which breaks the strict Jumpiness ordering at interior points.
KNOWN_FLAG_DEVIATIONS = {("ColStr", "Jumpiness")}


def make_random_matrix(seed, n_graphs=40, n_patterns=200):
    rng = np.random.default_rng(seed)
    while True:
        bits = rng.random((n_graphs, n_patterns)) < rng.uniform(0.15, 0.5, n_patterns)
        if bits.sum(axis=0).min() >= 1:
            break
    labels = [1] * (n_graphs // 2) + [-1] * (n_graphs - n_graphs // 2)
    return FootprintMatrix(bits, labels)


class TestContrastivity:
    def test_cover_fails_with_equal_a(self):
        rep = check("Cover", "Contrastivity", 10)
        assert not rep.holds
        c1, c2 = rep.counterexample
        assert c1.a == c2.a
        s1, s2 = rep.counterexample_scores
        assert s1 == s2

    def test_gr_holds(self):
        assert check("GR", "Contrastivity", 10).holds

    def test_verdicts_match_declared_column(self):
        for m in MEASURE_NAMES:
            rep = check(m, "Contrastivity", 10)
            expected = measure_info(m).contrastivity
            if (m, "Contrastivity") in KNOWN_FLAG_DEVIATIONS:
                assert rep.holds != expected
            else:
                assert rep.holds == expected, (m, rep.counterexample)


class TestJumpiness:
    def test_conf_fails_tied_at_one(self):
        rep = check("Conf", "Jumpiness", 10)
        assert not rep.holds
        assert rep.counterexample_scores == (1.0, 1.0)

    def test_supdif_holds(self):
        assert check("SupDif", "Jumpiness", 10).holds

    def test_infinite_ties_fail_strictness(self):
        # GR scores +inf on every jumping pattern; +inf > +inf is false
        rep = check("GR", "Jumpiness", 10)
        assert not rep.holds
        assert rep.counterexample_scores[0] == float("inf")

    def test_verdicts_match_declared_column(self):
        for m in MEASURE_NAMES:
            rep = check(m, "Jumpiness", 10)
            expected = measure_info(m).jumpiness
            if (m, "Jumpiness") in KNOWN_FLAG_DEVIATIONS:
                assert rep.holds != expected, "deviation resolved; update the notes"
            else:
                assert rep.holds == expected, (m, rep.counterexample)

    def test_colstr_deviation_is_interior(self):
        # documented deviation: no infinity or zero-division involved
        import math
        rep = check("ColStr", "Jumpiness", 10)
        assert not rep.holds
        s1, s2 = rep.counterexample_scores
        assert math.isfinite(s1) and math.isfinite(s2)


class TestClassSymmetry:
    def test_dep_holds(self):
        assert check("Dep", "ClassSymmetry", 10).holds

    def test_conf_fails_with_worked_counterexample(self):
        rep = check("Conf", "ClassSymmetry", 3)
        assert not rep.holds
        from patclass.measures import score
        assert score("Conf", ContingencyCounts(3, 2, 3, 3)) == 0.6
        assert score("Conf", ContingencyCounts(2, 3, 3, 3)) == 0.4

    def test_verdicts_match_declared_column(self):
        for m in MEASURE_NAMES:
            rep = check(m, "ClassSymmetry", 10)
            assert rep.holds == measure_info(m).class_symmetry, (m, rep.counterexample)


class TestPatternSymmetry:
    def test_abssupdif_holds(self):
        assert check("AbsSupDif", "PatternSymmetry", 10).holds

    def test_conf_fails(self):
        assert not check("Conf", "PatternSymmetry", 10).holds

    def test_verdicts_match_declared_column(self):
        for m in MEASURE_NAMES:
            rep = check(m, "PatternSymmetry", 10)
            assert rep.holds == measure_info(m).pattern_symmetry, (m, rep.counterexample)


class TestStabilityAndRecheck:
    @pytest.mark.parametrize("n", [5, 10, 20])
    def test_verdicts_stable_across_n(self, n):
        for rep in property_matrix(n):
            expected = measure_info(rep.measure).flags[
                ("Contrastivity", "Jumpiness", "ClassSymmetry",
                 "PatternSymmetry").index(rep.property)]
            if (rep.measure, rep.property) in KNOWN_FLAG_DEVIATIONS:
                assert rep.holds != expected
            else:
                assert rep.holds == expected, (rep.measure, rep.property, n)

    def test_counterexamples_recheck(self):
        for rep in property_matrix(10):
            if not rep.holds:
                assert recheck_counterexample(rep)


class TestIndependenceEquilibrium:
    @pytest.mark.parametrize("n", [5, 10, 20])
    def test_equivalence_holds(self, n):
        assert check_independence_equilibrium(n)

    def test_single_tables(self):
        from fractions import Fraction
        # a = b = 3: independent and in equilibrium
        n = 10
        assert Fraction(3, 2 * n) == Fraction(6, 2 * n) * Fraction(1, 2)
        # a=5, b=1: neither
        assert Fraction(5, 2 * n) != Fraction(6, 2 * n) * Fraction(1, 2)
        assert Fraction(5, 6) != Fraction(1, 6)


class TestPS2:
    def test_no_measure_is_ps2_and_class_symmetric(self):
        for name, ps2, cs in check_ps2_exclusivity(10):
            assert not (ps2 and cs), name

    def test_abssupdif_not_ps2(self):
        results = dict((n, (p, c)) for n, p, c in check_ps2_exclusivity(5))
        ps2, cs = results["AbsSupDif"]
        assert cs and not ps2

    def test_conf_is_ps2_not_class_symmetric(self):
        rep = check("Conf", "PS2", 10)
        assert rep.holds
        assert not check("Conf", "ClassSymmetry", 10).holds

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_matches_per_call_reference(self, n):
        for m in MEASURE_NAMES:
            assert check(m, "PS2", n) == reference_ps2(m, n)  # counterexample scores too
        assert check_ps2_exclusivity(n) == [
            (m, reference_ps2(m, n).holds, reference_class_symmetry(m, n).holds)
            for m in MEASURE_NAMES]


class TestEquivalenceBlocks:
    # On balanced data Dep, Gini, Fisher and Entropy are all strictly
    # increasing functions of |p(pos|P) - 0.5| with identical tie structure,
    # so exact-arithmetic scoring necessarily merges Entropy into that block
    # (the shipped reference block table keeps Entropy separate, an artifact
    # only float noise can produce; see README).
    EXPECTED = [
        {"Conf", "CFactor", "GR", "Brins", "Cole", "Lift", "Sebag", "Zhang",
         "CConf", "InfGain"},
        {"Acc", "Lever", "WRACC", "SupDif"},
        {"Cos", "Strength"},
        {"Cover", "Sup"},
        {"Spec", "FPR"},
        {"Dep", "Gini", "Fisher", "Entropy"},
    ]

    def build(self, n_datasets=3, n_patterns=120):
        rankings = {}
        for d in range(n_datasets):
            mat = make_random_matrix(seed=100 + d, n_patterns=n_patterns)
            ids = list(range(mat.n_patterns))
            rankings[f"synth{d}"] = {m: rank(m, mat, ids) for m in MEASURE_NAMES}
        return equivalence_blocks(rankings)

    def test_reference_blocks_form(self):
        blocks = self.build()
        got = [set(b) for b in blocks.blocks if len(b) > 1]
        for want in self.EXPECTED:
            assert want in got, want

    def test_no_extra_merges(self):
        blocks = self.build()
        for b in blocks.blocks:
            if len(b) > 1:
                assert set(b) in self.EXPECTED, b

    def test_min_tau_matrix_bounds_and_symmetric_storage(self):
        blocks = self.build(n_datasets=2, n_patterns=60)
        for (m1, m2), t in blocks.min_tau.items():
            assert m1 < m2
            assert -1.0 <= t <= 1.0
        text = min_tau_csv(blocks)
        assert text.startswith("measure_a,measure_b,min_tau")

    def test_mismatched_pattern_sets_error(self):
        mat = make_random_matrix(seed=1, n_patterns=30)
        r1 = {m: rank(m, mat, list(range(30))) for m in ("Sup", "Conf")}
        r_bad = {"Sup": rank("Sup", mat, list(range(29))),
                 "Conf": rank("Conf", mat, list(range(30)))}
        from patclass.rankcmp import RankCmpError
        with pytest.raises(RankCmpError):
            equivalence_blocks({"d0": r_bad})


class TestCsvReport:
    def test_schema(self):
        reports = property_matrix(5, measures=["Conf", "Dep"])
        text = properties_csv(reports)
        lines = text.strip().splitlines()
        assert lines[0].startswith("measure,property,holds")
        assert len(lines) == 1 + 8


class TestSharedScorer:
    @pytest.mark.parametrize("n", [2, 3, 5, 10, 20])
    def test_matrix_matches_per_call_reference(self, n):
        got = property_matrix(n)
        want = reference_property_matrix(n)
        assert properties_csv(got).splitlines() == properties_csv(want).splitlines()
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == w  # counterexample scores too

    @pytest.mark.parametrize("n", [5, 10])
    def test_one_measure_alone_matches_its_rows_of_the_matrix(self, n):
        # kits are shared across measures, raw scores are not: a measure
        # checked alone reads no score another measure left behind
        full = property_matrix(n)
        for m in MEASURE_NAMES:
            assert property_matrix(n, [m]) == [r for r in full if r.measure == m], m

    def test_one_kit_per_table_of_the_grid(self, monkeypatch):
        built = []
        real = measures.prob_kit

        def counting(counts):
            built.append(counts)
            return real(counts)

        monkeypatch.setattr(measures, "prob_kit", counting)
        n = 10
        property_matrix(n)
        assert len(built) == len(set(built)) <= (n + 1) ** 2 - 1

    def test_checks_stop_at_their_first_counterexample(self, monkeypatch):
        # A check scores no table past its first violation, so the matrix
        # scores 14,682 of the 38 * 440 (measure, table) pairs of the grid.
        evaluated = []
        real = properties.scorer

        def counting(measure, kit):
            def counted_kit(counts):
                evaluated.append((measure, counts))
                return kit(counts)
            return real(measure, counted_kit)

        monkeypatch.setattr(properties, "scorer", counting)
        property_matrix(20)
        assert len(evaluated) == len(set(evaluated)) == 14_682

    def test_n_below_two_rejected(self):
        for n in (1, 0, -3):
            with pytest.raises(ValueError):
                property_matrix(n)
