"""Exhaustive verification of measure properties on balanced contingency space.

Each property quantifies over whole-number contingency tables (a, b) with
class sizes n_pos = n_neg = n, so checks are exhaustive rather than sampled.
Scores are compared as extended reals with strict inequalities: two patterns
tied at +inf are a genuine strictness violation.

Quantifier domains:
  - every table must be realizable by a mined pattern, so a + b >= 1;
  - Contrastivity fixes the positive support a and is checked on the
    non-degenerate slice 1 <= a <= n-1. At a = 0 almost every measure
    collapses to a constant of b (zero numerators), and at a = n the
    pattern-absent conditionals degenerate the same way; both slices produce
    ties that the declared property columns ignore;
  - Jumpiness fixes b = 0 and compares a > a' >= 1;
  - Class Symmetry uses every table, Pattern Symmetry every table with
    1 <= a + b <= 2n - 1 (so the complement pattern also occurs somewhere).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional, Sequence

from . import measures as _measures  # prob_kit is looked up per call
from .footprints import ContingencyCounts
from .measures import (MEASURE_NAMES, Ranking, effective, effective_score,
                       measure_info, score, scorer)
from .rankcmp import RankCmpError, kendall_tau

PROPERTIES = ("Contrastivity", "Jumpiness", "ClassSymmetry", "PatternSymmetry")


@dataclass(frozen=True)
class PropertyReport:
    measure: str
    property: str
    holds: bool
    counterexample: Optional[tuple[ContingencyCounts, ContingencyCounts]]
    counterexample_scores: Optional[tuple[float, float]]
    domain: int  # class size n used

    def expected(self) -> bool:
        info = measure_info(self.measure)
        return {"Contrastivity": info.contrastivity,
                "Jumpiness": info.jumpiness,
                "ClassSymmetry": info.class_symmetry,
                "PatternSymmetry": info.pattern_symmetry,
                "PS2": False}.get(self.property, False)

    def matches_declared(self) -> bool:
        return self.holds == self.expected()


def _report(measure, prop, n, violation) -> PropertyReport:
    if violation is None:
        return PropertyReport(measure, prop, True, None, None, n)
    c1, c2, s1, s2 = violation
    return PropertyReport(measure, prop, False, (c1, c2), (s1, s2), n)


Raw = Callable[[ContingencyCounts], float]  # a memoized `measures.scorer`


def _contrastivity(raw: Raw, measure: str, n: int) -> PropertyReport:
    if n < 2:
        raise ValueError("n must be >= 2")
    for a in range(1, n):
        effs = [effective(measure, raw(ContingencyCounts(a, b, n, n)))
                for b in range(n + 1)]
        for b in range(n + 1):
            for b2 in range(b + 1, n + 1):
                if not effs[b] > effs[b2]:
                    return _report(measure, "Contrastivity", n,
                                   (ContingencyCounts(a, b, n, n),
                                    ContingencyCounts(a, b2, n, n),
                                    effs[b], effs[b2]))
    return _report(measure, "Contrastivity", n, None)


def _jumpiness(raw: Raw, measure: str, n: int) -> PropertyReport:
    if n < 2:
        raise ValueError("n must be >= 2")
    effs = {a: effective(measure, raw(ContingencyCounts(a, 0, n, n)))
            for a in range(1, n + 1)}
    for a2 in range(1, n + 1):
        for a in range(a2 + 1, n + 1):
            if not effs[a] > effs[a2]:
                return _report(measure, "Jumpiness", n,
                               (ContingencyCounts(a, 0, n, n),
                                ContingencyCounts(a2, 0, n, n),
                                effs[a], effs[a2]))
    return _report(measure, "Jumpiness", n, None)


def _class_symmetry(raw: Raw, measure: str, n: int) -> PropertyReport:
    for a in range(n + 1):
        for b in range(n + 1):
            if a + b == 0:
                continue
            s1 = raw(ContingencyCounts(a, b, n, n))
            s2 = raw(ContingencyCounts(b, a, n, n))
            if s1 != s2:
                return _report(measure, "ClassSymmetry", n,
                               (ContingencyCounts(a, b, n, n),
                                ContingencyCounts(b, a, n, n), s1, s2))
    return _report(measure, "ClassSymmetry", n, None)


def _pattern_symmetry(raw: Raw, measure: str, n: int) -> PropertyReport:
    for a in range(n + 1):
        for b in range(n + 1):
            if not (1 <= a + b <= 2 * n - 1):
                continue
            s1 = raw(ContingencyCounts(a, b, n, n))
            s2 = raw(ContingencyCounts(n - a, n - b, n, n))
            if s1 != s2:
                return _report(measure, "PatternSymmetry", n,
                               (ContingencyCounts(a, b, n, n),
                                ContingencyCounts(n - a, n - b, n, n), s1, s2))
    return _report(measure, "PatternSymmetry", n, None)


def check_contrastivity(measure: str, n: int) -> PropertyReport:
    """Equal positive support, lower negative support must score strictly
    higher (effective scale)."""
    return _contrastivity(scorer(measure, _measures.prob_kit), measure, n)


def check_jumpiness(measure: str, n: int) -> PropertyReport:
    """Among patterns exclusive to the positive class, higher support must
    score strictly higher (effective scale)."""
    return _jumpiness(scorer(measure, _measures.prob_kit), measure, n)


def check_class_symmetry(measure: str, n: int) -> PropertyReport:
    """Raw score invariant under swapping the two classes, exactly."""
    return _class_symmetry(scorer(measure, _measures.prob_kit), measure, n)


def check_pattern_symmetry(measure: str, n: int) -> PropertyReport:
    """Raw score invariant under replacing presence with absence, exactly."""
    return _pattern_symmetry(scorer(measure, _measures.prob_kit), measure, n)


# Each check takes the scorer its caller shares, so a property matrix scores
# every (measure, table) once however many checks and operands reach it, and
# builds one kit per table for all measures. Scoring stays lazy: a check
# that exits early never scores the tables it did not reach.
_CHECKS = {
    "Contrastivity": _contrastivity,
    "Jumpiness": _jumpiness,
    "ClassSymmetry": _class_symmetry,
    "PatternSymmetry": _pattern_symmetry,
}


def recheck_counterexample(report: PropertyReport) -> bool:
    """Re-evaluate a false verdict's counterexample; True iff it still
    violates the property."""
    if report.holds or report.counterexample is None:
        return False
    c1, c2 = report.counterexample
    if report.property in ("Contrastivity", "Jumpiness", "PS2"):
        return not (effective_score(report.measure, c1)
                    > effective_score(report.measure, c2))
    return score(report.measure, c1) != score(report.measure, c2)


def property_matrix(n: int = 10,
                    measures: Sequence[str] | None = None) -> list[PropertyReport]:
    """All (measure, property) verdicts over the balanced domain of size n."""
    kit = cache(_measures.prob_kit)
    out = []
    for m in MEASURE_NAMES if measures is None else measures:
        raw = scorer(m, kit)
        for prop in PROPERTIES:
            out.append(_CHECKS[prop](raw, m, n))
    return out


def check_independence_equilibrium(n: int) -> bool:
    """Independence (p(P, pos) = p(P) p(pos)) and equilibrium
    (p(pos|P) = p(neg|P)) coincide on every balanced table."""
    from fractions import Fraction
    for a in range(n + 1):
        for b in range(n + 1):
            if a + b == 0:
                continue
            independent = Fraction(a, 2 * n) == Fraction(a + b, 2 * n) * Fraction(1, 2)
            equilibrium = Fraction(a, a + b) == Fraction(b, a + b)
            if independent != equilibrium:
                return False
    return True


def _ps2(raw: Raw, measure: str, n: int) -> PropertyReport:
    for t in range(1, 2 * n + 1):
        lo = max(0, t - n)
        hi = min(n, t)
        effs = {a: effective(measure, raw(ContingencyCounts(a, t - a, n, n)))
                for a in range(lo, hi + 1)}
        for a2 in range(lo, hi + 1):
            for a in range(a2 + 1, hi + 1):
                if not effs[a] > effs[a2]:
                    return _report(measure, "PS2", n,
                                   (ContingencyCounts(a, t - a, n, n),
                                    ContingencyCounts(a2, t - a2, n, n),
                                    effs[a], effs[a2]))
    return PropertyReport(measure, "PS2", True, None, None, n)


def check_ps2(measure: str, n: int) -> PropertyReport:
    """Monotone increase with the positive joint when overall support is
    fixed: for a > a' with a + b = a' + b', the score must strictly grow."""
    return _ps2(scorer(measure, _measures.prob_kit), measure, n)


def check_ps2_exclusivity(n: int) -> list[tuple[str, bool, bool]]:
    """Per measure: (name, PS2 holds, Class Symmetry holds). No measure may
    have both."""
    kit = cache(_measures.prob_kit)
    out = []
    for m in MEASURE_NAMES:
        raw = scorer(m, kit)
        ps2 = _ps2(raw, m, n).holds
        cs = _class_symmetry(raw, m, n).holds
        out.append((m, ps2, cs))
    return out


@dataclass(frozen=True)
class EquivalenceBlocks:
    """Partition of measures into identical-ranking blocks, witnessed by the
    minimum pairwise tau over all datasets."""

    blocks: tuple[tuple[str, ...], ...]
    measures: tuple[str, ...]
    min_tau: dict[tuple[str, str], float]


def equivalence_blocks(rankings: dict[str, dict[str, Ranking]]) -> EquivalenceBlocks:
    """rankings: dataset name -> measure name -> Ranking over that dataset's
    representative set. Blocks join measures whose rankings are identical
    (min tau == 1 exactly) on every dataset."""
    if not rankings:
        raise ValueError("at least one dataset required")
    datasets = sorted(rankings)
    measures = sorted(rankings[datasets[0]])
    for d in datasets:
        if sorted(rankings[d]) != measures:
            raise ValueError(f"dataset {d} has a different measure set")
        id_sets = {frozenset(rankings[d][m].pattern_ids) for m in measures}
        if len(id_sets) != 1:
            raise RankCmpError(f"dataset {d}: rankings cover different pattern sets")

    min_tau: dict[tuple[str, str], float] = {}
    parent = {m: m for m in measures}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, m1 in enumerate(measures):
        for m2 in measures[i + 1:]:
            t = min(kendall_tau(rankings[d][m1], rankings[d][m2]) for d in datasets)
            min_tau[(m1, m2)] = t
            if t == 1.0:
                parent[find(m1)] = find(m2)

    groups: dict[str, list[str]] = {}
    for m in measures:
        groups.setdefault(find(m), []).append(m)
    blocks = tuple(sorted((tuple(sorted(g)) for g in groups.values()),
                          key=lambda blk: blk[0]))
    return EquivalenceBlocks(blocks=blocks, measures=tuple(measures), min_tau=min_tau)


def min_tau_csv(blocks: EquivalenceBlocks) -> str:
    lines = ["measure_a,measure_b,min_tau"]
    for (m1, m2), t in sorted(blocks.min_tau.items()):
        lines.append(f"{m1},{m2},{t!r}")
    return "\n".join(lines) + "\n"


def _fmt_counts(c: Optional[ContingencyCounts]) -> str:
    return "" if c is None else f"{c.a}:{c.b}"


def properties_csv(reports: Sequence[PropertyReport]) -> str:
    lines = ["measure,property,holds,counterexample_a,counterexample_b,"
             "expected_flag,matches_declared"]
    for r in reports:
        c1, c2 = (r.counterexample or (None, None))
        lines.append(
            f"{r.measure},{r.property},{int(r.holds)},{_fmt_counts(c1)},"
            f"{_fmt_counts(c2)},{int(r.expected())},{int(r.matches_declared())}")
    return "\n".join(lines) + "\n"
