"""Exhaustive verification of measure properties on balanced contingency space.

Each property quantifies over whole-number contingency tables (a, b) with
class sizes n_pos = n_neg = n, so checks are exhaustive rather than sampled.
Scores are compared as extended reals with strict inequalities: two patterns
tied at +inf are a genuine strictness violation.

A property is one row of `_PROPERTY_TABLE`: its kind and its domain for class
size n. Every table must be realizable by a mined pattern, so a + b >= 1.
  - Contrastivity fixes the positive support a and is checked on the
    non-degenerate slice 1 <= a <= n-1: along b = 0..n the score must fall.
    At a = 0 almost every measure collapses to a constant of b (zero
    numerators), and at a = n the pattern-absent conditionals degenerate the
    same way; both slices produce ties that the declared property columns
    ignore;
  - Jumpiness fixes b = 0: along a = 1..n the score must rise;
  - PS2 fixes the overall support t = a + b for t = 1..2n: along
    a = max(0, t-n)..min(n, t) the score must rise;
  - Class Symmetry pairs every table (a, b) with (b, a), Pattern Symmetry
    every table with 1 <= a + b <= 2n - 1 with (n-a, n-b), so the complement
    pattern also occurs somewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable, Optional, Sequence

from . import measures as _measures  # prob_kit is looked up per call
from .footprints import ContingencyCounts
from .measures import MEASURE_NAMES, Ranking, effective, measure_info, scorer
# score is not called here; it stays importable from this module because
# perfbench/spans.py counts score calls under this name
from .measures import score  # noqa: F401
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
        """The declared flag; PS2 has none, so it is False."""
        if self.property not in PROPERTIES:
            return False
        return measure_info(self.measure).flags[PROPERTIES.index(self.property)]

    def matches_declared(self) -> bool:
        return self.holds == self.expected()


def _at_least_two(n: int) -> int:
    """n, checked: below 2, Contrastivity has no row and Jumpiness no pair."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return n


# name: (kind, domain of class size n). "falls" and "rises" domains yield rows
# of (a, b) tables along which the effective score must strictly fall or
# rise; "invariant" domains yield pairs of tables with equal raw scores.
_PROPERTY_TABLE: dict[str, tuple[str, Callable[[int], Iterable]]] = {
    "Contrastivity": ("falls", lambda n: (
        [(a, b) for b in range(n + 1)] for a in range(1, _at_least_two(n)))),
    "Jumpiness": ("rises", lambda n: (
        [(a, 0) for a in range(1, _at_least_two(n) + 1)],)),
    "ClassSymmetry": ("invariant", lambda n: (
        ((a, b), (b, a)) for a in range(n + 1) for b in range(n + 1)
        if a + b >= 1)),
    "PatternSymmetry": ("invariant", lambda n: (
        ((a, b), (n - a, n - b)) for a in range(n + 1) for b in range(n + 1)
        if 1 <= a + b <= 2 * n - 1)),
    "PS2": ("rises", lambda n: (
        [(a, t - a) for a in range(max(0, t - n), min(n, t) + 1)]
        for t in range(1, 2 * n + 1))),
}

Raw = Callable[[ContingencyCounts], float]  # a memoized `measures.scorer`


def _check(raw: Raw, measure: str, prop: str, n: int) -> PropertyReport:
    """Walk the property's domain in order; the first violation is the
    counterexample, the table expected to score higher first. Scoring stays
    lazy: a check that exits early never scores the tables it did not reach."""
    kind, domain = _PROPERTY_TABLE[prop]
    for item in domain(n):
        if kind == "invariant":
            (a, b), (a2, b2) = item
            c1 = ContingencyCounts(a, b, n, n)
            c2 = ContingencyCounts(a2, b2, n, n)
            s1, s2 = raw(c1), raw(c2)
            if s1 != s2:
                return PropertyReport(measure, prop, False, (c1, c2), (s1, s2), n)
            continue
        row = [ContingencyCounts(a, b, n, n) for a, b in item]
        effs = [effective(measure, raw(c)) for c in row]
        # Every pair i < j needs keys[i] > keys[j]. Negation turns a rising
        # row into a falling one, exactly: the scores are never NaN.
        keys = effs if kind == "falls" else [-e for e in effs]
        for i in range(len(keys) - 1):
            ki = keys[i]
            for j in range(i + 1, len(keys)):
                if not ki > keys[j]:
                    hi, lo = (i, j) if kind == "falls" else (j, i)
                    return PropertyReport(measure, prop, False, (row[hi], row[lo]),
                                          (effs[hi], effs[lo]), n)
    return PropertyReport(measure, prop, True, None, None, n)


def property_matrix(n: int = 10,
                    measures: Sequence[str] | None = None) -> list[PropertyReport]:
    """All (measure, property) verdicts over the balanced domain of size n.

    One scorer per measure serves all of its checks, and one kit per table
    serves all measures, so each (measure, table) is scored once however
    many checks reach it."""
    kit = cache(_measures.prob_kit)
    reports = []
    for m in MEASURE_NAMES if measures is None else measures:
        raw = scorer(m, kit)
        reports.extend(_check(raw, m, prop, n) for prop in PROPERTIES)
    return reports


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
