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

The identical-ranking blocks of measures on datasets are a ranking
comparison, not a property, and live in `rankcmp`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable, Optional, Sequence

from . import measures as _measures  # prob_kit is looked up per call
from .footprints import ContingencyCounts
from .measures import MEASURE_NAMES, effective, measure_info, scorer
# score is not called here; it stays importable from this module because
# perfbench/spans.py counts score calls under this name
from .measures import score  # noqa: F401

PROPERTIES = ("Contrastivity", "Jumpiness", "ClassSymmetry", "PatternSymmetry")


@dataclass(frozen=True)
class PropertyReport:
    measure: str
    property: str
    holds: bool
    counterexample: Optional[tuple[ContingencyCounts, ContingencyCounts]]
    counterexample_scores: Optional[tuple[float, float]]

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

def _check(raw: Callable[[tuple[int, int]], float], measure: str, prop: str,
           n: int) -> PropertyReport:
    """Walk the property's domain of (a, b) keys in order, reading each raw
    score through `raw`; the first violation is the counterexample, the table
    expected to score higher first. Scoring stays lazy: a check that exits
    early never scores the tables it did not reach."""
    kind, domain = _PROPERTY_TABLE[prop]
    for item in domain(n):
        if kind == "invariant":
            k1, k2 = item
            s1, s2 = raw(k1), raw(k2)
            if s1 != s2:
                return _violation(measure, prop, n, (k1, k2), (s1, s2))
            continue
        effs = [effective(measure, raw(ab)) for ab in item]
        # Every pair i < j needs keys[i] > keys[j]. Negation turns a rising
        # row into a falling one, exactly: the scores are never NaN.
        keys = effs if kind == "falls" else [-e for e in effs]
        for i in range(len(keys) - 1):
            ki = keys[i]
            for j in range(i + 1, len(keys)):
                if not ki > keys[j]:
                    hi, lo = (i, j) if kind == "falls" else (j, i)
                    return _violation(measure, prop, n, (item[hi], item[lo]),
                                      (effs[hi], effs[lo]))
    return PropertyReport(measure, prop, True, None, None)


def _violation(measure: str, prop: str, n: int, keys, scores) -> PropertyReport:
    """The false verdict whose counterexample is the two (a, b) keys."""
    return PropertyReport(measure, prop, False,
                          tuple(ContingencyCounts(a, b, n, n) for a, b in keys),
                          scores)


def property_matrix(n: int = 10,
                    measures: Sequence[str] | None = None) -> list[PropertyReport]:
    """All (measure, property) verdicts over the balanced domain of size n.

    The grid of tables is built once. Kits are memoized by (a, b) across all
    measures, and each measure's raw scores by (a, b) across its checks, so
    each (measure, table) is scored once however many checks reach it."""
    tables = {(a, b): ContingencyCounts(a, b, n, n)
              for a in range(_at_least_two(n) + 1) for b in range(n + 1) if a + b}
    kits = cache(lambda ab: _measures.prob_kit(tables[ab]))
    reports = []
    for m in MEASURE_NAMES if measures is None else measures:
        raw = cache(scorer(m, kits))
        reports.extend(_check(raw, m, prop, n) for prop in PROPERTIES)
    return reports


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
