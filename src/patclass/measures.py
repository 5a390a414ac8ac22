"""The 38 pattern quality measures over contingency counts, plus rankings.

Every measure is a function of (a, b, n_pos, n_neg) through the probability
kit below. Scores are extended reals (float, +-inf allowed, never NaN) with
the following edge conventions, applied uniformly:

    x/0 -> +inf for x > 0 (-inf for x < 0),   0/0 -> 0
    log 0 -> -inf,   0 * log 0 -> 0,   0 * (+-inf) -> 0
    Strength evaluates GR/(GR+1) as 1 when GR = +inf
    logarithms are base 2 everywhere

Rational formulas are evaluated in exact integer-fraction arithmetic and
converted to float once, so equal rational scores compare equal and ties are
deterministic. Three measures score lower = more discriminative (FPR, Gini,
Entropy); effective_score negates them so higher always means better.

`scorer(measure, kit)` is a measure's raw score as a function of the table,
memoized. A call that scores many tables (rank_all, scores_csv, the property
matrix) passes every measure one `functools.cache(prob_kit)`, so it builds
one probability kit per distinct table for all its measures, and scores each
(measure, table) once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .footprints import ContingencyCounts, FootprintMatrix, contingency

INF = math.inf


class MeasureError(ValueError):
    pass


def _div(num, den):
    """Division under the x/0 and 0/0 conventions; num may be +-inf."""
    if isinstance(num, float) and math.isinf(num):
        if den == 0:
            raise MeasureError("inf/0 is not defined by any convention")
        return num if den > 0 else -num
    if den == 0:
        if num == 0:
            return Fraction(0)
        return INF if num > 0 else -INF
    if isinstance(den, float) and math.isinf(den):
        return Fraction(0)
    return num / den


def _mul(x, y):
    """Product with 0 * (+-inf) -> 0."""
    if x == 0 or y == 0:
        return Fraction(0)
    if (isinstance(x, float) and math.isinf(x)) or (isinstance(y, float) and math.isinf(y)):
        sign = (1 if x > 0 else -1) * (1 if y > 0 else -1)
        return INF * sign
    return x * y


def _sub_from_one(x):
    """1 - x for x Fraction or +-inf."""
    if isinstance(x, float) and math.isinf(x):
        return -x
    return 1 - x


def _log2(x) -> float:
    if x == 0:
        return -INF
    if isinstance(x, float) and math.isinf(x):
        return INF
    return math.log2(x)


def _xlog2(p, q) -> float:
    """p * log2(q) with 0*log0 -> 0 and 0*inf -> 0."""
    if p == 0:
        return 0.0
    l = _log2(q)
    if math.isinf(l):
        return l if p > 0 else -l
    return float(p) * l


def _sqrt(x) -> float:
    return math.sqrt(float(x))


@dataclass(frozen=True)
class ProbKit:
    """All probabilities derivable from one contingency table.

    A conditional on an empty event falls back to the unconditioned marginal
    (the class prior for class-given-side conditionals), which keeps the
    partition identities p(.|X) + p(~.|X) = 1 valid on every table. With
    mined patterns the empty event only arises on the pattern-absent side
    (a = n_pos and b = n_neg, a pattern present in every graph).
    """

    n_graphs: int
    p_pattern: Fraction
    p_absent: Fraction
    p_pos: Fraction
    p_neg: Fraction
    joint_pattern_pos: Fraction
    joint_pattern_neg: Fraction
    joint_absent_pos: Fraction
    joint_absent_neg: Fraction
    pos_given_pattern: Fraction
    neg_given_pattern: Fraction
    pos_given_absent: Fraction
    neg_given_absent: Fraction
    pattern_given_pos: Fraction
    pattern_given_neg: Fraction
    absent_given_pos: Fraction
    absent_given_neg: Fraction


def prob_kit(counts: ContingencyCounts) -> ProbKit:
    a, b = counts.a, counts.b
    n_pos, n_neg = counts.n_pos, counts.n_neg
    N = n_pos + n_neg

    def cond(num: int, den: int, prior: Fraction) -> Fraction:
        return Fraction(num, den) if den else prior

    p_pos = Fraction(n_pos, N)
    p_neg = Fraction(n_neg, N)
    p_pattern = Fraction(a + b, N)
    return ProbKit(
        n_graphs=N,
        p_pattern=p_pattern,
        p_absent=1 - p_pattern,
        p_pos=p_pos,
        p_neg=p_neg,
        joint_pattern_pos=Fraction(a, N),
        joint_pattern_neg=Fraction(b, N),
        joint_absent_pos=Fraction(n_pos - a, N),
        joint_absent_neg=Fraction(n_neg - b, N),
        pos_given_pattern=cond(a, a + b, p_pos),
        neg_given_pattern=cond(b, a + b, p_neg),
        pos_given_absent=cond(n_pos - a, N - a - b, p_pos),
        neg_given_absent=cond(n_neg - b, N - a - b, p_neg),
        pattern_given_pos=cond(a, n_pos, p_pattern),
        pattern_given_neg=cond(b, n_neg, p_pattern),
        absent_given_pos=cond(n_pos - a, n_pos, 1 - p_pattern),
        absent_given_neg=cond(n_neg - b, n_neg, 1 - p_pattern),
    )


# ---------------------------------------------------------------------------
# Scorers. Each returns Fraction or +-inf float.
# ---------------------------------------------------------------------------

def _abssupdif(k): return abs(k.pattern_given_pos - k.pattern_given_neg)


def _acc(k): return k.joint_pattern_pos + k.joint_absent_neg


def _brins(k): return _div(k.p_pattern * k.p_neg, k.joint_pattern_neg)


def _cconf(k): return k.pos_given_pattern - k.p_pos


def _cfactor(k):
    inner = _div(k.joint_pattern_pos, k.p_pattern)
    if isinstance(inner, float):
        return _div(inner, 1 - k.p_pos)
    return _div(inner - k.p_pos, 1 - k.p_pos)


def _cole(k): return _div(k.pos_given_pattern - k.p_pos, 1 - k.p_pos)


def _colstr(k):
    # Composite formula kept exactly as written in its reference definition;
    # the second denominator mixes a joint with a conditional (see the README
    # notes on its range and ranking behavior).
    expect = k.p_pattern * k.p_pos + k.p_absent * k.p_neg
    f1 = _div(k.joint_pattern_pos + k.joint_absent_neg, expect)
    f2 = _div(1 - expect, 1 - k.joint_pattern_pos - k.neg_given_absent)
    return _mul(f1, f2)


def _conf(k): return k.pos_given_pattern


def _cos(k): return _sqrt(k.pos_given_pattern * k.pattern_given_pos)


def _cover(k): return k.pattern_given_pos


def _dep(k): return abs(k.p_neg - k.neg_given_pattern)


def _entropy(k):
    terms = sorted((_xlog2(k.pos_given_pattern, k.pos_given_pattern),
                    _xlog2(k.neg_given_pattern, k.neg_given_pattern)))
    return -(terms[0] + terms[1])


def _excex(k):
    return _sub_from_one(_div(k.neg_given_pattern, k.neg_given_absent))


def _fisher(k):
    num = (k.pos_given_pattern - k.neg_given_pattern) ** 2
    den = (k.pos_given_pattern * (1 - k.pos_given_pattern)
           + k.neg_given_pattern * (1 - k.neg_given_pattern))
    return _div(num, den)


def _fpr(k): return k.pos_given_absent


def _gain(k):
    if k.joint_pattern_pos == 0:
        return Fraction(0)
    return float(k.joint_pattern_pos) * (_log2(k.pos_given_pattern) - _log2(k.p_pos))


def _gini(k): return 1 - k.pos_given_pattern ** 2 - k.neg_given_pattern ** 2


def _gr(k): return _div(k.pattern_given_pos, k.pattern_given_neg)


def _infgain(k): return -_log2(k.p_pos) + _log2(k.pos_given_pattern)


def _jacc(k):
    return _div(k.joint_pattern_pos, k.p_pattern + k.p_pos - k.joint_pattern_pos)


def _klos(k):
    return _sqrt(k.joint_pattern_pos) * float(k.pos_given_pattern - k.p_pos)


def _lap(k):
    N = k.n_graphs
    return _div(k.joint_pattern_pos + Fraction(1, N), k.p_pattern + Fraction(2, N))


def _lever(k): return k.joint_pattern_pos - k.p_pattern * k.p_pos


def _lift(k): return _div(k.joint_pattern_pos, k.p_pattern * k.p_pos)


def _mdisc(k):
    ratio = _div(k.joint_pattern_pos * k.joint_absent_neg,
                 k.joint_pattern_neg * k.joint_absent_pos)
    return _log2(ratio)


def _mutinf(k):
    cells = (
        (k.joint_pattern_pos, k.p_pattern, k.p_pos),
        (k.joint_pattern_neg, k.p_pattern, k.p_neg),
        (k.joint_absent_pos, k.p_absent, k.p_pos),
        (k.joint_absent_neg, k.p_absent, k.p_neg),
    )
    terms = sorted(_xlog2(joint, _div(joint, pm * pg)) for joint, pm, pg in cells)
    return math.fsum(terms)


def _netconf(k): return _div(k.pos_given_pattern - k.p_pos, 1 - k.p_pattern)


def _oddsr(k):
    num = _div(k.joint_pattern_pos, 1 - k.joint_pattern_pos)
    den = _div(k.joint_pattern_neg, 1 - k.joint_pattern_neg)
    return _div(num, den)


def _pearson(k):
    den = _sqrt(k.n_graphs * k.p_pattern * k.p_pos * k.p_absent * k.p_neg)
    num = k.joint_pattern_pos - k.p_pattern * k.p_pos
    if den == 0.0:
        return _div(num, 0)
    return float(num) / den


def _relrisk(k): return _div(k.pos_given_pattern, k.pos_given_absent)


def _sebag(k): return _div(k.joint_pattern_pos, k.joint_pattern_neg)


def _spec(k): return k.neg_given_absent


def _strength(k):
    gr = _gr(k)
    ratio = Fraction(1) if (isinstance(gr, float) and math.isinf(gr)) else _div(gr, gr + 1)
    return _mul(ratio, k.joint_pattern_pos)


def _sup(k): return k.joint_pattern_pos


def _supdif(k): return k.pattern_given_pos - k.pattern_given_neg


def _wracc(k): return k.p_pattern * (k.pos_given_pattern - k.p_pos)


def _zhang(k):
    num = k.joint_pattern_pos - k.p_pattern * k.p_pos
    den = max(k.joint_pattern_pos * k.p_neg, k.p_pos * k.joint_pattern_neg)
    return _div(num, den)


def _chi2(k):
    num = (k.joint_pattern_pos * k.joint_absent_neg
           - k.joint_pattern_neg * k.joint_absent_pos) ** 2
    den = k.p_pattern * k.p_pos * k.p_absent * k.p_neg
    return _mul(k.n_graphs, _div(num, den))


@dataclass(frozen=True)
class MeasureInfo:
    """Declared bounds, scale direction, and property flags of one measure.

    Flags are (contrastivity, jumpiness, class_symmetry, pattern_symmetry).
    reversed_scale marks measures where lower raw scores mean more
    discriminative; their rankings are reversed via effective_score.
    """

    name: str
    lower: float
    upper: float
    reversed_scale: bool
    contrastivity: bool
    jumpiness: bool
    class_symmetry: bool
    pattern_symmetry: bool

    @property
    def flags(self) -> tuple[bool, bool, bool, bool]:
        return (self.contrastivity, self.jumpiness,
                self.class_symmetry, self.pattern_symmetry)


# name: (scorer, lower, upper, reversed, Co, Ju, Cs, Ps)
_REGISTRY: dict[str, tuple[Callable, float, float, bool, bool, bool, bool, bool]] = {
    "AbsSupDif": (_abssupdif, 0, 1, False, False, True, True, True),
    "Acc":       (_acc, 0, 1, False, True, True, False, False),
    "Brins":     (_brins, 0, INF, False, True, False, False, False),
    "CConf":     (_cconf, -0.5, 0.5, False, True, False, False, False),
    "CFactor":   (_cfactor, -1, 1, False, True, False, False, False),
    "Cole":      (_cole, -1, 1, False, True, False, False, False),
    "ColStr":    (_colstr, -10, INF, False, False, True, False, False),
    "Conf":      (_conf, 0, 1, False, True, False, False, False),
    "Cos":       (_cos, 0, 1, False, True, True, False, False),
    "Cover":     (_cover, 0, 1, False, False, True, False, False),
    "Dep":       (_dep, 0, 0.5, False, False, False, True, False),
    "Entropy":   (_entropy, 0, 1, True, False, False, True, False),
    "Excex":     (_excex, -INF, 1, False, True, False, False, False),
    "Fisher":    (_fisher, 0, INF, False, False, False, True, False),
    "FPR":       (_fpr, 0, 1, True, True, True, False, False),
    "Gain":      (_gain, -1, 1, False, True, True, False, False),
    "Gini":      (_gini, 0, 0.5, True, False, False, True, False),
    "GR":        (_gr, 0, INF, False, True, False, False, False),
    "InfGain":   (_infgain, -INF, 0, False, True, False, False, False),
    "Jacc":      (_jacc, 0, 1, False, True, True, False, False),
    "Klos":      (_klos, 0, 1, False, True, True, False, False),
    "Lap":       (_lap, 0, 1, False, True, True, False, False),
    "Lever":     (_lever, -0.25, 0.25, False, True, True, False, False),
    "Lift":      (_lift, 0, 2, False, True, False, False, False),
    "MDisc":     (_mdisc, -INF, INF, False, True, False, False, False),
    "MutInf":    (_mutinf, 0, 1, False, False, True, True, True),
    "NetConf":   (_netconf, -1, 1, False, True, True, False, False),
    "OddsR":     (_oddsr, 0, INF, False, True, False, False, False),
    "Pearson":   (_pearson, -1, 1, False, True, True, False, False),
    "RelRisk":   (_relrisk, 0, INF, False, True, True, False, False),
    "Sebag":     (_sebag, 0, INF, False, True, False, False, False),
    "Spec":      (_spec, 0, 1, False, True, True, False, False),
    "Strength":  (_strength, 0, 1, False, True, True, False, False),
    "Sup":       (_sup, 0, 1, False, False, True, False, False),
    "SupDif":    (_supdif, -1, 1, False, True, True, False, False),
    "WRACC":     (_wracc, -1, 1, False, True, True, False, False),
    "Zhang":     (_zhang, -1, 1, False, True, False, False, False),
    "Chi2":      (_chi2, 0, INF, False, False, True, True, True),
}

MEASURE_NAMES: tuple[str, ...] = tuple(_REGISTRY)
REVERSED_MEASURES = frozenset(n for n, r in _REGISTRY.items() if r[3])

# Measures whose printed formula provably escapes its declared bounds on the
# exhaustive balanced domain; the formula is kept verbatim and the observed
# bounds are recorded here instead (see README).
KNOWN_BOUND_EXCEPTIONS: dict[str, str] = {
    "InfGain": "reaches +1 (= log2 2) whenever b = 0, above the declared upper bound 0",
    "Klos": "negative whenever the pattern leans to the negative class, below "
            "the declared lower bound 0",
    "ColStr": "unbounded below near the sign change of its second denominator, "
              "escaping the declared lower bound -10",
}


def measure_info(name: str) -> MeasureInfo:
    """Declared metadata of one of the MEASURE_NAMES (registry order)."""
    try:
        r = _REGISTRY[name]
    except KeyError:
        raise MeasureError(f"unknown measure {name!r}") from None
    return MeasureInfo(name, r[1], r[2], r[3], r[4], r[5], r[6], r[7])


def scorer(measure: str, kit: Callable[[ContingencyCounts], ProbKit]
           ) -> Callable[[ContingencyCounts], float]:
    """The raw score of one measure as a function of the table, reading each
    table's probabilities through `kit` (`prob_kit`, or a memo of it that
    the caller shares across measures). It scores each table once for as
    long as the caller keeps it."""
    try:
        fn = _REGISTRY[measure][0]
    except KeyError:
        raise MeasureError(f"unknown measure {measure!r}") from None

    def raw(counts: ContingencyCounts) -> float:
        out = float(fn(kit(counts)))
        if math.isnan(out):
            raise MeasureError(f"{measure} produced NaN on {counts}")
        return out
    return functools.cache(raw)


def effective(measure: str, raw: float) -> float:
    """A raw score, negated for reversed-scale measures, so higher = better."""
    if measure in REVERSED_MEASURES:
        return 0.0 if raw == 0 else -raw
    return raw


def score(measure: str, counts: ContingencyCounts) -> float:
    """Raw score of one measure on one contingency table (extended real)."""
    return scorer(measure, prob_kit)(counts)


def effective_score(measure: str, counts: ContingencyCounts) -> float:
    """Raw score, negated for reversed-scale measures, so higher = better."""
    return effective(measure, scorer(measure, prob_kit)(counts))


@dataclass(frozen=True)
class Ranking:
    """Strict total order of pattern ids, best first; score ties are broken
    by ascending pattern id."""

    pattern_ids: tuple[int, ...]
    scores: tuple[float, ...]

    def __post_init__(self):
        if len(self.pattern_ids) != len(self.scores):
            raise MeasureError("ids and scores must align")

    def __len__(self) -> int:
        return len(self.pattern_ids)

    def top(self, s: int) -> tuple[int, ...]:
        return self.pattern_ids[:s]


def _scored(matrix: FootprintMatrix, pattern_ids: Sequence[int],
            measures: Sequence[str]):
    """Per measure: (measure, raw score by pattern id, Ranking). Every
    measure reads one kit memo, and each (measure, table) is scored once."""
    ids = list(pattern_ids)
    counts = {pid: contingency(matrix, pid) for pid in ids}
    kit = functools.cache(prob_kit)
    for m in measures:
        raw = scorer(m, kit)
        raws = {pid: raw(c) for pid, c in counts.items()}
        effs = {pid: effective(m, r) for pid, r in raws.items()}
        order = sorted(ids, key=lambda pid: (-effs[pid], pid))
        yield m, raws, Ranking(tuple(order), tuple(effs[pid] for pid in order))


def rank_all(matrix: FootprintMatrix, pattern_ids: Sequence[int],
             measures: Sequence[str]) -> dict[str, Ranking]:
    """Rank pattern ids by each measure's effective score descending, ties by
    ascending id."""
    ids = list(pattern_ids)
    if not ids:
        raise MeasureError("pattern_ids must be non-empty")
    return {m: ranking for m, _, ranking in _scored(matrix, ids, measures)}


def rank(measure: str, matrix: FootprintMatrix,
         pattern_ids: Sequence[int]) -> Ranking:
    """Rank pattern ids by effective score descending, ties by ascending id."""
    return rank_all(matrix, pattern_ids, [measure])[measure]


def _fmt(x: float) -> str:
    if x == INF:
        return "inf"
    if x == -INF:
        return "-inf"
    return repr(x)


def scores_csv(matrix: FootprintMatrix, pattern_ids: Sequence[int],
               measures: Sequence[str] | None = None) -> str:
    """`pattern_id, measure, raw_score, effective_score, rank` rows."""
    lines = ["pattern_id,measure,raw_score,effective_score,rank"]
    for m, raws, ranking in _scored(matrix, pattern_ids,
                                    MEASURE_NAMES if measures is None else measures):
        pos = {pid: r for r, pid in enumerate(ranking.pattern_ids, start=1)}
        for pid in pattern_ids:
            raw = raws[pid]
            lines.append(f"{pid},{m},{_fmt(raw)},{_fmt(effective(m, raw))},{pos[pid]}")
    return "\n".join(lines) + "\n"
