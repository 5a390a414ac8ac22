"""Gold-standard pattern ranking from Shapley values of classification skill.

Each pattern is a player; a coalition's worth f(S) is the mean F1 of the
linear classifier cross-validated on the pattern columns in S, with f({}) = 0
by convention so the values sum to the full-set F1 (efficiency). Exact
computation enumerates all coalitions and is reserved for small player sets;
above the limit, values are estimated by averaging marginal contributions
over seeded uniform random permutations.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .classify import FeatureView, cross_validate
from .footprints import FootprintMatrix
from .measures import Ranking

EXACT_LIMIT = 15


class ShapleyError(ValueError):
    pass


class CachedCharacteristic:
    """Deterministic subset -> performance map with memoization.

    f({}) is 0 by convention; every other value is delegated to the wrapped
    callable, keyed by the frozen id set (column order never matters because
    `FeatureView.from_matrix` puts the columns in ascending id order).
    """

    def __init__(self, fn: Callable[[frozenset[int]], float]):
        self._fn = fn
        self._cache: dict[frozenset[int], float] = {frozenset(): 0.0}

    def __call__(self, subset) -> float:
        key = frozenset(subset)
        if key not in self._cache:
            self._cache[key] = float(self._fn(key))
        return self._cache[key]


def performance_characteristic(matrix: FootprintMatrix, k: int = 5,
                               c: float = 1.0, seed: int = 0,
                               ) -> CachedCharacteristic:
    """f(S) = mean F1 of stratified k-fold CV on columns S; f({}) = 0.

    The fold assignment is fixed by the seed, so f is a pure function of S.
    """

    def evaluate(subset: frozenset[int]) -> float:
        view = FeatureView.from_matrix(matrix, subset)
        return cross_validate(view, k=k, c=c, seed=seed).f1

    return CachedCharacteristic(evaluate)


def exact_shapley(pattern_ids: Sequence[int],
                  f: Callable[[frozenset[int]], float],
                  exact_limit: int = EXACT_LIMIT) -> dict[int, float]:
    """Exact Shapley values by full coalition enumeration.

    SV(p) = sum over coalitions S not containing p of
            |S|! (k - |S| - 1)! / k! * (f(S + p) - f(S)),
    with f called once per coalition, 2^k calls in all.
    """
    ids = list(pattern_ids)
    k = len(ids)
    if k == 0:
        raise ShapleyError("no players")
    if k > exact_limit:
        raise ShapleyError(
            f"{k} players exceeds the exact limit {exact_limit}; "
            "use sampled_shapley")
    fact = [math.factorial(i) for i in range(k + 1)]
    values: dict[int, float] = {pid: 0.0 for pid in ids}
    worth = [float(f(frozenset(ids[i] for i in range(k) if mask >> i & 1)))
             for mask in range(1 << k)]
    for mask in range(1 << k):
        size = mask.bit_count()
        base = worth[mask]
        for i in range(k):
            if mask >> i & 1:
                continue
            weight = fact[size] * fact[k - size - 1] / fact[k]
            values[ids[i]] += weight * (worth[mask | (1 << i)] - base)
    return values


@dataclass(frozen=True)
class GoldStandard:
    """Pattern ranking by decreasing Shapley value (ties by ascending id)."""

    values: dict[int, float]
    std_error: Optional[dict[int, float]]
    ranking: Ranking
    method: str  # "exact" | "sampled(n_permutations=..., seed=...)"
    # the f the values were computed from; gold_standard's keeps its cache, so
    # reading a coalition the Shapley run already evaluated costs no CV
    characteristic: Callable[[frozenset[int]], float] = field(compare=False,
                                                               repr=False)


def _ranking_from_values(values: dict[int, float]) -> Ranking:
    order = sorted(values, key=lambda pid: (-values[pid], pid))
    return Ranking(tuple(order), tuple(values[pid] for pid in order))


def sampled_shapley(pattern_ids: Sequence[int],
                    f: Callable[[frozenset[int]], float],
                    n_permutations: int, seed: int) -> GoldStandard:
    """Monte-Carlo Shapley: mean marginal contribution over seeded uniform
    random permutations, with per-player sample standard errors."""
    ids = list(pattern_ids)
    if not ids:
        raise ShapleyError("no players")
    if n_permutations < 1:
        raise ShapleyError("n_permutations must be >= 1")
    rng = random.Random(seed)
    sums = {pid: 0.0 for pid in ids}
    sqsums = {pid: 0.0 for pid in ids}
    for _ in range(n_permutations):
        order = ids[:]
        rng.shuffle(order)
        prefix: set[int] = set()
        prev = float(f(frozenset()))
        for pid in order:
            prefix.add(pid)
            cur = float(f(frozenset(prefix)))
            marginal = cur - prev
            sums[pid] += marginal
            sqsums[pid] += marginal * marginal
            prev = cur
    values = {pid: sums[pid] / n_permutations for pid in ids}
    std_error = {}
    for pid in ids:
        if n_permutations > 1:
            var = (sqsums[pid] - n_permutations * values[pid] ** 2) / (n_permutations - 1)
            std_error[pid] = math.sqrt(max(0.0, var) / n_permutations)
        else:
            std_error[pid] = float("inf")
    return GoldStandard(
        values=values, std_error=std_error,
        ranking=_ranking_from_values(values),
        method=f"sampled(n_permutations={n_permutations}, seed={seed})",
        characteristic=f)


def gold_standard(matrix: FootprintMatrix, pattern_ids: Sequence[int],
                  k: int = 5, c: float = 1.0, seed: int = 0,
                  n_permutations: int = 200,
                  exact_limit: int = EXACT_LIMIT) -> GoldStandard:
    """Shapley-based gold standard over the given (representative) patterns.

    Exact below the coalition-count limit, permutation-sampled above it.
    """
    ids = list(pattern_ids)
    f = performance_characteristic(matrix, k=k, c=c, seed=seed)
    if len(ids) > exact_limit:
        return sampled_shapley(ids, f, n_permutations=n_permutations, seed=seed)
    values = exact_shapley(ids, f, exact_limit=exact_limit)
    return GoldStandard(values=values, std_error=None,
                        ranking=_ranking_from_values(values), method="exact",
                        characteristic=f)


def shapley_csv(gold: GoldStandard) -> str:
    lines = ["pattern_id,shapley_value,std_error,rank"]
    pos = {pid: r for r, pid in enumerate(gold.ranking.pattern_ids, start=1)}
    for pid in sorted(gold.values):
        err = "" if gold.std_error is None else repr(float(gold.std_error[pid]))
        lines.append(f"{pid},{float(gold.values[pid])!r},{err},{pos[pid]}")
    return "\n".join(lines) + "\n"
