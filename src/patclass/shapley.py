"""Gold-standard pattern ranking from Shapley values of classification skill.

Each pattern is a player; a coalition's worth f(S) is the mean F1 of the
linear classifier cross-validated on the pattern columns in S, with f({}) = 0
by convention so the values sum to the full-set F1 (efficiency). Exact
computation enumerates all coalitions and is reserved for small player sets;
above the limit, values are estimated by averaging marginal contributions
over seeded uniform random permutations (Castro et al. 2009).

Both modes evaluate coalitions one size at a time: the 2^k coalitions of
exact mode grouped by size, and the position-t prefixes of all sampled
permutations together. A `CachedCharacteristic` hands each group's misses
to `classify.cross_validate_many` as one batch, which trains equal-size
coalitions in one stack and copies their columns out of the footprint
matrix one bounded chunk at a time (`classify.STACK_FLOATS`), so a batch
never holds more than one chunk's features. The marginals are then summed
in permutation order, so the values have the bits of a
one-coalition-at-a-time loop. The cache keys a coalition by an int
bitmask over a dense index of the ids it has seen: at most one bit per
player, where a frozenset key took tens of bytes per member.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

# cross_validate is not called here; it stays importable from this module
# because perfbench/spans.py wraps it under this name
from .classify import FeatureView, cross_validate, cross_validate_many  # noqa: F401
from .footprints import FootprintMatrix
from .measures import Ranking

EXACT_LIMIT = 15


class ShapleyError(ValueError):
    pass


class CachedCharacteristic:
    """Deterministic subset -> performance map with memoization.

    f({}) is 0 by convention; every other value is delegated to the wrapped
    callable, which maps a list of subsets to their values. `many` hands all
    the distinct misses of its subsets to the callable at once; a single
    call is its one-subset case. The cache key is the subset's bitmask over a dense index of the ids
    seen so far: column order never matters because the classifier takes
    the columns in ascending id order. `counts["evaluations"]` counts the
    subsets evaluated.
    """

    def __init__(self, fn: Callable[[list[frozenset[int]]], Iterable[float]]):
        self._fn = fn
        self._bits: dict[int, int] = {}
        self._cache: dict[int, float] = {0: 0.0}
        self.counts: Counter = Counter()

    def _key(self, subset: frozenset[int]) -> int:
        for pid in subset.difference(self._bits):
            self._bits[pid] = 1 << len(self._bits)
        return sum(map(self._bits.__getitem__, subset))

    def __call__(self, subset) -> float:
        return self.many([subset])[0]

    def many(self, subsets: Iterable[Iterable[int]]) -> list[float]:
        """f of every subset; the distinct misses are evaluated as one batch."""
        subsets = [frozenset(s) for s in subsets]
        keys = [self._key(s) for s in subsets]
        missing = {key: s for key, s in zip(keys, subsets) if key not in self._cache}
        if missing:
            values = self._fn(list(missing.values()))
            self._cache.update(zip(missing, map(float, values)))
            self.counts["evaluations"] += len(missing)
        return [self._cache[key] for key in keys]


def performance_characteristic(matrix: FootprintMatrix, k: int = 5,
                               c: float = 1.0, seed: int = 0,
                               ) -> CachedCharacteristic:
    """f(S) = mean F1 of stratified k-fold CV on columns S; f({}) = 0.

    The fold assignment is fixed by the seed, so f is a pure function of S.
    `counts["fits"]` counts the stacked SVM fits behind the evaluations.
    """
    features = FeatureView.all_columns(matrix)

    def evaluate(subsets: list[frozenset[int]]) -> list[float]:
        reports = cross_validate_many(features, subsets, k=k, c=c, seed=seed,
                                      counts=f.counts)
        return [r.f1 for r in reports]

    f = CachedCharacteristic(evaluate)
    return f


def exact_shapley(pattern_ids: Sequence[int], f: CachedCharacteristic,
                  exact_limit: int = EXACT_LIMIT) -> dict[int, float]:
    """Exact Shapley values by full coalition enumeration.

    SV(p) = sum over coalitions S not containing p of
            |S|! (k - |S| - 1)! / k! * (f(S + p) - f(S)),
    with f evaluated once per coalition, 2^k in all, through `f.many` one
    size at a time.
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
    worth = [0.0] * (1 << k)
    by_size: list[list[int]] = [[] for _ in range(k + 1)]
    for mask in range(1 << k):
        by_size[mask.bit_count()].append(mask)
    for masks in by_size:
        subsets = [frozenset(ids[i] for i in range(k) if mask >> i & 1)
                   for mask in masks]
        for mask, w in zip(masks, f.many(subsets)):
            worth[mask] = w
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
    characteristic: CachedCharacteristic = field(compare=False, repr=False)


def _ranking_from_values(values: dict[int, float]) -> Ranking:
    order = sorted(values, key=lambda pid: (-values[pid], pid))
    return Ranking(tuple(order), tuple(values[pid] for pid in order))


def sampled_shapley(pattern_ids: Sequence[int], f: CachedCharacteristic,
                    n_permutations: int, seed: int) -> GoldStandard:
    """Monte-Carlo Shapley: mean marginal contribution over seeded uniform
    random permutations, with per-player sample standard errors.

    All permutations are drawn first; the position-t prefixes of all of them
    are evaluated together through `f.many`, for t = 1..p; the marginals are then summed
    permutation by permutation. Besides what f caches and the one size of
    prefixes in flight, memory is one float per (permutation, position).
    """
    ids = list(pattern_ids)
    if not ids:
        raise ShapleyError("no players")
    if n_permutations < 1:
        raise ShapleyError("n_permutations must be >= 1")
    rng = random.Random(seed)
    orders = []
    for _ in range(n_permutations):
        order = ids[:]
        rng.shuffle(order)
        orders.append(order)
    empty = f.many([frozenset()])[0]
    worth = [[empty] for _ in orders]   # worth[r][t]: f of order r's t-prefix
    for t in range(1, len(ids) + 1):
        prefixes = [frozenset(order[:t]) for order in orders]
        for row, w in zip(worth, f.many(prefixes)):
            row.append(w)
    sums = {pid: 0.0 for pid in ids}
    sqsums = {pid: 0.0 for pid in ids}
    for order, row in zip(orders, worth):
        for t, pid in enumerate(order):
            marginal = row[t + 1] - row[t]
            sums[pid] += marginal
            sqsums[pid] += marginal * marginal
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
