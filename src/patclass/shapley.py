"""Gold-standard pattern ranking from Shapley values of classification skill.

Each pattern is a player; a coalition's worth f(S) is the mean F1 of the
linear classifier cross-validated on the pattern columns in S, with f({}) = 0
by convention so the values sum to the full-set F1 (efficiency). Exact
computation enumerates all coalitions and is reserved for small player sets;
above the limit, values are estimated by averaging marginal contributions
over seeded uniform random permutations (Castro et al. 2009).

Both modes hand their coalitions to `f.many` as one lazy stream, by size:
the 2^k coalitions of exact mode, and the empty prefix followed by the
position-t prefixes of all sampled permutations, t = 1, 2, .... A
`CachedCharacteristic` passes the distinct misses on to
`classify.cross_validate_many` as they are read, which trains coalitions
of any sizes together one bounded chunk at a time (`classify.STACK_FLOATS`)
and copies a chunk's columns out of the footprint matrix only when it
trains, so a run holds the columns and features of one chunk at a time.
The marginals are then summed in permutation order, so the values have the
bits of a one-coalition-at-a-time loop. The cache keys a coalition by an
int bitmask over a dense index of the ids it has seen: at most one bit per
player, where a frozenset key took tens of bytes per member.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

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
    callable, which maps a stream of subsets to the list of their values.
    `many` hands the distinct misses of its subsets to the callable as one
    lazy stream; a single call is its one-subset case. The cache key is the
    subset's bitmask over a dense index of the ids seen so far: column order
    never matters because the classifier takes the columns in ascending id
    order. `counts["evaluations"]` counts the subsets evaluated.
    """

    def __init__(self, fn: Callable[[Iterator[frozenset[int]]], Iterable[float]]):
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
        """f of every subset. The distinct misses go to the callable as one
        lazy stream, read as `subsets` is; with no miss it is not called.
        The callable must read the stream to its end and give one value per
        subset of it, in order; otherwise this raises ShapleyError."""
        keys: list[int] = []
        missing: dict[int, None] = {}

        def misses() -> Iterator[frozenset[int]]:
            for subset in subsets:
                subset = frozenset(subset)
                key = self._key(subset)
                keys.append(key)
                if key not in self._cache and key not in missing:
                    missing[key] = None
                    yield subset

        stream = misses()
        first = next(stream, None)
        if first is not None:
            values = list(self._fn(itertools.chain([first], stream)))
            # gi_frame is None once the generator has run to its end
            if stream.gi_frame is not None or len(values) != len(missing):
                raise ShapleyError("the callable must read its whole stream "
                                   "and give one value per subset")
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

    def evaluate(subsets: Iterator[frozenset[int]]) -> list[float]:
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
    with f evaluated once per coalition, 2^k in all, through one `f.many`
    stream of the coalitions by size.
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
    masks = sorted(range(1 << k), key=int.bit_count)   # by size, then mask
    coalitions = (frozenset(ids[i] for i in range(k) if mask >> i & 1)
                  for mask in masks)
    for mask, w in zip(masks, f.many(coalitions)):
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


def sampled_shapley(pattern_ids: Sequence[int], f: CachedCharacteristic,
                    n_permutations: int, seed: int) -> GoldStandard:
    """Monte-Carlo Shapley: mean marginal contribution over seeded uniform
    random permutations, with per-player sample standard errors.

    All permutations are drawn first; their prefixes are evaluated through
    one `f.many` stream by length t, the empty prefix first; the marginals
    are then summed permutation by permutation. Besides what f caches and
    the one chunk in training, memory is one float and one int key per
    (permutation, position).
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
    empty, *prefixes = f.many(itertools.chain(
        [frozenset()], (frozenset(order[:t]) for t in range(1, len(ids) + 1)
                        for order in orders)))
    # worth[r][t]: f of order r's t-prefix
    worth = [[empty, *prefixes[r::len(orders)]] for r in range(len(orders))]
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
        ranking=Ranking.of(values),
        method=f"sampled(n_permutations={n_permutations}, seed={seed})")


def gold_standard(f: CachedCharacteristic, pattern_ids: Sequence[int],
                  n_permutations: int = 200, seed: int = 0,
                  exact_limit: int = EXACT_LIMIT) -> GoldStandard:
    """Shapley-based gold standard of f over the given (representative)
    patterns.

    Exact up to exact_limit players, permutation-sampled with the seed above
    it. The caller owns f, so it can read the coalitions the run evaluated
    from f's cache.
    """
    ids = list(pattern_ids)
    if len(ids) > exact_limit:
        return sampled_shapley(ids, f, n_permutations=n_permutations, seed=seed)
    values = exact_shapley(ids, f, exact_limit=exact_limit)
    return GoldStandard(values=values, std_error=None,
                        ranking=Ranking.of(values), method="exact")


def shapley_csv(gold: GoldStandard) -> str:
    lines = ["pattern_id,shapley_value,std_error,rank"]
    pos = {pid: r for r, pid in enumerate(gold.ranking.pattern_ids, start=1)}
    for pid in sorted(gold.values):
        err = "" if gold.std_error is None else repr(float(gold.std_error[pid]))
        lines.append(f"{pid},{float(gold.values[pid])!r},{err},{pos[pid]}")
    return "\n".join(lines) + "\n"
