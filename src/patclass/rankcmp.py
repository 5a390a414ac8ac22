"""Ranking comparators: Kendall's tau, Rank-Biased Overlap, and the
identical-ranking blocks of a set of measures.

Tau applies to two strict rankings of the same id set; every pair of ids is
concordant (+1) or discordant (-1), and tau is their mean. The discordant
pairs are the inversions of the second ranking's positions read in the
first's order, counted from the right: each position adds how many smaller
ones follow it, found by bisection into the sorted positions seen so far.
RBO compares possibly different id sets with exponentially decaying weight
on deeper ranks, normalized so identical prefixes score exactly 1.

`equivalence_blocks` computes the tau of each (dataset, measure pair) once
and keeps it. A block is the set of measures whose orders are identical on
every dataset; for strict rankings that is exactly "min tau == 1", since tau
is 1.0 only at zero inversions.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import combinations


class RankCmpError(ValueError):
    pass


def _ids(ranking) -> list:
    # accept Ranking objects or plain ordered id sequences
    ids = list(getattr(ranking, "pattern_ids", ranking))
    if len(set(ids)) != len(ids):
        raise RankCmpError("ranking contains duplicate ids")
    return ids


def _count_inversions(values: list[int]) -> int:
    """Pairs i < j with values[i] > values[j], O(s log s) comparisons."""
    seen: list[int] = []
    total = 0
    for v in reversed(values):
        total += bisect_left(seen, v)
        insort(seen, v)
    return total


def kendall_tau(ranking_a, ranking_b) -> float:
    """tau = mean over id pairs of sgn agreement between the two rankings.

    Both rankings must be strict orders over the same id set of size >= 2
    (ties are resolved upstream by the ranking step's id tie-break).
    """
    a = _ids(ranking_a)
    b = _ids(ranking_b)
    if set(a) != set(b):
        raise RankCmpError("tau requires identical id sets")
    s = len(a)
    if s < 2:
        raise RankCmpError("tau needs at least 2 items")
    pos_b = {p: i for i, p in enumerate(b)}
    seq = [pos_b[p] for p in a]
    inv = _count_inversions(seq)
    return 1.0 - 4.0 * inv / (s * (s - 1))


def rbo(ranking_a, ranking_b, p: float = 0.9, depth: int | None = None) -> float:
    """Truncated, normalized rank-biased overlap in [0, 1].

    RBO' = (1-p) * sum_{d=1..s} p^(d-1) * |A(d) & B(d)| / d, then divided by
    the identical-lists value of the same truncated sum, so two rankings with
    the same s-prefix score exactly 1. Id sets may differ.
    """
    if not (0.0 < p < 1.0):
        raise RankCmpError("p must be in (0, 1)")
    a = _ids(ranking_a)
    b = _ids(ranking_b)
    s = depth if depth is not None else max(len(a), len(b))
    if s < 1:
        raise RankCmpError("depth must be >= 1")
    seen_a: set = set()
    seen_b: set = set()
    overlap = 0
    raw = 0.0
    norm = 0.0
    weight = 1.0  # p^(d-1)
    for d in range(1, s + 1):
        fresh = set()
        if d <= len(a):
            seen_a.add(a[d - 1])
            fresh.add(a[d - 1])
        if d <= len(b):
            seen_b.add(b[d - 1])
            fresh.add(b[d - 1])
        for el in fresh:
            if el in seen_a and el in seen_b:
                overlap += 1
        raw += weight * overlap / d
        norm += weight
        weight *= p
    return raw / norm


@dataclass(frozen=True)
class EquivalenceBlocks:
    """Partition of measures into identical-ranking blocks, with the tau of
    every (dataset, sorted measure pair) and its minimum over the datasets."""

    blocks: tuple[tuple[str, ...], ...]
    tau: dict[str, dict[tuple[str, str], float]]
    min_tau: dict[tuple[str, str], float]


def equivalence_blocks(rankings: dict[str, dict]) -> EquivalenceBlocks:
    """rankings: dataset name -> measure name -> Ranking over that dataset's
    representative set. Blocks join measures whose `pattern_ids` are equal
    on every dataset; blocks and their members are in ascending name."""
    if not rankings:
        raise ValueError("at least one dataset required")
    datasets = sorted(rankings)
    measures = sorted(rankings[datasets[0]])
    pairs = list(combinations(measures, 2))
    tau: dict[str, dict[tuple[str, str], float]] = {}
    for d in datasets:
        per = rankings[d]
        if sorted(per) != measures:
            raise ValueError(f"dataset {d} has a different measure set")
        try:
            tau[d] = {(m1, m2): kendall_tau(per[m1], per[m2]) for m1, m2 in pairs}
        except RankCmpError as err:
            raise RankCmpError(f"dataset {d}: {err}") from None
    min_tau = {pair: min(tau[d][pair] for d in datasets) for pair in pairs}
    groups: dict[tuple, list[str]] = {}
    for m in measures:
        orders = tuple(tuple(rankings[d][m].pattern_ids) for d in datasets)
        groups.setdefault(orders, []).append(m)
    return EquivalenceBlocks(blocks=tuple(map(tuple, groups.values())),
                             tau=tau, min_tau=min_tau)


def tau_csv(blocks: EquivalenceBlocks, dataset: str) -> str:
    lines = ["measure_a,measure_b,dataset,tau"]
    for (m1, m2), t in blocks.tau[dataset].items():
        lines.append(f"{m1},{m2},{dataset},{t!r}")
    return "\n".join(lines) + "\n"


def min_tau_csv(blocks: EquivalenceBlocks) -> str:
    lines = ["measure_a,measure_b,min_tau"]
    for (m1, m2), t in sorted(blocks.min_tau.items()):
        lines.append(f"{m1},{m2},{t!r}")
    return "\n".join(lines) + "\n"


def blocks_csv(blocks: EquivalenceBlocks) -> str:
    lines = ["block_id,measure"]
    for bid, block in enumerate(blocks.blocks):
        lines.extend(f"{bid},{m}" for m in block)
    return "\n".join(lines) + "\n"
