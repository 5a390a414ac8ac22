"""Output checks for one benchmark run.

Three kinds, all counted as failed invocations when they do not hold:
- exact-arithmetic artifacts must match the sha256 pinned in
  `reference.json` for this workload and seed, when one is pinned;
- every artifact must be byte-identical across the invocations of a run
  (float artifacts are only checked this way: their bytes may change on
  purpose, e.g. when F1 stops depending on feature column order);
- invariants that hold for any input, checked on the first invocation.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

EXACT_ARTIFACTS = ("patterns.spmf", "pattern_supports.txt", "footprints.csv",
                   "contingency.csv", "dendrogram.csv", "clusters.csv",
                   "scores.csv", "properties.csv")
# Carries wall-clock timings, so it differs between invocations by design.
UNCHECKED_ARTIFACTS = ("summary.json",)
SHAPLEY_SUM_TOLERANCE = 1e-9


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every artifact an invocation wrote."""
    return {p.name: sha256(p.read_bytes()) for p in sorted(out_dir.iterdir())
            if p.name not in UNCHECKED_ARTIFACTS}


def pinned_mismatches(digests: dict[str, str], pinned: dict[str, str]) -> list[str]:
    return [f"{name}: sha256 {digests.get(name)} != pinned {want}"
            for name, want in sorted(pinned.items()) if digests.get(name) != want]


def exact_digests(digests: dict[str, str]) -> dict[str, str]:
    return {k: v for k, v in digests.items() if k in EXACT_ARTIFACTS}


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _unit_interval(out_dir: Path, pattern: str, column: str) -> list[str]:
    problems = []
    for path in sorted(out_dir.glob(pattern)):
        for row in _rows(path):
            if not 0.0 <= float(row[column]) <= 1.0:
                problems.append(f"{path.name}: {column} {row[column]} outside [0, 1]")
    return problems


def pipeline_invariants(out_dir: Path) -> list[str]:
    """F1 in [0, 1]; merges = distinct footprints - 1; one representative per
    cluster, drawn from the mined pattern ids; supports = footprint sums."""
    problems = _unit_interval(out_dir, "pipeline_f1.csv", "f1")
    problems += _unit_interval(out_dir, "eval_*.csv", "f1")

    supports = {}
    for line in (out_dir / "pattern_supports.txt").read_text().splitlines():
        pid, sup = line.split()
        supports[int(pid)] = int(sup)
    columns: dict[int, list[str]] = {pid: [] for pid in supports}
    for row in _rows(out_dir / "footprints.csv"):
        columns[int(row["pattern_id"])].append(row["present"])
    for pid, col in columns.items():
        if col.count("1") != supports[pid]:
            problems.append(f"pattern {pid}: support {supports[pid]} != "
                            f"footprint sum {col.count('1')}")
    distinct = len({"".join(col) for col in columns.values()})
    merges = len(_rows(out_dir / "dendrogram.csv"))
    if merges != distinct - 1:
        problems.append(f"{merges} merges for {distinct} distinct footprints")

    reps: dict[str, list[int]] = {}
    for row in _rows(out_dir / "clusters.csv"):
        reps.setdefault(row["cluster_id"], [])
        if row["is_representative"] == "1":
            reps[row["cluster_id"]].append(int(row["pattern_id"]))
    for cid, members in reps.items():
        if len(members) != 1 or members[0] not in supports:
            problems.append(f"cluster {cid}: representatives {members}")
    return problems


def gold_invariants(out_dir: Path, full_set_f1) -> list[str]:
    """F1 and RBO in [0, 1]; sampled Shapley values sum to the F1 of the full
    representative set, since each permutation's marginals telescope.

    `full_set_f1(pattern_ids)` returns the CV F1 of those columns in
    ascending id order, which is the order the characteristic uses.
    """
    problems = _unit_interval(out_dir, "gold_f1.csv", "f1")
    problems += _unit_interval(out_dir, "gold_curve.csv", "f1")
    problems += _unit_interval(out_dir, "gold_rbo.csv", "rbo_vs_gold")
    rows = _rows(out_dir / "gold.csv")
    total = math.fsum(float(r["shapley_value"]) for r in rows)
    want = full_set_f1(sorted(int(r["pattern_id"]) for r in rows))
    if abs(total - want) > SHAPLEY_SUM_TOLERANCE:
        problems.append(f"Shapley values sum to {total!r}, full-set F1 is {want!r}")
    return problems


def properties_invariants(out_dir: Path, n_measures: int, n_properties: int) -> list[str]:
    """One row per (measure, property) cell."""
    rows = _rows(out_dir / "properties.csv")
    want = n_measures * n_properties
    return [] if len(rows) == want else [f"properties.csv has {len(rows)} rows, want {want}"]
