"""In-memory span tracer for the benchmark's traced run.

It wraps patclass's public functions at their module attributes (the names
other modules look up when they call them), so nothing under `src/` changes.
Re-imported names such as `shapley.cross_validate` are wrapped where they
are looked up too. Spans and counters stay in memory and are written out
once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("graphdata", "miner", "footprints", "clusterer", "measures",
          "properties", "rankcmp", "classify", "shapley", "cli")

COMMAND_SPAN = "cli.command"

# Span fields, kept as plain lists for low overhead.
RUN, NAME, LAYER, PARENT, T0, T1, C0, C1 = range(8)


def _patterns(tracer, result):
    tracer.count("miner.patterns", len(result))


def _parsed(tracer, result):
    tracer.count("graphdata.graphs", len(result))
    tracer.count("graphdata.edges", sum(g.n_edges for g in result))


def _distinct(tracer, result):
    tracer.count("footprints.distinct", len(result))


def _merges(tracer, result):
    tracer.count("clusterer.merges", len(result.merges))


def _representatives(tracer, result):
    tracer.count("clusterer.representatives", len(result.representatives))


def _checks(tracer, result):
    tracer.count("properties.checks", len(result))


def _std_error(tracer, result):
    if result.std_error:
        tracer.peak("shapley.max_std_error", max(result.std_error.values()))


# (module, attribute path, layer, observer of the return value). A dotted
# path names a method, or a static method, of a class in that module.
TARGETS = (
    ("graphdata", "parse_spmf", "graphdata", _parsed),
    ("graphdata", "balance_undersample", "graphdata", None),
    ("miner", "mine_frequent", "miner", _patterns),
    ("miner", "export_patterns", "miner", None),
    ("footprints", "build_matrix", "footprints", None),
    ("footprints", "distinct_footprint_groups", "footprints", _distinct),
    ("footprints", "matrix_csv", "footprints", None),
    ("footprints", "contingency_csv", "footprints", None),
    ("clusterer", "FootprintClustering.build", "clusterer", None),
    ("clusterer", "manhattan_matrix", "clusterer", None),
    ("clusterer", "agglomerate_complete", "clusterer", _merges),
    ("clusterer", "FootprintClustering.cut", "clusterer", _representatives),
    ("clusterer", "clusters_csv", "clusterer", None),
    ("clusterer", "dendrogram_csv", "clusterer", None),
    ("measures", "rank", "measures", None),
    ("measures", "scores_csv", "measures", None),
    ("properties", "property_matrix", "properties", _checks),
    ("properties", "properties_csv", "properties", None),
    ("rankcmp", "rbo", "rankcmp", None),
    ("classify", "FeatureView.from_matrix", "classify", None),
    ("classify", "cross_validate", "classify", None),
    ("shapley", "cross_validate", "classify", None),
    ("classify", "train", "classify", None),
    ("classify", "eval_csv", "classify", None),
    ("classify", "model_csv", "classify", None),
    ("shapley", "gold_standard", "shapley", _std_error),
    ("shapley", "CachedCharacteristic.__call__", "shapley", None),
    ("shapley", "shapley_csv", "shapley", None),
)

# `score` is called once per (measure, table) evaluation, far too often for
# a span each; it gets a counter of calls and of distinct (measure, table)
# keys. `properties` holds its own reference to it.
SCORE_MODULES = ("measures", "properties")


class Tracer:
    """Collects spans and counters; `installed` patches patclass while open."""

    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self._stack: list[int] = []
        self._counts: dict[int, Counter] = defaultdict(Counter)
        self._peaks: dict[int, dict[str, float]] = defaultdict(dict)
        self._tables: dict[int, set] = defaultdict(set)

    # -- recording ---------------------------------------------------------

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.run, name, layer, parent, time.perf_counter(),
                           0.0, time.process_time(), 0.0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[T1] = time.perf_counter()
        span[C1] = time.process_time()
        self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self._counts[self.run][key] += n

    def peak(self, key: str, value: float) -> None:
        peaks = self._peaks[self.run]
        peaks[key] = max(value, peaks.get(key, value))

    def _wrap(self, fn, name: str, layer: str, observe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if observe is not None:
                observe(tracer, result)
            return result
        return traced

    def _wrap_score(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(measure, counts):
            tracer.count("measures.score_calls")
            tracer._tables[tracer.run].add((measure, counts))
            return fn(measure, counts)
        return counted

    # -- patching ----------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every target while the block runs; restore them after."""
        undo = []
        try:
            for mod_name, path, layer, observe in TARGETS:
                owner = importlib.import_module(f"patclass.{mod_name}")
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
                name = f"{mod_name}.{path}" if mod_name == layer else f"{layer}.{attr}"
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(raw.__func__, name, layer, observe))
                else:
                    wrapped = self._wrap(raw, name, layer, observe)
                undo.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            for mod_name in SCORE_MODULES:
                owner = importlib.import_module(f"patclass.{mod_name}")
                undo.append((owner, "score", vars(owner)["score"]))
                owner.score = self._wrap_score(owner.score)
            yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    # -- results -----------------------------------------------------------

    def metrics(self, run: int) -> dict[str, float]:
        """Per-layer metrics of one traced invocation."""
        spans = {i: s for i, s in enumerate(self.spans) if s[RUN] == run}
        total: Counter = Counter()
        calls: Counter = Counter()
        child_time: Counter = Counter()
        self_time: Counter = Counter()
        classify_cpu = 0.0
        evals = 0
        for i, s in spans.items():
            dur = s[T1] - s[T0]
            total[s[NAME]] += dur
            calls[s[NAME]] += 1
            parent = spans.get(s[PARENT])
            if parent is not None:
                child_time[s[PARENT]] += dur
            # A characteristic call that misses its cache runs one CV.
            if (s[NAME] == "classify.cross_validate" and parent is not None
                    and parent[NAME] == "shapley.CachedCharacteristic.__call__"):
                evals += 1
            if s[LAYER] == "classify" and (parent is None or parent[LAYER] != "classify"):
                classify_cpu += s[C1] - s[C0]
        for i, s in spans.items():
            self_time[s[LAYER]] += (s[T1] - s[T0]) - child_time[i]
        counts = self._counts[run]
        peaks = self._peaks[run]
        out = {
            "graphdata.parse_s": total["graphdata.parse_spmf"],
            "graphdata.graphs": counts["graphdata.graphs"],
            "graphdata.edges": counts["graphdata.edges"],
            "miner.mine_s": total["miner.mine_frequent"],
            "miner.patterns": counts["miner.patterns"],
            "miner.export_s": total["miner.export_patterns"],
            "footprints.build_s": total["footprints.build_matrix"],
            "footprints.distinct": counts["footprints.distinct"],
            "footprints.csv_s": (total["footprints.matrix_csv"]
                                 + total["footprints.contingency_csv"]),
            "clusterer.manhattan_s": total["clusterer.manhattan_matrix"],
            "clusterer.agglomerate_s": total["clusterer.agglomerate_complete"],
            "clusterer.cut_s": total["clusterer.FootprintClustering.cut"],
            "clusterer.merges": counts["clusterer.merges"],
            "clusterer.representatives": counts["clusterer.representatives"],
            "measures.rank_s": total["measures.rank"],
            "measures.scores_csv_s": total["measures.scores_csv"],
            "measures.score_calls": counts["measures.score_calls"],
            "measures.distinct_tables": len(self._tables[run]),
            "properties.matrix_s": total["properties.property_matrix"],
            "properties.checks": counts["properties.checks"],
            "rankcmp.rbo_s": total["rankcmp.rbo"],
            "rankcmp.rbo_calls": calls["rankcmp.rbo"],
            "classify.cv_s": total["classify.cross_validate"],
            "classify.cv_calls": calls["classify.cross_validate"],
            "classify.train_s": total["classify.train"],
            "classify.train_calls": calls["classify.train"],
            "classify.cpu_s": classify_cpu,
            "shapley.gold_s": total["shapley.gold_standard"],
            "shapley.char_calls": calls["shapley.CachedCharacteristic.__call__"],
            "shapley.char_evals": evals,
            "shapley.max_std_error": peaks.get("shapley.max_std_error", 0.0),
            "cli.command_s": total[COMMAND_SPAN],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time[layer]
        return out

    def dump(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        with path.open("w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "run": s[RUN], "name": s[NAME], "layer": s[LAYER],
                    "parent": s[PARENT], "start": s[T0], "end": s[T1],
                    "cpu_s": s[C1] - s[C0]}) + "\n")
