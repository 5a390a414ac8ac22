"""Command-line workbench: pipeline, cluster-sweep, pairwise-tau, gold,
properties, stats.

Every command is a function of one RunConfig: a flat key=value file
(--config), --set key=value overrides, --dataset and --out. A dataset
directory is read as TUDataset files, any other path as SPMF text. All
randomness flows from explicit seeds in the config (no wall-clock defaults),
so identical config + seeds produce byte-identical CSV outputs. Exit codes:
0 success, 2 configuration error, 1 runtime error.

pipeline, cluster-sweep, gold and stats read exactly one dataset (more is a
configuration error), pairwise-tau one or more, properties none (one is a
configuration error too). `balance` under-samples for the mining commands
only: stats describes the file as read.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, get_args, get_origin, get_type_hints

import click

from . import classify, clusterer, footprints, graphdata, measures, miner
from . import properties as props
from . import rankcmp, shapley

DEFAULT_S_GRID = (1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0, 100.0)
DEFAULT_THRESHOLDS = (0.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0, 100.0)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    dataset: tuple[str, ...] = ()
    labels: Optional[str] = None         # sidecar label file for spmf
    tu_name: Optional[str] = None        # file prefix for tudataset dirs
    balance: bool = True
    min_support: str = "1"               # absolute count or "N%" of graphs
    max_patterns: Optional[int] = None
    max_edges: Optional[int] = 6
    threshold_pct: float = 20.0          # clustering threshold, percent of N
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS  # cluster-sweep pcts
    measures: tuple[str, ...] = measures.MEASURE_NAMES
    s: str = "100%"                      # top-pattern count or percent
    s_grid: tuple[float, ...] = DEFAULT_S_GRID
    c: float = 1.0
    k_folds: int = 5
    rbo_p: float = 0.9
    seed: int = 0
    n_permutations: int = 200
    exact_limit: int = shapley.EXACT_LIMIT
    property_n: int = 10
    out: str = "out"

    def validate(self) -> None:
        for key, low in (("k_folds", 2), ("property_n", 2), ("n_permutations", 1)):
            value = getattr(self, key)
            if value is None or value < low:
                raise ConfigError(f"{key} must be >= {low}")
        for key in ("max_patterns", "max_edges"):
            if getattr(self, key) is not None and getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1 or none")
        hints = get_type_hints(RunConfig)
        for f in fields(self):
            if (getattr(self, f.name) in (None, "")
                    and type(None) not in get_args(hints[f.name])):
                raise ConfigError(f"{f.name} must not be none or empty")
        for key in ("measures", "s_grid", "thresholds"):
            if not getattr(self, key):
                raise ConfigError(f"{key} must not be empty")
        if not (0.0 <= self.threshold_pct <= 100.0):
            raise ConfigError("threshold_pct must be in [0, 100]")
        if not all(0.0 <= pct <= 100.0 for pct in self.thresholds):
            raise ConfigError("thresholds must be in [0, 100]")
        # exact Shapley visits all 2**k coalitions: 2**20 is a million CVs
        if not (0 <= self.exact_limit <= 20):
            raise ConfigError("exact_limit must be in [0, 20]")
        for pct in self.s_grid:
            if not (0.0 < pct <= 100.0):
                raise ConfigError("s_grid percentages must be in (0, 100]")
        if not (0.0 < self.rbo_p < 1.0):
            raise ConfigError("rbo_p must be in (0, 1)")
        if self.c <= 0:
            raise ConfigError("c must be positive")
        unknown = set(self.measures) - set(measures.MEASURE_NAMES)
        if unknown:
            raise ConfigError(f"unknown measures: {sorted(unknown)}")
        twice = sorted({m for m in self.measures if self.measures.count(m) > 1})
        if twice:
            raise ConfigError(f"measures must not name a measure twice: {twice}")
        kind, value = _parse_count_or_pct(self.min_support, "min_support")
        if kind == "count" and value < 1:
            raise ConfigError("min_support must be >= 1")
        kind, value = _parse_count_or_pct(self.s, "s")
        if value <= 0:
            raise ConfigError("s must select at least one pattern")

    def resolve_min_support(self, n_graphs: int) -> int:
        kind, value = _parse_count_or_pct(self.min_support, "min_support")
        return max(1, _ceil_pct(value, n_graphs) if kind == "pct" else int(value))

    def resolve_s(self, n_representatives: int) -> int:
        kind, value = _parse_count_or_pct(self.s, "s")
        resolved = _ceil_pct(value, n_representatives) if kind == "pct" else int(value)
        if resolved < 1:
            raise ConfigError("s must select at least one pattern")
        return min(resolved, n_representatives)


def _share(pct: float) -> Fraction:
    """pct percent as an exact fraction, read from the decimal pct prints as,
    so a count taken from it by ceil or floor is not one off."""
    return Fraction(str(pct)) / 100


def _ceil_pct(pct: float, n: int) -> int:
    """The ceiling of pct percent of n, exactly."""
    return math.ceil(_share(pct) * n)


def _parse_count_or_pct(raw: str, key: str) -> tuple[str, float]:
    text = str(raw).strip()
    try:
        if text.endswith("%"):
            value = float(text[:-1])
            if not (0.0 <= value <= 100.0):
                raise ValueError
            return "pct", value
        value = float(text)
        if value < 0 or value != int(value):
            raise ValueError
        return "count", value
    except (ValueError, OverflowError):
        raise ConfigError(f"{key} must be a non-negative integer or 'N%', got {raw!r}"
                          ) from None


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}
_KINDS = {bool: "a boolean", int: "an integer", float: "a finite number"}


def _coerce(key: str, raw: str):
    """Parse one value by the type RunConfig declares for `key`. Tuples are
    comma lists; `none` or an empty value is None, which validate() accepts
    for the Optional fields only."""
    hint = get_type_hints(RunConfig)[key]
    raw = raw.strip()
    if get_origin(hint) is tuple:
        items = [x.strip() for x in raw.split(",") if x.strip()]
        if key == "measures" and items == ["all"]:
            return measures.MEASURE_NAMES
        return tuple(_scalar(key, get_args(hint)[0], x) for x in items)
    if raw.lower() in ("", "none"):
        return None
    return _scalar(key, (get_args(hint) or (hint,))[0], raw)


def _scalar(key: str, kind: type, raw: str):
    try:
        value = _BOOLS[raw.lower()] if kind is bool else kind(raw)
        if kind is not float or math.isfinite(value):
            return value
    except (KeyError, ValueError):
        pass
    raise ConfigError(f"{key} must be {_KINDS[kind]}, got {raw!r}")


def load_config(path: Optional[str], overrides: Sequence[str]) -> RunConfig:
    cfg = RunConfig()
    valid = {f.name for f in fields(RunConfig)}

    def apply(item: str, where: str, malformed: str):
        key, eq, value = item.partition("=")
        if not eq:
            raise ConfigError(malformed)
        key = key.strip()
        if key not in valid:
            raise ConfigError(f"unknown config key {key!r} ({where})")
        setattr(cfg, key, _coerce(key, value))

    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
                              ) from None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                apply(line, f"{path}:{lineno}", f"{path}:{lineno}: expected key=value")
    for item in overrides:
        apply(item, "--set", f"--set expects key=value, got {item!r}")
    cfg.validate()
    return cfg


def _is_tudataset(cfg: RunConfig, path: str) -> bool:
    """True for a directory, read as TUDataset, False for any other path,
    read as SPMF; the other layout's key is a ConfigError."""
    is_dir = Path(path).is_dir()
    misplaced = "labels" if is_dir else "tu_name"
    if getattr(cfg, misplaced):
        raise ConfigError(f"{misplaced} does not apply to {path}: a directory "
                          "is read as TUDataset, any other path as SPMF")
    return is_dir


def _load_dataset(cfg: RunConfig, path: str) -> graphdata.GraphDataset:
    """A directory is TUDataset files named `tu_name` or the directory's
    name, any other path SPMF text."""
    where = Path(path)
    if _is_tudataset(cfg, path):
        return graphdata.load_tudataset(where, cfg.tu_name or where.name)
    labels_text = Path(cfg.labels).read_text() if cfg.labels else None
    return graphdata.parse_spmf(where.read_text(), labels_text)


def _one_dataset(cfg: RunConfig) -> str:
    """The path of a command that reads exactly one dataset."""
    if len(cfg.dataset) != 1:
        raise ConfigError(f"exactly one dataset path is required, got {len(cfg.dataset)}")
    return cfg.dataset[0]


def _write(out_dir: Path, name: str, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text)


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")


@contextmanager
def _stage(name: str, seconds: Optional[dict] = None):
    """Name a step so a failure reports the step and its cause (a
    ConfigError passes through); with `seconds`, record its wall time too."""
    t0 = time.perf_counter()
    try:
        yield
    except ConfigError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc
    if seconds is not None:
        seconds[f"{name}_s"] = time.perf_counter() - t0


def _mine_and_cluster(cfg: RunConfig, path: str, seconds: Optional[dict] = None,
                      load: str = "load"):
    with _stage(load, seconds):
        ds = _load_dataset(cfg, path)
        ds.labels()  # an unlabeled graph fails here, not after mining
        if cfg.balance and ds.n_pos != ds.n_neg:
            ds = graphdata.balance_undersample(ds, seed=cfg.seed)
    with _stage("mine", seconds):
        min_sup = cfg.resolve_min_support(len(ds))
        pattern_set = miner.mine_frequent(ds, min_support=min_sup,
                                          max_patterns=cfg.max_patterns,
                                          max_edges=cfg.max_edges)
        if len(pattern_set) == 0:
            raise RuntimeError("no frequent patterns at this support threshold")
    with _stage("footprints", seconds):
        matrix = footprints.build_matrix(pattern_set, ds)
    with _stage("cluster", seconds):
        clustering = clusterer.FootprintClustering.build(matrix)
        cut = clustering.cut(math.floor(_share(cfg.threshold_pct) * matrix.n_graphs))
    return ds, pattern_set, matrix, clustering, cut


def run_pipeline(cfg: RunConfig) -> dict:
    """mine -> cluster -> rank -> select top-s -> vectorize -> cross-validate."""
    path = _one_dataset(cfg)
    out_dir = Path(cfg.out)
    t_start = time.perf_counter()
    timings: dict[str, float] = {}
    ds, pattern_set, matrix, clustering, cut = _mine_and_cluster(cfg, path, timings)
    reps = list(cut.representatives)
    with _stage("export", timings):
        pat_text, sup_text = miner.export_patterns(pattern_set)
        _write(out_dir, "patterns.spmf", pat_text)
        _write(out_dir, "pattern_supports.txt", sup_text)
        _write(out_dir, "footprints.csv", footprints.matrix_csv(matrix))
        _write(out_dir, "contingency.csv", footprints.contingency_csv(matrix))
        _write(out_dir, "clusters.csv", clusterer.clusters_csv(cut))
        _write(out_dir, "dendrogram.csv",
               clusterer.dendrogram_csv(clustering.dendrogram))
    with _stage("rank", timings):
        scores_text, rankings = measures.scores_csv(matrix, reps, cfg.measures)
        _write(out_dir, "scores.csv", scores_text)
    with _stage("classify", timings):
        s = cfg.resolve_s(len(reps))
        lines = ["measure,s,precision,recall,f1"]
        summary_measures = {}
        # measures that pick the same set share its report and model; the
        # distinct sets are cross-validated, then trained, as one batch each
        tops = {m: frozenset(rankings[m].top(s)) for m in cfg.measures}
        distinct = list(dict.fromkeys(tops.values()))
        features = classify.FeatureView.all_columns(matrix)
        reports = list(classify.cross_validate_many(
            features, distinct, k=cfg.k_folds, c=cfg.c, seed=cfg.seed))
        models = classify.train(features, distinct, c=cfg.c)
        evaluated = {top: (report, classify.eval_csv(report),
                           classify.model_csv(model, sorted(top)))
                     for top, report, model in zip(distinct, reports, models)}
        for m in cfg.measures:
            report, eval_text, model_text = evaluated[tops[m]]
            _write(out_dir, f"eval_{m}.csv", eval_text)
            _write(out_dir, f"model_{m}.csv", model_text)
            lines.append(f"{m},{s},{report.precision!r},{report.recall!r},"
                         f"{report.f1!r}")
            summary_measures[m] = {"s_used": s, "precision": report.precision,
                                   "recall": report.recall, "f1": report.f1}
        _write(out_dir, "pipeline_f1.csv", "\n".join(lines) + "\n")
    timings["total_s"] = time.perf_counter() - t_start
    summary = {
        "dataset": path,
        "n_graphs": len(ds),
        "n_pos": ds.n_pos,
        "n_neg": ds.n_neg,
        "min_support": cfg.resolve_min_support(len(ds)),
        "n_patterns": len(pattern_set),
        "truncated": pattern_set.truncated,
        "n_representatives": len(reps),
        "threshold_pct": cfg.threshold_pct,
        "abs_threshold": cut.threshold,
        "s": s,
        "measures": summary_measures,
        "timings": timings,
    }
    _write(out_dir, "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def run_cluster_sweep(cfg: RunConfig) -> str:
    _ds, _ps, matrix, clustering, _cut = _mine_and_cluster(cfg, _one_dataset(cfg))
    with _stage("sweep"):
        f1 = shapley.performance_characteristic(matrix, k=cfg.k_folds, c=cfg.c,
                                                seed=cfg.seed)
        cuts = [clustering.cut(math.floor(_share(pct) * matrix.n_graphs))
                for pct in cfg.thresholds]
        scores = f1.many(cut.representatives for cut in cuts)
        lines = ["threshold_pct,abs_threshold,n_representatives,f1"]
        for pct, cut, score in zip(cfg.thresholds, cuts, scores):
            lines.append(f"{pct!r},{cut.threshold},{len(cut.representatives)},"
                         f"{score!r}")
    text = "\n".join(lines) + "\n"
    _write(Path(cfg.out), "cluster_sweep.csv", text)
    return text


def run_pairwise_tau(cfg: RunConfig) -> rankcmp.EquivalenceBlocks:
    if not cfg.dataset:
        raise ConfigError("at least one dataset path is required")
    if len({Path(path).stem for path in cfg.dataset}) < len(cfg.dataset):
        raise ConfigError("dataset file stems must differ: they key the "
                          "rankings and name the tau_<stem>.csv files")
    for path in cfg.dataset:  # a misplaced layout key fails before any mining
        _is_tudataset(cfg, path)
    out_dir = Path(cfg.out)
    rankings: dict[str, dict[str, measures.Ranking]] = {}
    for path in cfg.dataset:
        _ds, _ps, matrix, _clustering, cut = \
            _mine_and_cluster(cfg, path, load=f"load {path}")
        with _stage(f"rank {path}"):
            rankings[Path(path).stem] = measures.rank_all(
                matrix, list(cut.representatives), cfg.measures)
    with _stage("blocks"):
        blocks = rankcmp.equivalence_blocks(rankings)
        for name in rankings:
            _write(out_dir, f"tau_{name}.csv", rankcmp.tau_csv(blocks, name))
        _write(out_dir, "min_tau.csv", rankcmp.min_tau_csv(blocks))
        _write(out_dir, "blocks.csv", rankcmp.blocks_csv(blocks))
    return blocks


def run_gold(cfg: RunConfig) -> dict:
    out_dir = Path(cfg.out)
    _ds, _ps, matrix, _clustering, cut = _mine_and_cluster(cfg, _one_dataset(cfg))
    reps = list(cut.representatives)
    with _stage("gold standard"):
        # the sweep reads f's cache: a coalition the Shapley run already
        # evaluated costs no CV
        f = shapley.performance_characteristic(matrix, k=cfg.k_folds, c=cfg.c,
                                               seed=cfg.seed)
        gold = shapley.gold_standard(f, reps, n_permutations=cfg.n_permutations,
                                     seed=cfg.seed, exact_limit=cfg.exact_limit)
        _write(out_dir, "gold.csv", shapley.shapley_csv(gold))
    with _stage("sweep"):
        rankings = measures.rank_all(matrix, reps, cfg.measures)
        sizes = [max(1, _ceil_pct(pct, len(reps))) for pct in cfg.s_grid]
        # every swept set is cross-validated in one batch before the rows
        f.many(ranking.top(s) for s in sizes
               for ranking in (gold.ranking, *rankings.values()))
        rbo_lines = ["measure,s_pct,s,rbo_vs_gold"]
        f1_lines = ["measure,s_pct,s,f1"]
        gold_lines = ["s_pct,s,f1"]
        for pct, s in zip(cfg.s_grid, sizes):
            gold_top = list(gold.ranking.top(s))
            gf1 = f(gold_top)
            gold_lines.append(f"{pct!r},{s},{gf1!r}")
            for m in cfg.measures:
                top = list(rankings[m].top(s))
                r = rankcmp.rbo(top, gold_top, p=cfg.rbo_p, depth=s)
                f1 = f(top)
                rbo_lines.append(f"{m},{pct!r},{s},{r!r}")
                f1_lines.append(f"{m},{pct!r},{s},{f1!r}")
        _write(out_dir, "gold_rbo.csv", "\n".join(rbo_lines) + "\n")
        _write(out_dir, "gold_f1.csv", "\n".join(f1_lines) + "\n")
        _write(out_dir, "gold_curve.csv", "\n".join(gold_lines) + "\n")
    # distinct coalitions cross-validated and stacked SVM fits, Shapley and
    # sweep together
    return {"method": gold.method, "n_representatives": len(reps),
            "evaluations": f.counts["evaluations"], "fits": f.counts["fits"]}


def run_properties(cfg: RunConfig) -> str:
    if cfg.dataset:
        raise ConfigError("properties reads no dataset: drop --dataset and dataset=")
    reports = props.property_matrix(cfg.property_n, cfg.measures)
    text = props.properties_csv(reports)
    _write(Path(cfg.out), "properties.csv", text)
    return text


DENSITY_CONVENTION = "2m/(n(n-1))"  # plain density, even for bipartite graphs


def run_stats(cfg: RunConfig) -> dict:
    """Statistics of the dataset as read, not under-sampled: the row
    written to stats.csv."""
    with _stage("load"):   # a ConfigError passes through
        ds = _load_dataset(cfg, _one_dataset(cfg))
    row = asdict(graphdata.dataset_stats(ds)) | {"density_convention": DENSITY_CONVENTION}
    _write(Path(cfg.out), "stats.csv", ",".join(row) + "\n" + ",".join(
        "" if value is None else str(value) for value in row.values()) + "\n")
    return row


# ---------------------------------------------------------------------------
# click wiring
# ---------------------------------------------------------------------------

@click.group()
def main():
    """Pattern-based graph classification workbench."""


def _command(body):
    """Register `body(cfg)` as a subcommand of `main` that builds its one
    RunConfig from --config, --set, --dataset and --out, and exits 2 on a
    ConfigError and 1, printing `error: ...`, on any other failure. `wraps`
    carries the name and help text of `body` over."""
    @main.command()
    @click.option("--out", default=None, help="output directory")
    @click.option("--dataset", multiple=True,
                  help="dataset path (repeatable for pairwise-tau)")
    @click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE",
                  help="override a config key")
    @click.option("--config", type=click.Path(exists=True, dir_okay=False),
                  default=None, help="key=value config file")
    @functools.wraps(body)
    def command(config, overrides, dataset, out):
        try:
            cfg = load_config(config, overrides)
            # the flags win over --set; a bad value in either exits 2
            if dataset:
                cfg.dataset = tuple(dataset)
            if out is not None:
                cfg.out = out
            cfg.validate()
            body(cfg)
        except ConfigError as exc:
            raise click.UsageError(str(exc)) from exc
        except Exception as exc:  # runtime failures, StageError included, exit 1
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
    return command


@_command
def pipeline(cfg):
    """Mine, cluster, rank, select, and cross-validate one dataset."""
    click.echo(json.dumps(run_pipeline(cfg), indent=2, sort_keys=True))


@_command
def cluster_sweep(cfg):
    """Representative count and F1 across clustering thresholds."""
    click.echo(run_cluster_sweep(cfg), nl=False)


@_command
def pairwise_tau(cfg):
    """All-pairs ranking correlation and equivalence blocks."""
    for bid, block in enumerate(run_pairwise_tau(cfg).blocks):
        if len(block) > 1:
            click.echo(f"block {bid}: {', '.join(block)}")


@_command
def gold(cfg):
    """Shapley gold standard and per-measure RBO/F1 curves."""
    click.echo(json.dumps(run_gold(cfg), sort_keys=True))


@_command
def properties(cfg):
    """Exhaustive property checks against the declared flags."""
    rows = run_properties(cfg).strip().splitlines()[1:]
    bad = [row for row in rows if row.rsplit(",", 1)[-1] == "0"]
    click.echo(f"checked {len(rows)} cells, {len(bad)} deviations from the declared flags")
    for row in bad:
        click.echo(f"  deviation: {row}")


@_command
def stats(cfg):
    """Dataset summary statistics."""
    click.echo(json.dumps(run_stats(cfg), indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
