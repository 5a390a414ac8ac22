import json
import random
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest
from click.testing import CliRunner

from patclass.cli import (ConfigError, RunConfig, StageError, _stage,
                          load_config, main, run_gold, run_pairwise_tau,
                          run_pipeline)
from patclass.graphdata import GraphDataset, serialize_spmf

from oracles import random_graph


def spmf_fixture(seed=0, n=16):
    """Two-class collection: positives carry a labeled triangle, negatives a
    labeled square; shared chain scaffolding plus random decoration."""
    rng = random.Random(seed)
    out = []
    for gid in range(n):
        positive = gid < n // 2
        lines = [f"t # {gid} {1 if positive else 0}"]
        labels = [0, 0, 1, 1, 2]
        for vid, lab in enumerate(labels):
            lines.append(f"v {vid} {lab}")
        edges = {(0, 1, 0), (1, 2, 0), (2, 3, 0)}
        if positive:
            edges.add((0, 2, 1))  # closes a labeled triangle 0-1-2
        else:
            edges.add((3, 4, 1))
        if rng.random() < 0.5:
            edges.add((2, 4, 0))
        for (u, v, el) in sorted(edges):
            lines.append(f"e {u} {v} {el}")
        out.append("\n".join(lines))
    return "\n".join(out) + "\n"


@pytest.fixture
def dataset_file(tmp_path):
    path = tmp_path / "toy.spmf"
    path.write_text(spmf_fixture())
    return path


def base_config(dataset_file, tmp_path, **kw):
    cfg = RunConfig()
    cfg.dataset = (str(dataset_file),)
    cfg.out = str(tmp_path / "out")
    cfg.max_edges = 3
    cfg.threshold_pct = 0.0
    cfg.measures = ("Sup", "AbsSupDif", "GR", "Conf")
    cfg.k_folds = 4
    for key, value in kw.items():
        setattr(cfg, key, value)
    cfg.validate()
    return cfg


class TestConfig:
    def test_file_and_overrides(self, tmp_path):
        cfile = tmp_path / "run.cfg"
        cfile.write_text("# comment\nthreshold_pct = 15\nmeasures = Sup, GR\n"
                         "seed = 7\n")
        cfg = load_config(str(cfile), ["k_folds=3"])
        assert cfg.threshold_pct == 15.0
        assert cfg.measures == ("Sup", "GR")
        assert cfg.seed == 7 and cfg.k_folds == 3

    def test_unknown_key(self, tmp_path):
        cfile = tmp_path / "run.cfg"
        cfile.write_text("bogus = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(cfile), [])

    def test_percent_parsing(self):
        cfg = RunConfig()
        cfg.min_support = "10%"
        assert cfg.resolve_min_support(44) == 5  # ceil(4.4)
        cfg.min_support = "0%"
        assert cfg.resolve_min_support(44) == 1
        cfg.s = "20%"
        assert cfg.resolve_s(10) == 2

    def test_whole_percent_counts_are_exact(self):
        # in floats, 7 / 100 * 100 and 28 / 100 * 25 land just above 7
        cfg = RunConfig(min_support="7%", s="28%")
        assert cfg.resolve_min_support(100) == 7
        assert cfg.resolve_s(25) == 7
        cfg = RunConfig(min_support="0.1%")
        assert cfg.resolve_min_support(1000) == 1

    @pytest.mark.parametrize("field", fields(RunConfig), ids=lambda f: f.name)
    def test_default_written_as_text_round_trips(self, field):
        default = field.default
        if isinstance(default, tuple):
            text = ",".join(str(x) for x in default)
        else:
            text = "none" if default is None else str(default)
        value = getattr(load_config(None, [f"{field.name}={text}"]), field.name)
        assert value == default and type(value) is type(default)

    @pytest.mark.parametrize("key", ["max_patterns", "max_edges", "labels",
                                     "tu_name"])
    @pytest.mark.parametrize("text", ["none", "None", ""])
    def test_optional_keys_take_none(self, key, text):
        assert getattr(load_config(None, [f"{key}={text}"]), key) is None

    def test_invalid_values(self):
        for key, value in [("s", "0"), ("min_support", "0"),
                           ("rbo_p", 1.5), ("threshold_pct", 120.0),
                           ("exact_limit", None), ("seed", None),
                           ("out", ""), ("max_edges", 0),
                           ("measures", ("Sup", "Sup"))]:
            cfg = RunConfig()
            setattr(cfg, key, value)
            with pytest.raises(ConfigError):
                cfg.validate()


class TestStage:
    def test_wraps_runtime_errors_with_the_stage_name(self):
        with pytest.raises(StageError, match="stage 'load' failed: boom"):
            with _stage("load"):
                raise OSError("boom")

    def test_config_errors_pass_through(self):
        with pytest.raises(ConfigError):
            with _stage("classify"):
                raise ConfigError("bad s")

    def test_records_seconds_on_success_only(self):
        seconds = {}
        with _stage("rank", seconds):
            pass
        with pytest.raises(StageError):
            with _stage("classify", seconds):
                raise ValueError("x")
        assert list(seconds) == ["rank_s"] and seconds["rank_s"] >= 0


class TestPipeline:
    def test_artifacts_and_summary(self, dataset_file, tmp_path):
        cfg = base_config(dataset_file, tmp_path)
        summary = run_pipeline(cfg)
        out = Path(cfg.out)
        for name in ("patterns.spmf", "pattern_supports.txt", "footprints.csv",
                     "contingency.csv", "clusters.csv", "dendrogram.csv",
                     "scores.csv", "pipeline_f1.csv", "summary.json"):
            assert (out / name).exists(), name
        on_disk = json.loads((out / "summary.json").read_text())
        assert set(on_disk) == {
            "dataset", "n_graphs", "n_pos", "n_neg", "min_support",
            "n_patterns", "truncated", "n_representatives", "threshold_pct",
            "abs_threshold", "s", "measures", "timings"}
        assert summary["n_graphs"] == 16

    def test_summary_timings_are_per_stage(self, dataset_file, tmp_path):
        cfg = base_config(dataset_file, tmp_path)
        run_pipeline(cfg)
        timings = json.loads((Path(cfg.out) / "summary.json").read_text())["timings"]
        stages = {"load_s", "mine_s", "footprints_s", "cluster_s", "export_s",
                  "rank_s", "classify_s"}
        assert set(timings) == stages | {"total_s"}
        assert all(t >= 0 for t in timings.values())
        assert sum(timings[k] for k in stages) <= timings["total_s"]

    def test_threshold0_reps_equal_distinct_footprints(self, dataset_file, tmp_path):
        from patclass import footprints, graphdata, miner
        cfg = base_config(dataset_file, tmp_path, s="100%")
        summary = run_pipeline(cfg)
        ds = graphdata.parse_spmf(dataset_file.read_text())
        mined = miner.mine_frequent(ds, 1, max_edges=3)
        mat = footprints.build_matrix(mined, ds)
        groups = footprints.distinct_footprint_groups(mat)
        assert summary["n_representatives"] == len(groups)

    def test_byte_identical_reruns(self, dataset_file, tmp_path):
        cfg1 = base_config(dataset_file, tmp_path)
        cfg1.out = str(tmp_path / "a")
        run_pipeline(cfg1)
        cfg2 = base_config(dataset_file, tmp_path)
        cfg2.out = str(tmp_path / "b")
        run_pipeline(cfg2)
        for name in ("patterns.spmf", "pattern_supports.txt", "footprints.csv",
                     "contingency.csv", "clusters.csv", "dendrogram.csv",
                     "scores.csv", "pipeline_f1.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name


    def test_full_selection_one_f1_for_every_measure(self, tmp_path):
        # s = 100% hands every measure the same set in its own rank order
        from oracles import random_graph
        from patclass.graphdata import (NEGATIVE, POSITIVE, GraphDataset,
                                        serialize_spmf)
        from patclass.measures import MEASURE_NAMES
        rng = random.Random(0)
        ds = GraphDataset(tuple(
            random_graph(rng, rng.randint(4, 6), 0.5, 3, 2, graph_id=i,
                         class_label=POSITIVE if i % 2 else NEGATIVE)
            for i in range(24)))
        path = tmp_path / "noisy.spmf"
        path.write_text(serialize_spmf(ds))
        cfg = base_config(path, tmp_path, s="100%", measures=tuple(MEASURE_NAMES))
        run_pipeline(cfg)
        rows = (Path(cfg.out) / "pipeline_f1.csv").read_text().splitlines()[1:]
        assert len(rows) == len(MEASURE_NAMES)
        assert len({r.split(",")[-1] for r in rows}) == 1


class TestCliCommands:
    def test_pipeline_command_and_exit_zero(self, dataset_file, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, [
            "pipeline", "--dataset", str(dataset_file),
            "--out", str(tmp_path / "out"),
            "--set", "max_edges=3", "--set", "measures=Sup,GR",
            "--set", "threshold_pct=0", "--set", "k_folds=4"])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "summary.json").exists()

    def test_s_zero_exits_two(self, dataset_file, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, [
            "pipeline", "--dataset", str(dataset_file),
            "--out", str(tmp_path / "out"), "--set", "s=0"])
        assert result.exit_code == 2

    def test_missing_dataset_exits_two(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, ["pipeline", "--out", str(tmp_path / "o")])
        assert result.exit_code == 2

    def test_unreadable_dataset_exits_one(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, [
            "pipeline", "--dataset", str(tmp_path / "missing.spmf"),
            "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "stage 'load'" in result.output

    @pytest.mark.parametrize("setting", [
        "k_folds=none", "exact_limit=none", "seed=none", "s_grid=a,b",
        "n_permutations=0", "seed=", "balance=maybe", "c=nan", "out=",
        "measures=", "format=none", "min_support=none", "k_folds=2.5",
        "min_support=inf", "s=inf", "max_edges=-1", "max_patterns=0",
        "measures=Sup,GR,Sup"])
    def test_bad_value_exits_two_naming_the_key(self, dataset_file, tmp_path,
                                                setting):
        runner = CliRunner()
        result = runner.invoke(main, [
            "gold", "--dataset", str(dataset_file),
            "--out", str(tmp_path / "out"), "--set", "max_edges=2",
            "--set", setting])
        assert result.exit_code == 2, result.output
        assert setting.partition("=")[0] in result.output
        assert not (tmp_path / "out").exists()

    def test_empty_out_flag_exits_two_writing_nothing(self, tmp_path,
                                                      monkeypatch):
        # --out is applied before validation, like --set out=
        monkeypatch.chdir(tmp_path)
        result = CliRunner().invoke(main, ["properties", "--out", "",
                                           "--set", "property_n=2"])
        assert result.exit_code == 2, result.output
        assert "out must not be none or empty" in result.output
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["pipeline", "cluster-sweep", "gold",
                                         "pairwise-tau"])
    def test_no_frequent_pattern_exits_one_naming_mine(self, dataset_file,
                                                       tmp_path, command):
        runner = CliRunner()
        result = runner.invoke(main, [
            command, "--dataset", str(dataset_file),
            "--out", str(tmp_path / "out"), "--set", "min_support=17"])
        assert result.exit_code == 1, result.output
        assert "stage 'mine' failed" in result.output

    def test_cluster_sweep_monotone(self, dataset_file, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, [
            "cluster-sweep", "--dataset", str(dataset_file),
            "--out", str(tmp_path / "out"),
            "--set", "max_edges=3", "--set", "k_folds=4",
            "--thresholds", "0,25,50,100"])
        assert result.exit_code == 0, result.output
        rows = (tmp_path / "out" / "cluster_sweep.csv").read_text().strip().splitlines()
        counts = [int(r.split(",")[2]) for r in rows[1:]]
        assert counts == sorted(counts, reverse=True)
        assert counts[-1] == 1  # threshold 100% -> one cluster
        # the threshold-0 row drops exactly to the distinct-footprint count
        from patclass import footprints, graphdata, miner
        ds = graphdata.parse_spmf(dataset_file.read_text())
        mat = footprints.build_matrix(miner.mine_frequent(ds, 1, max_edges=3), ds)
        assert counts[0] == len(footprints.distinct_footprint_groups(mat))

    def test_cluster_sweep_threshold_is_exact(self, tmp_path):
        # 70% of 90 graphs is 63; in floats floor(0.7 * 90) is 62
        p = tmp_path / "toy.spmf"
        p.write_text(spmf_fixture(n=90))
        result = CliRunner().invoke(main, [
            "cluster-sweep", "--dataset", str(p), "--out", str(tmp_path / "out"),
            "--set", "max_edges=2", "--set", "k_folds=3", "--thresholds", "70"])
        assert result.exit_code == 0, result.output
        rows = (tmp_path / "out" / "cluster_sweep.csv").read_text().splitlines()
        assert rows[1].split(",")[:2] == ["70.0", "63"]

    def test_properties_command(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, [
            "properties", "--out", str(tmp_path / "out"),
            "--set", "property_n=5", "--set", "measures=Conf,GR,Dep,ColStr"])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "properties.csv").exists()
        assert "deviation" in result.output

    @pytest.mark.parametrize("value", ["1", "-3", "none"])
    def test_property_n_below_two_exits_two(self, tmp_path, value):
        runner = CliRunner()
        result = runner.invoke(main, [
            "properties", "--out", str(tmp_path / "out"),
            "--set", f"property_n={value}"])
        assert result.exit_code == 2, result.output
        assert "property_n must be >= 2" in result.output
        assert not (tmp_path / "out").exists()

    def test_stats_command(self, dataset_file, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, [
            "stats", "--dataset", str(dataset_file), "--out", str(tmp_path / "o")])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert list(payload) == [
            "avg_density", "avg_edges", "avg_global_clustering", "avg_vertices",
            "density_convention", "mean_avg_degree", "n_graphs"]
        assert payload["n_graphs"] == 16
        assert payload["avg_vertices"] == 5.0
        assert payload["density_convention"]  # stats flag their convention

    def test_stats_on_tudataset_dir(self, tmp_path):
        d = tmp_path / "TOY"
        d.mkdir()
        (d / "TOY_A.txt").write_text("1, 2\n2, 1\n3, 4\n4, 3\n")
        (d / "TOY_graph_indicator.txt").write_text("1\n1\n2\n2\n")
        (d / "TOY_graph_labels.txt").write_text("0\n1\n")
        runner = CliRunner()
        result = runner.invoke(main, [
            "stats", "--dataset", str(d), "--out", str(tmp_path / "o"),
            "--set", "format=tudataset", "--set", "tu_name=TOY"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["n_graphs"] == 2 and payload["avg_edges"] == 1.0


class TestPairwiseTau:
    def test_blocks_and_matrix(self, tmp_path):
        paths = []
        for seed in (1, 2):
            p = tmp_path / f"d{seed}.spmf"
            p.write_text(spmf_fixture(seed=seed, n=12))
            paths.append(str(p))
        cfg = RunConfig()
        cfg.dataset = tuple(paths)
        cfg.out = str(tmp_path / "out")
        cfg.max_edges = 3
        cfg.threshold_pct = 0.0
        cfg.measures = ("Cover", "Sup", "Spec", "FPR", "Conf", "AbsSupDif")
        cfg.k_folds = 3
        cfg.validate()
        blocks = run_pairwise_tau(cfg)
        sets = [set(b) for b in blocks.blocks]
        assert {"Cover", "Sup"} in sets
        assert {"Spec", "FPR"} in sets
        out = Path(cfg.out)
        assert (out / "min_tau.csv").exists()
        assert (out / "blocks.csv").exists()
        assert (out / "tau_d1.csv").exists() and (out / "tau_d2.csv").exists()
        for (m1, m2), t in blocks.min_tau.items():
            assert blocks.min_tau[(m1, m2)] == t  # stored once per sorted pair

    def test_datasets_with_one_file_stem_exit_two(self, tmp_path):
        # both would be keyed "x", so one dataset's rankings would be dropped
        args = ["pairwise-tau", "--out", str(tmp_path / "out"),
                "--set", "max_edges=2"]
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "x.spmf").write_text(spmf_fixture(seed=1, n=12))
            args += ["--dataset", str(tmp_path / sub / "x.spmf")]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "stems must differ" in result.output
        assert not (tmp_path / "out").exists()


class TestScoringOnce:
    @pytest.mark.parametrize("command", ["pipeline", "gold", "pairwise-tau"])
    def test_one_kit_per_table_per_scoring_pass(self, tmp_path, monkeypatch,
                                                command):
        # every measure ranks from one kit memo per table; pipeline builds a
        # second memo for scores.csv
        from patclass import measures
        built = []
        real = measures.prob_kit

        def counting(counts):
            built.append(counts)
            return real(counts)

        monkeypatch.setattr(measures, "prob_kit", counting)
        paths = []
        # the class sizes differ, so the two datasets share no table
        for n in (12, 16):
            p = tmp_path / f"d{n}.spmf"
            p.write_text(spmf_fixture(seed=n, n=n))
            paths.append(str(p))
        cfg = base_config(paths[0], tmp_path, n_permutations=3,
                          s_grid=(50.0, 100.0))
        if command == "pipeline":
            run_pipeline(cfg)
        elif command == "gold":
            run_gold(cfg)
        else:
            cfg.dataset = tuple(paths)
            run_pairwise_tau(cfg)
        assert built
        assert max(Counter(built).values()) <= (2 if command == "pipeline" else 1)


class TestGoldCommand:
    def test_gold_small_exact(self, tmp_path):
        p = tmp_path / "toy.spmf"
        p.write_text(spmf_fixture(seed=3, n=12))
        runner = CliRunner()
        result = runner.invoke(main, [
            "gold", "--dataset", str(p), "--out", str(tmp_path / "out"),
            "--set", "max_edges=2", "--set", "threshold_pct=40",
            "--set", "measures=Sup,GR", "--set", "k_folds=3",
            "--set", "s_grid=50,100", "--set", "exact_limit=12",
            "--set", "n_permutations=30"])
        assert result.exit_code == 0, result.output
        out = tmp_path / "out"
        for name in ("gold.csv", "gold_rbo.csv", "gold_f1.csv", "gold_curve.csv"):
            assert (out / name).exists(), name
        # at s = 100% every measure uses the full set: identical F1
        rows = (out / "gold_f1.csv").read_text().strip().splitlines()[1:]
        full = {r.split(",")[0]: r.split(",")[3] for r in rows
                if r.split(",")[1] == "100.0"}
        assert len(set(full.values())) == 1
        # the gold curve at full s matches that value too
        curve = (out / "gold_curve.csv").read_text().strip().splitlines()[1:]
        gold_full = [r.split(",")[2] for r in curve if r.split(",")[0] == "100.0"]
        assert gold_full[0] in set(full.values())

    @pytest.mark.parametrize("command, exact_limit", [
        pytest.param("gold", 12, id="12"), pytest.param("gold", 2, id="2"),
        pytest.param("pipeline", None, id="pipeline"),
        pytest.param("cluster-sweep", None, id="cluster-sweep")])
    def test_no_pattern_set_cross_validated_twice(self, tmp_path, monkeypatch,
                                                  command, exact_limit):
        # gold: the s_grid sweep reads F1 through the gold standard's cached
        # characteristic; at s = 1% and 2% the top set is the same single
        # pattern, and in exact mode every swept set is a coalition already.
        # pipeline: at s = 100% every measure picks the same set.
        # cluster-sweep: the repeated threshold repeats a cut.
        # Every CV, one column set or a batch, runs through
        # cross_validate_many; each set is counted by its feature columns.
        from patclass import classify, shapley
        from patclass.cli import run_cluster_sweep
        seen, trained = [], []
        real_cv, real_train = classify.cross_validate_many, classify.train

        def counting(features, column_sets, **kw):
            seen.extend(features.x[:, sorted(cols)].T.tobytes()
                        for cols in column_sets)
            return real_cv(features, column_sets, **kw)

        def counting_train(view, **kw):
            trained.append(view.x.T.tobytes())
            return real_train(view, **kw)

        monkeypatch.setattr(classify, "cross_validate_many", counting)
        monkeypatch.setattr(shapley, "cross_validate_many", counting)
        monkeypatch.setattr(classify, "train", counting_train)
        p = tmp_path / "toy.spmf"
        p.write_text(spmf_fixture(seed=3, n=12))
        cfg = RunConfig()
        cfg.dataset = (str(p),)
        cfg.out = str(tmp_path / "out")
        cfg.max_edges = 2
        cfg.threshold_pct = 40.0
        cfg.measures = ("Sup", "GR", "AbsSupDif", "WRACC")
        cfg.k_folds = 3
        cfg.s_grid = (1.0, 2.0, 50.0, 100.0)
        cfg.exact_limit = exact_limit or cfg.exact_limit
        cfg.n_permutations = 3
        cfg.validate()
        if command == "gold":
            info = run_gold(cfg)
            assert info["method"].startswith(
                "exact" if exact_limit == 12 else "sampled")
        elif command == "pipeline":
            run_pipeline(cfg)
            assert len(trained) == 1
        else:
            run_cluster_sweep(cfg, [0.0, 40.0, 40.0, 100.0])
        n_cvs, n_sets = len(seen), len(set(seen))
        assert n_cvs and n_cvs == n_sets
        assert len(trained) == len(set(trained))
        if command == "gold":
            assert info["evaluations"] == n_sets
            assert 0 < info["fits"] <= 2 * n_sets

    def test_s_grid_sizes_are_exact(self, tmp_path):
        # 28% of 25 representatives is 7; in floats ceil(0.28 * 25) is 8
        rng = random.Random(1)
        graphs = tuple(random_graph(rng, 6, 0.4, 4, 1, graph_id=i,
                                    class_label=1 if i % 2 else -1)
                       for i in range(12))
        p = tmp_path / "random.spmf"
        p.write_text(serialize_spmf(GraphDataset(graphs)))
        cfg = base_config(p, tmp_path, max_edges=2, threshold_pct=10.0,
                          measures=("Sup",), k_folds=2, s_grid=(28.0,),
                          n_permutations=1)
        assert run_gold(cfg)["n_representatives"] == 25
        curve = (tmp_path / "out" / "gold_curve.csv").read_text().splitlines()
        assert curve[1].split(",")[:2] == ["28.0", "7"]

    def test_gold_vs_itself_rbo_one(self, tmp_path):
        # the gold ranking compared with itself scores 1 at every depth
        from patclass.rankcmp import rbo
        ranking = list(range(17))
        for s in (1, 5, 17):
            assert rbo(ranking, ranking, p=0.9, depth=s) == pytest.approx(1.0)
