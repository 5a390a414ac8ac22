import hashlib
import json
import random
import sys
from collections import Counter
from dataclasses import asdict, fields
from pathlib import Path

import pytest
from click.testing import CliRunner

from patclass.cli import (DENSITY_CONVENTION, ConfigError, RunConfig,
                          StageError, _stage, load_config, main, run_gold,
                          run_pairwise_tau, run_pipeline, run_properties)
from patclass.graphdata import (NEGATIVE, POSITIVE, GraphDataset, dataset_stats,
                                parse_spmf, serialize_spmf)
from patclass.measures import MEASURE_NAMES

from oracles import molecule_like_text, random_graph, write_tudataset


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

    @pytest.mark.parametrize("n_paths", [0, 2])
    @pytest.mark.parametrize("command", ["pipeline", "cluster-sweep", "gold",
                                         "stats"])
    def test_one_dataset_commands_exit_two_on_another_count(
            self, dataset_file, tmp_path, command, n_paths):
        # a second --dataset used to be ignored: exit 0 on the first file
        other = tmp_path / "other.spmf"
        other.write_text(spmf_fixture(seed=1))
        args = [command, "--out", str(tmp_path / "out"), "--set", "max_edges=2"]
        for path in (dataset_file, other)[:n_paths]:
            args += ["--dataset", str(path)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"exactly one dataset path is required, got {n_paths}" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", sorted(main.commands))
    def test_help_lists_the_shared_options_and_the_docstring(self, name):
        command = main.commands[name]
        result = CliRunner().invoke(main, [name, "--help"])
        assert result.exit_code == 0, result.output
        doc = command.callback.__doc__
        assert doc and doc.strip() in result.output
        listed = [line.split()[0] for line in result.output.splitlines()
                  if line.startswith("  --")]
        assert listed == ["--out", "--dataset", "--set", "--config", "--help"]

    def test_non_utf8_config_exits_two_naming_the_file(self, tmp_path):
        # the UnicodeDecodeError used to escape click: exit 1 with a traceback
        cfile = tmp_path / "run.cfg"
        cfile.write_bytes("property_n = 2\n# caf\xe9\n".encode("latin-1"))
        result = CliRunner().invoke(main, ["properties", "--config", str(cfile),
                                           "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert f"{cfile}: not UTF-8 text" in result.output
        assert not (tmp_path / "out").exists()

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
        "measures=Sup,GR,Sup", "exact_limit=-1", "exact_limit=21", "thresholds=",
        "thresholds=0,101", "thresholds=-5", "thresholds=10,x"])
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

    def test_fold_error_in_gold_exits_one_naming_gold_standard(self, dataset_file,
                                                               tmp_path):
        # run_gold builds the characteristic and runs Shapley in one stage
        result = CliRunner().invoke(main, [
            "gold", "--dataset", str(dataset_file), "--out", str(tmp_path / "out"),
            "--set", "max_edges=2", "--set", "k_folds=50"])
        assert result.exit_code == 1, result.output
        assert "error: stage 'gold standard' failed: each class needs" in result.output

    @pytest.mark.parametrize("command", ["pipeline", "cluster-sweep", "gold",
                                         "pairwise-tau"])
    def test_unlabeled_dataset_exits_one_naming_load(self, tmp_path,
                                                     monkeypatch, command):
        from patclass import miner

        def not_called(*args, **kwargs):
            raise AssertionError("an unlabeled dataset was mined")

        monkeypatch.setattr(miner, "mine_frequent", not_called)
        path = tmp_path / "bare.spmf"
        path.write_text("".join(
            " ".join(line.split()[:3]) + "\n" if line.startswith("t #") else line + "\n"
            for line in molecule_like_text(1, 40).splitlines()))
        result = CliRunner().invoke(main, [
            command, "--dataset", str(path), "--out", str(tmp_path / "out")])
        assert result.exit_code == 1, result.output
        load = "load" if command != "pairwise-tau" else f"load {path}"
        assert (f"error: stage '{load}' failed: dataset has unlabeled graphs"
                in result.output)
        stats = CliRunner().invoke(main, [
            "stats", "--dataset", str(path), "--out", str(tmp_path / "stats")])
        assert stats.exit_code == 0, stats.output

    def test_cluster_sweep_monotone(self, dataset_file, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, [
            "cluster-sweep", "--dataset", str(dataset_file),
            "--out", str(tmp_path / "out"),
            "--set", "max_edges=3", "--set", "k_folds=4",
            "--set", "thresholds=0,25,50,100"])
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
            "--set", "max_edges=2", "--set", "k_folds=3", "--set", "thresholds=70"])
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

    @pytest.mark.parametrize("spelling", ["flag", "set"])
    def test_properties_with_a_dataset_exits_two(self, dataset_file, tmp_path,
                                                 spelling):
        # the dataset used to be dropped: exit 0
        given = (["--dataset", str(dataset_file)] if spelling == "flag"
                 else ["--set", f"dataset={dataset_file}"])
        result = CliRunner().invoke(main, [
            "properties", *given, "--out", str(tmp_path / "out"),
            "--set", "property_n=3"])
        assert result.exit_code == 2, result.output
        assert "properties reads no dataset" in result.output
        assert not (tmp_path / "out").exists()

    def test_stats_unreadable_dataset_names_the_load_stage(self, tmp_path):
        # the OSError used to print without a stage: error: [Errno 2] ...
        result = CliRunner().invoke(main, [
            "stats", "--dataset", str(tmp_path / "missing.spmf"),
            "--out", str(tmp_path / "o")])
        assert result.exit_code == 1, result.output
        assert "error: stage 'load' failed: [Errno 2]" in result.output

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

    def test_stats_describe_the_file_as_read(self, tmp_path):
        # 10 graphs, 7 positive: the mining commands under-sample to 3 + 3,
        # stats used to describe that sample too
        rng = random.Random(4)
        ds = GraphDataset(tuple(
            random_graph(rng, rng.randint(4, 9), 0.5, 2, 1, graph_id=i,
                         class_label=POSITIVE if i < 7 else NEGATIVE)
            for i in range(10)))
        path = tmp_path / "unbalanced.spmf"
        path.write_text(serialize_spmf(ds))
        expected = asdict(dataset_stats(parse_spmf(path.read_text())))
        assert expected["n_graphs"] == 10
        result = CliRunner().invoke(main, ["stats", "--dataset", str(path),
                                           "--out", str(tmp_path / "o")])
        assert result.exit_code == 0, result.output
        expected["density_convention"] = DENSITY_CONVENTION
        assert json.loads(result.output) == expected
        header, row = (tmp_path / "o" / "stats.csv").read_text().splitlines()
        written = dict(zip(header.split(","), row.split(",")))
        assert list(written) == list(expected)
        for key, value in expected.items():
            assert written[key] == ("" if value is None else str(value)), key
        result = CliRunner().invoke(main, [
            "pipeline", "--dataset", str(path), "--out", str(tmp_path / "p"),
            "--set", "max_edges=2", "--set", "k_folds=3", "--set", "measures=Sup"])
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "p" / "summary.json").read_text())
        assert summary["n_pos"] == summary["n_neg"] == 3

    def test_stats_on_tudataset_dir(self, tmp_path):
        d = tmp_path / "TOY"
        d.mkdir()
        (d / "TOY_A.txt").write_text("1, 2\n2, 1\n3, 4\n4, 3\n")
        (d / "TOY_graph_indicator.txt").write_text("1\n1\n2\n2\n")
        (d / "TOY_graph_labels.txt").write_text("0\n1\n")
        runner = CliRunner()
        result = runner.invoke(main, [
            "stats", "--dataset", str(d), "--out", str(tmp_path / "o"),
            "--set", "tu_name=TOY"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["n_graphs"] == 2 and payload["avg_edges"] == 1.0

    @pytest.mark.parametrize("key", ["labels", "tu_name"])
    def test_key_of_the_other_layout_exits_two(self, dataset_file, tmp_path, key):
        # with the format the path needs, the key used to be ignored: exit 0
        tu = tmp_path / "TOY"
        write_tudataset(parse_spmf(dataset_file.read_text()), tu, "TOY")
        sidecar = tmp_path / "labels.txt"
        sidecar.write_text("0 1\n")
        path, value = (tu, sidecar) if key == "labels" else (dataset_file, "TOY")
        result = CliRunner().invoke(main, [
            "stats", "--dataset", str(path), "--out", str(tmp_path / "o"),
            "--set", f"{key}={value}"])
        assert result.exit_code == 2, result.output
        assert f"{key} does not apply to {path}" in result.output
        assert not (tmp_path / "o").exists()


class TestPairwiseTau:
    @pytest.mark.parametrize("key", ["labels", "tu_name"])
    def test_key_of_the_other_layout_exits_two_before_mining(
            self, dataset_file, tmp_path, monkeypatch, key):
        # the path the key does not fit comes second, after one it fits
        from patclass import miner
        mined = []
        real = miner.mine_frequent

        def recording(*args, **kwargs):
            mined.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(miner, "mine_frequent", recording)
        tu = tmp_path / "TOY"
        write_tudataset(parse_spmf(dataset_file.read_text()), tu, "TOY")
        # an SPMF file whose classes come from the sidecar, so it loads
        # with labels= and only the directory rejects the key
        spmf, sidecar = tmp_path / "bare.spmf", tmp_path / "labels.txt"
        lines, classes = [], []
        for line in dataset_file.read_text().splitlines():
            if line.startswith("t #"):
                *header, cls = line.split()
                line = " ".join(header)
                classes.append(f"{header[-1]} {cls}")
            lines.append(line)
        spmf.write_text("\n".join(lines) + "\n")
        sidecar.write_text("\n".join(classes) + "\n")
        paths, value = (((spmf, tu), sidecar) if key == "labels"
                        else ((tu, dataset_file), "TOY"))
        result = CliRunner().invoke(main, [
            "pairwise-tau", "--dataset", str(paths[0]), "--dataset", str(paths[1]),
            "--out", str(tmp_path / "o"), "--set", f"{key}={value}"])
        assert result.exit_code == 2, result.output
        assert f"{key} does not apply to {paths[1]}" in result.output
        assert mined == []
        assert not (tmp_path / "o").exists()

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

    def test_each_tau_computed_once(self, tmp_path, monkeypatch):
        # every module's reference to kendall_tau is counted, so a second
        # computation of the same tau anywhere in the package shows
        from patclass import rankcmp
        real = rankcmp.kendall_tau
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return real(a, b)

        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "patclass"
                    and getattr(module, "kendall_tau", None) is real):
                monkeypatch.setattr(module, "kendall_tau", counting)
        paths = []
        for seed in (1, 2, 3):
            p = tmp_path / f"d{seed}.spmf"
            p.write_text(spmf_fixture(seed=seed, n=12))
            paths.append(str(p))
        cfg = base_config(paths[0], tmp_path, measures=(
            "Cover", "Sup", "Spec", "FPR", "Conf", "AbsSupDif"))
        cfg.dataset = tuple(paths)
        blocks = run_pairwise_tau(cfg)
        assert len(calls) == 15 * 3
        assert sum(len(taus) for taus in blocks.tau.values()) == 15 * 3

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
        # every measure ranks from one kit memo per table; pipeline writes
        # scores.csv from the same scoring pass
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
        assert max(Counter(built).values()) == 1


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
            def passed_through():
                for cols in column_sets:
                    seen.append(features.x[:, sorted(cols)].T.tobytes())
                    yield cols
            return real_cv(features, passed_through(), **kw)

        def counting_train(features, column_sets, **kw):
            column_sets = list(column_sets)
            trained.extend(features.x[:, sorted(cols)].T.tobytes()
                           for cols in column_sets)
            return real_train(features, column_sets, **kw)

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
        cfg.thresholds = (0.0, 40.0, 40.0, 100.0)
        cfg.validate()
        if command == "gold":
            info = run_gold(cfg)
            assert info["method"].startswith(
                "exact" if exact_limit == 12 else "sampled")
        elif command == "pipeline":
            run_pipeline(cfg)
            assert len(trained) == 1
        else:
            run_cluster_sweep(cfg)
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


class TestGoldPins:
    """sha256 of the four gold CSVs on one generated dataset, in sampled and
    in exact mode. The CSVs hold ratios of prediction counts and sums of
    them, so a change to how the SVMs are stacked or chunked must keep every
    digest. A BLAS that rounds the SVM sums differently keeps them too,
    unless it moves a decision value across 0."""

    DIGESTS = {
        "sampled": {
            "gold.csv": "14ba438e77264d35a1ffcdc12f78d88fadbccf5cb6fa54239273fc12fe1ce27d",
            "gold_f1.csv": "c24c822bdd46100a0d15284d21f1878efc7e997bdc96ad0f653debeb83933e46",
            "gold_rbo.csv": "89da8a39db39befb21f3b19787d17065399856017cc9eab6725d89637d1fef67",
            "gold_curve.csv": "ec22bfc76c9fdb39ee10f1ffd32293fc9d1c1640528914fbc988e55e5b19bdbe",
        },
        "exact": {
            "gold.csv": "ec74df46c5bbfaa042d5c59a7e11210f9e15661ba9e7142d53f76ea30c95b825",
            "gold_f1.csv": "04888e2c40f9cc3622cfdf8390af7d0b4a6e228a7fa095e27b8a3ef1a2039e0d",
            "gold_rbo.csv": "2f4f5da7c270057094d9e9c2f92c36d3b83ca3c5c9e07e45e5a50ccd5b8a7938",
            "gold_curve.csv": "b9807b3877fc52cce464cca28878b9a4ff3a180ef873dde5804cc480f6525b48",
        },
    }

    @staticmethod
    def dataset(seed=5, n_graphs=42):
        # 42 graphs, balanced: 5 folds of 8 or 9 rows give two training-set
        # sizes; the positives are denser, so the classes differ
        rng = random.Random(seed)
        return GraphDataset(tuple(
            random_graph(rng, rng.randint(5, 8), 0.45 if i % 2 else 0.3, 3, 2,
                         graph_id=i, class_label=POSITIVE if i % 2 else NEGATIVE)
            for i in range(n_graphs)))

    @pytest.mark.parametrize("mode, threshold_pct, n_representatives", [
        ("sampled", 10.0, 20), ("exact", 40.0, 8)])
    def test_gold_csv_digests(self, tmp_path, mode, threshold_pct,
                              n_representatives):
        path = tmp_path / "gold.spmf"
        path.write_text(serialize_spmf(self.dataset()))
        cfg = base_config(path, tmp_path, max_edges=3, min_support="8",
                          threshold_pct=threshold_pct, k_folds=5,
                          measures=("Sup", "GR", "WRACC"), n_permutations=3,
                          exact_limit=15 if mode == "exact" else 2)
        info = run_gold(cfg)
        assert info["method"].startswith(mode)
        assert info["n_representatives"] == n_representatives
        digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()
                                        ).hexdigest()
                   for name in ("gold.csv", "gold_f1.csv", "gold_rbo.csv",
                                "gold_curve.csv")}
        assert digests == self.DIGESTS[mode]


class TestPairwiseTauPins:
    """sha256 of the three pairwise-tau CSVs on two generated datasets with
    all 38 measures. Each tau is 1 - 4 * inversions / (s * (s - 1)), written
    with repr, so a change to how inversions are counted must keep every
    digest."""

    DIGESTS = {
        "tau_d1.csv": "6ce1aefec2646fc4a10f881a6795feac4c3a07153dcd74120ffb617f4e88c490",
        "tau_d2.csv": "73d8925438c75170ec0b1b7f8f81f1afbc4dd4e684fff45bc779f304802dee83",
        "min_tau.csv": "30fd848c9d2c951f4d2825c815193a8fb54247dd58dd411be01d464e3c181db2",
        "blocks.csv": "2790e0948d221757fb478c1f89ff7e4e190a5491120e90559ba5c7477ddfdfbb",
    }

    def test_pairwise_tau_csv_digests(self, tmp_path):
        paths = []
        for seed in (1, 2):
            path = tmp_path / f"d{seed}.spmf"
            path.write_text(serialize_spmf(TestGoldPins.dataset(seed, 40)))
            paths.append(path)
        cfg = base_config(paths[0], tmp_path, min_support="4",
                          measures=tuple(MEASURE_NAMES))
        cfg.dataset = tuple(map(str, paths))
        blocks = run_pairwise_tau(cfg)
        assert len(blocks.blocks) == 20
        digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()
                                        ).hexdigest()
                   for name in self.DIGESTS}
        assert digests == self.DIGESTS


class TestClusterSweepPins:
    """sha256 of `cluster_sweep.csv` on two generated datasets at thresholds
    0, 10, 20, 50 and 100 %, through the command line."""

    DIGESTS = {
        1: "105a58a5224c0d2eb7ea87ac4f0472160658f04d54fc4d99db55d680116f9a98",
        2: "bbc61e94a8ccc622130947f71d578d686454d60c875ecc88b3da72e7d08d6f87",
    }

    @pytest.mark.parametrize("seed", [1, 2])
    def test_cluster_sweep_csv_digest(self, tmp_path, seed):
        path = tmp_path / f"d{seed}.spmf"
        path.write_text(serialize_spmf(TestGoldPins.dataset(seed)))
        result = CliRunner().invoke(main, [
            "cluster-sweep", "--dataset", str(path), "--out", str(tmp_path / "out"),
            "--set", "min_support=8", "--set", "max_edges=3", "--set", "k_folds=5",
            "--set", "thresholds=0,10,20,50,100"])
        assert result.exit_code == 0, result.output
        text = (tmp_path / "out" / "cluster_sweep.csv").read_bytes()
        assert hashlib.sha256(text).hexdigest() == self.DIGESTS[seed]


class TestScoringPins:
    """sha256 of `properties.csv` on the balanced grids n = 2, 3, 10 and 20,
    and of `scores.csv` from `pipeline` with all 38 measures on two generated
    datasets. Every score is written with repr, so a change to how the
    measures do their arithmetic must keep every digest."""

    PROPERTIES = {
        2: "5fb6f6cc5057a60a3d7393a2120df3f09450042d4b4600ea1d1a66763c141b9c",
        3: "b7a6ca48293cc53c80b302164df576a66bece612e86ef66b2301d32127c8b8e7",
        10: "bc71b5f98151c8ac2b8ddac13ad17c7224c09ef9d572f34c0024a44781fb4a02",
        20: "0a6ef757755cbde1ec105b785813dd25ade646d61bba7d8f1001432bbf4aa64f",
    }
    SCORES = {
        (1, 60): "5a41289aa4c2dde4432e651027605d949542f379ce2e78612ebf04ee1c206391",
        (2, 80): "0db011579d06fac06ece712f0add082be28bd78de3fb0dfc9ab1807a1f9949ca",
    }

    @pytest.mark.parametrize("n", sorted(PROPERTIES))
    def test_properties_csv_digest(self, tmp_path, n):
        cfg = RunConfig()
        cfg.out = str(tmp_path / "out")
        cfg.property_n = n
        cfg.measures = tuple(MEASURE_NAMES)
        cfg.validate()
        run_properties(cfg)
        text = (tmp_path / "out" / "properties.csv").read_bytes()
        assert hashlib.sha256(text).hexdigest() == self.PROPERTIES[n]

    @pytest.mark.parametrize("seed, n_graphs", sorted(SCORES))
    def test_scores_csv_digest(self, tmp_path, seed, n_graphs):
        # 92 and 114 representatives scored by all 38 measures, +-inf included
        path = tmp_path / f"m{seed}.spmf"
        path.write_text(molecule_like_text(seed, n_graphs))
        cfg = base_config(path, tmp_path, min_support="5", max_edges=4,
                          threshold_pct=10.0, k_folds=3,
                          measures=tuple(MEASURE_NAMES))
        run_pipeline(cfg)
        text = (tmp_path / "out" / "scores.csv").read_bytes()
        assert b"inf" in text
        assert hashlib.sha256(text).hexdigest() == self.SCORES[seed, n_graphs]


class TestClusteringPins:
    """sha256 of `dendrogram.csv` and `clusters.csv` from `pipeline` on two
    generated datasets, with the mining and threshold settings of the
    benchmark's `pipeline-cluster` (about 563 distinct footprints) and
    `gold-sampled` (about 163) workloads. Distances and merge heights are
    integers and the tie rule is exact, so a change to how the distances or
    the agglomeration are computed must keep every digest."""

    CONFIGS = {
        (1, 150): ["min_support=3", "max_patterns=600", "max_edges=6",
                   "threshold_pct=20",
                   "measures=AbsSupDif,GR,InfGain,Lift,Sup,WRACC"],
        (1, 100): ["min_support=6", "max_edges=6", "threshold_pct=30",
                   "measures=AbsSupDif,GR,Sup,WRACC"],
    }
    DIGESTS = {
        (1, 150): {
            "dendrogram.csv": "66a9afeb48ecbdabc5ea7d506cebc2a1961edaf084e3e13ab64b8051af2423eb",
            "clusters.csv": "19a0ea62872c70e8eefbff849a8186ce26b93be12e78cba7ed6bcd38c4ab59a7",
        },
        (1, 100): {
            "dendrogram.csv": "12e374f1713b0cf464853e0e4eaf2e7be3e084570f6b33c3547dd7835b6279a6",
            "clusters.csv": "66b8f12495f469ca7cb3f1b0e212d4d7c845256416b208b827e3460ea3bd3309",
        },
    }

    @pytest.mark.parametrize("seed, n_graphs", sorted(CONFIGS))
    def test_clustering_csv_digests(self, tmp_path, seed, n_graphs):
        path = tmp_path / f"m{seed}.spmf"
        path.write_text(molecule_like_text(seed, n_graphs))
        cfg = load_config(None, [*self.CONFIGS[seed, n_graphs],
                                 f"dataset={path}", f"out={tmp_path / 'out'}"])
        run_pipeline(cfg)
        digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()
                                        ).hexdigest()
                   for name in self.DIGESTS[seed, n_graphs]}
        assert digests == self.DIGESTS[seed, n_graphs]
