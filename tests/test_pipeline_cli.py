import json
import logging
import math
import os
import re
import shutil
import subprocess
import sys
import weakref
from dataclasses import fields
from pathlib import Path

import pytest
from click.testing import CliRunner

from plantrecon import clustering, dynamics, metrics, synth
from plantrecon.cli import main
from plantrecon.clustering import KMeansParams, cluster_positions
from plantrecon.config import PipelineConfig, plant_spec_to_dict, read_kv_file, write_kv_file
from plantrecon.errors import ConfigError
from plantrecon.graph import load_graph
from plantrecon import pipeline


@pytest.fixture(scope="module")
def mini_workspace(tmp_path_factory):
    """Generated MINI inputs plus the recommended pipeline config."""
    out = tmp_path_factory.mktemp("mini_ws")
    spec = synth.mini_spec()
    plant = synth.generate(spec)
    plant.write_outputs(out)
    conf = synth.recommended_config(spec, out)
    write_kv_file(out / "pipeline.conf", conf)
    return out


_ROOT_RECORD = {"recordType": "node", "id": "SystemRoot:R", "kind": "SystemRoot",
                "name": "R", "labels": {}, "provenance": "Generator"}
_GROUP_RECORD = {**_ROOT_RECORD, "id": "FunctionalGroup:G", "kind": "FunctionalGroup", "name": "G"}
_CONTAINS_RECORD = {"recordType": "edge", "id": "e", "kind": "Contains",
                    "source": "SystemRoot:R", "target": "FunctionalGroup:G", "labels": {}}


def _config(ws: Path) -> PipelineConfig:
    return PipelineConfig.load(ws / "pipeline.conf")


@pytest.fixture(scope="module")
def mini_run(mini_workspace, tmp_path_factory):
    """The outputs of one run-all over the mini workspace."""
    out = tmp_path_factory.mktemp("mini_run")
    result = CliRunner().invoke(
        main, ["--config", str(mini_workspace / "pipeline.conf"), "--out-dir", str(out), "run-all"]
    )
    assert result.exit_code == 0, result.output
    return out


def _first_labels(records: list[dict], key: str) -> dict:
    return next(r["labels"] for r in records if key in r["labels"])


def _pattern_code_not_json(records):
    labels = _first_labels(records, "patternCode")
    labels["patternCode"] = "{" + labels["patternCode"]


def _pattern_edge_to_vertex_99(records):
    labels = _first_labels(records, "patternCode")
    structure = json.loads(labels["patternCode"])
    structure["edges"][0][1] = 99
    labels["patternCode"] = json.dumps(structure, sort_keys=True)


def _match_count_not_int(records):
    _first_labels(records, "matchCount")["matchCount"] = "x"


def _position_x(value):
    def damage(records):
        _first_labels(records, "position.x")["position.x"] = value

    return damage


def _foreign_edge_id(records):
    next(r for r in records if r["recordType"] == "edge")["id"] = "Contains:elsewhere"


def _with_key(ws: Path, tmp: Path, key: str, value: str) -> Path:
    """The mini workspace's pipeline.conf with ``key`` set to ``value``."""
    conf = read_kv_file(ws / "pipeline.conf")
    conf[key] = value
    write_kv_file(tmp / "bad.conf", conf)
    return tmp / "bad.conf"


def _mini_args(ws: Path, tmp: Path, *args: str) -> list[str]:
    return ["--config", str(ws / "pipeline.conf"), "--out-dir", str(tmp / "o"), *args]


def _spec_file(tmp: Path, text: str) -> Path:
    path = tmp / "plantspec.conf"
    path.write_text(text, encoding="utf-8")
    return path


def _cluster_without_kmeans_k(ws: Path, tmp: Path) -> list[str]:
    conf = read_kv_file(ws / "pipeline.conf")
    conf["mode"] = "cluster"
    del conf["kmeans_k"]
    write_kv_file(tmp / "bad.conf", conf)
    return ["--config", str(tmp / "bad.conf"), "--out-dir", str(tmp / "o"), "analyze-dynamics"]


def _out_dir_a_file(ws: Path, tmp: Path) -> list[str]:
    (tmp / "taken").write_text("", encoding="utf-8")
    return ["--config", str(ws / "pipeline.conf"), "--out-dir", str(tmp / "taken"), "run-all"]


# Each bad flag value or unusable file: the arguments that give it, and
# the error type and message the one error line names.
_BAD_INPUTS = {
    "log-level-foo": (
        lambda ws, tmp: _mini_args(ws, tmp, "--log-level", "foo", "analyze-plc"),
        "ConfigError", "unknown log_level 'foo'"),
    "config-missing": (
        lambda ws, tmp: ["--config", str(tmp / "nope.conf"), "analyze-plc"],
        "FileNotFoundError", "nope.conf"),
    "config-directory": (
        lambda ws, tmp: ["--config", str(tmp), "analyze-plc"],
        "IsADirectoryError", "Is a directory"),
    "seed-abc": (
        lambda ws, tmp: ["--out-dir", str(tmp / "o"), "--seed", "abc",
                         "synth", "--preset", "mini"],
        "ConfigError", "seed: expected integer, got 'abc'"),
    "spec-missing": (
        lambda ws, tmp: ["--out-dir", str(tmp / "o"), "synth", "--spec", str(tmp / "nope.spec")],
        "FileNotFoundError", "nope.spec"),
    "preset-bogus": (
        lambda ws, tmp: ["--out-dir", str(tmp / "o"), "synth", "--preset", "bogus"],
        "InputError", "unknown preset 'bogus'"),
    "plc-xml-directory": (
        lambda ws, tmp: ["--config", str(_with_key(ws, tmp, "plc_xml", str(tmp))),
                         "--out-dir", str(tmp / "o"), "analyze-plc"],
        "IsADirectoryError", "Is a directory"),
    "out-dir-a-file": (_out_dir_a_file, "FileExistsError", "taken"),
    "preset-and-spec": (
        lambda ws, tmp: ["--out-dir", str(tmp / "o"), "synth", "--preset", "mini",
                         "--spec", str(_spec_file(tmp, "levels = 1\n"))],
        "InputError", "synth takes --preset or --spec, not both"),
    "spec-seed-negative": (
        lambda ws, tmp: ["--out-dir", str(tmp / "o"), "synth",
                         "--spec", str(_spec_file(tmp, "levels = 1\nseed = -1\n"))],
        "InvalidSpecError", "seed must be non-negative"),
    "cluster-without-kmeans-k": (
        _cluster_without_kmeans_k, "ConfigError", "mode = cluster needs kmeans_k"),
}


class TestConfig:
    def test_load_and_defaults(self, mini_workspace):
        cfg = _config(mini_workspace)
        assert cfg.mode == "classify"
        assert cfg.min_support == 2
        assert cfg.window_ms == 500

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.conf"
        p.write_text("fancy_option = 1\n")
        with pytest.raises(ConfigError):
            PipelineConfig.load(p)

    def test_out_of_range_rejected(self, tmp_path):
        p = tmp_path / "bad.conf"
        p.write_text("min_support = 1\n")
        with pytest.raises(ConfigError):
            PipelineConfig.load(p)

    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "ok.conf"
        p.write_text("# comment\n\nmin_support = 3\n")
        assert PipelineConfig.load(p).min_support == 3

    def test_readme_table_lists_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
        documented = set()
        for line in section.splitlines():
            if line.startswith("| `"):
                documented.update(re.findall(r"`([a-z_]+)`", line.split("|")[1]))
        assert documented == {f.name for f in fields(PipelineConfig)}


class TestRunAll:
    def test_mini_run_all_outputs(self, mini_workspace):
        cfg = _config(mini_workspace)
        result = pipeline.run_all(cfg)
        for name in (
            "functional.dtgraph",
            "dynamics.dtgraph",
            "plant.dtgraph",
            "templates.txt",
            "summary.txt",
            "plant.aml",
            "metrics.report",
            "timings.txt",
        ):
            assert (mini_workspace / name).exists(), name
        assert result.report is not None
        assert result.report.ari == 1.0
        assert result.report.classification_accuracy == 1.0
        assert result.report.template_recovery == 1.0
        assert [name for name, _ in result.timings] == [
            "analyze-plc",
            "analyze-dynamics",
            "mine",
            "export",
            "evaluate",
        ]

    def test_composing_subcommands_equals_run_all(self, mini_workspace, tmp_path):
        # run-all hands the fragments and the mined graph on in memory; the
        # sub-commands read them back from the files, so equal outputs show
        # that a stored graph loads to the graph that was saved.
        names = ("functional.dtgraph", "dynamics.dtgraph", "plant.dtgraph", "plant.aml",
                 "metrics.report", "templates.txt", "summary.txt")
        for mode in ("classify", "cluster"):
            cfg = _config(mini_workspace)
            cfg.update({"mode": mode, "out_dir": tmp_path / mode / "run-all"})
            pipeline.run_all(cfg)
            cfg.out_dir = tmp_path / mode / "staged"
            pipeline.stage_analyze_plc(cfg)
            pipeline.stage_analyze_dynamics(cfg)
            pipeline.stage_mine(cfg)
            pipeline.stage_export(cfg)
            pipeline.stage_evaluate(cfg)
            for name in names:
                staged = (tmp_path / mode / "staged" / name).read_bytes()
                assert staged == (tmp_path / mode / "run-all" / name).read_bytes(), (mode, name)

    def test_run_all_deterministic(self, mini_workspace, tmp_path):
        watched = ("plant.dtgraph", "plant.aml", "metrics.report", "templates.txt", "summary.txt",
                   "functional.dtgraph", "dynamics.dtgraph")
        outs = []
        for run in range(2):
            out = tmp_path / f"run{run}"
            cfg = _config(mini_workspace)
            cfg.out_dir = out
            pipeline.run_all(cfg)
            outs.append({name: (out / name).read_bytes() for name in watched})
        assert outs[0] == outs[1]


    def test_labeled_trace_freed_before_operational_trace_loads(
        self, mini_workspace, tmp_path, monkeypatch
    ):
        # analyze-dynamics keeps only the labeled trace's training segments,
        # so the two RTLS traces are never held at once.
        cfg = _config(mini_workspace)
        cfg.out_dir = tmp_path
        loaded = {}
        load = pipeline.load_rtls_trace

        def load_and_watch(path):
            if path == cfg.rtls_csv:
                assert cfg.labeled_rtls_csv in loaded, "the labeled trace loads first"
                assert loaded[cfg.labeled_rtls_csv]() is None, "the labeled trace is still alive"
            trace = load(path)
            loaded[path] = weakref.ref(trace)
            return trace

        monkeypatch.setattr(pipeline, "load_rtls_trace", load_and_watch)
        pipeline.stage_analyze_dynamics(cfg)
        assert list(loaded) == [cfg.labeled_rtls_csv, cfg.rtls_csv]


def _clustering_warnings(caplog):
    return [
        r for r in caplog.records
        if r.levelno == logging.WARNING and "clustering mode" in r.getMessage()
    ]


class TestClusteringWarning:
    def test_classify_run_all_does_not_warn(self, mini_workspace, tmp_path, caplog):
        cfg = _config(mini_workspace)
        cfg.out_dir = tmp_path
        assert cfg.mode == "classify" and cfg.kmeans_k is not None
        with caplog.at_level(logging.WARNING):
            report = pipeline.run_all(cfg).report
        assert report is not None and report.clustering_ari is not None
        assert _clustering_warnings(caplog) == []

    def test_cluster_run_all_warns_once(self, mini_workspace, tmp_path, caplog):
        cfg = _config(mini_workspace)
        cfg.out_dir = tmp_path
        cfg.mode = "cluster"
        with caplog.at_level(logging.WARNING):
            pipeline.run_all(cfg)
        warnings = _clustering_warnings(caplog)
        assert len(warnings) == 1
        assert warnings[0].name == "plantrecon.dynamics"


def _modules_loaded_by(args: list[str]) -> set[str]:
    """The modules a fresh interpreter holds after the CLI ran ``args``:
    this test process has imported every module."""
    script = (
        "import sys\n"
        "from plantrecon.cli import main\n"
        "main(sys.argv[1:], standalone_mode=False)\n"
        "print(*sorted(sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", script, *args], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


# Command -> (its arguments after --out-dir, given the mini workspace;
# a module it runs; the modules it must not load).
_IMPORT_BUDGETS = {
    "analyze-plc": (
        lambda ws: ["--config", str(ws / "pipeline.conf"), "analyze-plc"],
        "plantrecon.pipeline",
        {"numpy"} | {f"plantrecon.{m}" for m in
                     ("mining", "synth", "aml", "metrics", "dynamics", "traces", "clustering",
                      "dtw")},
    ),
    "synth": (
        lambda ws: ["synth", "--preset", "mini"],
        "plantrecon.synth",
        {"numpy"} | {f"plantrecon.{m}" for m in
                     ("traces", "pipeline", "clustering", "mining", "dtw", "dynamics")},
    ),
    # Reads the ground truth without the generator; run in the out dir
    # of a mini run-all, whose plant.dtgraph it scores.
    "evaluate": (
        lambda ws: ["--config", str(ws / "pipeline.conf"), "evaluate"],
        "plantrecon.metrics",
        {"plantrecon.synth"},
    ),
}


class TestCli:
    def test_synth_preset_mini(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, ["--out-dir", str(tmp_path / "o"), "synth", "--preset", "mini"])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "o" / "plant.plcproject.xml").exists()
        assert (tmp_path / "o" / "pipeline.conf").exists()
        assert (tmp_path / "o" / "plantspec.conf").exists()

    @pytest.mark.parametrize("preset", ["mini", "reference"])
    def test_synth_seed_flag(self, tmp_path, preset):
        # The benchmark sets up each plant with --seed N synth.
        out = tmp_path / "o"
        result = CliRunner().invoke(
            main, ["--seed", "7", "--out-dir", str(out), "synth", "--preset", preset]
        )
        assert result.exit_code == 0, result.output
        spec = {"mini": synth.mini_spec, "reference": synth.reference_spec}[preset](7)
        expected = synth.generate(spec).write_outputs(tmp_path / "expected")
        for key, path in expected.items():
            assert (out / path.name).read_bytes() == path.read_bytes(), key
        assert read_kv_file(out / "plantspec.conf") == plant_spec_to_dict(spec)
        assert read_kv_file(out / "pipeline.conf") == synth.recommended_config(spec, out)
        if preset == "reference":
            # The noisy plant shows that the seed reached the generator.
            default = synth.generate(synth.reference_spec())
            assert (out / "rtls.csv").read_text(encoding="utf-8") != default.rtls_csv(False)

    def test_synth_from_spec_file(self, tmp_path):
        spec_file = tmp_path / "plantspec.conf"
        spec_file.write_text(
            "levels = 1\nrows_per_level = 1\nplaces_per_row = 2\nsim_duration_s = 120.0\n"
        )
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["--out-dir", str(tmp_path / "o"), "synth", "--spec", str(spec_file)],
        )
        assert result.exit_code == 0, result.output

    def test_synth_bad_extra_component_count_exit_1(self, tmp_path):
        spec_file = tmp_path / "plantspec.conf"
        spec_file.write_text("levels = 1\nextra_components = lift:x:2:level:lift\n")
        result = CliRunner().invoke(
            main, ["--out-dir", str(tmp_path / "o"), "synth", "--spec", str(spec_file)]
        )
        assert result.exit_code == 1, result.output
        assert "type=ConfigError" in result.output
        assert "lift:x:2:level:lift" in result.output

    @pytest.mark.parametrize(
        "key",
        ["root_anchored_only", "dbscan_eps", "dbscan_min_pts", "raw_trajectory_queries", "band"],
    )
    def test_removed_key_in_config_exit_1(self, mini_workspace, tmp_path, key):
        conf = read_kv_file(mini_workspace / "pipeline.conf")
        conf[key] = "1"
        bad = tmp_path / "bad.conf"
        write_kv_file(bad, conf)
        result = CliRunner().invoke(
            main, ["--config", str(bad), "--out-dir", str(tmp_path / "o"), "mine"]
        )
        assert result.exit_code == 1, result.output
        assert "type=ConfigError" in result.output
        assert f"unknown configuration key '{key}'" in result.output

    @pytest.mark.parametrize("command", ["run-all", "synth"])
    def test_repeated_key_exit_1(self, mini_workspace, tmp_path, command):
        # The last of two equal keys does not silently win.
        if command == "synth":
            conf = tmp_path / "plantspec.conf"
            conf.write_text("levels = 1\nseed = 3\n# again\nseed = 4\n")
            args = ["--out-dir", str(tmp_path / "o"), "synth", "--spec", str(conf)]
            key, lines = "seed", (2, 4)
        else:
            conf = tmp_path / "pipeline.conf"
            text = (mini_workspace / "pipeline.conf").read_text(encoding="utf-8")
            conf.write_text(text + "mode = cluster\n", encoding="utf-8")
            first = text.splitlines().index("mode = classify") + 1
            args = ["--config", str(conf), "--out-dir", str(tmp_path / "o"), "run-all"]
            key, lines = "mode", (first, len(text.splitlines()) + 1)
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1, result.output
        assert "type=ConfigError" in result.output
        assert f"{conf}:{lines[1]}: key {key!r} already set on line {lines[0]}" in result.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [("seed", "-1", "seed must be non-negative"),
         ("kmeans_k", "-1", "kmeans_k must be >= 1"),
         ("kmeans_k", "0", "kmeans_k must be >= 1")],
    )
    def test_bad_seed_or_kmeans_k_exit_1(self, mini_workspace, tmp_path, key, value, message):
        conf = read_kv_file(mini_workspace / "pipeline.conf")
        conf[key] = value
        bad = tmp_path / "bad.conf"
        write_kv_file(bad, conf)
        result = CliRunner().invoke(
            main, ["--config", str(bad), "--out-dir", str(tmp_path / "o"), "run-all"]
        )
        assert result.exit_code == 1, result.output
        assert "type=ConfigError" in result.output
        assert message in result.output

    def test_synth_negative_seed_exit_1(self, tmp_path):
        result = CliRunner().invoke(
            main, ["--out-dir", str(tmp_path / "o"), "--seed", "-1", "synth", "--preset", "mini"]
        )
        assert result.exit_code == 1, result.output
        assert "seed must be non-negative" in result.output

    @pytest.mark.parametrize(
        "key, value",
        [("rtls_rate_hz", "nan"), ("rtls_rate_hz", "inf"), ("sim_duration_s", "inf"),
         ("sim_duration_s", "nan"), ("rtls_noise_sigma_m", "inf"), ("rtls_noise_sigma_m", "nan")],
    )
    def test_synth_non_finite_spec_exit_1(self, tmp_path, key, value):
        spec_file = tmp_path / "plantspec.conf"
        spec_file.write_text(f"levels = 1\n{key} = {value}\n")
        result = CliRunner().invoke(
            main, ["--out-dir", str(tmp_path / "o"), "synth", "--spec", str(spec_file)]
        )
        assert result.exit_code == 1, result.output
        assert "type=InvalidSpecError" in result.output
        assert "must be finite" in result.output

    @pytest.mark.parametrize("case", list(_BAD_INPUTS))
    def test_bad_flag_or_file_exit_1(self, mini_workspace, tmp_path, case):
        build, error, message = _BAD_INPUTS[case]
        args = build(mini_workspace, tmp_path)
        result = CliRunner().invoke(main, args)
        runs = [(result.exit_code, result.output)]
        if case in ("log-level-foo", "config-missing"):
            env = {**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).parents[1])}
            proc = subprocess.run([sys.executable, "-m", "plantrecon.cli", *args], env=env,
                                  capture_output=True, text=True, timeout=120)
            runs.append((proc.returncode, proc.stdout + proc.stderr))
        for code, output in runs:
            assert code == 1, output
            assert "Traceback" not in output
            errors = [line for line in output.splitlines() if line.startswith("plantrecon: ")]
            assert len(errors) == 1, output
            assert errors[0].startswith(f'plantrecon: error code=1 type={error} msg="')
            assert message in errors[0]

    def test_plc_only_flow(self, mini_workspace, tmp_path, caplog):
        # Without analyze-dynamics, mine merges the functional fragment
        # alone and no component has a physical group to score.
        out = tmp_path / "o"
        with caplog.at_level(logging.WARNING):
            for cmd in ("analyze-plc", "mine", "export", "evaluate"):
                result = CliRunner().invoke(main, _mini_args(mini_workspace, tmp_path, cmd))
                assert result.exit_code == 0, (cmd, result.output)
        assert not (out / "dynamics.dtgraph").exists()
        graph = load_graph(out / "plant.dtgraph")
        assert metrics.physical_assignments_of(graph) == {}
        report = "ari = 1.0\npairwise_f1 = 1.0\ntemplate_precision = 1.0\ntemplate_recovery = 1.0\n"
        assert (out / "metrics.report").read_text(encoding="utf-8") == report
        assert "classification_accuracy" not in result.output
        warned = [r.name for r in caplog.records if "not scored" in r.getMessage()]
        assert warned == ["plantrecon.metrics"]

    def test_run_all_happy_path(self, mini_workspace, tmp_path):
        runner = CliRunner()
        out = tmp_path / "cli_out"
        result = runner.invoke(
            main,
            [
                "--config", str(mini_workspace / "pipeline.conf"),
                "--out-dir", str(out),
                "run-all",
            ],
        )
        assert result.exit_code == 0, result.output
        assert "total =" in result.output
        assert "ari = 1.0" in result.output
        assert (out / "plant.aml").exists()

    def test_missing_io_csv_exit_1(self, mini_workspace, tmp_path):
        conf = read_kv_file(mini_workspace / "pipeline.conf")
        conf["io_csv"] = str(tmp_path / "nope.csv")
        bad = tmp_path / "bad.conf"
        write_kv_file(bad, conf)
        runner = CliRunner()
        result = runner.invoke(
            main, ["--config", str(bad), "--out-dir", str(tmp_path / "o"), "run-all"]
        )
        assert result.exit_code == 1
        assert "nope.csv" in result.output
        assert "code=1" in result.output

    def test_corrupt_plc_xml_exit_2(self, mini_workspace, tmp_path):
        broken_dir = tmp_path / "broken"
        broken_dir.mkdir()
        xml = (mini_workspace / "plant.plcproject.xml").read_text()
        (broken_dir / "plant.plcproject.xml").write_text(
            xml.replace("<Blocks>", "<Blocks><Bogus/>")
        )
        conf = read_kv_file(mini_workspace / "pipeline.conf")
        conf["plc_xml"] = str(broken_dir / "plant.plcproject.xml")
        bad = tmp_path / "bad.conf"
        write_kv_file(bad, conf)
        runner = CliRunner()
        result = runner.invoke(
            main, ["--config", str(bad), "--out-dir", str(tmp_path / "o"), "analyze-plc"]
        )
        assert result.exit_code == 2
        assert "code=2" in result.output

    @pytest.mark.parametrize(
        "content, message",
        [
            ("not json", "not JSON"),
            ("[1,2]", "must be a JSON object, got list"),
            ("no physicalPartition", "missing 'physicalPartition'"),
        ],
        ids=["not-json", "list", "missing-key"],
    )
    def test_malformed_ground_truth_exit_2(self, mini_workspace, tmp_path, content, message):
        truth = tmp_path / "groundtruth.json"
        if content == "no physicalPartition":
            payload = json.loads((mini_workspace / "groundtruth.json").read_text())
            del payload["physicalPartition"]
            content = json.dumps(payload)
        truth.write_text(content)
        conf = read_kv_file(mini_workspace / "pipeline.conf")
        conf["ground_truth"] = str(truth)
        bad = tmp_path / "bad.conf"
        write_kv_file(bad, conf)
        result = CliRunner().invoke(
            main, ["--config", str(bad), "--out-dir", str(tmp_path / "o"), "run-all"]
        )
        assert result.exit_code == 2, result.output
        assert "type=GroundTruthError" in result.output
        assert message in result.output

    def test_undecodable_config_exit_1(self, mini_workspace, tmp_path):
        bad = tmp_path / "bad.conf"
        bad.write_bytes((mini_workspace / "pipeline.conf").read_bytes() + b"# caf\xe9\n")
        result = CliRunner().invoke(main, ["--config", str(bad), "analyze-plc"])
        assert result.exit_code == 1, result.output
        assert "code=1 type=UnicodeDecodeError" in result.output

    def test_undecodable_trace_exit_1(self, mini_workspace, tmp_path):
        rtls = tmp_path / "rtls.csv"
        rtls.write_bytes((mini_workspace / "rtls.csv").read_bytes() + b"0,tr\xffy,0,0,0\n")
        conf = read_kv_file(mini_workspace / "pipeline.conf")
        conf["rtls_csv"] = str(rtls)
        bad = tmp_path / "bad.conf"
        write_kv_file(bad, conf)
        result = CliRunner().invoke(
            main, ["--config", str(bad), "--out-dir", str(tmp_path / "o"), "analyze-dynamics"]
        )
        assert result.exit_code == 1, result.output
        assert "code=1 type=UnicodeDecodeError" in result.output

    def test_trace_field_beyond_csv_limit_exit_2(self, mini_workspace, tmp_path):
        rtls = tmp_path / "rtls.csv"
        rtls.write_bytes((mini_workspace / "rtls.csv").read_bytes() + b"0,%s,0,0,0\n" % (b"t" * 140_000))
        conf = read_kv_file(mini_workspace / "pipeline.conf")
        conf["rtls_csv"] = str(rtls)
        bad = tmp_path / "bad.conf"
        write_kv_file(bad, conf)
        result = CliRunner().invoke(
            main, ["--config", str(bad), "--out-dir", str(tmp_path / "o"), "analyze-dynamics"]
        )
        assert result.exit_code == 2, result.output
        assert "type=MalformedRowError" in result.output
        assert "field larger than field limit" in result.output

    def test_individual_commands(self, mini_workspace, tmp_path):
        out = tmp_path / "steps"
        runner = CliRunner()
        base = ["--config", str(mini_workspace / "pipeline.conf"), "--out-dir", str(out)]
        for cmd in ("analyze-plc", "analyze-dynamics", "mine", "export", "evaluate"):
            result = runner.invoke(main, base + [cmd])
            assert result.exit_code == 0, (cmd, result.output)

    @pytest.mark.parametrize("command", list(_IMPORT_BUDGETS))
    def test_command_imports_only_what_it_runs(self, mini_workspace, mini_run, tmp_path, command):
        args, runs, unused = _IMPORT_BUDGETS[command]
        shutil.copy(mini_run / "plant.dtgraph", tmp_path)
        loaded = _modules_loaded_by(["--out-dir", str(tmp_path), *args(mini_workspace)])
        assert runs in loaded
        assert loaded & unused == set()

    @pytest.mark.parametrize("mode", ["classify", "cluster"])
    def test_run_all_never_imports_numpy_random(self, mini_workspace, tmp_path, mode):
        # Classify mode still runs one k-means, for clustering_ari.
        conf = read_kv_file(mini_workspace / "pipeline.conf")
        assert conf["kmeans_k"]
        write_kv_file(tmp_path / "pipeline.conf", {**conf, "mode": mode})
        loaded = _modules_loaded_by(
            ["--config", str(tmp_path / "pipeline.conf"), "--out-dir", str(tmp_path / "out"),
             "run-all"]
        )
        assert {"plantrecon.clustering", "plantrecon.metrics"} <= loaded
        assert "numpy.random" not in loaded

    def test_deep_contains_export_exit_2(self, tmp_path, contains_chain):
        out = tmp_path / "o"
        out.mkdir()
        contains_chain(1200).save(out / "plant.dtgraph")
        result = CliRunner().invoke(main, ["--out-dir", str(out), "export"])
        assert result.exit_code == 2, result.output
        assert "code=2 type=InvalidGraphError" in result.output

    @pytest.mark.parametrize(
        "record",
        [
            {**_GROUP_RECORD, "labels": 5},
            {**_GROUP_RECORD, "labels": [["a", 1]]},
            {**_GROUP_RECORD, "name": 5},
            {**_GROUP_RECORD, "id": 5},
            {**_CONTAINS_RECORD, "source": ["SystemRoot:R"]},
        ],
        ids=["labels-number", "labels-list", "name-number", "id-number", "edge-source-list"],
    )
    def test_malformed_dtgraph_record_exit_2(self, tmp_path, record):
        out = tmp_path / "o"
        out.mkdir()
        lines = [json.dumps(_ROOT_RECORD), json.dumps(record)]
        (out / "plant.dtgraph").write_text("\n".join(lines) + "\n")
        result = CliRunner().invoke(main, ["--out-dir", str(out), "export"])
        assert result.exit_code == 2, result.output
        assert 'type=MalformedRecordError msg="line 2: ' in result.output

    @pytest.mark.parametrize(
        "damage, error, message",
        [
            (_pattern_code_not_json, "MiningError", "patternCode missing or not JSON"),
            (_pattern_edge_to_vertex_99, "MiningError", "patternCode is not a template structure"),
            (_match_count_not_int, "MalformedRecordError", "reserved label 'matchCount' must be"),
            (_foreign_edge_id, "MalformedRecordError", "edge id 'Contains:elsewhere' must be"),
            (_position_x(math.nan), "MalformedRecordError",
             "reserved label 'position.x' must be finite, got nan"),
            (_position_x(math.inf), "MalformedRecordError",
             "reserved label 'position.x' must be finite, got inf"),
            (_position_x(1e200), "ClusteringError",
             "position coordinates too large to cluster"),
        ],
        ids=["pattern-code-not-json", "pattern-edge-to-vertex-99", "match-count-not-int",
             "foreign-edge-id", "position-nan", "position-infinity", "position-huge"],
    )
    def test_damaged_stored_graph_evaluate_exit_2(
        self, mini_workspace, mini_run, tmp_path, damage, error, message
    ):
        lines = (mini_run / "plant.dtgraph").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        damage(records)
        out = tmp_path / "o"
        out.mkdir()
        (out / "plant.dtgraph").write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        )
        result = CliRunner().invoke(
            main, ["--config", str(mini_workspace / "pipeline.conf"), "--out-dir", str(out),
                   "evaluate"]
        )
        assert result.exit_code == 2, result.output
        errors = [line for line in result.output.splitlines() if line.startswith("plantrecon: ")]
        assert len(errors) == 1, result.output
        assert errors[0].startswith(f'plantrecon: error code=2 type={error} msg="')
        assert message in errors[0]

    @pytest.mark.parametrize("where", ["name", "label"])
    def test_xml_invalid_character_export_exit_2(self, tmp_path, contains_chain, where):
        graph = contains_chain(1)
        node = graph.node("FunctionalGroup:G0")
        if where == "name":
            node.name = "G\x01"
        else:
            node.labels["note"] = "a\x01b"
        out = tmp_path / "o"
        out.mkdir()
        graph.save(out / "plant.dtgraph")
        result = CliRunner().invoke(main, ["--out-dir", str(out), "export"])
        assert result.exit_code == 2, result.output
        assert "fresh export failed validation" in result.output

    def test_internal_error_exit_3(self, mini_workspace, tmp_path, monkeypatch):
        def boom(cfg):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(pipeline, "stage_analyze_plc", boom)
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["--config", str(mini_workspace / "pipeline.conf"),
             "--out-dir", str(tmp_path / "o"), "analyze-plc"],
        )
        assert result.exit_code == 3
        assert "code=3" in result.output

    def test_cluster_mode(self, mini_workspace, tmp_path):
        conf = read_kv_file(mini_workspace / "pipeline.conf")
        conf["mode"] = "cluster"
        conf["kmeans_k"] = "2"
        cfile = tmp_path / "cluster.conf"
        write_kv_file(cfile, conf)
        runner = CliRunner()
        out = tmp_path / "o"
        result = runner.invoke(main, ["--config", str(cfile), "--out-dir", str(out), "run-all"])
        assert result.exit_code == 0, result.output
        text = (out / "metrics.report").read_text()
        assert "clustering_ari" in text
        # k-means, not the classifier, assigned the groups.
        assert "classification_accuracy" not in text

    @pytest.mark.parametrize("mode", ["cluster", "classify"])
    def test_run_all_clusters_once(self, mini_workspace, tmp_path, monkeypatch, mode):
        # Cluster mode scores clustering_ari from the groups analyze-dynamics
        # stored; classify mode clusters only in evaluate.
        calls = []

        def counted(estimates, method):
            calls.append(method)
            return cluster_positions(estimates, method)

        monkeypatch.setattr(dynamics, "cluster_positions", counted)
        monkeypatch.setattr(clustering, "cluster_positions", counted)
        cfg = _config(mini_workspace)
        cfg.update({"mode": mode, "out_dir": tmp_path / "o"})
        assert cfg.kmeans_k is not None
        report = pipeline.run_all(cfg).report
        assert len(calls) == 1

        graph = load_graph(tmp_path / "o" / "plant.dtgraph")
        method = KMeansParams(cfg.kmeans_k, cfg.seed)
        rerun = cluster_positions(dynamics.stored_estimates(graph), method)
        if mode == "cluster":
            assert metrics.physical_assignments_of(graph) == rerun
        truth = synth.load_ground_truth(cfg.ground_truth)
        templates = pipeline.templates_from_graph(graph)
        expected = metrics.evaluate(graph, templates, truth, rerun).clustering_ari
        assert report.clustering_ari == expected
