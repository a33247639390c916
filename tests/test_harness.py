"""Accuracy metrics, report round trips, and the command line."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import clare
from clare.config import CONFIG_KEYS, ExperimentConfig, config_from_items
from clare.dataio import LabeledDataset, load_mnist, parse_idx, write_idx
from clare.harness import UsageError, build_parser, merge_config, read_config_file, run_cli
from clare import harness
from clare import model as model_mod
from clare.metrics import average_over_tasks, evaluate
from clare.model import ClareModel
from clare.numkit import NonFiniteError
from clare.protocol import MetricsRecord
from clare.report import (
    ReportFormatError,
    ResultsReport,
    RunResult,
    aggregate_summaries,
    parse_report,
    read_report,
    render_csv,
    render_report,
    write_csv,
    write_report,
)
from conftest import fill_disk
from oracles import accuracy_oracle

MINI = dict(d_z=2, input_dim=6, enc_hidden=(8, 7), dec_hidden=(7, 8))
SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestEvaluate:
    def test_matches_hand_counted_accuracy(self):
        model = ClareModel(class_no=3, rng=np.random.default_rng(0), **MINI)
        rng = np.random.default_rng(1)
        images = rng.uniform(size=(40, 6))
        labels = rng.integers(0, 3, size=40)
        overall, per_class = evaluate(model, images, labels)
        preds = model.classify(images).argmax(axis=1)
        assert overall == pytest.approx(accuracy_oracle(preds, labels), abs=1e-12)
        for cls in (0, 1, 2):
            mask = labels == cls
            assert per_class[cls] == pytest.approx(
                accuracy_oracle(preds[mask], labels[mask]), abs=1e-12
            )

    def test_uninformative_model_scores_chance(self):
        # All-zero weights tie every logit; argmax then always picks class 0.
        model = ClareModel(class_no=10, rng=None, **MINI)
        images = np.random.default_rng(2).uniform(size=(30, 6))
        labels = np.repeat(np.arange(10), 3)
        overall, per_class = evaluate(model, images, labels)
        assert overall == pytest.approx(10.0)
        assert per_class[0] == 100.0
        assert all(per_class[c] == 0.0 for c in range(1, 10))

    def test_batching_does_not_change_results(self):
        model = ClareModel(class_no=2, rng=np.random.default_rng(3), **MINI)
        rng = np.random.default_rng(4)
        # More rows than one classifier chunk, so the pass takes several.
        images = rng.uniform(size=(5000, 6))
        labels = rng.integers(0, 2, size=5000)
        overall, _ = evaluate(model, images, labels)
        preds = model.classify(images).argmax(axis=1)
        assert overall == pytest.approx(100.0 * np.mean(preds == labels), abs=1e-12)

    @pytest.mark.parametrize("batch", [1, 7, 256, 6000])
    def test_result_does_not_depend_on_the_batch_size(self, batch, monkeypatch):
        model = ClareModel(class_no=3, rng=np.random.default_rng(5), **MINI)
        rng = np.random.default_rng(6)
        images = rng.uniform(size=(600, 6))
        labels = rng.integers(0, 3, size=600)
        want = evaluate(model, images, labels)
        monkeypatch.setattr(model_mod, "_CLASSIFY_ROWS", batch)
        assert evaluate(model, images, labels) == want

    @pytest.mark.parametrize("n_images, n_labels", [(5, 10), (3000, 2100)])
    def test_length_mismatch_rejected(self, n_images, n_labels):
        model = ClareModel(class_no=2, rng=None, **MINI)
        labels = np.zeros(n_labels, dtype=np.int64)
        with pytest.raises(ValueError, match=f"{n_images} images, {n_labels} labels"):
            evaluate(model, np.zeros((n_images, 6)), labels)

    @pytest.mark.parametrize("labels, span", [([0, 1, 7, -1], "-1..7"), ([0, 3], "0..3")])
    def test_labels_outside_the_dense_ids_rejected(self, labels, span):
        model = ClareModel(class_no=3, rng=None, **MINI)
        with pytest.raises(ValueError, match=f"0..2 of the model's 3 classes, got labels in {span}"):
            evaluate(model, np.zeros((len(labels), 6)), np.array(labels))

    def test_empty_set_rejected(self):
        model = ClareModel(class_no=2, rng=None, **MINI)
        with pytest.raises(ValueError, match="empty"):
            evaluate(model, np.zeros((0, 6)), np.zeros(0, dtype=np.int64))

    def test_a_non_finite_class_score_raises_instead_of_predicting_class_0(self):
        model = ClareModel(class_no=3, rng=np.random.default_rng(7), **MINI)
        model.tape.param("cls_b")[1] = np.nan
        images = np.random.default_rng(8).uniform(size=(30, 6))
        with pytest.raises(NonFiniteError, match="non-finite class score in row 0 of 30"):
            evaluate(model, images, np.repeat(np.arange(3), 10))


class TestAverageOverTasks:
    ROW = [100.0, 99.9, 98.6, 95.2, 93.4, 89.5, 87.6, 83.5, 81.3, 78.6]

    def test_five_task_average(self):
        assert average_over_tasks(self.ROW, 5) == pytest.approx(97.42, rel=1e-12)

    def test_ten_task_average(self):
        assert average_over_tasks(self.ROW, 10) == pytest.approx(90.76, rel=1e-12)

    def test_first_task_only(self):
        assert average_over_tasks(self.ROW, 1) == 100.0

    def test_accepts_metric_records(self):
        records = [
            MetricsRecord(increment=i, classes_seen=[], overall=v, per_class={}, seconds=0.0)
            for i, v in enumerate(self.ROW[:5])
        ]
        assert average_over_tasks(records, 5) == pytest.approx(97.42, rel=1e-12)

    def test_k_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            average_over_tasks(self.ROW, 0)
        with pytest.raises(ValueError):
            average_over_tasks(self.ROW, 11)


class TestConfigRoundTrip:
    def test_items_invert_exactly(self):
        config = ExperimentConfig(
            dataset="toy", g=2, epochs=7, batch_size=32, lr=2.5e-3,
            d_z=4, beta=0.75, replay=False, start="warm",
            seed=9, toy_classes=4, toy_per_class=120, toy_dim=8,
            toy_spread=0.125, enc_hidden=(24, 16), dec_hidden=(16, 24),
        )
        back = config_from_items(dict(config.to_items()))
        assert back == config

    def test_float_fields_round_trip_bit_exact(self):
        config = ExperimentConfig(lr=1.0 / 3.0, beta=0.1 + 0.2)
        back = config_from_items(dict(config.to_items()))
        assert back.lr == config.lr
        assert back.beta == config.beta

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_items({"momentum": "0.9"})

    def test_optimizer_is_not_a_setting(self):
        # Adam is the only optimizer, so no setting chooses one.
        assert "optimizer" not in CONFIG_KEYS
        with pytest.raises(TypeError, match="optimizer"):
            ExperimentConfig(optimizer="adam")

    def test_bad_replay_value_rejected(self):
        with pytest.raises(ValueError, match="replay"):
            config_from_items({"replay": "yes"})

    @pytest.mark.parametrize(
        "kwargs, key",
        [
            (dict(enc_hidden=(0, 32)), "enc_hidden"),
            (dict(dec_hidden=(16,)), "dec_hidden"),
            (dict(dec_hidden=(16, 8, 4)), "dec_hidden"),
            (dict(d_z=model_mod.MAX_LATENT_DIM + 1), "d_z"),
        ],
    )
    def test_architecture_the_model_would_reject_fails_validation(self, kwargs, key):
        with pytest.raises(ValueError, match=f"^{key} "):
            ExperimentConfig(**kwargs).validate()

    def test_resolving_twice_changes_nothing(self):
        config = ExperimentConfig(dataset="toy").resolved()
        assert config.resolved() == config


def _tiny_report(seeds=(5,)) -> ResultsReport:
    runs = []
    for seed in seeds:
        records = [
            MetricsRecord(
                increment=i,
                classes_seen=list(range(i + 1)),
                overall=100.0 - 3.7 * i - 0.1 * seed,
                per_class={c: 99.0 - c for c in range(i + 1)},
                seconds=0.25,
                trace={"total": [1.5, 1.2], "classification": [0.7, 0.5],
                       "reconstruction": [0.6, 0.55], "kl": [0.2, 0.15]},
            )
            for i in range(3)
        ]
        runs.append(RunResult(seed=seed, records=records))
    config = ExperimentConfig(dataset="toy", toy_dim=4, epochs=2,
                              enc_hidden=(8, 7), dec_hidden=(7, 8))
    return ResultsReport(mode="clare", config=config, runs=runs, total_seconds=1.5)


def _with_value(key: str, value: str) -> str:
    """The tiny report's text with ``key`` set to ``value``."""
    lines = render_report(_tiny_report()).splitlines()
    lines = [f"{key} = {value}" if line.startswith(f"{key} = ") else line for line in lines]
    assert f"{key} = {value}" in lines
    return "\n".join(lines) + "\n"


class TestReportRoundTrip:
    def test_render_parse_render_is_identity(self):
        report = _tiny_report(seeds=(5, 6))
        text = render_report(report)
        assert render_report(parse_report(text)) == text

    def test_parse_recovers_values(self):
        report = _tiny_report()
        back = parse_report(render_report(report))
        assert back.mode == "clare"
        assert [run.seed for run in back.runs] == [5]
        record = back.runs[0].records[2]
        assert record.overall == report.runs[0].records[2].overall
        assert record.per_class == {0: 99.0, 1: 98.0, 2: 97.0}
        assert record.trace["kl"] == [0.2, 0.15]
        assert back.config == report.config

    def test_report_that_is_not_utf8_names_file_and_offset(self, tmp_path):
        path = tmp_path / "report.txt"
        text = render_report(_tiny_report()).encode()
        path.write_bytes(text[:40] + b"\xff" + text[40:])
        with pytest.raises(ReportFormatError) as err:
            read_report(str(path))
        assert str(err.value) == f"{path}: not UTF-8: byte 0xff at offset 40 (invalid start byte)"

    def test_header_is_mandatory(self):
        with pytest.raises(ReportFormatError, match="header"):
            parse_report("# some-other-format v9\nmode = clare\n")

    def test_tampered_summary_rejected(self):
        text = render_report(_tiny_report())
        tampered = []
        for line in text.splitlines():
            if line.startswith("run.0.summary.avg_all"):
                key, _ = line.split(" = ")
                line = f"{key} = 99.99"
            tampered.append(line)
        with pytest.raises(ReportFormatError, match="recomputed"):
            parse_report("\n".join(tampered) + "\n")

    # An unknown report key, and a config echo key no setting has any more:
    # reports written before Adam was the only optimizer carry one.
    @pytest.mark.parametrize(
        "line, key",
        [
            ("mystery.key = 1", "mystery.key"),
            ("config.optimizer = adam", "bad config echo: unknown config key 'optimizer'"),
        ],
    )
    def test_unknown_keys_rejected(self, line, key):
        text = render_report(_tiny_report()) + line + "\n"
        with pytest.raises(ReportFormatError, match=re.escape(key)):
            parse_report(text)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("run.0.record.0.overall", "abc"),
            ("run.0.record.0.per_class", "0100.0"),
            ("seeds", "x"),
            ("run.0.record.1.classes", "0,a"),
            ("run.0.record.0.trace.total", "1.0,z"),
            ("total_seconds", "q"),
            ("run.0.record.1.increment", "banana"),
            ("seeds", ""),
            ("seeds", "5,5"),
            ("seeds", "-5"),
            ("seeds", "5,"),
            ("mode", "banana"),
            ("run.0.record.1.classes", "1,1"),
            ("run.0.record.1.classes", "1,0"),
            ("run.0.record.1.per_class", "7:98.0"),
            ("run.0.record.1.per_class", "0:98.0,0:97.0"),
            ("run.0.record.1.per_class", "1:98.0,0:99.0"),
        ],
    )
    def test_malformed_value_names_its_key(self, key, value):
        with pytest.raises(ReportFormatError,
                           match=re.escape(f"report key {key!r} has bad value {value!r}")):
            parse_report(_with_value(key, value))

    @pytest.mark.parametrize(
        "field, value",
        [("g", "0"), ("lr", "nan"), ("dataset", "cifar"), ("d_z", "999"), ("enc_hidden", "0,7")],
    )
    def test_invalid_config_echo_names_the_field(self, field, value):
        with pytest.raises(ReportFormatError, match=re.escape(f"bad config echo: {field} ")):
            parse_report(_with_value(f"config.{field}", value))

    def test_record_numbered_out_of_place_names_its_key(self):
        key = "run.0.record.1.increment"
        with pytest.raises(ReportFormatError, match=re.escape(f"report key {key!r} is not 1")):
            parse_report(_with_value(key, "2"))

    def test_artifact_version_is_the_package_version(self):
        text = render_report(_tiny_report())
        assert f"artifact.version = {clare.__version__}" in text.splitlines()
        assert parse_report(text).artifact_version == clare.__version__
        # No tomllib before Python 3.11, so the line is read with a regex.
        pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        declared = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
        assert declared is not None and declared.group(1) == clare.__version__

    def test_duplicate_keys_rejected(self):
        text = render_report(_tiny_report())
        text += "mode = joint\n"
        with pytest.raises(ReportFormatError, match="duplicate"):
            parse_report(text)

    def test_aggregate_uses_sample_std(self):
        report = _tiny_report(seeds=(1, 2, 3))
        agg = aggregate_summaries(report.runs)
        values = [
            np.mean([r.overall for r in run.records]) for run in report.runs
        ]
        mean, std = agg["avg_all"]
        assert mean == pytest.approx(float(np.mean(values)), rel=1e-12)
        assert std == pytest.approx(float(np.std(values, ddof=1)), rel=1e-12)

    def test_single_run_has_no_std(self):
        agg = aggregate_summaries(_tiny_report().runs)
        assert agg["avg_all"][1] is None

    def test_csv_lists_every_class_row(self):
        report = _tiny_report(seeds=(5, 6))
        lines = render_csv(report).splitlines()
        assert lines[0] == "seed,increment,class,accuracy"
        # 3 records per run with 1, 2, and 3 class entries.
        assert len(lines) == 1 + 2 * (1 + 2 + 3)
        assert lines[1].startswith("5,0,0,")

    @pytest.mark.parametrize("write", [write_report, write_csv])
    def test_a_failed_rewrite_leaves_the_previous_file_whole(self, tmp_path, monkeypatch, write):
        path = str(tmp_path / "report.txt")
        write_report(_tiny_report(), path)
        first = Path(path).read_text(encoding="utf-8")
        fill_disk(monkeypatch, tmp_path, 1)
        with pytest.raises(OSError, match="No space left"):
            write(_tiny_report(seeds=(5, 6)), path)
        monkeypatch.undo()
        assert Path(path).read_text(encoding="utf-8") == first
        assert read_report(path).runs[0].seed == 5
        assert os.listdir(tmp_path) == ["report.txt"]


TWO_SEED_REPORT = _tiny_report(seeds=(5, 6))
TWO_SEED_TEXT = render_report(TWO_SEED_REPORT)
CONFIG_FILE_TEXT = "# a toy run\n" + "".join(
    f"{key} = {value}\n" for key, value in TWO_SEED_REPORT.config.to_items()
)


def _one_char_changed(text: str):
    """Strategy: ``text`` with one character replaced, often by a separator."""
    separators = st.sampled_from(sorted(set(text) | set("\n\r =,:#.-e")))
    return st.tuples(
        st.integers(min_value=0, max_value=len(text) - 1),
        st.one_of(separators, st.characters(codec="utf-8")),
    ).map(lambda edit: text[: edit[0]] + edit[1] + text[edit[0] + 1 :])


@settings(max_examples=300, deadline=None)
@given(cut=st.integers(min_value=0, max_value=len(TWO_SEED_TEXT)))
def test_every_report_prefix_is_rejected_or_parses_to_the_same_runs(cut):
    try:
        back = parse_report(TWO_SEED_TEXT[:cut])
    except ReportFormatError:
        return
    # Only a cut inside the last value, total_seconds, leaves a whole report.
    value_start = TWO_SEED_TEXT.rindex("total_seconds = ") + len("total_seconds = ")
    assert cut > value_start
    assert back.runs == TWO_SEED_REPORT.runs


@settings(max_examples=300, deadline=None)
@given(text=_one_char_changed(TWO_SEED_TEXT))
def test_a_one_character_change_to_a_report_parses_or_is_a_format_error(text):
    try:
        parse_report(text)
    except ReportFormatError:
        pass


@settings(max_examples=300, deadline=None)
@given(text=_one_char_changed(CONFIG_FILE_TEXT))
def test_a_one_character_change_to_a_config_file_reads_or_names_its_line(
    tmp_path_factory, text
):
    path = tmp_path_factory.getbasetemp() / "mutated.cfg"
    path.write_text(text, encoding="utf-8")
    try:
        read_config_file(str(path))
    except UsageError as err:
        assert re.match(rf"{re.escape(str(path))}:\d+: ", str(err)), str(err)


# Characters str.splitlines splits at but a text-mode file does not.
NOT_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestKeyValueText:
    """Config files and reports are read by one reader, config.read_items."""

    @pytest.mark.parametrize("char", NOT_LINE_BREAKS, ids=[f"{ord(c):#x}" for c in NOT_LINE_BREAKS])
    def test_a_report_reads_back_a_data_dir_holding_a_character_splitlines_splits_at(
        self, tmp_path, char
    ):
        config = replace(TWO_SEED_REPORT.config, data_dir=f"corpus{char}dir")
        path = str(tmp_path / "report.txt")
        write_report(replace(TWO_SEED_REPORT, config=config), path)
        assert read_report(path).config == config

    @pytest.mark.parametrize("key", ["data_dir", "out_path"])
    @pytest.mark.parametrize("brk", ["\n", "\r"])
    def test_a_line_break_in_a_free_text_key_fails_validation(self, key, brk):
        with pytest.raises(ValueError, match=f"^{key} must not hold a line break"):
            replace(ExperimentConfig(), **{key: f"a{brk}b"}).validate()

    @pytest.mark.parametrize("flag, key", [("--data-dir", "data_dir"), ("--out", "out_path")])
    def test_the_cli_refuses_a_line_break_in_a_free_text_key(self, tmp_path, capsys, flag, key):
        assert run_cli(TOY_ARGS + [flag, str(tmp_path / "a\nb")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must not hold a line break")

    def test_a_line_break_in_the_data_dir_variable_is_a_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("CLARE_DATA_DIR", "a\nb")
        assert run_cli(["--dataset", "mnist", "--epochs", "1"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: $CLARE_DATA_DIR: data_dir must not hold a line break"
        )

    def test_a_flag_keeps_a_paths_outer_whitespace(self):
        args = build_parser().parse_args(["--data-dir", "digits\x0c", "--out", " r.txt"])
        config = merge_config(args)
        assert (config.data_dir, config.out_path) == ("digits\x0c", " r.txt")

    @pytest.mark.parametrize("bom, newline", [(b"\xef\xbb\xbf", "\n"), (b"", "\r\n"),
                                              (b"\xef\xbb\xbf", "\r\n")])
    def test_a_byte_order_mark_and_crlf_line_ends_read_as_plain_lf_text(
        self, tmp_path, bom, newline
    ):
        cfg, rep = tmp_path / "run.cfg", tmp_path / "report.txt"
        cfg.write_bytes(bom + CONFIG_FILE_TEXT.replace("\n", newline).encode())
        rep.write_bytes(bom + TWO_SEED_TEXT.replace("\n", newline).encode())
        assert read_config_file(str(cfg)) == dict(TWO_SEED_REPORT.config.to_items())
        assert read_report(str(rep)) == parse_report(TWO_SEED_TEXT)

    def test_a_byte_after_a_byte_order_mark_is_named_at_its_file_offset(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfseed = 1\n\xff\n")
        with pytest.raises(UsageError) as err:
            read_config_file(str(cfg))
        assert str(err.value) == f"{cfg}: not UTF-8: byte 0xff at offset 12 (invalid start byte)"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("garbage", "expected 'key = value', got 'garbage\\n'"),
            ("mode = joint", "duplicate key 'mode' (first set on line 2)"),
        ],
    )
    def test_a_bad_report_line_gets_the_config_file_wording(self, line, message):
        lines = TWO_SEED_TEXT.count("\n")
        with pytest.raises(ReportFormatError) as err:
            parse_report(TWO_SEED_TEXT + line + "\n")
        assert str(err.value) == f"line {lines + 1}: {message}"

    def test_a_config_file_is_read_in_full_before_its_values_are_checked(self, tmp_path):
        cfg = tmp_path / "two.cfg"
        cfg.write_text("epochs = many\nseed = 1\nseed = 2\n")
        with pytest.raises(UsageError, match=r":3: duplicate key 'seed' \(first set on line 2\)"):
            read_config_file(str(cfg))


@settings(max_examples=300, deadline=None)
@given(data_dir=st.text(max_size=12), out_path=st.text(max_size=12))
def test_free_text_that_validates_round_trips_through_a_report(data_dir, out_path):
    config = replace(TWO_SEED_REPORT.config, data_dir=data_dir, out_path=out_path)
    try:
        config.validate()
    except ValueError:
        assert any(brk in data_dir + out_path for brk in "\n\r")
        return
    back = parse_report(render_report(replace(TWO_SEED_REPORT, config=config))).config
    # Every key = value reader strips a value's outer whitespace.
    assert back == replace(config, data_dir=data_dir.strip(), out_path=out_path.strip())


def _digit_corpus(tmp_path: Path) -> Path:
    """Four IDX files holding only digits 3, 5 and 7, as 2x2 images."""
    rng = np.random.default_rng(8)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for split, n in (("train", 60), ("t10k", 30)):
        images = rng.integers(0, 256, size=(n, 2, 2), dtype=np.uint8)
        labels = np.repeat(np.array([3, 5, 7], dtype=np.uint8), n // 3)
        (corpus / f"{split}-images-idx3-ubyte").write_bytes(write_idx(images))
        (corpus / f"{split}-labels-idx1-ubyte").write_bytes(write_idx(labels))
    return corpus


TOY_ARGS = [
    "--dataset", "toy", "--toy-classes", "3", "--toy-dim", "4",
    "--toy-per-class", "60", "--epochs", "4", "--batch", "16",
    "--latent-dim", "2", "--seed", "7",
]


class TestCli:
    def test_incremental_run_writes_report_and_csv(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        csv = tmp_path / "rows.csv"
        code = run_cli(TOY_ARGS + ["--out", str(out), "--csv", str(csv)])
        assert code == 0
        table = capsys.readouterr().out
        assert "inc0" in table and "inc2" in table
        report = read_report(str(out))
        assert report.mode == "clare"
        assert len(report.runs) == 1
        assert len(report.runs[0].records) == 3
        assert report.config.dataset == "toy"
        lines = csv.read_text().splitlines()
        assert lines[0] == "seed,increment,class,accuracy"
        assert len(lines) == 1 + (1 + 2 + 3)

    @pytest.mark.parametrize("mode,n_records", [("joint", 1), ("finetune", 3)])
    def test_baseline_modes(self, mode, n_records, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code = run_cli(["--mode", mode] + TOY_ARGS + ["--out", str(out)])
        assert code == 0
        report = read_report(str(out))
        assert report.mode == mode
        assert len(report.runs[0].records) == n_records
        capsys.readouterr()

    def test_multiple_seeds_make_multiple_runs(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code = run_cli(TOY_ARGS + ["--seeds", "7,8", "--out", str(out)])
        assert code == 0
        report = read_report(str(out))
        assert [run.seed for run in report.runs] == [7, 8]
        # Aggregates over two seeds carry a std line.
        assert "summary.avg_all.std = " in out.read_text()
        capsys.readouterr()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# toy profile\n"
            "dataset = toy\n"
            "toy_classes = 3\n"
            "toy_dim = 4\n"
            "toy_per_class = 60\n"
            "epochs = 3\n"
            "batch_size = 16\n"
            "d_z = 2\n"
            "seed = 7\n"
        )
        out = tmp_path / "report.txt"
        code = run_cli(["--config", str(cfg), "--epochs", "2", "--out", str(out)])
        assert code == 0
        report = read_report(str(out))
        assert report.config.epochs == 2  # flag beats file
        assert report.config.toy_dim == 4  # file beats default
        capsys.readouterr()

    def test_out_path_from_config_file_is_written(self, tmp_path, capsys):
        path = tmp_path / "rep.txt"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out_path = {path}\ndataset = toy\nepochs = 1\n")
        assert run_cli(["--config", str(cfg)]) == 0
        assert read_report(str(path)).config.out_path == str(path)
        flag = tmp_path / "flag.txt"
        path.unlink()
        assert run_cli(["--config", str(cfg), "--out", str(flag)]) == 0
        assert read_report(str(flag)).config.out_path == str(flag)
        assert not path.exists()
        capsys.readouterr()

    def test_config_file_parser(self, tmp_path):
        cfg = tmp_path / "x.cfg"
        cfg.write_text("seed = 1\n\n# comment\ndata_dir = two words\n")
        assert read_config_file(str(cfg)) == {"seed": "1", "data_dir": "two words"}
        cfg.write_text("not a pair\n")
        with pytest.raises(UsageError, match="key = value"):
            read_config_file(str(cfg))

    @pytest.mark.parametrize(
        "line, message",
        [
            ("epochs = 3.5", "config key 'epochs' needs an integer, got '3.5'"),
            ("lr = fast", "config key 'lr' needs a number, got 'fast'"),
            ("enc_hidden = 64,wide", "config key 'enc_hidden' needs comma-separated integers"),
        ],
    )
    def test_bad_config_value_names_key_and_line(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"dataset = toy\n# comment\n{line}\n")
        with pytest.raises(UsageError) as err:
            read_config_file(str(cfg))
        assert str(err.value).startswith(f"{cfg}:3: {message}"), str(err.value)
        assert run_cli(["--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}:3: {message}")

    def test_config_file_that_is_not_utf8_names_file_and_offset(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"dataset = toy\nepo\xffchs = 2\n")
        with pytest.raises(UsageError) as err:
            read_config_file(str(cfg))
        assert str(err.value) == f"{cfg}: not UTF-8: byte 0xff at offset 17 (invalid start byte)"
        assert run_cli(["--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {err.value}\n"

    def test_a_truncated_digit_file_is_named(self, tmp_path, capsys):
        corpus = _digit_corpus(tmp_path)
        bad = corpus / "t10k-images-idx3-ubyte"
        bad.write_bytes(bad.read_bytes()[:-1])
        assert run_cli(["--dataset", "mnist", "--data-dir", str(corpus), "--epochs", "1"]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: payload truncated at offset 135: dims (30, 2, 2) require 136 bytes\n"
        )

    def test_duplicate_config_key_names_both_lines(self, tmp_path):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("epochs = 3\nseed = 1\n\nepochs = 4\n")
        with pytest.raises(UsageError, match=r":4: duplicate key 'epochs' \(first set on line 1\)"):
            read_config_file(str(cfg))

    # A typo, and a key no setting has any more.
    @pytest.mark.parametrize(
        "line, key", [("epochz = 3", "epochz"), ("optimizer = adam", "optimizer")]
    )
    def test_unknown_config_key_names_file_and_line(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(f"dataset = toy\n\n# comment\n{line}\n")
        assert run_cli(["--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {cfg}:4: unknown config key {key!r}"
        )

    def test_dump_replay_writes_idx_pairs(self, tmp_path, capsys):
        dump = tmp_path / "buffers"
        code = run_cli(TOY_ARGS + ["--dump-replay", str(dump)])
        assert code == 0
        capsys.readouterr()
        # No replay on the first increment; one pair for each later one.
        names = sorted(p.name for p in dump.iterdir())
        assert names == [
            "replay-s7-01-images-idx", "replay-s7-01-labels-idx",
            "replay-s7-02-images-idx", "replay-s7-02-labels-idx",
        ]
        images = parse_idx((dump / "replay-s7-01-images-idx").read_bytes())
        assert images.shape == (60, 2, 2)  # dim 4 comes back as 2x2 squares
        labels = parse_idx((dump / "replay-s7-01-labels-idx").read_bytes())
        assert labels.shape == (60,)
        assert set(labels.tolist()) == {0}
        labels2 = parse_idx((dump / "replay-s7-02-labels-idx").read_bytes())
        assert sorted(set(labels2.tolist())) == [0, 1]

    def test_dump_replay_writes_original_labels(self, tmp_path, capsys):
        corpus = _digit_corpus(tmp_path)
        dump = tmp_path / "buffers"
        code = run_cli(["--dataset", "mnist", "--data-dir", str(corpus), "--epochs", "1",
                        "--batch", "16", "--latent-dim", "2", "--seed", "7",
                        "--dump-replay", str(dump)])
        assert code == 0
        capsys.readouterr()
        labels = parse_idx((dump / "replay-s7-01-labels-idx").read_bytes())
        assert set(labels.tolist()) == {3}
        labels2 = parse_idx((dump / "replay-s7-02-labels-idx").read_bytes())
        assert set(labels2.tolist()) == {3, 5}

    def test_dumped_pixels_round_as_the_two_temporary_expression_did(self, tmp_path):
        # 0, 1, the k.5 / 255 rounding edges and their float neighbours, and
        # two values outside [0, 1] for the clip.
        edges = (np.arange(255) + 0.5) / 255.0
        values = np.concatenate([[0.0, 1.0, -0.25, 1.25], edges,
                                 np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
        buffer = LabeledDataset(values.reshape(-1, 1), np.zeros(values.size, dtype=np.int64))
        harness._replay_dumper(str(tmp_path), 1, 3)(4, buffer)
        pixels = parse_idx((tmp_path / "replay-s3-04-images-idx").read_bytes())
        want = np.clip(np.round(values * 255.0), 0, 255).astype(np.uint8)
        assert np.array_equal(pixels.reshape(-1), want)
        # The buffer is the head of the training array: it is not scaled.
        assert np.array_equal(buffer.images.reshape(-1), values)

    def test_digit_corpus_is_loaded_once_for_all_seeds(self, tmp_path, monkeypatch, capsys):
        corpus = _digit_corpus(tmp_path)
        calls = []

        def counted(data_dir):
            calls.append(data_dir)
            return load_mnist(data_dir)

        monkeypatch.setattr(harness, "load_mnist", counted)
        out = tmp_path / "report.txt"
        args = ["--dataset", "mnist", "--data-dir", str(corpus), "--epochs", "1",
                "--batch", "16", "--latent-dim", "2", "--seeds", "1,2", "--out", str(out)]
        assert run_cli(args) == 0
        capsys.readouterr()
        assert calls == [str(corpus)]
        # The report equals one made from a corpus loaded afresh for each seed.
        config = merge_config(build_parser().parse_args(args)).resolved()
        runs = []
        for seed in (1, 2):
            train, test = load_mnist(str(corpus))
            records = harness.run_mode("clare", train, test, replace(config, seed=seed), seed)
            runs.append(RunResult(seed=seed, records=records))
        want = render_report(ResultsReport("clare", replace(config, seed=1), runs))

        def timeless(text):
            return [line for line in text.splitlines()
                    if not line.split(" = ", 1)[0].endswith("seconds")]

        assert timeless(out.read_text(encoding="utf-8")) == timeless(want)

    def test_seeds_run_in_one_process_match_each_seed_run_alone(self):
        # Training buffers live for one run: a seed's records do not depend
        # on the run before it in the same process.
        config = merge_config(build_parser().parse_args(TOY_ARGS)).resolved()
        train, test = harness.load_datasets(config)

        def records(seed):
            got = harness.run_mode("clare", train, test, replace(config, seed=seed), seed)
            return [replace(record, seconds=0.0) for record in got]

        alone = {seed: records(seed) for seed in (2, 1)}
        together = {seed: records(seed) for seed in (1, 2)}
        assert together == alone
        assert alone[1] != alone[2]

    def test_dump_replay_rejects_labels_above_a_byte(self, tmp_path, capsys):
        dump = tmp_path / "buffers"
        code = run_cli(["--dataset", "toy", "--toy-classes", "257", "--toy-dim", "9",
                        "--toy-per-class", "2", "--g", "256", "--epochs", "1",
                        "--dump-replay", str(dump)])
        assert code == 2
        assert "class 256" in capsys.readouterr().err
        assert not dump.exists()

    def test_dump_replay_outside_incremental_mode_rejected(self, tmp_path, capsys):
        code = run_cli(["--mode", "joint"] + TOY_ARGS + ["--dump-replay", str(tmp_path / "d")])
        assert code == 2
        assert "--dump-replay" in capsys.readouterr().err

    def test_replay_off_warns_but_runs(self, capsys):
        code = run_cli(TOY_ARGS + ["--replay", "off", "--epochs", "2"])
        assert code == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
        assert "replay is off" in captured.err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_cli(["--frobnicate"]) == 2
        capsys.readouterr()

    def test_help_exits_cleanly(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out

    def test_missing_data_dir_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.delenv("CLARE_DATA_DIR", raising=False)
        assert run_cli(["--dataset", "mnist"]) == 2
        assert "data-dir" in capsys.readouterr().err

    def test_nonexistent_data_dir_is_usage_error(self, capsys):
        code = run_cli(["--dataset", "mnist", "--data-dir", "/no/such/place"])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_bad_seeds_value_is_usage_error(self, capsys):
        assert run_cli(TOY_ARGS + ["--seeds", "a,b"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flags, key",
        [
            (["--lr", "nan"], "lr"),
            (["--lr", "inf"], "lr"),
            (["--beta", "nan"], "beta"),
            (["--toy-spread", "inf"], "toy_spread"),
            (["--seed", "-1"], "seed"),
        ],
    )
    def test_non_finite_or_negative_value_is_usage_error(self, flags, key, capsys):
        assert run_cli(TOY_ARGS + flags) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must be")

    def test_non_finite_config_file_value_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("dataset = toy\nlr = nan\n")
        assert run_cli(["--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}:2: lr must be finite")

    @pytest.mark.parametrize(
        "seeds, message",
        [
            ("3,-1", "--seeds must be >= 0, got -1"),
            ("1,1", "--seeds repeats a seed: '1,1'"),
            ("1,,2", "--seeds needs comma-separated integers, got '1,,2'"),
            ("3,", "--seeds needs comma-separated integers, got '3,'"),
            ("", "--seeds needs comma-separated integers, got ''"),
        ],
    )
    def test_negative_or_repeated_seeds_are_usage_errors(self, seeds, message, capsys):
        assert run_cli(TOY_ARGS + ["--seeds", seeds]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_flag_value_names_its_key(self, capsys):
        assert run_cli(TOY_ARGS + ["--batch", "x"]) == 2
        assert capsys.readouterr().err == "error: config key 'batch_size' needs an integer, got 'x'\n"

    def test_empty_epochs_flag_means_the_dataset_default(self):
        config = merge_config(build_parser().parse_args(["--dataset", "toy", "--epochs", ""]))
        assert config.epochs is None
        assert config.resolved().epochs == ExperimentConfig(dataset="toy").resolved().epochs

    def test_data_dir_comes_from_the_environment_only_through_resolved(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("CLARE_DATA_DIR", str(tmp_path))
        config = ExperimentConfig(dataset="mnist")
        assert config.resolved().data_dir == str(tmp_path)
        with pytest.raises(UsageError, match="mnist needs --data-dir"):
            harness.load_datasets(config)

    def test_invalid_flag_value_is_usage_error(self, capsys):
        assert run_cli(TOY_ARGS + ["--g", "0"]) == 2
        assert "g must be" in capsys.readouterr().err

    def test_overflowing_adam_moment_stops_the_run(self):
        # beta 1e308 keeps every gradient and parameter finite but overflows
        # Adam's second moment. Run in a subprocess, so numpy's overflow
        # warning stays a warning there, as it is for a user.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
        done = subprocess.run(
            [sys.executable, "-c", "from clare.harness import main; main()",
             "--dataset", "toy", "--beta", "1e308"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 1, done.stdout
        assert re.search(
            r"^error: increment 0: non-finite value in Adam second moment of '\w+' "
            r"at epoch \d+, step \d+ ",
            done.stderr, re.MULTILINE,
        ), done.stderr

    def test_report_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        # The quick-start with two seeds, each in a fresh process at 1 and at
        # 2 OpenBLAS threads: only the output path and the wall-clock lines
        # may differ.
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"report-{threads}.txt"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
            done = subprocess.run(
                [sys.executable, "-c", "from clare.harness import main; main()",
                 "--dataset", "toy", "--g", "1", "--seeds", "7,8", "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            lines = out.read_text(encoding="utf-8").splitlines()
            kept = [
                line for line in lines
                if not (line.startswith("config.out_path = ")
                        or line.split(" = ", 1)[0].endswith("seconds"))
            ]
            # One out_path line, one seconds line per record, and the total.
            assert len(lines) - len(kept) == 1 + 2 * 3 + 1
            reports.append(kept)
        assert reports[0] == reports[1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_runtime_failure_exits_one(self, capsys):
        # Valid settings that diverge at the second step: a failure of the
        # run itself, not of its settings.
        code = run_cli(TOY_ARGS + ["--lr", "1e308"])
        assert code == 1
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lines, flags, key",
        [
            ("enc_hidden = 0,32\n", [], "enc_hidden"),
            ("enc_hidden = 48\n", [], "enc_hidden"),
            ("", ["--latent-dim", "300"], "d_z"),
        ],
    )
    def test_bad_architecture_is_rejected_before_loading_data(
        self, tmp_path, monkeypatch, capsys, lines, flags, key
    ):
        def no_loading(config):
            raise AssertionError("data loaded before the settings were checked")

        monkeypatch.setattr(harness, "load_datasets", no_loading)
        cfg = tmp_path / "arch.cfg"
        cfg.write_text(f"dataset = toy\nepochs = 1\n{lines}")
        assert run_cli(["--config", str(cfg)] + flags) == 2
        err = capsys.readouterr().err
        where = f"{cfg}:3: " if lines else ""
        assert err.startswith(f"error: {where}{key} "), err

    def test_too_many_toy_classes_for_the_dimension_is_usage_error(self, capsys):
        # 40 classes cannot sit on the corners of a 4-d cube.
        code = run_cli(["--dataset", "toy", "--toy-classes", "40", "--toy-dim", "4"])
        assert code == 2
        err = capsys.readouterr().err
        assert "toy_classes = 40" in err and "toy_dim = 4" in err, err


# One non-default, valid value for every config key that has a flag.
FLAG_VALUES = {
    "dataset": "toy", "data_dir": "some dir", "g": "2", "epochs": "3",
    "batch_size": "16", "lr": "0.01", "d_z": "4", "beta": "0.5", "replay": "off",
    "start": "warm", "seed": "9", "out_path": "r.txt", "toy_classes": "4",
    "toy_per_class": "50", "toy_dim": "8", "toy_spread": "0.1",
}
CONFIG_FLAGS = [
    (action.option_strings[0], action.dest)
    for action in build_parser()._actions
    if action.dest in CONFIG_KEYS
]


@pytest.mark.parametrize("flag, key", CONFIG_FLAGS)
def test_flag_and_config_file_line_give_the_same_config(flag, key, tmp_path):
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{key} = {FLAG_VALUES[key]}\n")
    parser = build_parser()
    from_flag = merge_config(parser.parse_args([flag, FLAG_VALUES[key]]))
    from_file = merge_config(parser.parse_args(["--config", str(cfg)]))
    assert from_flag == from_file
    assert from_flag != ExperimentConfig()
