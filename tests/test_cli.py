import argparse
import contextlib
import dataclasses
import io
import os
import re
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SRC_DIR
from eventemb import cli
from eventemb.checkpoint import load_checkpoint
from eventemb.cli import COMMANDS, _build_config, build_parser, main, parse_config_file
from eventemb.data import DataError
from eventemb.trainer import TrainingConfig


def run(capsys, *argv):
    capsys.readouterr()  # drain anything emitted by fixtures
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    from conftest import SYNTHETIC_DIR as synthetic_dir
    """One small trained model shared across CLI tests."""
    out = tmp_path_factory.mktemp("cli_model")
    code = main([
        "train",
        "--corpus", str(synthetic_dir / "corpus.txt"),
        "--annotations", str(synthetic_dir / "annotations.txt"),
        "--vectors", str(synthetic_dir / "vectors.txt"),
        "--lexicon", str(synthetic_dir / "lexicon.tsv"),
        "--out", str(out),
        "--d", "10", "--k", "8", "--n", "2",
        "--epochs", "3", "--batch-size", "10",
        "--learning-rate", "0.05", "--seed", "3",
    ])
    assert code == 0
    return out


class TestUsageErrors:
    def test_missing_corpus_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--out", "/tmp/x"])
        assert excinfo.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_bad_preset_value(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--corpus", "c", "--out", "o", "--preset", "everything"])
        assert excinfo.value.code == 2

    def test_bad_corruption_target(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--corpus", "c", "--out", "o", "--corruption-target", "verb"])
        assert excinfo.value.code == 2

    # Python's int() and float() take underscores and non-ASCII digits
    @pytest.mark.parametrize(
        "flag, value", [("--epochs", "1_0"), ("--seed", "٣"), ("--learning-rate", "1e-0_3")]
    )
    def test_number_flag_must_be_plain_ascii(self, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--corpus", "c", "--out", "o", flag, value])
        assert excinfo.value.code == 2
        assert f"argument {flag}: invalid" in capsys.readouterr().err


FULL_USAGE = "usage: eventemb [-h] {train,eval-hard,eval-transitive,embed,nn} ...\n"


def subparsers(parser):
    """The registered subcommand parsers of an `eventemb` parser, by name."""
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def exit_of(capsys, *argv, call=main):
    """(exit code, stdout, stderr) of a main() call that ends in SystemExit."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        call(list(argv))
    captured = capsys.readouterr()
    return excinfo.value.code, captured.out, captured.err


class TestCliSurface:
    """Each call builds only its command's parser; what it prints is the
    text of the full parser's."""

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_help_matches_the_full_parser(self, capsys, command):
        code, out, err = exit_of(capsys, command, "--help")
        assert (code, err) == (0, "")
        assert out == subparsers(build_parser())[command].format_help()

    def test_top_level_help(self, capsys):
        code, out, err = exit_of(capsys, "--help")
        assert (code, err) == (0, "")
        assert out == build_parser().format_help()
        assert out.startswith(FULL_USAGE)
        assert list(subparsers(build_parser())) == list(COMMANDS)
        for command in COMMANDS:
            assert f"\n    {command} " in out

    def test_no_command(self, capsys):
        assert exit_of(capsys) == (2, "", FULL_USAGE + (
            "eventemb: error: the following arguments are required: command\n"))

    def test_unknown_command_lists_every_command(self, capsys):
        code, out, err = exit_of(capsys, "frobnicate")
        assert (code, out) == (2, "")
        assert err.startswith(FULL_USAGE + "eventemb: error: argument command: invalid choice: "
                              "'frobnicate' (choose from ")
        assert all(f"'{command}'" in err for command in COMMANDS)

    def test_unrecognized_argument_prints_the_full_usage(self, capsys):
        code, out, err = exit_of(capsys, "nn", "--checkpoint", "c", "--query", "a|b|c",
                                 "--corpus", "c", "extra")
        assert (code, out) == (2, "")
        assert err == FULL_USAGE + "eventemb: error: unrecognized arguments: extra\n"

    def test_sys_argv_is_read_when_argv_is_none(self):
        path = os.pathsep.join(filter(None, (str(SRC_DIR), os.environ.get("PYTHONPATH"))))
        run = subprocess.run([sys.executable, "-m", "eventemb.cli", "nn", "--help"],
                             env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                             text=True)
        assert (run.returncode, run.stderr) == (0, "")
        assert run.stdout == subparsers(build_parser())["nn"].format_help()

    @pytest.mark.parametrize("argv, builds", [
        *(((cmd, "--help"), 0) for cmd in COMMANDS),
        (("train", "--corpus", "{data}/corpus.txt", "--out", "{out}", "--d", "4", "--k", "2",
          "--n", "1", "--epochs", "1", "--batch-size", "30"), 0),
        (("eval-hard", "--checkpoint", "{ckpt}", "--data", "{data}/hardsim.txt"), 0),
        (("eval-transitive", "--checkpoint", "{ckpt}", "--data", "{data}/transitive.txt"), 0),
        (("embed", "--checkpoint", "{ckpt}", "--events", "{data}/corpus.txt"), 0),
        (("nn", "--checkpoint", "{ckpt}", "--query", "person_x|threw|bomb",
          "--corpus", "{data}/corpus.txt"), 0),
        (("--help",), 1), ((), 1), (("frobnicate",), 1), (("-h", "nn"), 1),
        (("nn", "--checkpoint", "c", "--query", "a|b|c", "--corpus", "c", "extra"), 1),
    ])
    def test_a_call_builds_only_its_command(self, monkeypatch, trained_dir, synthetic_dir,
                                            tmp_path, argv, builds):
        """A call that names a command and that its parser parses whole builds
        no full parser; any other call builds it once."""
        calls = []

        def spy():
            calls.append(None)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", spy)
        paths = {"ckpt": trained_dir / "final.ckpt", "data": synthetic_dir, "out": tmp_path}
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main([arg.format(**paths) for arg in argv])
            except SystemExit as exc:
                code = exc.code
        assert len(calls) == builds
        assert builds or code == 0

    @pytest.mark.parametrize("argv", [
        *((command,) for command in COMMANDS),
        ("nn", "--checkpoint", "c", "--corpus", "c"),
        ("nn", "--c", "x"),
        ("nn", "--checkpoint", "c", "--query", "a|b|c", "--corpus", "c", "--top", "0"),
        ("eval-hard", "--data"),
        ("train", "--corpus", "c", "--out", "o", "--preset", "bogus"),
        ("train", "--corpus", "c", "--out", "o", "--k", "1.5"),
    ], ids=" ".join)
    def test_a_command_parser_error_is_the_full_parsers(self, capsys, argv):
        expected = exit_of(capsys, *argv, call=lambda argv: build_parser().parse_args(argv))
        assert expected[0] == 2 and expected[2].startswith(f"usage: eventemb {argv[0]} ")
        assert exit_of(capsys, *argv) == expected


# a valid config whose every field differs from the default
NON_DEFAULT = TrainingConfig(
    alpha=0.5, beta=0.25, gamma=0.75, learning_rate=0.01, batch_size=7,
    lambda_l2=0.5, d=12, k=6, n=3, epochs=4, seed=9, corruption_target="object",
)


class TestTrainFlagsMirrorConfig:
    FIELDS = [f.name for f in dataclasses.fields(TrainingConfig)]

    def test_every_field_differs_from_default(self):
        defaults = TrainingConfig()
        for name in self.FIELDS:
            assert getattr(NON_DEFAULT, name) != getattr(defaults, name), name

    @pytest.mark.parametrize("name", FIELDS)
    def test_flag_parses_into_field(self, name):
        value = getattr(NON_DEFAULT, name)
        flag = "--" + name.replace("_", "-")
        argv = ["train", "--corpus", "c", "--out", "o", flag, str(value)]
        args = build_parser().parse_args(argv)
        assert getattr(args, name) == value
        assert type(getattr(args, name)) is type(value)

    @pytest.mark.parametrize("name", FIELDS)
    def test_config_key_accepted(self, tmp_path, name):
        path = tmp_path / "c.conf"
        value = getattr(NON_DEFAULT, name)
        path.write_text(f"{name} = {value}\n")
        assert parse_config_file(str(path)) == {name: value}

    def test_all_flags_build_the_config(self):
        argv = ["train", "--corpus", "c", "--out", "o"]
        for name in self.FIELDS:
            argv += ["--" + name.replace("_", "-"), str(getattr(NON_DEFAULT, name))]
        assert _build_config(build_parser().parse_args(argv)) == NON_DEFAULT

    def test_flags_override_preset_override_file(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("alpha = 0.5\nbeta = 0.5\nepochs = 3\n")
        args = build_parser().parse_args([
            "train", "--corpus", "c", "--out", "o", "--config", str(path),
            "--preset", "ntn", "--gamma", "0.25",
        ])
        config = _build_config(args)
        assert (config.alpha, config.beta, config.gamma) == (1.0, 0.0, 0.25)
        assert config.epochs == 3

    def test_only_the_merged_values_need_be_valid(self, tmp_path):
        # the file alone sets every weight to 0 and n above d; the preset and
        # the flags repair both before the config is built
        path = tmp_path / "c.conf"
        path.write_text("alpha = 0\nbeta = 0\ngamma = 0\nd = 2\nn = 4\n")
        args = build_parser().parse_args([
            "train", "--corpus", "c", "--out", "o", "--config", str(path),
            "--preset", "ntn+senti", "--d", "6", "--k", "4",
        ])
        config = _build_config(args)
        assert (config.alpha, config.beta, config.gamma, config.d, config.n) == (
            1.0, 0.0, 1.0, 6, 4
        )


class TestTrainCommand:
    def test_writes_checkpoints_and_metrics(self, trained_dir):
        assert (trained_dir / "final.ckpt").exists()
        for epoch in (1, 2, 3):
            assert (trained_dir / f"epoch-{epoch:04d}.ckpt").exists()
        lines = (trained_dir / "metrics.tsv").read_text().splitlines()
        assert len(lines) == 3

    def test_rerun_is_byte_identical(self, capsys, synthetic_dir, tmp_path):
        argv = [
            "train",
            "--corpus", str(synthetic_dir / "corpus.txt"),
            "--vectors", str(synthetic_dir / "vectors.txt"),
            "--out", "",
            "--d", "10", "--k", "8", "--n", "2",
            "--epochs", "2", "--batch-size", "16", "--seed", "77",
        ]
        outs = []
        for name in ("first", "second"):
            argv[6] = str(tmp_path / name)
            code, _, _ = run(capsys, *argv)
            assert code == 0
            outs.append((tmp_path / name / "final.ckpt").read_bytes())
        assert outs[0] == outs[1]

    def test_allocation_failure_is_reported_without_a_traceback(
        self, capsys, synthetic_dir, tmp_path
    ):
        # a 2**50-float table row is 8 PiB, past any 47-bit address space, so
        # the allocation fails at once whatever the overcommit setting
        code, _, err = run(
            capsys,
            "train",
            "--corpus", str(synthetic_dir / "corpus.txt"),
            "--out", str(tmp_path / "run"),
            "--d", str(2**50), "--k", "2", "--n", "1",
        )
        assert code == 1
        assert err.splitlines()[-1].startswith("error: Unable to allocate 8.00 PiB")

    @pytest.mark.parametrize("field", ["d", "k", "n"])
    def test_a_size_past_any_array_names_its_field(self, capsys, synthetic_dir, tmp_path, field):
        sizes = {"d": "10", "k": "8", "n": "2", field: str(2**64)}
        code, _, err = run(
            capsys,
            "train",
            "--corpus", str(synthetic_dir / "corpus.txt"),
            "--out", str(tmp_path / "run"),
            *(arg for key, value in sizes.items() for arg in (f"--{key}", value)),
        )
        assert code in (1, 2)
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"error: {field}={2**64} exceeds the largest array size"
        ]

    def test_preset_sets_loss_weights(self, capsys, synthetic_dir, tmp_path):
        code, _, _ = run(
            capsys,
            "train",
            "--corpus", str(synthetic_dir / "corpus.txt"),
            "--out", str(tmp_path / "run"),
            "--preset", "ntn",
            "--d", "10", "--k", "8", "--n", "2", "--epochs", "1",
        )
        assert code == 0
        config = load_checkpoint(str(tmp_path / "run" / "final.ckpt")).config
        assert (config.alpha, config.beta, config.gamma) == (1.0, 0.0, 0.0)

    def test_config_file_with_flag_override(self, capsys, synthetic_dir, tmp_path):
        config_path = tmp_path / "run.conf"
        config_path.write_text("d = 10\nk = 8\nn = 2\nepochs = 5\nseed = 4\n")
        code, _, _ = run(
            capsys,
            "train",
            "--corpus", str(synthetic_dir / "corpus.txt"),
            "--out", str(tmp_path / "run"),
            "--config", str(config_path),
            "--epochs", "1",  # flag wins over the file's 5
        )
        assert code == 0
        ckpt = load_checkpoint(str(tmp_path / "run" / "final.ckpt"))
        assert ckpt.config.epochs == 1
        assert ckpt.config.d == 10

    def test_unknown_config_key_fails(self, capsys, synthetic_dir, tmp_path):
        config_path = tmp_path / "bad.conf"
        config_path.write_text("momentum = 0.9\n")
        code, _, err = run(
            capsys,
            "train",
            "--corpus", str(synthetic_dir / "corpus.txt"),
            "--out", str(tmp_path / "run"),
            "--config", str(config_path),
        )
        assert code == 1
        assert "momentum" in err and "bad.conf:1" in err

    def test_all_zero_weights_fail_before_loading(self, capsys, tmp_path):
        # the corpus does not exist: the config error must come first
        code, _, err = run(
            capsys,
            "train",
            "--corpus", str(tmp_path / "missing.txt"),
            "--out", str(tmp_path / "run"),
            "--alpha", "0", "--beta", "0", "--gamma", "0",
        )
        assert code == 1
        assert "alpha, beta and gamma are all 0" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag", ("--learning-rate", "--lambda-l2"))
    def test_non_finite_value_fails_before_loading(self, capsys, tmp_path, flag):
        # the corpus does not exist: the config error must come first
        code, _, err = run(
            capsys,
            "train",
            "--corpus", str(tmp_path / "missing.txt"),
            "--out", str(tmp_path / "run"),
            flag, "nan",
        )
        assert code == 1
        assert f"{flag[2:].replace('-', '_')}=nan must be finite" in err
        assert not (tmp_path / "run").exists()

    def test_malformed_corpus_reports_line(self, capsys, tmp_path):
        corpus = tmp_path / "bad.txt"
        corpus.write_text("a|b|c\nnot an event\n")
        code, _, err = run(
            capsys, "train", "--corpus", str(corpus), "--out", str(tmp_path / "o")
        )
        assert code == 1
        assert "bad.txt:2" in err

    def test_vectors_that_are_not_utf8_report_the_line(self, capsys, synthetic_dir, tmp_path):
        vectors = tmp_path / "vec.txt"
        vectors.write_bytes(b"a 1 2\nb \xff 2\n")
        code, _, err = run(
            capsys, "train", "--corpus", str(synthetic_dir / "corpus.txt"),
            "--vectors", str(vectors), "--out", str(tmp_path / "o"),
        )
        assert code == 1
        assert err.splitlines()[-1] == f"error: {vectors}:2: invalid UTF-8 byte 0xff"

    def test_desk_scale_run_within_a_minute(self, capsys, synthetic_dir, tmp_path):
        corpus_50 = tmp_path / "corpus50.txt"
        events = (synthetic_dir / "corpus.txt").read_text().splitlines()[:50]
        corpus_50.write_text("\n".join(events) + "\n")
        started = time.time()
        code, _, _ = run(
            capsys,
            "train",
            "--corpus", str(corpus_50),
            "--vectors", str(synthetic_dir / "vectors.txt"),
            "--out", str(tmp_path / "run"),
            "--d", "10", "--k", "8", "--n", "2",
            "--epochs", "20", "--batch-size", "10", "--seed", "1",
        )
        elapsed = time.time() - started
        assert code == 0
        assert elapsed < 60.0
        assert (tmp_path / "run" / "final.ckpt").exists()
        assert len((tmp_path / "run" / "metrics.tsv").read_text().splitlines()) == 20


class TestEvalCommands:
    def test_eval_hard_report_format(self, capsys, trained_dir, synthetic_dir):
        code, out, _ = run(
            capsys,
            "eval-hard",
            "--checkpoint", str(trained_dir / "final.ckpt"),
            "--data", str(synthetic_dir / "hardsim.txt"),
        )
        assert code == 0
        assert re.fullmatch(
            r"hard_similarity_accuracy\t\S+\t[01]\.\d{6}\t24\n", out
        )

    def test_eval_hard_output_stable_across_runs(self, capsys, trained_dir, synthetic_dir):
        argv = (
            "eval-hard",
            "--checkpoint", str(trained_dir / "final.ckpt"),
            "--data", str(synthetic_dir / "hardsim.txt"),
        )
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_eval_transitive(self, capsys, trained_dir, synthetic_dir):
        code, out, _ = run(
            capsys,
            "eval-transitive",
            "--checkpoint", str(trained_dir / "final.ckpt"),
            "--data", str(synthetic_dir / "transitive.txt"),
        )
        assert code == 0
        assert out.startswith("transitive_spearman_rho\t")
        value = float(out.split("\t")[2])
        assert -1.0 <= value <= 1.0

    def test_empty_dataset_is_runtime_error(self, capsys, trained_dir, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("# no instances\n")
        code, _, err = run(
            capsys,
            "eval-hard",
            "--checkpoint", str(trained_dir / "final.ckpt"),
            "--data", str(empty),
        )
        assert code == 1
        assert "empty instance list" in err

    @pytest.mark.parametrize("command, lines", [
        ("eval-hard", 0),
        ("eval-transitive", 0),
        ("eval-transitive", 2),  # spearman_rho needs 3 points
        ("eval-transitive", -3),  # 3 pairs with one gold score: no rank variance
    ])
    def test_a_data_file_that_gives_no_value_is_named(
        self, capsys, trained_dir, synthetic_dir, tmp_path, command, lines
    ):
        source = "hardsim.txt" if command == "eval-hard" else "transitive.txt"
        records = [
            line for line in (synthetic_dir / source).read_text().splitlines()
            if line.strip() and not line.startswith("#")
        ][: abs(lines)]
        if lines < 0:
            records = [line.rsplit("\t", 1)[0] + "\t4.0" for line in records]
        data = tmp_path / "short.txt"
        data.write_text("".join(line + "\n" for line in records))
        code, out, err = run(
            capsys, command, "--checkpoint", str(trained_dir / "final.ckpt"), "--data", str(data)
        )
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {data}:0: ")

    def test_missing_checkpoint_is_runtime_error(self, capsys, synthetic_dir, tmp_path):
        code, _, err = run(
            capsys,
            "eval-hard",
            "--checkpoint", str(tmp_path / "missing.ckpt"),
            "--data", str(synthetic_dir / "hardsim.txt"),
        )
        assert code == 1
        assert err.startswith("error:")


class TestEmbedCommand:
    def test_one_row_per_event_with_k_columns(self, capsys, trained_dir, synthetic_dir):
        code, out, _ = run(
            capsys,
            "embed",
            "--checkpoint", str(trained_dir / "final.ckpt"),
            "--events", str(synthetic_dir / "corpus.txt"),
        )
        assert code == 0
        rows = out.splitlines()
        assert len(rows) == 60
        assert all(len(row.split("\t")) == 8 for row in rows)


    def test_comment_only_events_print_nothing(self, capsys, trained_dir, tmp_path):
        events = tmp_path / "events.txt"
        events.write_text("# no events\n")
        code, out, _ = run(
            capsys,
            "embed",
            "--checkpoint", str(trained_dir / "final.ckpt"),
            "--events", str(events),
        )
        assert code == 0
        assert out == ""


class TestNnCommand:
    def test_comment_only_corpus_exits_1(self, capsys, trained_dir, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("# no events\n")
        code, out, err = run(
            capsys,
            "nn",
            "--checkpoint", str(trained_dir / "final.ckpt"),
            "--query", "person_x|threw|bomb",
            "--corpus", str(corpus),
        )
        assert code == 1
        assert out == ""
        assert err == f"error: {corpus}: no events to search\n"

    def test_query_in_corpus_ranks_first(self, capsys, trained_dir, synthetic_dir):
        code, out, _ = run(
            capsys,
            "nn",
            "--checkpoint", str(trained_dir / "final.ckpt"),
            "--query", "person_x|threw|bomb",
            "--corpus", str(synthetic_dir / "corpus.txt"),
            "--top", "5",
        )
        assert code == 0
        rows = out.splitlines()
        assert len(rows) == 5
        score, event = rows[0].split("\t")
        assert event == "person_x|threw|bomb"
        assert float(score) == pytest.approx(1.0, abs=1e-6)

    def test_query_past_the_first_block_ranks_first(
        self, capsys, trained_dir, synthetic_dir, tmp_path
    ):
        # 300 events: the query's only copy is the last, in the second block
        # of the batched embedding
        lines = (synthetic_dir / "corpus.txt").read_text().splitlines()
        others = [line for line in lines if line != "person_x|threw|bomb"]
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("\n".join((others * 6)[:299] + ["person_x|threw|bomb"]) + "\n")
        code, out, _ = run(
            capsys,
            "nn",
            "--checkpoint", str(trained_dir / "final.ckpt"),
            "--query", "person_x|threw|bomb",
            "--corpus", str(corpus),
            "--top", "3",
        )
        assert code == 0
        score, event = out.splitlines()[0].split("\t")
        assert event == "person_x|threw|bomb"
        assert float(score) == pytest.approx(1.0, abs=1e-6)

    def test_tied_events_keep_input_order(self, capsys, trained_dir, tmp_path):
        # both actors are out of vocabulary, so the two events embed identically
        for first, second in (("unseen_b", "unseen_a"), ("unseen_a", "unseen_b")):
            corpus = tmp_path / "corpus.txt"
            corpus.write_text(
                f"person_x|threw|ball\n{first}|threw|bomb\nman|passed|car\n"
                f"{second}|threw|bomb\n"
            )
            code, out, _ = run(
                capsys,
                "nn",
                "--checkpoint", str(trained_dir / "final.ckpt"),
                "--query", "unseen_c|threw|bomb",
                "--corpus", str(corpus),
                "--top", "2",
            )
            assert code == 0
            (s1, e1), (s2, e2) = (row.split("\t") for row in out.splitlines())
            assert (e1, e2) == (f"{first}|threw|bomb", f"{second}|threw|bomb")
            assert s1 == s2

    def test_unknown_query_words_go_to_stderr(self, capsys, trained_dir, synthetic_dir):
        def nn(query):
            return run(
                capsys,
                "nn",
                "--checkpoint", str(trained_dir / "final.ckpt"),
                "--query", query,
                "--corpus", str(synthetic_dir / "corpus.txt"),
                "--top", "5",
            )

        # the unknown token itself is a vocabulary word: no report
        code, unk_out, err = nn("<unk> <unk>|threw|<unk>")
        assert (code, err) == (0, "")
        # a repeated unknown word is named once, in query order
        code, out, err = nn("unseen_b unseen_a|threw|unseen_b")
        assert code == 0
        assert err == "unknown query words, embedded as <unk>: unseen_b unseen_a\n"
        assert out == unk_out

    def test_top_larger_than_corpus_returns_all(self, capsys, trained_dir, synthetic_dir):
        code, out, _ = run(
            capsys,
            "nn",
            "--checkpoint", str(trained_dir / "final.ckpt"),
            "--query", "person_x|threw|bomb",
            "--corpus", str(synthetic_dir / "corpus.txt"),
            "--top", "1000",
        )
        assert code == 0
        assert len(out.splitlines()) == 60

    @pytest.mark.parametrize("top", ("0", "-1"))
    def test_top_below_one_is_usage_error(self, trained_dir, synthetic_dir, top):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "nn",
                "--checkpoint", str(trained_dir / "final.ckpt"),
                "--query", "person_x|threw|bomb",
                "--corpus", str(synthetic_dir / "corpus.txt"),
                "--top", top,
            ])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("top", ("1_0", "٣"))
    def test_top_must_be_plain_ascii(self, trained_dir, synthetic_dir, top):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "nn",
                "--checkpoint", str(trained_dir / "final.ckpt"),
                "--query", "person_x|threw|bomb",
                "--corpus", str(synthetic_dir / "corpus.txt"),
                "--top", top,
            ])
        assert excinfo.value.code == 2

    def test_unparseable_query(self, capsys, trained_dir, synthetic_dir):
        code, _, err = run(
            capsys,
            "nn",
            "--checkpoint", str(trained_dir / "final.ckpt"),
            "--query", "just some words",
            "--corpus", str(synthetic_dir / "corpus.txt"),
        )
        assert code == 1
        assert "pipe-delimited" in err


class TestConfigParser:
    def test_types_follow_field_types(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text(
            "# comment\nalpha = 0.5\nbatch_size = 16\ncorruption_target = object\n"
        )
        values = parse_config_file(str(path))
        assert values == {"alpha": 0.5, "batch_size": 16, "corruption_target": "object"}

    def test_plain_ascii_number_forms_parse(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("learning_rate = 1e-3\nalpha = .5\nlambda_l2 = 5.\nseed = +7\n")
        values = parse_config_file(str(path))
        assert values == {"learning_rate": 1e-3, "alpha": 0.5, "lambda_l2": 5.0, "seed": 7}

    @pytest.mark.parametrize("line", ["epochs = 1_0", "seed = ٣", "alpha = 0.2_5"])
    def test_number_must_be_plain_ascii(self, tmp_path, capsys, line):
        path = tmp_path / "c.conf"
        path.write_text(f"# comment\n{line}\n", encoding="utf-8")
        key = line.split()[0]
        with pytest.raises(DataError, match=rf"c\.conf:2: bad value for '{key}'"):
            parse_config_file(str(path))
        code, _, err = run(capsys, "train", "--corpus", str(tmp_path / "missing.txt"),
                           "--out", str(tmp_path / "run"), "--config", str(path))
        assert code == 1 and "c.conf:2:" in err
        assert not (tmp_path / "run").exists()

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("alpha 0.5\n")
        with pytest.raises(DataError, match="key = value"):
            parse_config_file(str(path))

    def test_repeated_key_names_both_lines(self, tmp_path, capsys):
        path = tmp_path / "c.conf"
        path.write_text("alpha = 0.5\n# comment\n\nalpha = 0.7\n")
        with pytest.raises(DataError, match=r"c\.conf:4: config key 'alpha' repeats line 1"):
            parse_config_file(str(path))
        code, _, err = run(capsys, "train", "--corpus", str(tmp_path / "missing.txt"),
                           "--out", str(tmp_path / "run"), "--config", str(path))
        assert code == 1 and "repeats line 1" in err
        assert not (tmp_path / "run").exists()


CONFIG_KEYS = [f.name for f in dataclasses.fields(TrainingConfig)] + ["bogus", ""]
CONFIG_VALUES = ["1", "0", "-1", "0.5", "1e400", "nan", "-inf", "1_0", "x", "", "object",
                 "actor", "3.0", "99999999999999999999", "٣"]


class TestConfigFuzz:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.sampled_from(CONFIG_KEYS), st.sampled_from(CONFIG_VALUES)).map(
            lambda kv: f"{kv[0]} = {kv[1]}"),
        st.sampled_from(["", "# comment", "no equals sign", "= 1", "a = b = c"]),
        st.text(max_size=12).map(lambda t: t.replace("\r", "").replace("\n", "")),
    ), max_size=6))
    def test_any_config_file_exits_1_or_2_without_a_traceback(self, lines):
        # the corpus is missing, so a config that builds fails on loading it
        with tempfile.TemporaryDirectory() as tmp:
            config = os.path.join(tmp, "config.txt")
            with open(config, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                try:
                    code = main(["train", "--corpus", os.path.join(tmp, "missing.txt"),
                                 "--out", os.path.join(tmp, "out"), "--config", config])
                except SystemExit as exc:
                    code = exc.code
        assert code in (1, 2)
        assert "Traceback" not in err.getvalue()
