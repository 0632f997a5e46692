import dataclasses
import hashlib
import inspect
import io
import json
import logging
import multiprocessing
import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from hloblab import cli, engine, forkpool, infonet, lob, pipeline, preprocess, train
from hloblab.config import DEFAULTS, KEYS, RunConfig, parse_config_text
from hloblab.errors import ConfigError, IoFailure, LengthMismatch
from hloblab.files import TEMP_NAME, read_json
from hloblab.model import CHECKPOINT_MAGIC, HlobConfig, HlobModel, save_checkpoint

DAYS = [f"1970-01-{d:02d}" for d in range(1, 10)]


def write_config(tmp_path, **overrides):
    values = {
        "ticker": "SYN",
        "data_dir": str(tmp_path / "data"),
        "out_dir": str(tmp_path / "out"),
        "days": ",".join(DAYS),
        "split.train": ",".join(DAYS[5:7]),
        "split.validation": DAYS[7],
        "split.test": DAYS[8],
        "synth.n_events": "80",
        "synth.regime": "sparse",
        "n_bins": "8",
        "bootstrap": "2",
        "seed": "3",
    }
    values.update({k: str(v) for k, v in overrides.items()})
    path = tmp_path / "run.cfg"
    path.write_text("# test configuration\n" +
                    "".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


def csv_sha256(directory, day):
    """The digest naming a cleaned day's .npy: sha256 of the orderbook CSV's
    sha256 followed by the message CSV's sha256."""
    msg_path, ob_path = pipeline.day_paths(directory, "SYN", day)
    return hashlib.sha256(hashlib.sha256(ob_path.read_bytes()).digest() +
                          hashlib.sha256(msg_path.read_bytes()).digest()).hexdigest()


class TestConfigParsing:
    def test_key_value_and_comments(self):
        values = parse_config_text("# comment\n\nticker = ABC\ntrain.lr=1e-3\n")
        assert values == {"ticker": "ABC", "train.lr": "1e-3"}

    def test_malformed_line(self):
        with pytest.raises(ConfigError):
            parse_config_text("no equals sign here\n")

    def test_key_set_twice_names_both_lines(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("seed = 1\n# seed = 3\ntrain.lr = 1e-3\n seed=2\n")
        assert err.value.key == "seed"
        assert str(err.value).endswith("set on line 1 and again on line 4")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            RunConfig({"tickr": "ABC"})
        assert err.value.key == "tickr"

    def test_defaults_applied(self):
        cfg = RunConfig({})
        assert cfg["horizon"] == 10
        assert cfg["train.lr"] == 6e-5
        assert cfg["train.balanced_cap"] == 5000

    def test_typed_getter_error_names_key(self):
        cfg = RunConfig({"horizon": "ten"})
        with pytest.raises(ConfigError) as err:
            cfg["horizon"]
        assert err.value.key == "horizon"

    def test_day_list_parsing(self):
        cfg = RunConfig({"days": " a , b ,, c "})
        assert cfg["days"] == ["a", "b", "c"]

    def test_env_override(self, tmp_path, monkeypatch):
        path = write_config(tmp_path)
        monkeypatch.setenv("HLOBLAB_TRAIN__LR", "0.5")
        monkeypatch.setenv("HLOBLAB_HORIZON", "50")
        # a key the file sets once: the override replaces its value
        monkeypatch.setenv("HLOBLAB_SEED", "9")
        cfg = RunConfig.load(path)
        assert cfg["train.lr"] == 0.5
        assert cfg["horizon"] == 50
        assert cfg["seed"] == 9

    def test_digest_sensitivity(self, tmp_path):
        a = RunConfig.load(write_config(tmp_path))
        b = RunConfig.load(write_config(tmp_path))
        assert a.digest() == b.digest()
        c = RunConfig.load(write_config(tmp_path, seed="4"))
        assert a.digest() != c.digest()

    def test_every_default_key_documented_type(self):
        # every default reads as its declared type
        cfg = RunConfig({})
        for key, spec in KEYS.items():
            assert isinstance(cfg[key], spec.kind), key


class TestDispatchErrors:
    def test_no_command_usage(self, capsys):
        assert cli.dispatch([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            cli.dispatch(["frobnicate"])

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.dispatch(["synth", "--config",
                             str(tmp_path / "absent.cfg")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("verb, key", [("synth", "data_dir"), ("ingest", "out_dir")])
    def test_directory_naming_a_file_is_user_error(self, tmp_path, capsys, verb, key):
        assert cli.dispatch(["synth", "--config", str(write_config(tmp_path))]) == 0
        taken = tmp_path / "taken"
        taken.write_text("")
        path = write_config(tmp_path, **{key: taken})
        capsys.readouterr()
        assert cli.dispatch([verb, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(taken) in err and "Traceback" not in err

    @pytest.mark.parametrize("raw, line, byte", [
        (b"ticker = SYN\n# caf\xe9\n", 2, "0xe9"),
        # U+2028 ends no line: only "\n" counts
        (b"# a\xe2\x80\xa8b\r\nyear = 19\xff70\n", 2, "0xff"),
    ])
    def test_config_file_not_utf8_is_one_error_line(self, tmp_path, capsys, raw, line,
                                                     byte):
        path = tmp_path / "bad.cfg"
        path.write_bytes(raw)
        assert cli.dispatch(["describe", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (f"error: config error at 'line {line}': "
                                           f"byte {byte} is not valid UTF-8\n")

    def test_line_numbers_count_only_newlines(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("# a\u2028b = 1\x85c = 2\nno equals sign here\n")
        assert err.value.key == "line 2"

    def test_config_key_set_twice_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "twice.cfg"
        path.write_text("ticker = SYN\nhorizon = 5\nticker = ABC\n")
        assert cli.dispatch(["describe", "--config", str(path)]) == 1
        assert capsys.readouterr().err == ("error: config error at 'ticker': "
                                           "set on line 1 and again on line 3\n")

    def test_env_override_not_utf8_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # os.environ hands an undecodable byte over as a lone surrogate
        monkeypatch.setenv("HLOBLAB_YEAR", "19\udcff70")
        assert cli.dispatch(["describe", "--config", str(write_config(tmp_path))]) == 1
        assert capsys.readouterr().err == ("error: config error at 'HLOBLAB_YEAR': "
                                           "value is not valid UTF-8\n")

    @pytest.mark.parametrize("first, second, key", [
        ("HLOBLAB_SEED", "HLOBLAB_seed", "seed"),
        ("HLOBLAB_TRAIN__LR", "HLOBLAB_train.lr", "train.lr"),
    ])
    @pytest.mark.parametrize("values", [("5", "9"), ("9", "5")])
    def test_two_overrides_of_one_key_are_one_error_line(self, tmp_path, capsys,
                                                          monkeypatch, first, second,
                                                          key, values):
        for name, value in zip((first, second), values):
            monkeypatch.setenv(name, value)
        assert cli.dispatch(["describe", "--config", str(write_config(tmp_path))]) == 1
        assert capsys.readouterr().err == (f"error: config error at '{key}': "
                                           f"set by both {first} and {second}\n")

    @pytest.mark.parametrize("env, line, where", [
        ({"HLOBLAB_HORIZN": "5"}, "", "HLOBLAB_HORIZN"),
        ({}, "horizn = 5\n", "horizn"),
    ])
    def test_unknown_key_names_what_the_user_wrote(self, tmp_path, capsys, monkeypatch,
                                                   env, line, where):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        path = write_config(tmp_path)
        path.write_text(path.read_text() + line)
        assert cli.dispatch(["describe", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: config error at '{where}': unknown key\n"

    def test_config_error_is_user_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("unknown_key = 1\n")
        assert cli.dispatch(["synth", "--config", str(path)]) == 1

    @pytest.mark.parametrize("key, value", [
        ("tick_size", "0"), ("tick_size", "-0.01"), ("tick_size", "0.00001"),
        ("tick_size", "nan"), ("tick_size", "inf"), ("lot_size", "0"),
        ("synth.regime", "weird"), ("synth.n_events", "0"),
    ])
    def test_bad_value_is_config_error(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, **{key: value})
        assert cli.dispatch(["synth", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config error at '{key}': ")
        assert err.count("\n") == 1

    def test_bad_tick_size_fails_every_stage_typed(self, tmp_path, capsys):
        good = str(write_config(tmp_path))
        assert cli.dispatch(["synth", "--config", good]) == 0
        bad = str(write_config(tmp_path, tick_size="0"))
        capsys.readouterr()
        assert cli.dispatch(["ingest", "--config", bad]) == 1
        assert capsys.readouterr().err.startswith("error: config error at 'tick_size': ")

    @pytest.mark.parametrize("where", ["stage", "pooled job"])
    def test_out_of_memory_is_one_line(self, tmp_path, monkeypatch, capfd, where):
        cfg_path = str(write_config(tmp_path))
        assert cli.dispatch(["synth", "--config", cfg_path]) == 0

        def refused(*args):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        if where == "stage":
            monkeypatch.setattr(pipeline, "run_ingest", refused)
        else:   # raised in a worker, re-raised in the parent
            force_ingest_pool(monkeypatch)
            monkeypatch.setattr(pipeline, "_ingest_day", refused)
        capfd.readouterr()
        assert cli.dispatch(["ingest", "--config", cfg_path]) == 2
        assert capfd.readouterr() == (
            "", "error: out of memory: Unable to allocate 7.28 TiB for an array\n")
        assert multiprocessing.active_children() == []

    def test_internal_error_exit_code(self, tmp_path, capsys):
        # mi without cleaned inputs surfaces as a config error (user error);
        # a tampered digest is an internal error (exit 2), covered below
        path = write_config(tmp_path, **{"split.train": ""})
        assert cli.dispatch(["mi", "--config", str(path)]) == 1


class TestIngestInputErrors:
    def _synth(self, tmp_path):
        cfg_path = str(write_config(tmp_path, **{"synth.n_events": "200"}))
        assert cli.dispatch(["synth", "--config", cfg_path]) == 0
        return cfg_path, pipeline.day_paths(tmp_path / "data", "SYN", DAYS[3])

    def test_bad_bid_ladder_is_user_error(self, tmp_path, capsys):
        cfg_path, (_, ob_path) = self._synth(tmp_path)
        rows = ob_path.read_text().splitlines()
        fields = rows[100].split(",")   # mid-day, inside the trimmed window
        fields[4 + lob.BID_P] = fields[lob.BID_P]   # bid level 2 = level 1
        rows[100] = ",".join(fields)
        ob_path.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        assert cli.dispatch(["ingest", "--config", cfg_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid book on 1970-01-04 at snapshot ")
        assert err.rstrip().endswith("bid prices not strictly decreasing")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("stream", ["message", "orderbook"])
    def test_byte_that_is_not_utf8_is_a_malformed_row(self, tmp_path, capsys, stream):
        cfg_path, (msg_path, ob_path) = self._synth(tmp_path)
        if stream == "message":
            # after the last line: one past the file's line count
            raw = msg_path.read_bytes()
            msg_path.write_bytes(raw + b"\xff")
            path, line = msg_path, raw.count(b"\n") + 1
        else:
            rows = ob_path.read_bytes().split(b"\n")
            rows[41] = rows[41].replace(b",", b",\xff", 1)
            ob_path.write_bytes(b"\n".join(rows))
            path, line = ob_path, 42
        capsys.readouterr()
        assert cli.dispatch(["ingest", "--config", cfg_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed row at line {line}: "
                              "byte 0xff is not valid UTF-8 ")
        assert err.rstrip().endswith(f"(day {DAYS[3]}, file {path})")
        assert err.count("\n") == 1

    def test_malformed_row_is_user_error(self, tmp_path, capsys):
        cfg_path, (msg_path, _) = self._synth(tmp_path)
        rows = msg_path.read_text().splitlines()
        rows[6] = rows[6].replace(",", ",1_000,", 1)
        msg_path.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        assert cli.dispatch(["ingest", "--config", cfg_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed row at line 7: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("stream", ["message", "orderbook"])
    def test_malformed_row_names_day_and_file(self, tmp_path, capsys, stream):
        cfg_path, (msg_path, ob_path) = self._synth(tmp_path)
        path = msg_path if stream == "message" else ob_path
        rows = path.read_text().splitlines()
        rows[41] = rows[41].replace(",", ",1_000,", 1)
        path.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        assert cli.dispatch(["ingest", "--config", cfg_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed row at line 42: ")
        assert err.rstrip().endswith(f"(day {DAYS[3]}, file {path})")
        assert err.count("\n") == 1


def force_ingest_pool(monkeypatch):
    """Make ingest run its days on a pool of 2 workers, whatever their size."""
    monkeypatch.setattr(engine, "cpu_count", lambda: 2)
    monkeypatch.setattr(pipeline, "MIN_POOLED_DAY_BYTES", 0)


def edit_row(path, line, edit):
    """Replace 1-based ``line`` of a CSV with ``edit(fields)``."""
    rows = path.read_text().splitlines()
    fields = rows[line - 1].split(",")
    edit(fields)
    rows[line - 1] = ",".join(fields)
    path.write_text("\n".join(rows) + "\n")


def cross_book(fields):   # best ask at the best bid
    fields[lob.ASK_P] = fields[lob.BID_P]


def flat_bid_ladder(fields):   # bid level 2 at level 1: an invalid book
    fields[4 + lob.BID_P] = fields[lob.BID_P]


def malformed(fields):
    fields[1] = "1_000"


def edit_field(stream, line, col, text):
    """A raw-day edit: field ``col`` of 1-based ``line`` becomes ``text(field)``."""
    def edit(msg_path, ob_path):
        def change(fields):
            fields[col] = text(fields[col])
        edit_row(ob_path if stream == "orderbook" else msg_path, line, change)
    return edit


def edit_bytes(change):
    """A raw-day edit: both files' bytes become ``change(bytes)``."""
    def edit(msg_path, ob_path):
        for path in (msg_path, ob_path):
            path.write_bytes(change(path.read_bytes()))
    return edit


def short_time(msg_path, ob_path):
    """Line 1 as ``36100.0,000000001,...``: as long as its canonical line."""
    def change(fields):
        assert fields[:2] == ["36100.000000000", "1"]
        fields[:2] = ["36100.0", "000000001"]
    edit_row(msg_path, 1, change)


def int64_extremes(msg_path, ob_path):
    edit_field("message", 60, 2, lambda _: str(2**63 - 1))(msg_path, ob_path)
    edit_field("message", 61, 2, lambda _: str(-2**63))(msg_path, ob_path)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the ingest pool needs the fork start method")
class TestPooledIngest:
    """Ingest on a forked pool writes, logs and fails as it does inline."""

    # one crossed row inside the trimmed window of each of these days
    CROSSED = ((DAYS[1], 101), (DAYS[4], 120), (DAYS[8], 90))

    @staticmethod
    def _synth(tmp_path):
        cfg_path = str(write_config(tmp_path, **{"synth.n_events": "200"}))
        assert cli.dispatch(["synth", "--config", cfg_path]) == 0
        data_dir = tmp_path / "data"
        for day, line in TestPooledIngest.CROSSED:
            edit_row(pipeline.day_paths(data_dir, "SYN", day)[1], line, cross_book)
        return cfg_path, data_dir

    @staticmethod
    def _ingest(cfg_path, caplog, capsys):
        """The workers line, exit code, stderr and other log records of one
        ingest, and the files in its cleaned directory."""
        caplog.clear()
        capsys.readouterr()
        with caplog.at_level(logging.INFO, logger="hloblab"):
            code = cli.dispatch(["ingest", "--config", cfg_path])
        assert multiprocessing.active_children() == []
        records = [(r.levelname, r.name, r.getMessage()) for r in caplog.records]
        workers = [r[2] for r in records if r[2].startswith("ingest workers: ")]
        clean_dir = Path(RunConfig.load(cfg_path)["out_dir"]) / "cleaned"
        files = {p.name: p.read_bytes() for p in clean_dir.iterdir()}
        return (workers, code, capsys.readouterr().err,
                [r for r in records if r[2] not in workers], files)

    @staticmethod
    def _crossed(*lines):
        """The records of days that each have one crossed row, at ``lines``."""
        return [("WARNING", "hloblab.pipeline", f"crossed book at line {line} (1 crossed rows)")
                for line in lines]

    def test_cleaned_days_equal_inline(self, tmp_path, monkeypatch, caplog, capsys):
        cfg_path, _ = self._synth(tmp_path)
        inline = self._ingest(cfg_path, caplog, capsys)
        pooled_cfg = str(write_config(tmp_path, **{"synth.n_events": "200",
                                                   "out_dir": tmp_path / "pooled"}))
        force_ingest_pool(monkeypatch)
        pooled = self._ingest(pooled_cfg, caplog, capsys)
        workers, code, err, records, files = inline
        assert workers == [f"ingest workers: 1 ({engine.cpu_count()} CPUs, 9 days)"]
        assert pooled[0] == ["ingest workers: 2 (2 CPUs, 9 days)"]
        assert code == 0 and err == "" and len(files) == 3 * len(DAYS)
        assert records == self._crossed(*(line for _, line in self.CROSSED))
        assert pooled[1:] == inline[1:]

    def test_one_report_per_crossed_day(self, tmp_path, monkeypatch, caplog, capsys):
        # line 1 (10:01:40) falls before the window trimmed to start at
        # 10:02:30; lines 50, 120 and 121 fall inside it
        overrides = {"synth.n_events": "200", "trim_start_s": "1950"}
        cfg_path = str(write_config(tmp_path, **overrides))
        assert cli.dispatch(["synth", "--config", cfg_path]) == 0
        ob_path = pipeline.day_paths(tmp_path / "data", "SYN", DAYS[2])[1]
        for line in (1, 50, 120, 121):
            edit_row(ob_path, line, cross_book)
        inline = self._ingest(cfg_path, caplog, capsys)
        force_ingest_pool(monkeypatch)
        pooled = self._ingest(str(write_config(tmp_path, **overrides,
                                               out_dir=tmp_path / "pooled")), caplog, capsys)
        assert pooled[0] == ["ingest workers: 2 (2 CPUs, 9 days)"]
        assert inline[1:4] == (0, "", [("WARNING", "hloblab.pipeline",
                                        "crossed book at line 1 (4 crossed rows)")])
        assert pooled[1:] == inline[1:]
        cleaned = inline[4][pipeline.day_paths(".", "SYN", DAYS[2])[1].name]
        assert cleaned.count(b"\n") == 200 - 4

    def test_ingest_logs_its_workers(self, tmp_path, monkeypatch, caplog):
        cfg_path = str(write_config(tmp_path))
        assert cli.dispatch(["synth", "--config", cfg_path]) == 0
        # the 80-event days fall under the size gate, so they run inline
        for workers, cpus in ((1, engine.cpu_count()), (2, 2)):
            if workers == 2:
                force_ingest_pool(monkeypatch)
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="hloblab"):
                assert cli.dispatch(["-v", "ingest", "--config", cfg_path]) == 0
            expect = f"ingest workers: {workers} ({cpus} CPUs, {len(DAYS)} days)"
            assert [r.getMessage() for r in caplog.records].count(expect) == 1
            assert multiprocessing.active_children() == []

    def test_failed_ingest_keeps_cleaned_days(self, tmp_path, monkeypatch):
        # an error that is no HloblabError comes back from its worker too
        force_ingest_pool(monkeypatch)
        TestAtomicWrites().test_failed_ingest_keeps_cleaned_days(tmp_path, monkeypatch)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("edit", [
        short_time,
        edit_field("orderbook", 50, lob.ASK_V, lambda f: "0" + f),
        edit_field("orderbook", 50, lob.ASK_V, lambda f: "+" + f),
        edit_field("message", 50, 3, lambda f: f" {f} "),
        edit_bytes(lambda raw: raw.replace(b"\n", b"\r\n")),
        edit_bytes(lambda raw: raw[:-1]),
        int64_extremes,
    ], ids=["short-time", "leading-zero", "plus-sign", "spaces", "crlf",
            "no-final-newline", "int64-extremes"])
    def test_cleaned_csvs_are_the_formatted_rows(self, tmp_path, monkeypatch, caplog,
                                                  capsys, edit):
        # whether ingest writes a day's kept source lines or formats its rows,
        # the bytes are those the formatters write for the cleaned day
        cfg_path, data_dir = self._synth(tmp_path)
        edit(*pipeline.day_paths(data_dir, "SYN", DAYS[4]))
        cfg = RunConfig.load(cfg_path)
        want = {}
        for day in DAYS:
            series = lob.clean_session(
                pipeline._read_day(data_dir, pipeline.meta_from_config(cfg), day),
                cfg["trim_start_s"], cfg["trim_end_s"])
            assert series.source_rows is None
            for path, rows in zip(pipeline.day_paths(data_dir, "SYN", day)[::-1],
                                  lob.serialize_lobster_pair(series)):
                want[path.name] = pipeline._csv_bytes(rows)
        inline = self._ingest(cfg_path, caplog, capsys)
        force_ingest_pool(monkeypatch)
        pooled = self._ingest(str(write_config(tmp_path, **{
            "synth.n_events": "200", "out_dir": tmp_path / "pooled"})), caplog, capsys)
        assert pooled[0] == ["ingest workers: 2 (2 CPUs, 9 days)"]
        assert inline[1:3] == (0, "")
        assert pooled[1:] == inline[1:]
        assert {name: inline[4][name] for name in want} == want

    def test_row_count_mismatch_names_day_and_files(self, tmp_path, monkeypatch,
                                                    caplog, capsys):
        cfg_path, data_dir = self._synth(tmp_path)
        msg_path, ob_path = pipeline.day_paths(data_dir, "SYN", DAYS[3])
        msg_path.write_text("".join(msg_path.read_text().splitlines(True)[:-1]))
        inline = self._ingest(cfg_path, caplog, capsys)
        force_ingest_pool(monkeypatch)
        pooled = self._ingest(cfg_path, caplog, capsys)
        assert pooled[0] == ["ingest workers: 2 (2 CPUs, 9 days)"]
        assert inline[1:3] == (1, "error: 200 orderbook rows vs 199 message rows "
                                  f"(day {DAYS[3]}, files {ob_path}, {msg_path})\n")
        assert pooled[1:4] == inline[1:4]

    @pytest.mark.parametrize("key, value", [
        ("tick_size", "nan"), ("trim_start_s", "-1"), ("trim_end_s", "inf"),
        ("days", ",".join(DAYS + DAYS[:1])),
    ])
    def test_bad_key_stops_before_any_worker(self, tmp_path, monkeypatch, capsys,
                                             key, value):
        self._synth(tmp_path)
        force_ingest_pool(monkeypatch)
        started = []
        monkeypatch.setattr(forkpool, "fork_pool", lambda *args: started.append(args))
        bad = str(write_config(tmp_path, **{"synth.n_events": "200", key: value}))
        capsys.readouterr()
        assert cli.dispatch(["ingest", "--config", bad]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config error at '{key}': ") and err.count("\n") == 1
        assert started == []

    @pytest.mark.parametrize("first, later", [(malformed, flat_bid_ladder),
                                              (flat_bid_ladder, malformed)],
                             ids=["malformed-row", "invalid-book"])
    def test_first_failing_day_in_config_order(self, tmp_path, monkeypatch, caplog,
                                               capsys, first, later):
        cfg_path, data_dir = self._synth(tmp_path)
        msg_3, ob_3 = pipeline.day_paths(data_dir, "SYN", DAYS[3])
        msg_6, ob_6 = pipeline.day_paths(data_dir, "SYN", DAYS[6])
        edit_row(ob_3 if first is flat_bid_ladder else msg_3, 100, first)
        edit_row(ob_3, 110, cross_book)
        edit_row(ob_6 if later is flat_bid_ladder else msg_6, 100, later)
        inline = self._ingest(cfg_path, caplog, capsys)
        force_ingest_pool(monkeypatch)
        pooled = self._ingest(cfg_path, caplog, capsys)
        _, code, err, records, _ = inline
        assert pooled[0] == ["ingest workers: 2 (2 CPUs, 9 days)"]
        assert code == 1 and err.count("\n") == 1
        # the failing day logs only its error, whether its parse or its
        # validation fails
        if first is malformed:
            assert err.startswith("error: malformed row at line 100: ")
        else:
            assert err.startswith(f"error: invalid book on {DAYS[3]} at snapshot ")
        assert records == self._crossed(101)
        assert pooled[1:4] == inline[1:4]

    @pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                           "\x85", "\u2028", "\u2029"])
    def test_line_separator_inside_a_row_is_a_malformed_row(
            self, tmp_path, monkeypatch, caplog, capsys, separator):
        # only "\n" ends a line, so a separator that str.splitlines breaks
        # at is a character in line 3's price field, not a 201st row
        cfg_path, data_dir = self._synth(tmp_path)
        msg_path, _ = pipeline.day_paths(data_dir, "SYN", DAYS[3])
        rows = msg_path.read_bytes().split(b"\n")
        fields = rows[2].split(b",")
        assert len(fields[4]) >= 2
        fields[4] = fields[4][:1] + separator.encode() + fields[4][1:]
        rows[2] = b",".join(fields)
        msg_path.write_bytes(b"\n".join(rows))
        inline = self._ingest(cfg_path, caplog, capsys)
        force_ingest_pool(monkeypatch)
        pooled = self._ingest(cfg_path, caplog, capsys)
        _, code, err, _, _ = inline
        assert pooled[0] == ["ingest workers: 2 (2 CPUs, 9 days)"]
        assert code == 1 and err.count("\n") == 1
        assert err.startswith("error: malformed row at line 3: message field ")
        assert err.rstrip().endswith(f"(day {DAYS[3]}, file {msg_path})")
        assert pooled[1:4] == inline[1:4]


def force_mi_pool(monkeypatch):
    """Make mi run a day's replicates on a pool of up to 2 workers, whatever
    their work; returns the worker count of each pool started."""
    monkeypatch.setattr(engine, "cpu_count", lambda: 2)
    monkeypatch.setattr(infonet, "MIN_POOLED_MI_WORK", 0)
    started = []
    fork_pool = forkpool.fork_pool

    def counted(workers, *args, **kwargs):
        started.append(workers)
        return fork_pool(workers, *args, **kwargs)

    monkeypatch.setattr(forkpool, "fork_pool", counted)
    return started


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the MI pool needs the fork start method")
class TestPooledMi:
    """A day's bootstrap replicates on a forked pool give the inline bytes and errors."""

    @pytest.mark.parametrize("n_bootstrap", [1, 3, 5, 10, 11])
    def test_daily_matrix_equals_inline(self, monkeypatch, n_bootstrap):
        rng = np.random.default_rng(n_bootstrap)
        binned = rng.integers(0, 8, size=(150, 20))
        inline = infonet.daily_mi_matrix(binned, n_bootstrap, rng_seed=5)
        started = force_mi_pool(monkeypatch)
        pooled = infonet.daily_mi_matrix(binned, n_bootstrap, rng_seed=5)
        # a worker runs two replicates or more: 1 or 3 replicates run inline
        assert started == ([] if n_bootstrap < 4 else [2])
        assert pooled.tobytes() == inline.tobytes()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("n_bootstrap", [1, 3, 5, 10, 11])
    def test_mi_files_equal_inline(self, tmp_path, monkeypatch, caplog, n_bootstrap):
        cfg_path = str(write_config(tmp_path, bootstrap=n_bootstrap))
        outputs = []
        for pooled in (False, True):
            for verb in ("synth", "ingest"):
                assert cli.dispatch([verb, "--config", cfg_path]) == 0
            started = force_mi_pool(monkeypatch) if pooled else []
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="hloblab"):
                assert cli.dispatch(["-v", "mi", "--config", cfg_path]) == 0
            assert multiprocessing.active_children() == []
            workers = [r.getMessage() for r in caplog.records
                       if r.getMessage().startswith("mi workers: ")]
            outputs.append((workers, started, {
                name: (tmp_path / "out" / name).read_bytes()
                for name in ("mi_avg.json", "mi_avg.csv")}))
        (inline_log, _, inline), (pooled_log, started, pooled) = outputs
        n = 1 if n_bootstrap < 4 else 2
        assert inline_log == [f"mi workers: 1 ({engine.cpu_count()} CPUs, "
                              f"{n_bootstrap} replicates)"]
        assert pooled_log == [f"mi workers: {n} (2 CPUs, {n_bootstrap} replicates)"]
        assert started == ([] if n == 1 else [2, 2])   # one pool per training day
        assert pooled == inline

    def test_replicate_error_reaches_the_caller(self, tmp_path, monkeypatch, capsys):
        cfg_path = str(write_config(tmp_path, bootstrap=4))
        for verb in ("synth", "ingest"):
            assert cli.dispatch([verb, "--config", cfg_path]) == 0
        replicate = infonet._mi_of_columns

        def failing(cols):
            if cols[0, 0] % 2:   # some replicates only, whichever worker runs them
                raise LengthMismatch(f"replicate failed at {cols.shape}")
            return replicate(cols)

        monkeypatch.setattr(infonet, "_mi_of_columns", failing)
        rng = np.random.default_rng(0)
        binned = rng.integers(0, 8, size=(150, 20))
        results = []
        for pooled in (False, True):
            started = force_mi_pool(monkeypatch) if pooled else []
            with pytest.raises(LengthMismatch, match=r"replicate failed at \(20, 150\)"):
                infonet.daily_mi_matrix(binned, 10, rng_seed=1)
            capsys.readouterr()
            code = cli.dispatch(["mi", "--config", cfg_path])
            results.append((code, capsys.readouterr().err))
            assert started == ([2, 2] if pooled else [])
            assert multiprocessing.active_children() == []
        assert results[1] == results[0]
        code, err = results[0]
        assert code == 2 and err.startswith("error: replicate failed at (20, ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out" / "mi_avg.json").exists()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the pool needs the fork start method")
class TestRunJobs:
    """``forkpool.run_jobs`` gives the inline results and error on a pool, and
    joins its workers however its iterator ends."""

    def test_results_in_job_order_and_the_first_error(self):
        # neither local functions nor lambdas pickle: the pool's function
        # and jobs reach the workers only through the fork
        jobs = [(i, lambda i=i: i * i) for i in range(7)]

        def square(job):
            return job[0], job[1]()

        for workers in (1, 2):
            assert list(forkpool.run_jobs(square, iter(jobs), workers, str)) == [
                (i, i * i) for i in range(7)]

        def fail_2_and_4(job):
            if job in (2, 4):
                raise ValueError(f"job {job} failed")
            return job

        for workers in (1, 2):
            with pytest.raises(ValueError, match="^job 2 failed$") as err:
                list(forkpool.run_jobs(fail_2_and_4, range(6), workers, str))
            if workers == 2:
                # the worker's traceback, as the cause
                assert "in fail_2_and_4" in str(err.value.__cause__)
            assert forkpool._work is None
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("how", ["stopped", "raised"])
    def test_abandoned_iterator_joins_its_workers(self, how):
        if how == "stopped":
            results = forkpool.run_jobs(lambda job: job, range(6), 2, str)
            assert next(results) == 0
            del results     # the pool goes with the iterator
        else:
            with pytest.raises(KeyError, match="^0$"):
                for job in forkpool.run_jobs(lambda job: job, range(6), 2, str):
                    raise KeyError(job)
        assert multiprocessing.active_children() == []
        assert forkpool._work is None


def die(how):
    if how == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)
    os._exit(3)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the pool needs the fork start method")
class TestLostWorker:
    """A pool worker that dies, as the out-of-memory killer ends one, ends
    the stage with exit 2 and one error line naming the first lost job."""

    @pytest.mark.parametrize("how", ["sigkill", "exit-3"])
    @pytest.mark.parametrize("which", ["first", "middle", "last"])
    @pytest.mark.parametrize("stage", ["ingest", "mi"])
    def test_one_error_line_and_every_worker_joined(self, tmp_path, monkeypatch, capfd,
                                                    stage, which, how):
        cfg_path = str(write_config(tmp_path, bootstrap=4))
        assert cli.dispatch(["synth", "--config", cfg_path]) == 0
        if stage == "ingest":
            force_ingest_pool(monkeypatch)
        else:
            assert cli.dispatch(["ingest", "--config", cfg_path]) == 0
            force_mi_pool(monkeypatch)
        done = tmp_path / "done"
        done.mkdir()
        run_jobs = forkpool.run_jobs

        def dying(fn, jobs, workers, name):
            jobs = list(jobs)
            k = {"first": 0, "middle": len(jobs) // 2, "last": len(jobs) - 1}[which]

            def job_or_death(job):
                i = next(i for i, j in enumerate(jobs) if j is job)
                if i != k:
                    result = fn(job)
                    (done / str(i)).touch()
                    return result
                # the jobs before k return first, so k's result is the first lost
                deadline = time.monotonic() + 60
                while (not all((done / str(j)).exists() for j in range(k))
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                time.sleep(0.2)
                die(how)

            return run_jobs(job_or_death, jobs, workers, name)

        monkeypatch.setattr(forkpool, "run_jobs", dying)
        capfd.readouterr()
        code = cli.dispatch([stage, "--config", cfg_path])
        out, err = capfd.readouterr()
        assert multiprocessing.active_children() == []
        # job k of 9 days or of 4 replicates, on the first training day's pool
        i = ["first", "middle", "last"].index(which)
        lost = (f"the ingest of day {DAYS[(0, 4, 8)[i]]}" if stage == "ingest" else
                f"MI bootstrap replicate {(1, 3, 4)[i]} of 4 of day {DAYS[5]}")
        assert (code, out, err) == (2, "", f"error: a pool worker died: {lost} "
                                           "returned no result\n")
        assert forkpool._work is None
        if stage == "mi":
            assert not (tmp_path / "out" / "mi_avg.json").exists()

    def test_a_terminated_sibling_leaves_no_temporary_file(self, tmp_path, monkeypatch,
                                                          capfd):
        cfg_path = str(write_config(tmp_path))
        ref = tmp_path / "ref"
        ref.mkdir()
        ref_cfg = str(write_config(ref, data_dir=tmp_path / "data"))
        for verb, path in (("synth", cfg_path), ("ingest", ref_cfg)):
            assert cli.dispatch([verb, "--config", path]) == 0
        force_ingest_pool(monkeypatch)
        held = tmp_path / "held"
        write_atomic = pipeline.write_atomic

        def wait_for(path):
            deadline = time.monotonic() + 60
            while not path.exists() and time.monotonic() < deadline:
                time.sleep(0.01)

        def held_or_dying(path, data):
            # the first day's worker stops with write_atomic's temporary file
            # written, and the second day's worker dies once it has
            if DAYS[0] in path.name:
                path.with_name(TEMP_NAME.format(path.name, os.getpid())).write_bytes(data)
                held.touch()
                wait_for(tmp_path / "never")    # the broken pool terminates it
            elif DAYS[1] in path.name:
                wait_for(held)
                die("sigkill")
            write_atomic(path, data)

        monkeypatch.setattr(pipeline, "write_atomic", held_or_dying)
        capfd.readouterr()
        code = cli.dispatch(["ingest", "--config", cfg_path])
        assert held.exists()
        assert (code, *capfd.readouterr()) == (
            2, "", f"error: a pool worker died: the ingest of day {DAYS[0]} "
                   "returned no result\n")
        assert multiprocessing.active_children() == []
        assert list((tmp_path / "out").rglob(".*.tmp")) == []
        monkeypatch.undo()
        assert cli.dispatch(["ingest", "--config", cfg_path]) == 0

        def files(out_dir):
            return {p.name: p.read_bytes() for p in (out_dir / "cleaned").iterdir()}

        assert files(tmp_path / "out") == files(ref / "out")


class TestBadValuesAtUse:
    """Keys checked by the stage that reads them exit 1 naming the key."""

    @staticmethod
    def _ingested(tmp_path):
        cfg_path = str(write_config(tmp_path))
        for verb in ("synth", "ingest"):
            assert cli.dispatch([verb, "--config", cfg_path]) == 0
        return cfg_path

    @staticmethod
    def _one_config_error(capsys, key):
        err = capsys.readouterr().err
        assert err.startswith(f"error: config error at '{key}': ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("key, value", [
        ("n_bins", "1"), ("n_bins", "0"), ("bootstrap", "0"), ("bootstrap", "-2"),
    ])
    def test_mi(self, tmp_path, capsys, key, value):
        self._ingested(tmp_path)
        bad = str(write_config(tmp_path, **{key: value}))
        capsys.readouterr()
        assert cli.dispatch(["mi", "--config", bad]) == 1
        self._one_config_error(capsys, key)

    @pytest.mark.parametrize("key, value", [
        ("horizon", "0"), ("horizon", "-3"), ("window_len", "0"), ("window_len", "-1"),
    ])
    def test_windows(self, tmp_path, capsys, key, value):
        self._ingested(tmp_path)
        bad = str(write_config(tmp_path, **{key: value}))
        for verb in ("mi", "tmfg"):
            assert cli.dispatch([verb, "--config", bad]) == 0
        capsys.readouterr()
        assert cli.dispatch(["train", "--config", bad]) == 1
        self._one_config_error(capsys, key)
        with pytest.raises(ConfigError) as err:
            pipeline.windows_for_day(RunConfig.load(bad), DAYS[7])
        assert err.value.key == key

    def test_day_not_longer_than_horizon(self, tmp_path, capsys):
        cfg_path = str(write_config(tmp_path, horizon=500, window_len=20,
                                    **{"synth.n_events": "220"}))
        for verb in ("synth", "ingest", "mi", "tmfg"):
            assert cli.dispatch([verb, "--config", cfg_path]) == 0
        capsys.readouterr()
        assert cli.dispatch(["train", "--config", cfg_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config error at 'horizon': day {DAYS[5]} has ")
        assert err.endswith(" events, not more than 500\n") and err.count("\n") == 1

    def test_window_len_longer_than_every_day(self, tmp_path, capsys):
        cfg_path = str(write_config(tmp_path, window_len=5000,
                                    **{"synth.n_events": "220"}))
        for verb in ("synth", "ingest", "mi", "tmfg"):
            assert cli.dispatch([verb, "--config", cfg_path]) == 0
        capsys.readouterr()
        assert cli.dispatch(["train", "--config", cfg_path]) == 1
        assert capsys.readouterr().err == (
            "error: config error at 'window_len': no day of split.train has a "
            "labelled window of 5000 events\n")

    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_batch_size(self, tmp_path, capsys, value):
        self._ingested(tmp_path)
        bad = str(write_config(tmp_path, **{"train.batch_size": value}))
        for verb in ("mi", "tmfg"):
            assert cli.dispatch([verb, "--config", bad]) == 0
        capsys.readouterr()
        assert cli.dispatch(["train", "--config", bad]) == 1
        self._one_config_error(capsys, "train.batch_size")


class TestAtomicWrites:
    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "artifact.json"
        path.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            pipeline.write_atomic(path, "new \ud800\n")   # fails while writing
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]

    def test_writes_text_and_bytes(self, tmp_path):
        path = tmp_path / "artifact.bin"
        pipeline.write_atomic(path, "caf\u00e9\n")
        assert path.read_bytes() == "caf\u00e9\n".encode()
        pipeline.write_atomic(path, b"\x00\xff")
        assert path.read_bytes() == b"\x00\xff"
        pipeline.write_atomic(path, np.arange(3, dtype="<i2"))   # any buffer
        assert path.read_bytes() == b"\x00\x00\x01\x00\x02\x00"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.bin"]

    def test_failed_ingest_keeps_cleaned_days(self, tmp_path, monkeypatch):
        cfg_path = str(write_config(tmp_path))
        assert cli.dispatch(["synth", "--config", cfg_path]) == 0
        assert cli.dispatch(["ingest", "--config", cfg_path]) == 0
        clean_dir = tmp_path / "out" / "cleaned"
        before = {p.name: p.read_bytes() for p in clean_dir.iterdir()}

        serialize = lob.serialize_lobster_pair

        def unwritable(series):
            ob_rows, msg_rows = serialize(series)
            return ob_rows, msg_rows[:-1] + ["\ud800"]

        monkeypatch.setattr(lob, "serialize_lobster_pair", unwritable)
        with pytest.raises(UnicodeEncodeError):
            pipeline.run_ingest(RunConfig.load(cfg_path))
        assert {p.name: p.read_bytes() for p in clean_dir.iterdir()} == before

    def test_stages_leave_only_their_artifacts(self, tmp_path):
        cfg_path = str(write_config(tmp_path))
        for verb in ("synth", "ingest", "mi", "tmfg"):
            assert cli.dispatch([verb, "--config", cfg_path]) == 0
        out_dir = tmp_path / "out"
        found = sorted(str(p.relative_to(out_dir))
                       for p in out_dir.rglob("*") if p.is_file())
        days = sorted(f"cleaned/{p.name}" for d in DAYS
                      for p in pipeline.day_paths(out_dir / "cleaned", "SYN", d))
        caches = [f"cleaned/SYN_{d}_{csv_sha256(out_dir / 'cleaned', d)}.npy"
                  for d in DAYS]
        assert found == sorted(days + caches +
                               ["mi_avg.csv", "mi_avg.json", "simplices.json"])


class TestCleanedDayCache:
    """Each cleaned day's .npy is a verified cache of its two CSVs."""

    def _ingested(self, tmp_path, **overrides):
        cfg_path = str(write_config(tmp_path, **overrides))
        for verb in ("synth", "ingest"):
            assert cli.dispatch([verb, "--config", cfg_path]) == 0
        return RunConfig.load(cfg_path), tmp_path / "out" / "cleaned"

    @staticmethod
    def _parse(clean_dir, day):
        msg_path, ob_path = pipeline.day_paths(clean_dir, "SYN", day)
        return lob.parse_lobster_pair(ob_path.read_text().splitlines(),
                                      msg_path.read_text().splitlines(),
                                      lob.StockMeta("SYN"), day=day)

    @staticmethod
    def _count_parses(monkeypatch):
        calls = []
        parse = lob.parse_lobster_pair

        def counted(*args, **kwargs):
            calls.append(kwargs.get("day"))
            return parse(*args, **kwargs)

        monkeypatch.setattr(lob, "parse_lobster_pair", counted)
        return calls

    @staticmethod
    def _assert_same(got, want):
        assert got.day == want.day
        for name in ("timestamps", "book", "messages"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype == np.int64
            assert a.shape == b.shape
            np.testing.assert_array_equal(a, b)

    def test_hit_equals_parse(self, tmp_path, monkeypatch):
        cfg, clean_dir = self._ingested(tmp_path)
        calls = self._count_parses(monkeypatch)
        for day in DAYS:
            self._assert_same(pipeline._clean_day(cfg, day), self._parse(clean_dir, day))
        assert calls == DAYS   # only the reference parses above

    def test_later_stages_hold_no_source_lines(self, tmp_path):
        cfg, clean_dir = self._ingested(tmp_path)
        assert pipeline._clean_day(cfg, DAYS[0]).source_rows is None   # the .npy
        for path in clean_dir.glob("*.npy"):
            path.unlink()
        assert pipeline._clean_day(cfg, DAYS[0]).source_rows is None   # the parse

    def test_file_is_np_save_of_the_table(self, tmp_path):
        cfg, clean_dir = self._ingested(tmp_path)
        series = self._parse(clean_dir, DAYS[4])
        buf = io.BytesIO()
        np.save(buf, np.column_stack([series.timestamps, series.book, series.messages]))
        path = clean_dir / f"SYN_{DAYS[4]}_{csv_sha256(clean_dir, DAYS[4])}.npy"
        assert path.read_bytes() == buf.getvalue()

    def test_edited_csv_is_parsed(self, tmp_path, monkeypatch):
        cfg, clean_dir = self._ingested(tmp_path)
        _, ob_path = pipeline.day_paths(clean_dir, "SYN", DAYS[5])
        text = ob_path.read_text()
        at = text.index(",") + 1           # first digit of ask volume 1, row 1
        digit = "2" if text[at] == "1" else "1"
        ob_path.write_text(text[:at] + digit + text[at + 1:])
        calls = self._count_parses(monkeypatch)
        series = pipeline._clean_day(cfg, DAYS[5])
        assert calls == [DAYS[5]]
        assert str(series.book[0, lob.ASK_V]).startswith(digit)
        self._assert_same(series, self._parse(clean_dir, DAYS[5]))

    @pytest.mark.parametrize("garble", [
        pytest.param(lambda p: p.unlink(), id="missing"),
        pytest.param(lambda p: p.write_bytes(p.read_bytes()[:-8]), id="truncated"),
        pytest.param(lambda p: p.write_bytes(b"\x93NUMPX" + p.read_bytes()[6:]),
                     id="bad-magic"),
        pytest.param(lambda p: p.write_bytes(b"PK\x03\x04" + p.read_bytes()[4:]),
                     id="zip-magic"),
        pytest.param(lambda p: p.write_bytes(b""), id="empty"),
        pytest.param(lambda p: np.save(p, np.load(p).astype(np.float64)), id="float64"),
        pytest.param(lambda p: np.save(p, np.load(p).astype(">i8")), id="big-endian"),
        pytest.param(lambda p: np.save(p, np.load(p)[:, :-1]), id="45-columns"),
        pytest.param(lambda p: np.save(p, np.load(p)[:-1]), id="one-row-short"),
        pytest.param(lambda p: np.save(p, np.array([None]), allow_pickle=True),
                     id="pickled"),
    ])
    def test_missing_or_garbled_file_falls_back_to_parse(self, tmp_path, monkeypatch,
                                                          garble):
        cfg, clean_dir = self._ingested(tmp_path)
        path = clean_dir / f"SYN_{DAYS[6]}_{csv_sha256(clean_dir, DAYS[6])}.npy"
        garble(path)
        calls = self._count_parses(monkeypatch)
        series = pipeline._clean_day(cfg, DAYS[6])
        assert calls == [DAYS[6]]
        self._assert_same(series, self._parse(clean_dir, DAYS[6]))

    def test_ingest_removes_older_files_of_the_day(self, tmp_path):
        cfg, clean_dir = self._ingested(tmp_path)
        digest = csv_sha256(clean_dir, DAYS[2])
        stale = clean_dir / f"SYN_{DAYS[2]}_{'0' * 64}.npy"
        (clean_dir / f"SYN_{DAYS[2]}_{digest}.npy").rename(stale)
        other = clean_dir / f"SYN_{DAYS[2]}_notes.npy"   # not a digest: kept
        other.write_bytes(b"")
        assert pipeline.run_ingest(cfg) == DAYS
        names = sorted(p.name for p in clean_dir.glob(f"SYN_{DAYS[2]}_*.npy"))
        assert names == sorted([f"SYN_{DAYS[2]}_{digest}.npy", other.name])

    def test_later_stages_write_nothing_into_cleaned(self, tmp_path):
        cfg, clean_dir = self._ingested(
            tmp_path, **{"synth.n_events": "220", "train.max_epochs": "1",
                         "train.balanced_cap": "1", "window_len": "20"})

        def snapshot():
            return {p.name: (p.stat().st_mtime_ns, p.read_bytes())
                    for p in clean_dir.iterdir()}

        before = snapshot()
        assert len(before) == 3 * len(DAYS)
        cfg_path = str(tmp_path / "run.cfg")
        for verb in ("mi", "tmfg", "train", "eval"):
            assert cli.dispatch([verb, "--config", cfg_path]) == 0, verb
            assert snapshot() == before, verb

    @pytest.mark.parametrize("raw", [
        pytest.param(b"", id="empty"),
        pytest.param(b"1,2\n3,4", id="no-final-newline"),
        pytest.param(b"1,2\r\n3,4\r\n", id="crlf"),
        pytest.param(b"x" * ((1 << 20) - 1) + b"\ny\n", id="newline-ends-chunk"),
        pytest.param(b"x" * (1 << 20) + b"\n", id="newline-starts-chunk"),
    ])
    def test_file_sha256_counts_newline_bytes(self, tmp_path, raw):
        path = tmp_path / "day.csv"
        path.write_bytes(raw)
        assert pipeline._file_sha256(path) == (hashlib.sha256(raw).digest(),
                                               raw.count(b"\n"))


class TestPipelineStages:
    def test_synth_ingest_mi_tmfg(self, tmp_path, capsys, monkeypatch):
        cfg_path = str(write_config(tmp_path))

        assert cli.dispatch(["synth", "--config", cfg_path]) == 0
        for day in DAYS:
            msg, ob = pipeline.day_paths(tmp_path / "data", "SYN", day)
            assert msg.exists() and ob.exists()

        assert cli.dispatch(["ingest", "--config", cfg_path]) == 0
        for day in DAYS:
            msg, ob = pipeline.day_paths(tmp_path / "out" / "cleaned", "SYN", day)
            assert msg.exists() and ob.exists()

        assert cli.dispatch(["mi", "--config", cfg_path]) == 0
        assert (tmp_path / "out" / "mi_avg.json").exists()
        assert (tmp_path / "out" / "mi_avg.csv").exists()

        # tmfg prints the counts of the complex it built: it reads no file back
        monkeypatch.setattr(pipeline, "load_simplices",
                            lambda cfg: pytest.fail("tmfg read simplices.json back"))
        assert cli.dispatch(["tmfg", "--config", cfg_path]) == 0
        obj = json.loads((tmp_path / "out" / "simplices.json").read_text())
        assert len(obj["tetrahedra"]) == 17
        assert len(obj["triangles"]) == 52
        assert len(obj["edges"]) == 54
        assert obj["retained_weight"] > 0
        out = capsys.readouterr().out
        assert "(tetrahedra 17, triangles 52, edges 54)" in out

    def test_eval_report_holds_the_configs_ticker_year_and_horizon(self, tmp_path):
        cfg_path = str(write_config(tmp_path, **{
            "ticker": "ABC", "year": "2017", "horizon": "5", "synth.n_events": "220",
            "window_len": "20", "train.max_epochs": "1", "train.balanced_cap": "1"}))
        for verb in ("synth", "ingest", "mi", "tmfg", "train", "eval"):
            assert cli.dispatch([verb, "--config", cfg_path]) == 0, verb
        report = json.loads((tmp_path / "out" / "eval_report.json").read_text())
        assert (report["ticker"], report["year"], report["horizon"]) == ("ABC", "2017", 5)

    def test_train_and_eval_log_the_head_threads(self, tmp_path, caplog):
        cfg_path = str(write_config(tmp_path, **{
            "synth.n_events": "220", "window_len": "20", "train.max_epochs": "1",
            "train.balanced_cap": "1"}))
        for verb in ("synth", "ingest", "mi", "tmfg"):
            assert cli.dispatch([verb, "--config", cfg_path]) == 0, verb
        expect = f"head conv threads: {engine.HEAD_WORKERS} ({engine.CPUS} CPUs, at most 4)"
        # train runs its head convolutions on the pool, and eval its blocks
        # of windows
        for verb, times in (("train", 1), ("eval", 1)):
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="hloblab"):
                assert cli.dispatch(["-v", verb, "--config", cfg_path]) == 0, verb
            assert [r.getMessage() for r in caplog.records].count(expect) == times, verb

    def test_one_and_two_head_workers_write_the_same_artifacts(self, tmp_path, monkeypatch,
                                                               head_pool):
        cfg_path = str(write_config(tmp_path, **{
            "synth.n_events": "220", "window_len": "20", "train.max_epochs": "1",
            "train.balanced_cap": "1"}))
        for verb in ("synth", "ingest", "mi", "tmfg"):
            assert cli.dispatch([verb, "--config", cfg_path]) == 0, verb
        out_dir = tmp_path / "out"
        written = {}
        for workers in (1, 2):
            monkeypatch.setattr(engine, "HEAD_WORKERS", workers)
            assert cli.dispatch(["train", "--config", cfg_path]) == 0
            before = head_pool.blocks
            assert cli.dispatch(["eval", "--config", cfg_path]) == 0
            # 191 test windows: two blocks of 95 and 96, the second on the pool
            assert head_pool.blocks - before == workers - 1
            written[workers] = {name: (out_dir / name).read_bytes()
                                for name in ("model.ckpt", "history.json",
                                             "eval_report.json")}
        assert written[2] == written[1]

    def test_mi_logs_its_workers(self, tmp_path, monkeypatch, caplog):
        cfg_path = str(write_config(tmp_path, bootstrap=4))
        for verb in ("synth", "ingest"):
            assert cli.dispatch([verb, "--config", cfg_path]) == 0, verb
        out_dir = tmp_path / "out"
        before = {p.relative_to(out_dir) for p in out_dir.rglob("*")}
        # 4 replicates of 80-event days fall under the work gate: inline
        fork = "fork" in multiprocessing.get_all_start_methods()
        for forced in (False, True):
            if forced:
                force_mi_pool(monkeypatch)
            workers, cpus = (2 if forced and fork else 1), engine.cpu_count()
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="hloblab"):
                assert cli.dispatch(["-v", "mi", "--config", cfg_path]) == 0
            expect = f"mi workers: {workers} ({cpus} CPUs, 4 replicates)"
            assert [r.getMessage() for r in caplog.records].count(expect) == 1
            assert multiprocessing.active_children() == []
            after = {p.relative_to(out_dir) for p in out_dir.rglob("*")}
            assert after - before == {Path("mi_avg.json"), Path("mi_avg.csv")}

    def test_mi_deterministic(self, tmp_path):
        cfg_path = str(write_config(tmp_path))
        assert cli.dispatch(["synth", "--config", cfg_path]) == 0
        assert cli.dispatch(["ingest", "--config", cfg_path]) == 0
        assert cli.dispatch(["mi", "--config", cfg_path]) == 0
        first = (tmp_path / "out" / "mi_avg.json").read_bytes()
        assert cli.dispatch(["mi", "--config", cfg_path]) == 0
        assert (tmp_path / "out" / "mi_avg.json").read_bytes() == first

    def test_digest_tamper_detected(self, tmp_path, capsys):
        cfg_path = str(write_config(tmp_path))
        assert cli.dispatch(["synth", "--config", cfg_path]) == 0
        assert cli.dispatch(["ingest", "--config", cfg_path]) == 0
        assert cli.dispatch(["mi", "--config", cfg_path]) == 0
        tampered = str(write_config(tmp_path, seed="99"))
        assert cli.dispatch(["tmfg", "--config", tampered]) == 2
        assert "different config" in capsys.readouterr().err

    def test_missing_digest_detected(self, tmp_path, capsys):
        cfg_path = str(write_config(tmp_path))
        for verb in ("synth", "ingest", "mi", "tmfg"):
            assert cli.dispatch([verb, "--config", cfg_path]) == 0
        path = tmp_path / "out" / "simplices.json"
        obj = json.loads(path.read_text())
        del obj["config_digest"]
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert cli.dispatch(["train", "--config", cfg_path]) == 2
        assert "simplices.json" in capsys.readouterr().err

    def test_report_without_eval_is_user_error(self, tmp_path):
        cfg_path = str(write_config(tmp_path))
        (tmp_path / "out").mkdir()
        assert cli.dispatch(["report", "--config", cfg_path]) == 1

    def test_describe_prints_audit_table(self, tmp_path, capsys):
        cfg_path = str(write_config(tmp_path))
        assert cli.dispatch(["describe", "--config", cfg_path]) == 0
        out = capsys.readouterr().out
        assert "total" in out
        assert "177,155" in out
        assert "16,640" in out
        assert "12,384" in out

    def test_windows_for_day_requires_history(self, tmp_path):
        cfg_path = write_config(tmp_path)
        cfg = RunConfig.load(cfg_path)
        with pytest.raises(ConfigError):
            pipeline.windows_for_day(cfg, DAYS[2])
        with pytest.raises(ConfigError):
            pipeline.windows_for_day(cfg, "2020-01-01")


class TestGradcheckSuite:
    def test_layer_suite_under_tolerance(self):
        results = pipeline.gradcheck_suite(seed=0)
        assert set(results) == {"conv_leaky_cl", "conv_leaky_cl_pair",
                                "conv_leaky_cl_chain", "conv_leaky_cl_time_mix",
                                "conv_leaky_cl_segments",
                                "lstm", "dense",
                                "softmax_cross_entropy", "hlob_loss"}
        for name, err in results.items():
            assert err < 1e-6, f"{name}: {err}"

    def test_cli_verb(self, capsys):
        assert cli.dispatch(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "all gradient checks passed" in out


INT64_OVER = str(2**63)

# every key with a rule, with bad values for it and the first verb that reads it
BAD_VALUES = [
    ("tick_size", "0.00001", "synth"), ("tick_size", "nan", "synth"),
    ("lot_size", "0", "synth"), ("lot_size", INT64_OVER, "synth"),
    ("lot_size", str(2**62), "synth"), ("lot_size", str(10**9 + 1), "synth"),
    ("days", ",".join(DAYS + DAYS[:1]), "synth"),
    ("seed", "-1", "synth"), ("seed", INT64_OVER, "synth"),
    ("synth.n_events", "0", "synth"), ("synth.n_events", INT64_OVER, "synth"),
    ("synth.regime", "dense", "synth"),
    ("tick_size", "1e30", "synth"),
    ("trim_start_s", "nan", "ingest"), ("trim_start_s", "-1", "ingest"),
    ("trim_start_s", "1e300", "ingest"),
    ("trim_end_s", "-0.5", "ingest"), ("trim_end_s", "inf", "ingest"),
    ("trim_end_s", "23401", "ingest"),
    ("n_bins", "1", "mi"), ("n_bins", "1025", "mi"), ("n_bins", "100000", "mi"),
    ("n_bins", str(10**20), "mi"), ("n_bins", "10^20", "mi"),
    ("bootstrap", "0", "mi"), ("bootstrap", INT64_OVER, "mi"),
    ("horizon", "0", "train"), ("horizon", INT64_OVER, "train"),
    ("window_len", "0", "train"), ("window_len", INT64_OVER, "train"),
    ("train.batch_size", "0", "train"),
    ("train.max_epochs", "0", "train"),
    ("train.early_stop_delta", "nan", "train"), ("train.early_stop_delta", "-0.1", "train"),
    ("train.patience", "0", "train"), ("train.patience", INT64_OVER, "train"),
    ("train.lr", "nan", "train"), ("train.lr", "-1e-3", "train"), ("train.lr", "fast", "train"),
    ("train.beta1", "1", "train"), ("train.beta1", "-0.1", "train"),
    ("train.beta2", "1.5", "train"),
    ("train.eps", "-1", "train"), ("train.eps", "0", "train"),
    ("train.weight_decay", "-0.01", "train"), ("train.weight_decay", "1e400", "train"),
    ("train.balanced_cap", "0", "train"),
    ("split.test", DAYS[6], "eval"), ("split.test", f"{DAYS[7]},{DAYS[5]}", "eval"),
    ("split.validation", DAYS[6], "train"), ("split.validation", f"{DAYS[7]},{DAYS[5]}", "train"),
    ("split.train", f"{DAYS[5]},2024-01-06", "mi"), ("days", "", "ingest"),
]


class TestKeyRules:
    """Each rule in config.KEYS stops the first verb that reads its key."""

    def test_every_ruled_key_has_a_bad_value(self):
        ruled = {key for key, spec in KEYS.items()
                 if spec.ok is not None or spec.kind in (int, float)}
        assert {key for key, _, _ in BAD_VALUES} == ruled

    @pytest.mark.parametrize("key, value, verb", BAD_VALUES)
    def test_bad_value_stops_first_reader(self, tmp_path, capsys, key, value, verb):
        path = write_config(tmp_path, **{key: value})
        assert cli.dispatch([verb, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config error at '{key}': must be ")
        assert err.count("\n") == 1
        assert not (tmp_path / "data").exists() and not (tmp_path / "out").exists()

    def test_defaults_meet_their_rules(self):
        cfg = RunConfig({})
        for key in KEYS:
            cfg[key]   # raises if the default breaks the rule
        assert DEFAULTS == {key: spec.default for key, spec in KEYS.items()}

    def test_rule_applies_on_read_not_at_load(self):
        cfg = RunConfig({"horizon": "0", "train.beta2": "1.5"})
        assert cfg["n_bins"] == 32
        with pytest.raises(ConfigError, match=r"^config error at 'horizon': "
                                              r"must be at least 1, got '0'$"):
            cfg["horizon"]
        with pytest.raises(ConfigError, match=r"must be in \[0, 1\), got '1.5'$"):
            cfg["train.beta2"]

    def test_int64_and_finite_bounds(self):
        cfg = RunConfig({"seed": str(2**63 - 1), "horizon": str(2**63),
                         "train.lr": "1e308", "train.eps": "1e309"})
        assert cfg["seed"] == 2**63 - 1
        assert cfg["train.lr"] == 1e308
        with pytest.raises(ConfigError, match="must be an int64 integer"):
            cfg["horizon"]
        with pytest.raises(ConfigError, match="must be a finite number"):
            cfg["train.eps"]

    def test_split_overlaps(self):
        # the three splits are disjoint: a validation day may not be a
        # training day, and a test day may be neither
        cfg = RunConfig({"days": "a,b,c,d", "split.train": "a,b", "split.validation": "c",
                         "split.test": "d"})
        assert cfg["split.validation"] == ["c"]
        assert cfg["split.test"] == ["d"]
        for key, value in [("split.test", "a"), ("split.test", "d,c"),
                           ("split.validation", "b"), ("split.validation", "c,a")]:
            bad = RunConfig(cfg.values | {key: value})
            with pytest.raises(ConfigError) as err:
                bad[key]
            assert err.value.key == key
        bad = RunConfig(cfg.values | {"split.validation": "b"})
        with pytest.raises(ConfigError, match="^config error at 'split.validation': "
                                              "must be disjoint from split.train, got 'b'$"):
            bad["split.test"]   # the test rule reads split.validation

    @staticmethod
    def _readme_rows():
        """The README key table's cells, by key."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Config format", 1)[1].split("\n### ", 1)[0]
        rows = {}
        for line in section.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if line.startswith("| `") and len(cells) == 4:
                rows[cells[0].strip("`")] = cells
        return rows

    def test_readme_table_lists_every_key(self):
        rows = self._readme_rows()
        assert set(rows) == set(KEYS)
        for key, spec in KEYS.items():
            _, default, rule, verbs = rows[key]
            assert default == (f"`{spec.default}`" if spec.default else ""), key
            assert spec.must in rule, key
            assert verbs, key


    def test_readme_read_by_is_the_verbs_that_read(self, tmp_path, monkeypatch):
        cfg_path = str(write_config(tmp_path, **{
            "synth.n_events": "220", "window_len": "20", "train.max_epochs": "1",
            "train.balanced_cap": "1"}))
        read_by = {key: set() for key in KEYS}
        running = []
        getitem = RunConfig.__getitem__

        def recording_getitem(cfg, key):
            read_by[key].add(running[-1])
            return getitem(cfg, key)

        monkeypatch.setattr(RunConfig, "__getitem__", recording_getitem)
        for verb in ("synth", "ingest", "mi", "tmfg", "train", "eval", "report",
                     "describe"):
            running.append(verb)
            assert cli.dispatch([verb, "--config", cfg_path]) == 0, verb
        for key, (*_, verbs) in self._readme_rows().items():
            assert set(verbs.split(", ")) == read_by[key], key


def arg_default(func, name):
    return inspect.signature(func).parameters[name].default


# the defaults the library uses when no config gives a value, by the key
# whose default they must equal
LIBRARY_DEFAULTS = [
    pytest.param(key, arg_default(engine.AdamW, key.split(".")[1]), id=f"AdamW-{key}")
    for key in ("train.lr", "train.beta1", "train.beta2", "train.eps", "train.weight_decay")
] + [
    pytest.param("window_len", preprocess.WINDOW_LEN, id="WINDOW_LEN"),
    pytest.param("window_len", HlobConfig().window_len, id="HlobConfig"),
    pytest.param("n_bins", infonet.DEFAULT_BINS, id="DEFAULT_BINS"),
    pytest.param("bootstrap", infonet.DEFAULT_BOOTSTRAP, id="DEFAULT_BOOTSTRAP"),
    pytest.param("tick_size", lob.StockMeta("SYN").tick_size, id="StockMeta-tick"),
    pytest.param("lot_size", lob.StockMeta("SYN").lot_size, id="StockMeta-lot"),
    pytest.param("trim_start_s", arg_default(lob.clean_session, "trim_start_s"),
                 id="clean_session-start"),
    pytest.param("trim_end_s", arg_default(lob.clean_session, "trim_end_s"),
                 id="clean_session-end"),
    pytest.param("train.balanced_cap", arg_default(preprocess.balanced_sample, "cap"),
                 id="balanced_sample"),
    pytest.param("train.batch_size", arg_default(train.evaluate, "batch_size"),
                 id="evaluate"),
    pytest.param("train.batch_size", arg_default(preprocess.sequential_batches,
                                                 "batch_size"), id="sequential_batches"),
]


class TestLibraryDefaults:
    """The library's own defaults are the config's."""

    @pytest.mark.parametrize("key, default", LIBRARY_DEFAULTS)
    def test_default_is_the_keys(self, key, default):
        value = RunConfig({})[key]
        assert (type(default), default) == (type(value), value)

    def test_train_config_is_seed_and_the_train_keys(self):
        assert train.TrainConfig() == pipeline.train_config(RunConfig({}))
        fields = {f.name for f in dataclasses.fields(train.TrainConfig)}
        assert fields == {"seed"} | {key.removeprefix("train.") for key in KEYS
                                     if key.startswith("train.")}


class TestCorruptArtifacts:
    """A stage artifact that does not decode or lacks a field is exit 2, one line."""

    @staticmethod
    def _run(tmp_path, *verbs):
        cfg_path = str(write_config(tmp_path))
        for verb in verbs:
            assert cli.dispatch([verb, "--config", cfg_path]) == 0, verb
        return cfg_path

    @staticmethod
    def _one_io_error(capsys, path, detail):
        err = capsys.readouterr().err
        assert err.startswith(f"error: corrupt {path}: ")
        assert detail in err
        assert err.count("\n") == 1

    @staticmethod
    def _write_report(tmp_path, cfg_path, drop=None, **changes):
        obj = {"ticker": "SYN", "year": "1970", "horizon": 10, "f1_macro": 0.5,
               "mcc": 0.1, "p_t": 0.25, "tt": 4, "confusion": [[1, 0, 0]] * 3,
               "p_t_definition": "opener-closer-scan-v1",
               "config_digest": RunConfig.load(cfg_path).digest(), **changes}
        obj.pop(drop, None)
        path = tmp_path / "out" / "eval_report.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(obj))
        return path

    def test_report_from_hand_written_report(self, tmp_path):
        cfg_path = self._run(tmp_path)
        self._write_report(tmp_path, cfg_path)
        assert cli.dispatch(["report", "--config", cfg_path]) == 0

    @pytest.mark.parametrize("drop, changes, detail", [
        ("mcc", {}, "no 'mcc'"),
        (None, {"tt": "4"}, "'tt' is not of type int"),
        (None, {"confusion": None}, "'confusion' is not of type list"),
        (None, {"tt": True}, "'tt' is not of type int"),
        (None, {"horizon": True}, "'horizon' is not of type int"),
    ])
    def test_report_missing_or_mistyped_field(self, tmp_path, capsys, drop, changes,
                                              detail):
        cfg_path = self._run(tmp_path)
        path = self._write_report(tmp_path, cfg_path, drop, **changes)
        assert cli.dispatch(["report", "--config", cfg_path]) == 2
        self._one_io_error(capsys, path, detail)

    @pytest.mark.parametrize("changes, detail", [
        ({"confusion": [["a", "b", "c"]] * 3}, "'confusion' is not a 3x3 list of counts"),
        ({"confusion": [[1, 2]]}, "'confusion' is not a 3x3 list of counts"),
        ({"confusion": [[1, 0, 0], [0, True, 0], [0, 0, 1]]},
         "'confusion' is not a 3x3 list of counts"),
        ({"confusion": [[1, 0, 0], [0, -1, 0], [0, 0, 1]]},
         "'confusion' is not a 3x3 list of counts"),
        ({"confusion": [[1, 0, 0], [0, 1.0, 0], [0, 0, 1]]},
         "'confusion' is not a 3x3 list of counts"),
        ({"f1_macro": float("nan")}, "'f1_macro' is nan, outside [0, 1]"),
        ({"f1_macro": float("inf")}, "'f1_macro' is inf, outside [0, 1]"),
        ({"mcc": 7.5}, "'mcc' is 7.5, outside [-1, 1]"),
        ({"p_t": -1.0}, "'p_t' is -1.0, outside [0, 1]"),
        ({"tt": -3}, "'tt' is -3, outside [0, inf]"),
        ({"horizon": 0}, "'horizon' is 0, outside [1, inf]"),
        ({"horizon": -5}, "'horizon' is -5, outside [1, inf]"),
    ], ids=["strings", "1x2", "boolean", "negative", "float", "f1-nan", "f1-inf",
            "mcc-7.5", "p_t-negative", "tt-negative", "horizon-0", "horizon-negative"])
    def test_report_field_out_of_range(self, tmp_path, capsys, changes, detail):
        cfg_path = self._run(tmp_path)
        path = self._write_report(tmp_path, cfg_path, **changes)
        assert cli.dispatch(["report", "--config", cfg_path]) == 2
        self._one_io_error(capsys, path, detail)
        assert not (tmp_path / "out" / "reports").exists()

    def test_report_truncated(self, tmp_path, capsys):
        cfg_path = self._run(tmp_path)
        path = self._write_report(tmp_path, cfg_path)
        path.write_bytes(path.read_bytes()[:40])
        assert cli.dispatch(["report", "--config", cfg_path]) == 2
        self._one_io_error(capsys, path, "")

    @pytest.mark.parametrize("corrupt", ["truncated", "no data", "not an object"])
    def test_tmfg_with_corrupt_mi(self, tmp_path, capsys, corrupt):
        cfg_path = self._run(tmp_path, "synth", "ingest", "mi")
        path = tmp_path / "out" / "mi_avg.json"
        text = path.read_text()
        obj = json.loads(text)
        del obj["data"]
        path.write_text({"truncated": text[:len(text) // 2],
                         "no data": json.dumps(obj),
                         "not an object": "[1, 2]"}[corrupt])
        capsys.readouterr()
        assert cli.dispatch(["tmfg", "--config", cfg_path]) == 2
        self._one_io_error(capsys, path, {"truncated": "", "no data": "no 'data'",
                                          "not an object": "not a JSON object"}[corrupt])

    @pytest.mark.parametrize("shape, detail", [
        ([3, 3], "does not hold the 400 values"),
        ([40, 10], "is not a square"),
    ])
    def test_tmfg_with_mi_shape_that_does_not_fit(self, tmp_path, capsys, shape, detail):
        cfg_path = self._run(tmp_path, "synth", "ingest", "mi")
        path = tmp_path / "out" / "mi_avg.json"
        obj = json.loads(path.read_text())
        obj["shape"] = shape
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert cli.dispatch(["tmfg", "--config", cfg_path]) == 2
        self._one_io_error(capsys, path, detail)

    @pytest.mark.parametrize("key, rows, detail", [
        ("tetrahedra", [[0, 1, 2]], "'tetrahedra' is not rows of 4"),
        ("edges", [[0, 1], [2]], "'edges' is not rows of 2"),
        ("triangles", [[0, 1, 20]], "'triangles' has a vertex outside"),
    ])
    def test_train_with_simplices_of_wrong_width(self, tmp_path, capsys, key, rows,
                                                 detail):
        cfg_path = self._run(tmp_path, "synth", "ingest", "mi", "tmfg")
        path = tmp_path / "out" / "simplices.json"
        obj = json.loads(path.read_text())
        obj[key] = rows
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert cli.dispatch(["train", "--config", cfg_path]) == 2
        self._one_io_error(capsys, path, detail)

    @pytest.mark.parametrize("key, row, detail", [
        ("tetrahedra", [True, False, True, False], "'tetrahedra' is not rows of 4"),
        ("edges", [1, True], "'edges' is not rows of 2"),
        ("triangles", [0, 1, 2.0], "'triangles' is not rows of 3"),
    ], ids=["booleans", "int-and-boolean", "float"])
    def test_train_with_simplex_of_vertex_ids_that_are_not_ints(self, tmp_path, capsys,
                                                                key, row, detail):
        cfg_path = self._run(tmp_path, "synth", "ingest", "mi", "tmfg")
        path = tmp_path / "out" / "simplices.json"
        obj = json.loads(path.read_text())
        obj[key][0] = row
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert cli.dispatch(["train", "--config", cfg_path]) == 2
        self._one_io_error(capsys, path, detail)

    def test_train_with_simplices_missing_edges(self, tmp_path, capsys):
        cfg_path = self._run(tmp_path, "synth", "ingest", "mi", "tmfg")
        path = tmp_path / "out" / "simplices.json"
        obj = json.loads(path.read_text())
        del obj["edges"]
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert cli.dispatch(["train", "--config", cfg_path]) == 2
        self._one_io_error(capsys, path, "no 'edges'")

    def _eval_with_edited_header(self, tmp_path, capsys, edit, detail,
                                 edit_payload=lambda payload: payload):
        cfg_path = self._run(tmp_path, "synth", "ingest", "mi", "tmfg")
        path = tmp_path / "out" / "model.ckpt"
        cfg = RunConfig.load(cfg_path)
        save_checkpoint(HlobModel(pipeline.hlob_config(cfg), seed=3), path,
                        extra={"run_config_digest": cfg.digest()})
        blob = path.read_bytes()
        start = len(CHECKPOINT_MAGIC) + 8
        end = start + int.from_bytes(blob[len(CHECKPOINT_MAGIC):start], "little")
        header = json.loads(blob[start:end])
        edit(header)
        new = json.dumps(header).encode()
        path.write_bytes(CHECKPOINT_MAGIC + len(new).to_bytes(8, "little") + new +
                         edit_payload(blob[end:]))
        capsys.readouterr()
        assert cli.dispatch(["eval", "--config", cfg_path]) == 2
        self._one_io_error(capsys, path, detail)

    def test_eval_with_checkpoint_header_missing_seed(self, tmp_path, capsys):
        self._eval_with_edited_header(tmp_path, capsys, lambda h: h.pop("seed"),
                                      "no 'seed'")

    def test_eval_with_checkpoint_header_boolean_seed(self, tmp_path, capsys):
        self._eval_with_edited_header(tmp_path, capsys, lambda h: h.update(seed=True),
                                      "'seed' is not of type int")

    def test_eval_with_checkpoint_config_extra_field(self, tmp_path, capsys):
        self._eval_with_edited_header(
            tmp_path, capsys, lambda h: h["config"].update(bogus=1),
            "config field 'bogus' is unknown")

    def test_eval_with_checkpoint_config_missing_head_widths(self, tmp_path, capsys):
        self._eval_with_edited_header(
            tmp_path, capsys, lambda h: h["config"].pop("head_widths"),
            "config field 'head_widths' is missing")

    def test_eval_with_checkpoint_config_string_window_len(self, tmp_path, capsys):
        self._eval_with_edited_header(
            tmp_path, capsys, lambda h: h["config"].update(window_len="100"),
            "config field 'window_len' is not of type int")

    def test_eval_with_checkpoint_config_not_matching_its_digest(self, tmp_path, capsys):
        self._eval_with_edited_header(
            tmp_path, capsys, lambda h: h["config"].update(channels=2),
            "config does not match its config_digest")


    @pytest.mark.parametrize("edit, detail", [
        (lambda h: h["entries"][0].update(dtype="bogus"),
         "has dtype 'bogus', expected 'float32'"),
        (lambda h: h["entries"][1].update(shape=[1]), "has shape [1], expected"),
        (lambda h: h["entries"][0].update(offset=-8), "has offset -8, expected 0"),
        (lambda h: h["entries"][2].update(offset=h["entries"][2]["offset"] + 4),
         "has offset"),
        (lambda h: h["entries"][0].update(nbytes=h["entries"][0]["nbytes"] - 4),
         "has nbytes"),
        (lambda h: h.update(dtype="int8"),
         "dtype 'int8' is not one of float32, float64"),
        (lambda h: h.update(dtype="bogus"), "dtype 'bogus' is not one of"),
        (lambda h: h["entries"].pop(), "missing parameter output.bias#v"),
        (lambda h: h["entries"].append(dict(h["entries"][0], name="bogus")),
         "unknown entry bogus"),
        (lambda h: h["entries"].append(dict(h["entries"][0])), "appears more than once"),
        (lambda h: h["entries"].insert(0, 7), "entry 0 is not an object"),
        (lambda h: h["entries"][3].pop("nbytes"), "entry 3 is not an object"),
        (lambda h: h["entries"][0].update(offset=False), "has offset False, expected 0"),
        (lambda h: h["entries"][0].update(shape=[True if s == 1 else s
                                                 for s in h["entries"][0]["shape"]]),
         "True, True"),
    ], ids=["entry-dtype", "shape", "negative-offset", "offset-gap", "nbytes",
            "int8", "header-dtype", "missing", "unknown", "twice", "not-object",
            "no-nbytes", "boolean-offset", "boolean-shape"])
    def test_eval_with_checkpoint_entry_table_not_matching_model(self, tmp_path, capsys,
                                                                 edit, detail):
        self._eval_with_edited_header(tmp_path, capsys, edit, detail)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_eval_with_non_finite_weight(self, tmp_path, capsys, value):
        def poison(payload):
            return np.float32(value).tobytes() + payload[4:]
        self._eval_with_edited_header(tmp_path, capsys, lambda h: None,
                                      "holds a value that is not finite", poison)

    @pytest.mark.parametrize("cut, detail", [
        (lambda payload: payload[:-1], "truncated checkpoint payload"),
        (lambda payload: payload + b"\0" * 4, "4 bytes after the last entry"),
    ], ids=["short", "long"])
    def test_eval_with_payload_of_wrong_length(self, tmp_path, capsys, cut, detail):
        self._eval_with_edited_header(tmp_path, capsys, lambda h: None, detail, cut)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_tmfg_with_non_finite_mi(self, tmp_path, capsys, value):
        cfg_path = self._run(tmp_path, "synth", "ingest", "mi")
        path = tmp_path / "out" / "mi_avg.json"
        obj = json.loads(path.read_text())
        obj["data"][21] = "@"
        path.write_text(json.dumps(obj).replace('"@"', value))
        capsys.readouterr()
        assert cli.dispatch(["tmfg", "--config", cfg_path]) == 2
        self._one_io_error(capsys, path, "'data' holds a value that is not finite")
        assert not (tmp_path / "out" / "simplices.json").exists()


    @pytest.mark.parametrize("value", [True, "0.5"], ids=["boolean", "string"])
    def test_tmfg_with_mi_value_that_is_not_a_number(self, tmp_path, capsys, value):
        cfg_path = self._run(tmp_path, "synth", "ingest", "mi")
        path = tmp_path / "out" / "mi_avg.json"
        obj = json.loads(path.read_text())
        obj["data"][21] = value
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert cli.dispatch(["tmfg", "--config", cfg_path]) == 2
        self._one_io_error(capsys, path, "'data' is not a flat list of numbers")
        assert not (tmp_path / "out" / "simplices.json").exists()


class TestReadJson:
    def test_returns_object_with_its_fields(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text('{"n": 3, "xs": [1], "extra": null}')
        assert read_json(path, {"n": int, "xs": list}) == {"n": 3, "xs": [1],
                                                           "extra": None}

    @pytest.mark.parametrize("raw, detail", [
        (b'{"n": 3', "Expecting"), (b"", "Expecting value"),
        (b'{"n": 3} x', "Extra data"), (b'{"n": 3}\xff', "codec"),
        (b"[]", "not a JSON object"), (b'{"m": 3}', "no 'n'"),
        (b'{"n": "3"}', "'n' is not of type int"),
        (b'{"n": true}', "'n' is not of type int"),
    ])
    def test_corrupt_is_io_failure_naming_file(self, tmp_path, raw, detail):
        path = tmp_path / "a.json"
        path.write_bytes(raw)
        with pytest.raises(IoFailure) as err:
            read_json(path, {"n": int})
        assert str(err.value).startswith(f"corrupt {path}: ")
        assert detail in str(err.value)
        with pytest.raises(IoFailure):   # the same bytes passed as data
            read_json(tmp_path / "other.bin", {"n": int}, data=raw)

    def test_missing_file_is_not_an_artifact_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_json(tmp_path / "absent.json", {})
