import json

import numpy as np
import pytest

from hloblab import cli, lob, pipeline
from hloblab.config import DEFAULTS, RunConfig, parse_config_text
from hloblab.errors import ConfigError

DAYS = [f"1970-01-{d:02d}" for d in range(1, 9)]


def write_config(tmp_path, **overrides):
    values = {
        "ticker": "SYN",
        "data_dir": str(tmp_path / "data"),
        "out_dir": str(tmp_path / "out"),
        "days": ",".join(DAYS),
        "split.train": ",".join(DAYS[5:7]),
        "split.validation": DAYS[6],
        "split.test": DAYS[7],
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


class TestConfigParsing:
    def test_key_value_and_comments(self):
        values = parse_config_text("# comment\n\nticker = ABC\ntrain.lr=1e-3\n")
        assert values == {"ticker": "ABC", "train.lr": "1e-3"}

    def test_malformed_line(self):
        with pytest.raises(ConfigError):
            parse_config_text("no equals sign here\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            RunConfig({"tickr": "ABC"})
        assert err.value.key == "tickr"

    def test_defaults_applied(self):
        cfg = RunConfig({})
        assert cfg.get_int("horizon") == 10
        assert cfg.get_float("train.lr") == 6e-5
        assert cfg.get_int("train.balanced_cap") == 5000

    def test_typed_getter_error_names_key(self):
        cfg = RunConfig({"horizon": "ten"})
        with pytest.raises(ConfigError) as err:
            cfg.get_int("horizon")
        assert err.value.key == "horizon"

    def test_day_list_parsing(self):
        cfg = RunConfig({"days": " a , b ,, c "})
        assert cfg.get_days("days") == ["a", "b", "c"]

    def test_env_override(self, tmp_path, monkeypatch):
        path = write_config(tmp_path)
        monkeypatch.setenv("HLOBLAB_TRAIN__LR", "0.5")
        monkeypatch.setenv("HLOBLAB_HORIZON", "50")
        cfg = RunConfig.load(path)
        assert cfg.get_float("train.lr") == 0.5
        assert cfg.get_int("horizon") == 50

    def test_digest_sensitivity(self, tmp_path):
        a = RunConfig.load(write_config(tmp_path))
        b = RunConfig.load(write_config(tmp_path))
        assert a.digest() == b.digest()
        c = RunConfig.load(write_config(tmp_path, seed="4"))
        assert a.digest() != c.digest()

    def test_every_default_key_documented_type(self):
        # all defaults must parse through their expected getters
        cfg = RunConfig({})
        for key in DEFAULTS:
            assert isinstance(cfg.get_str(key), str)


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

    def test_config_error_is_user_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("unknown_key = 1\n")
        assert cli.dispatch(["synth", "--config", str(path)]) == 1

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


class TestAtomicWrites:
    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "artifact.json"
        path.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            pipeline.write_atomic(path, "new \ud800\n")   # fails while writing
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]

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
        assert found == sorted(days + ["mi_avg.csv", "mi_avg.json", "simplices.json"])


class TestPipelineStages:
    def test_synth_ingest_mi_tmfg(self, tmp_path, capsys):
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

        assert cli.dispatch(["tmfg", "--config", cfg_path]) == 0
        obj = json.loads((tmp_path / "out" / "simplices.json").read_text())
        assert len(obj["tetrahedra"]) == 17
        assert len(obj["triangles"]) == 52
        assert len(obj["edges"]) == 54
        assert obj["retained_weight"] > 0
        out = capsys.readouterr().out
        assert "tetrahedra 17" in out

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
        assert set(results) == {"conv2d", "leaky_relu", "lstm", "dense",
                                "softmax_cross_entropy", "hlob_loss"}
        for name, err in results.items():
            assert err < 1e-6, f"{name}: {err}"

    def test_cli_verb(self, capsys):
        assert cli.dispatch(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "all gradient checks passed" in out
