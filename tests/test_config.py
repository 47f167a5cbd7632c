"""Config files, overrides, validation, and run fingerprints."""

import dataclasses

import pytest

from passagerank import ExperimentConfig, build_config, parse_filters, read_config_file
from passagerank.cli import _FLAG_DEFS, _build_parser, main
from passagerank.config import format_value, parse_value, require, require_set
from passagerank.passages import FilterSpec
from passagerank.training import TrainConfig


class TestParseFilters:
    def test_plain_sizes_get_half_stride(self):
        filters = parse_filters("50,150,inf")
        assert [(f.m, f.tau) for f in filters] == [(50, 25), (150, 75), (None, 0)]

    def test_explicit_strides(self):
        filters = parse_filters("40:10, 80:80")
        assert [(f.m, f.tau) for f in filters] == [(40, 10), (80, 80)]

    def test_whitespace_and_trailing_comma(self):
        assert len(parse_filters(" 50 , inf ,")) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_filters("  , ")

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            parse_filters("50:zz")

    @pytest.mark.parametrize("label", ["50:x", "abc", "50:"])
    def test_bad_label_names_label_and_forms(self, label):
        with pytest.raises(ValueError, match=f"'{label}': expected m, m:tau or inf"):
            parse_filters(f"{label},inf")


class TestConfigFile:
    def test_typed_values(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_text(
            "# comment line\n"
            "\n"
            "lambda_c = 0.25   # inline comment\n"
            "top_k = 100\n"
            "filters = 30:10,inf\n"
            "text_tags = TEXT,HEADLINE\n"
            "pooling = mean\n"
            "index = /tmp/idx\n"
        )
        values = read_config_file(path)
        assert values["lambda_c"] == 0.25
        assert values["top_k"] == 100
        assert values["filters"] == (FilterSpec(30, 10), FilterSpec.whole_document())
        assert values["text_tags"] == ("TEXT", "HEADLINE")
        assert values["pooling"] == "mean"
        assert values["index"] == "/tmp/idx"

    def test_error_names_line(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_text("lambda_c = 0.5\nnonsense line\n")
        with pytest.raises(ValueError, match=r":2:"):
            read_config_file(path)

    def test_unknown_key_names_line(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_text("\nwarp_factor = 9\n")
        with pytest.raises(ValueError, match=r":2:.*warp_factor"):
            read_config_file(path)

    def test_bad_int_names_line(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_text("top_k = many\n")
        with pytest.raises(ValueError, match=r":1:"):
            read_config_file(path)


    def test_threads_is_an_unknown_key(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_text("threads = 4\n")
        with pytest.raises(ValueError, match="unknown config key 'threads'"):
            read_config_file(path)


class TestBuildConfig:
    def test_defaults(self):
        cfg = build_config()
        assert cfg.lambda_c == 0.5
        assert [f.label for f in cfg.filters] == ["50:25", "150:75", "inf"]
        assert cfg.pooling == "max"

    def test_file_overlays_defaults(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_text("lambda_c = 0.3\nseed = 7\n")
        cfg = build_config(path)
        assert cfg.lambda_c == 0.3
        assert cfg.seed == 7
        assert cfg.top_k == 2000

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_text("lambda_c = 0.3\nseed = 7\n")
        cfg = build_config(path, {"seed": 11})
        assert cfg.seed == 11
        assert cfg.lambda_c == 0.3

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="warp"):
            build_config(None, {"warp": 1})

    @pytest.mark.parametrize("bad", [
        {"lambda_c": 0.0},
        {"lambda_c": 1.0},
        {"pooling": "median"},
        {"feature_set": "everything"},
        {"filters": ()},
        {"top_k": 0},
        {"folds": 0},
        {"oov_floor": -1},
        {"learning_rate": -0.1},
        {"homogeneity_m": 0},
        {"folds": 2},  # a fold needs a test, a validation and a training fold
        {"learning_rate": float("nan")},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            build_config(None, bad)


class TestSmallestFiniteFilter:
    def test_picks_min_window(self):
        cfg = build_config()
        assert cfg.smallest_finite_filter().m == 50

    def test_explicit_override(self):
        cfg = build_config(None, {"homogeneity_m": 30})
        assert cfg.smallest_finite_filter() == FilterSpec.window(30)

    def test_all_infinite_needs_explicit(self):
        cfg = build_config(None, {"filters": parse_filters("inf")})
        with pytest.raises(ValueError, match="homogeneity_m"):
            cfg.smallest_finite_filter()


class TestFingerprint:
    def test_paths_do_not_change_it(self):
        # same experiment against the same data elsewhere keeps its tag
        a = build_config(None, {"index": "/data/run1/index",
                                "corpus": "/data/run1/corpus"})
        b = build_config(None, {"index": "/elsewhere/index",
                                "corpus": "/elsewhere/corpus"})
        assert a.fingerprint() == b.fingerprint()

    def test_scoring_keys_change_it(self):
        base = build_config()
        for override in ({"lambda_c": 0.4}, {"seed": 1},
                         {"filters": parse_filters("50")},
                         {"pooling": "mean"}):
            assert build_config(None, override).fingerprint() \
                != base.fingerprint()

    def test_stable_across_processes(self):
        # no PYTHONHASHSEED dependence: same config, same tag
        cfg = build_config()
        assert cfg.fingerprint() == ExperimentConfig().fingerprint()

    def test_run_tag_format(self):
        cfg = build_config()
        tag = cfg.run_tag("ql")
        assert tag == f"ql-{cfg.fingerprint()}"
        assert len(cfg.fingerprint()) == 10


class TestRequire:
    def test_require_set_message_names_flags(self):
        cfg = build_config()
        with pytest.raises(ValueError, match="--index"):
            require_set(cfg, "index")

    def test_require_checks_existence(self, tmp_path):
        missing = tmp_path / "nope"
        cfg = build_config(None, {"index": str(missing)})
        with pytest.raises(ValueError, match="does not exist"):
            require(cfg, "index")

    def test_require_passes_on_existing(self, tmp_path):
        path = tmp_path / "idx"
        path.mkdir()
        cfg = build_config(None, {"index": str(path)})
        require(cfg, "index")

    def test_config_is_frozen(self):
        cfg = build_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 3


class TestSchema:
    """Each key is declared once, in ExperimentConfig; flags, files,
    help text and fingerprints all derive from it."""

    FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}

    def test_every_flag_is_a_config_key(self):
        assert set(_FLAG_DEFS) <= set(self.FIELDS)

    @pytest.mark.parametrize("key", sorted(k for k, f in FIELDS.items()
                                           if f.default is not None))
    def test_defaults_round_trip(self, key):
        default = getattr(ExperimentConfig(), key)
        assert parse_value(key, format_value(key, default)) == default

    def test_training_defaults_come_from_train_config(self):
        assert ExperimentConfig().train_config() == TrainConfig()

    def test_flag_and_file_give_one_message(self, tmp_path, capsys):
        conf = tmp_path / "exp.conf"
        conf.write_text("top_k = x\n")
        common = ["retrieve", "--index", str(tmp_path), "--topics", str(conf),
                  "--output", str(tmp_path / "x.run")]
        assert main([*common, "--top-k", "x"]) == 2
        flag_err = capsys.readouterr().err
        assert main([*common, "--config", str(conf)]) == 2
        file_err = capsys.readouterr().err
        message = "top_k must be of type int, got 'x'"
        assert flag_err == f"error: {message}\n"
        assert file_err == f"error: {conf}:1: {message}\n"

    def test_help_shows_dataclass_defaults(self):
        defaults = ExperimentConfig()
        parser = _build_parser()
        commands = parser._subparsers._group_actions[0].choices.values()
        seen = set()
        for command in commands:
            for action in command._actions:
                default = getattr(defaults, action.dest, None)
                if action.dest in self.FIELDS and default is not None:
                    assert action.help.endswith(
                        f"(default {format_value(action.dest, default)})")
                    seen.add(action.dest)
        assert {"lambda_c", "filters", "seed", "folds", "text_tags"} <= seen

    def test_default_fingerprint_is_stable(self):
        # run tags carry the fingerprint: its bytes must not move
        assert ExperimentConfig().fingerprint() == "ac2626dc22"
