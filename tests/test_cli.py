import dataclasses
import json

import pytest
from pytest import raises

from cartanlab.cli import main
from cartanlab.errors import ConfigError
from cartanlab.report import load_config, parse_config


def write_config(tmp_path, **overrides):
    cfg = {"model": "pair-R2", "experiment": "jet-axioms", "seed": 42}
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "pair-R2" in out and "isojet-sphere" in out
    assert "jet-axioms" in out and "classical-bridge" in out


def test_run_writes_report_and_passes(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    report_path = tmp_path / "jet-axioms-pair-R2-seed42.json"
    data = json.loads(report_path.read_text())
    assert data["verdict"] is True
    assert all("tolerance" in c for c in data["checks"])
    assert data["environment"]["rng"].startswith("numpy PCG64")


def test_run_is_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    fa = (tmp_path / "a" / "jet-axioms-pair-R2-seed42.json").read_bytes()
    fb = (tmp_path / "b" / "jet-axioms-pair-R2-seed42.json").read_bytes()
    assert fa == fb


def test_run_csv_format(tmp_path):
    cfg = write_config(tmp_path, format="csv")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    text = (tmp_path / "jet-axioms-pair-R2-seed42.csv").read_text()
    header, *rows = text.strip().splitlines()
    assert header.split(",")[:4] == ["experiment", "model", "seed", "check"]
    assert all(row.endswith("True") for row in rows)


def test_seed_override_changes_output_name(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path),
                 "--seed", "7"]) == 0
    assert (tmp_path / "jet-axioms-pair-R2-seed7.json").exists()


def test_unknown_keys_rejected(tmp_path):
    cfg = write_config(tmp_path, extra_key=1)
    assert main(["run", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("bad", [
    {"model": "moebius"},
    {"experiment": "banana"},
    {"seed": "not-an-int"},
    {"format": "yaml"},
    {"sample_count": 0},
    {"tolerances": {"a": "loose"}},
    {"sample_count": True},
    {"seed": -5},
])
def test_invalid_configs(tmp_path, bad):
    cfg = write_config(tmp_path, **bad)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_negative_seed_override_is_a_config_error(tmp_path):
    # --seed bypasses parse_config; numpy would raise ValueError on it
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path), "--seed", "-5"]) == 2


@pytest.mark.parametrize("bad", [{"format": "xml"}, {"output": 3}])
def test_config_refuses_a_bad_format_or_output_on_every_path(bad):
    # built directly, such a config used to run the whole experiment and fail
    # only when serialize met the format or open met the output
    from cartanlab.report import ExperimentConfig

    with raises(ConfigError):
        ExperimentConfig(model="pair-R2", experiment="jet-axioms", **bad)
    with raises(ConfigError):
        dataclasses.replace(ExperimentConfig(model="pair-R2", experiment="jet-axioms"), **bad)
    with raises(ConfigError):
        parse_config({"model": "pair-R2", "experiment": "jet-axioms", **bad})


@pytest.mark.parametrize("tolerance", [True, -1e-7, float("inf"), float("nan")])
def test_parse_config_rejects_tolerances_that_are_no_finite_non_negative_number(tolerance):
    # with an inf tolerance a check whose sample went NaN (max_error inf) passes
    with raises(ConfigError):
        parse_config({"model": "pair-R2", "experiment": "jet-axioms",
                      "tolerances": {"groupoid-axioms": tolerance}})


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_load_config_rejects_non_json_constants(tmp_path, constant):
    path = tmp_path / "cfg.json"
    path.write_text('{"model": {"name": "pair-R2", "parameters": {"scale": %s}}, '
                    '"experiment": "jet-axioms"}' % constant)
    with raises(ConfigError):
        load_config(str(path))


def test_parse_config_model_object():
    cfg = parse_config({
        "model": {"name": "isojet-perturbed", "parameters": {"eps": 0.3}},
        "experiment": "flatness",
    })
    assert cfg.model == "isojet-perturbed"
    assert cfg.model_params == {"eps": 0.3}


def test_parse_config_rejects_unknown_model_keys():
    with raises(ConfigError):
        parse_config({"model": {"name": "pair-R2", "color": "blue"},
                      "experiment": "flatness"})


def test_failing_experiment_sets_exit_code(tmp_path):
    # impossible tolerance override makes the verdict fail without crashing
    cfg = write_config(tmp_path, tolerances={"oracle-mul-associativity": 1e-18})
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 1
    data = json.loads((tmp_path / "jet-axioms-pair-R2-seed42.json").read_text())
    assert data["verdict"] is False


def test_config_not_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with raises(ConfigError):
        load_config(str(path))


def test_aborted_report_is_strict_json(monkeypatch):
    # an aborted check carries max_error inf, which json.dumps would write as
    # the non-JSON token Infinity
    from cartanlab import experiments
    from cartanlab.errors import NonFiniteError
    from cartanlab.report import ExperimentConfig

    def aborts(model, S, config, count):
        raise NonFiniteError("trajectory went non-finite")

    monkeypatch.setitem(experiments.EXPERIMENTS, "jet-axioms", aborts)
    rep = experiments.run(ExperimentConfig(model="pair-R2", experiment="jet-axioms"))

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    data = json.loads(rep.to_json_bytes(), parse_constant=reject)
    (check,) = data["checks"]
    assert check["name"] == "aborted[NonFiniteError]"
    assert check["max_error"] is None and check["tolerance"] == 0.0
    assert check["non_finite"] == {"max_error": "inf"}
    assert check["pass"] is False and data["verdict"] is False


def test_abort_message_reaches_the_fail_line_but_not_the_report(monkeypatch, tmp_path, capsys):
    from cartanlab import experiments
    from cartanlab.errors import NonFiniteError
    from cartanlab.report import Check, ExperimentConfig, Report

    def aborts(model, S, config, count):
        raise NonFiniteError("trajectory went non-finite at t=0.5")

    monkeypatch.setitem(experiments.EXPERIMENTS, "jet-axioms", aborts)
    rep = experiments.run(ExperimentConfig(model="pair-R2", experiment="jet-axioms", seed=42))
    (check,) = rep.checks
    assert check.detail == "trajectory went non-finite at t=0.5"
    # the report as it was before the message was kept: same bytes, equal
    bare = Report("jet-axioms", "pair-R2", 42,
                  (Check("aborted[NonFiniteError]", 0, float("inf"), 0.0),))
    assert rep == bare and rep.to_json_bytes() == bare.to_json_bytes()

    code = main(["run", "--config", str(write_config(tmp_path)), "--out", str(tmp_path)])
    assert code == 1
    (line,) = [ln for ln in capsys.readouterr().out.splitlines() if "aborted" in ln]
    assert line.startswith("FAIL") and line.endswith("trajectory went non-finite at t=0.5")
