"""Tests of the benchmark's own code: workloads, metric names, the trace's
bindings and the correctness gate.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cartanlab.report import Check, ExperimentConfig, Report  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def small_tasks():
    """A few cheap reports that still reach every traced layer kind."""
    return [
        workloads.Task(ExperimentConfig(model="pair-R2", experiment="inversion",
                                        seed=3, sample_count=2), False),
        workloads.Task(ExperimentConfig(model="pair-R2", experiment="inversion",
                                        seed=3, sample_count=2), True),
        workloads.Task(ExperimentConfig(model="se2-action", experiment="nabla-compare",
                                        seed=4, sample_count=1), False),
    ]


def bindings():
    """Every attribute of every cartanlab module, plus Report.serialize."""
    out = {(name, attr): val for name, mod in sys.modules.items()
           if mod is not None and name.split(".")[0] == "cartanlab"
           for attr, val in vars(mod).items()}
    out[("workloads", "run_without_jacobians")] = workloads.run_without_jacobians
    out[("Report", "serialize")] = Report.__dict__["serialize"]
    return out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_generation_is_deterministic_in_the_seed(workload):
    first = workloads.build_tasks(workload, 7)
    assert first == workloads.build_tasks(workload, 7)
    assert first != workloads.build_tasks(workload, 8)
    assert [(t.config.experiment, t.config.model, t.without_jacobians) for t in first] \
        == list(workloads.WORKLOADS[workload])


def test_jet_oracle_halves_share_a_config():
    tasks = workloads.build_tasks("jet-oracle", 1)
    for analytic, fd in zip(tasks[::2], tasks[1::2]):
        assert not analytic.without_jacobians and fd.without_jacobians
        assert analytic.config == fd.config


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)


def test_traced_pass_restores_every_binding_and_changes_no_result():
    from cartanlab import groupoid

    original_oracle = groupoid.oracle_jet
    tasks = small_tasks()
    untraced = bench.run_pass(tasks)  # imports every module it needs
    before = bindings()
    tracer = tracing.Tracer()
    with tracing.traced(tracer, extra_spans=(
            (workloads, "run_without_jacobians", "experiments.run"),)):
        assert groupoid.oracle_jet is not original_oracle
        traced = bench.run_pass(tasks)
    after = bindings()

    assert groupoid.oracle_jet is original_oracle
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert traced.blobs == untraced.blobs
    assert tracer.absent == []
    metrics = tracer.metrics()
    assert set(metrics) | {"trace.overhead_s"} == {n for n, _, _ in tracing.PER_LAYER}
    assert metrics["experiments.run.self_s"] > 0
    assert metrics["report.serialize.calls"] == len(tasks)
    assert metrics["groupoid.oracle_jet.calls"] > 0
    assert metrics["connection.nabla.flow.calls"] == 1
    assert metrics["models.structure_map.calls"] > 0
    assert 0 < metrics["chartcalc.differentiate.fd_share"] < 1
    assert metrics["chartcalc.rk4_steps"] > 0


def test_a_missing_function_is_reported_absent(monkeypatch):
    from cartanlab import chartcalc

    monkeypatch.delattr(chartcalc, "flow")
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        bench.run_pass(small_tasks()[:1])
    assert tracer.absent == ["cartanlab.chartcalc.flow"]


def report_of(*checks):
    return Report(experiment="inversion", model="pair-R2", seed=0, checks=checks)


def test_gate_fails_non_finite_and_aborted_checks():
    report = report_of(Check("ok", 1, 1e-9, 1e-7),
                       Check("nan", 1, math.nan, 1e-7),
                       Check("inf", 1, math.inf, 1e-7),
                       Check("aborted[NonFiniteError]", 0, math.inf, 0.0),
                       Check("over", 1, 2e-7, 1e-7))
    assert bench.failed_checks(report) == ["nan", "inf", "aborted[NonFiniteError]", "over"]
    assert bench.error_ratio(report.checks[1]) == math.inf
    assert max(bench.error_ratio(c) for c in report.checks) == math.inf


def test_report_bytes_differing_between_passes_fail_every_check():
    task = small_tasks()[0]
    good = report_of(Check("ok", 1, 1e-9, 1e-7), Check("ok2", 1, 0.0, 1e-7))
    first = bench.Pass([1.0], [1.0], [good], [b"a"])
    second = bench.Pass([1.0], [1.0], [good], [b"b"])
    verdicts = bench.Verdicts()
    verdicts.add_pass([task], first)
    verdicts.add_pass([task], second, reference=first)
    assert (verdicts.attempted, verdicts.failed) == (4, 2)
    assert "differ" in verdicts.failures[0]


def test_outside_a_checkout_the_benchmark_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "jet-oracle",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_speed_probe_samples_during_a_pass_and_restores_the_alarm():
    import signal

    import speed

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        sampled = bench.run_pass(small_tasks()[2:], probe)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.chunks and probe.spent > 0
    assert sampled.wall[0] > 0 and sampled.latencies[0] > 0
    assert sampled.blobs == bench.run_pass(small_tasks()[2:]).blobs
