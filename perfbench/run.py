"""The cartanlab benchmark: time to every verdict of a seeded verification workload.

    python3 perfbench/run.py [--workload NAME] --seed N --seconds S --trace 0|1

Run it from the root of a checkout: cartanlab is imported from ./src, never
from an installed copy. One process runs one report at a time and starts a
report only when the previous one is done (closed loop, one client). BLAS is
pinned to one thread, since every matrix is at most 5x5. Without --workload,
every workload runs in turn, each in a fresh process.

--trace 0 sets up SETUP_PROBES times in fresh interpreters, then runs whole
passes of the workload while the next pass is expected to end within
--seconds, and prints the end-to-end metrics. Times are rescaled to the
nominal speed of a reference loop sampled while they run (speed.py); the wall
times are printed beside them. --trace 1 runs one untraced pass and two traced
passes (see tracing.py) and prints the per-layer metrics and the trace
overhead, with times rescaled the same way.

Every check of every report is gated: a failed, aborted or non-finite check
fails, and so does a report whose bytes differ from the first pass (or, in a
traced pass, from the untraced pass), or a traced call count that does not
repeat. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 when nothing
failed, 1 when something did and 2 when the benchmark could not start.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads  # imports no numpy, so BLAS can still be pinned

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = tuple(workloads.WORKLOADS)
SETUP_PROBES = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (name, unit): the result of every untraced run. worst_err_ratio,
# report_p90_s, check_fail_frac and the wall times are printed beside them
# but are not results: the worst ratio is exact for a seed but spreads by
# 50-90% across seeds, report_p90_s has ten samples above it only on
# jet-oracle, and the fail fraction is the result's failed / attempted.
END_TO_END = (
    ("setup_s", "s"),
    ("verify_s", "s"),
    ("report_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)


# -- correctness gate ----------------------------------------------------------


def failed_checks(report) -> list[str]:
    """Names of the checks that failed. A NaN or infinite max_error fails even
    where a comparison would not notice it, and so does an aborted check."""
    return [c.name for c in report.checks
            if c.name.startswith("aborted[")
            or not math.isfinite(c.max_error)
            or not c.max_error <= c.tolerance]


def error_ratio(check) -> float:
    """max_error / tolerance, with +inf for a non-finite error or a zero
    tolerance, so that max() over ratios cannot drop a NaN."""
    if not (math.isfinite(check.max_error) and check.tolerance > 0):
        return math.inf
    return check.max_error / check.tolerance


@dataclasses.dataclass
class Verdicts:
    """Checks attempted and failed over every pass of a run."""

    attempted: int = 0
    failed: int = 0
    failures: list = dataclasses.field(default_factory=list)
    worst_ratio: float = 0.0

    def add_pass(self, tasks, run, reference=None):
        """Gate every report of a pass; reference holds the bytes each report
        must repeat."""
        refs = reference.blobs if reference is not None else [None] * len(tasks)
        for task, report, blob, ref in zip(tasks, run.reports, run.blobs, refs):
            self.attempted += len(report.checks)
            if ref is not None and blob != ref:
                self.failed += len(report.checks)
                self.failures.append(f"{task.label}: report bytes differ between passes")
                continue
            bad = failed_checks(report)
            self.failed += len(bad)
            self.failures.extend(f"{task.label}: {name}" for name in bad)
            for check in report.checks:
                self.worst_ratio = max(self.worst_ratio, error_ratio(check))

    def add_count(self, name, first, second):
        self.attempted += 1
        if first != second:
            self.failed += 1
            self.failures.append(f"{name}: {first} calls, then {second}")


# -- passes --------------------------------------------------------------------


@dataclasses.dataclass
class Pass:
    latencies: list  # per report, at nominal speed when sampled (speed.py)
    wall: list  # per report, as measured, net of speed sampling
    reports: list
    blobs: list

    @property
    def seconds(self) -> float:
        return sum(self.latencies)


def run_pass(tasks, probe=None) -> Pass:
    """Run every report of the workload once; a report's latency ends when its
    bytes are serialized. With a SpeedProbe open, each latency excludes the
    probe's samples and is rescaled by the samples taken during it."""
    clock = probe.clock if probe else time.perf_counter
    latencies, wall, reports, blobs = [], [], [], []
    for task in tasks:
        first = len(probe.chunks) if probe else 0
        t0 = clock()
        report = workloads.run_task(task)
        blobs.append(report.serialize("json"))
        latency = clock() - t0
        wall.append(latency)
        latencies.append(latency * probe.factor(first) if probe else latency)
        reports.append(report)
    return Pass(latencies, wall, reports, blobs)


def measure_setup(models) -> tuple[list[float], list[float]]:
    """Seconds of SETUP_PROBES cold set-ups, each in a fresh interpreter, at
    nominal speed and as measured."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *models]
    scaled, wall = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        scaled.append(out["setup_s"])
        wall.append(out["wall_s"])
    return scaled, wall


# -- statistics and output -----------------------------------------------------


def quartiles(values) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summary_line(workload, name, unit, values, shown=None) -> str:
    q1, med, q3 = quartiles(values)
    value = med if shown is None else shown
    return (f"{workload:16s} {name:16s} {unit:5s} value={value:.6g} "
            f"median={med:.6g} q1={q1:.6g} q3={q3:.6g} n={len(values)}")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cartanlab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_metadata(args, load_before) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "loadavg_before": load_before,
        "loadavg_after": list(os.getloadavg()),
    }


def result_line(verdicts, metrics) -> str:
    return json.dumps({
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": metrics,
    }, allow_nan=False)


# -- the two kinds of run ------------------------------------------------------


def run_untraced(args, tasks, verdicts, lines) -> dict:
    import speed

    setup, setup_wall = measure_setup(workloads.model_names(args.workload))
    passes = []
    start = time.perf_counter()
    with speed.SpeedProbe() as probe:
        while True:
            passes.append(run_pass(tasks, probe))
            verdicts.add_pass(tasks, passes[-1], passes[0] if len(passes) > 1 else None)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) > args.seconds:  # next pass would overrun
                break

    latencies = [x for p in passes for x in p.latencies]
    samples = {
        "setup_s": setup,
        "verify_s": [p.seconds for p in passes],
        "report_p50_s": latencies,
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
    }
    metrics = {}
    for name, unit in END_TO_END:
        metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
        lines.append(summary_line(args.workload, name, unit, samples[name]))
    if len(latencies) >= 100:  # ten samples beyond the 90th percentile
        p90 = statistics.quantiles(latencies, n=10)[8]
        lines.append(summary_line(args.workload, "report_p90_s", "s", latencies, p90))
    lines.append(summary_line(args.workload, "worst_err_ratio", "ratio",
                              [verdicts.worst_ratio]))
    lines.append(summary_line(args.workload, "setup_wall_s", "s", setup_wall))
    lines.append(summary_line(args.workload, "verify_wall_s", "s",
                              [sum(p.wall) for p in passes]))
    frac = verdicts.failed / verdicts.attempted
    lines.append(f"{args.workload:16s} {'check_fail_frac':16s} {'ratio':5s} "
                 f"value={frac:.6g} failed={verdicts.failed} "
                 f"attempted={verdicts.attempted}")
    return metrics


def run_traced(args, tasks, verdicts, lines) -> dict:
    import speed
    import tracing

    traced = []
    with speed.SpeedProbe() as probe:
        untraced = run_pass(tasks, probe)
        verdicts.add_pass(tasks, untraced)
        for _ in range(2):
            first = len(probe.chunks)
            tracer = tracing.Tracer(clock=probe.clock)
            with tracing.traced(tracer, extra_spans=(
                    (workloads, "run_without_jacobians", "experiments.run"),)):
                run = run_pass(tasks, probe)
            verdicts.add_pass(tasks, run, reference=untraced)
            factor = probe.factor(first)
            scaled = {name: value * factor if name.endswith(".self_s") else value
                      for name, value in tracer.metrics().items()}
            traced.append((run, scaled, tracer.absent))

    (run1, first, absent), (run2, second, _) = traced
    for name, value in first.items():
        if name.endswith(".calls") or name == "chartcalc.rk4_steps":
            verdicts.add_count(name, value, second[name])
    values = {name: (value + second[name]) / 2 if name.endswith(".self_s") else value
              for name, value in first.items()}
    values["trace.overhead_s"] = (run1.seconds + run2.seconds) / 2 - untraced.seconds

    absent_prefixes = {prefix for module, attr, prefix in tracing.TIMED
                       if f"{module}.{attr}" in absent}
    metrics = {}
    for name, unit, _ in tracing.PER_LAYER:
        metrics[name] = {"value": values[name], "unit": unit}
        shown = "absent" if name.rsplit(".", 1)[0] in absent_prefixes else f"{values[name]:.6g}"
        lines.append(f"{args.workload:16s} {name:44s} {unit:5s} {shown}")
    lines.extend(f"# absent {name}" for name in absent)
    lines.append(f"{args.workload:16s} trace overhead: untraced pass {untraced.seconds:.3f} s, "
                 f"traced passes {run1.seconds:.3f} s and {run2.seconds:.3f} s "
                 f"({values['trace.overhead_s'] / untraced.seconds:+.1%})")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="the workload to run; all of them, one process each, if omitted")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def run_each_workload(args) -> int:
    """Run every workload in a fresh process of its own; the exit code is the
    worst of theirs."""
    code = 0
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, timeout=900)
        code = max(code, proc.returncode)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_each_workload(args)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # before numpy is imported
    if not (SRC / "cartanlab" / "__init__.py").is_file():
        print(f"error: no cartanlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cartanlab

    if Path(cartanlab.__file__).resolve().parent != (SRC / "cartanlab").resolve():
        print(f"error: imported cartanlab from {cartanlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    load_before = list(os.getloadavg())
    tasks = workloads.build_tasks(args.workload, args.seed)
    verdicts = Verdicts()
    lines = []
    run = run_traced if args.trace else run_untraced
    metrics = run(args, tasks, verdicts, lines)

    for line in lines:
        print(line)
    for failure in verdicts.failures:
        print(f"FAILED {failure}")
    print("# meta " + json.dumps(run_metadata(args, load_before), sort_keys=True))
    print(result_line(verdicts, metrics), flush=True)
    return 0 if verdicts.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
