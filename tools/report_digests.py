"""Print the report-digest line of the benchmark workloads at one seed.

    python3 tools/report_digests.py SEED [WORKLOAD ...]

Run it from anywhere in a checkout: cartanlab is imported from ./src and the
workloads from ./perfbench. Each report of a workload (perfbench/workloads.py,
build_tasks + run_task) is digested as the sha256 of its to_json_bytes; a
workload's digest is the first 16 hex of the sha256 over its report digests
joined by newlines. The pseudo-workload all-pairs digests every experiment on
every model (both in sorted name order) through experiments.run at
ALL_PAIRS_SAMPLES samples, skipping the pairs the experiment rejects with a
ConfigError, so it pins the experiments no benchmark workload runs. The line
lists the digests in the order given (every workload, then all-pairs, by
default), separated by " / ". The digests depend on the numpy and BLAS build,
so compare them only between runs on one machine. Exits 1 when a workload
name is unknown.
"""

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ALL_PAIRS = "all-pairs"
ALL_PAIRS_SAMPLES = 4


def digest(reports) -> str:
    digests = [hashlib.sha256(report.to_json_bytes()).hexdigest() for report in reports]
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()[:16]


def all_pairs_reports(seed: int):
    from cartanlab import experiments
    from cartanlab.errors import ConfigError
    from cartanlab.models import MODELS
    from cartanlab.report import ExperimentConfig

    for experiment in sorted(experiments.EXPERIMENTS):
        for model in sorted(MODELS):
            config = ExperimentConfig(model=model, experiment=experiment, seed=seed,
                                      sample_count=ALL_PAIRS_SAMPLES)
            try:
                report = experiments.run(config)
            except ConfigError:  # the experiment does not run on this model
                continue
            yield report


def main(argv: list[str]) -> int:
    if not argv:
        print(f"usage: {__doc__.splitlines()[2].strip()}", file=sys.stderr)
        return 1
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # as the benchmark runs, before numpy is imported
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    known = [*workloads.WORKLOADS, ALL_PAIRS]
    seed, names = int(argv[0]), argv[1:] or known
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown workload(s) {unknown}; known: {known}", file=sys.stderr)
        return 1
    print(" / ".join(
        digest(all_pairs_reports(seed)) if name == ALL_PAIRS
        else digest(map(workloads.run_task, workloads.build_tasks(name, seed)))
        for name in names))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
