"""Print the report-digest line of the benchmark workloads at one seed.

    python3 tools/report_digests.py SEED [WORKLOAD ...]

Run it from anywhere in a checkout: cartanlab is imported from ./src and the
workloads from ./perfbench. Each report of a workload (perfbench/workloads.py,
build_tasks + run_task) is digested as the sha256 of its to_json_bytes; a
workload's digest is the first 16 hex of the sha256 over its report digests
joined by newlines. The line lists the workloads' digests in the order given
(every workload by default), separated by " / ". The digests depend on the
numpy and BLAS build, so compare them only between runs on one machine. Exits
1 when a workload name is unknown.
"""

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def workload_digest(workloads, workload: str, seed: int) -> str:
    digests = [hashlib.sha256(workloads.run_task(task).to_json_bytes()).hexdigest()
               for task in workloads.build_tasks(workload, seed)]
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()[:16]


def main(argv: list[str]) -> int:
    if not argv:
        print(f"usage: {__doc__.splitlines()[2].strip()}", file=sys.stderr)
        return 1
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # as the benchmark runs, before numpy is imported
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    seed, names = int(argv[0]), argv[1:] or list(workloads.WORKLOADS)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"unknown workload(s) {unknown}; known: {list(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 1
    print(" / ".join(workload_digest(workloads, n, seed) for n in names))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
