"""Print every benchmark check whose value moved between two checkouts.

    python3 tools/report_diff.py OTHER_CHECKOUT SEEDS [WORKLOAD ...]

SEEDS is a comma-separated list of seeds and inclusive ranges, e.g.
1-60,101-140. The reports of each workload (perfbench/workloads.py,
build_tasks + run_task) run at every seed in two subprocesses side by side,
one per checkout, each importing its own checkout's src/ and perfbench/, as
report_digests.py does. A check whose max_error or verdict differs is
printed as

    jet-oracle seed 111 inversion/se2-action/analytic: invert-vs-oracle 1.27e-07 FAIL → 9.9e-08 pass

with the value from OTHER_CHECKOUT first and the value from this checkout
second (max_error as repr, so any change in the last bit shows). A check that
only one side has is printed with "absent" on the other. Without workloads,
every workload this checkout's perfbench/workloads.py lists is compared. The
pseudo-workload all-pairs compares the reports report_digests.py digests
under that name, every experiment on every model it accepts, labelled
"all-pairs seed S EXPERIMENT/MODEL"; name it to have it compared.
Exits 0 when nothing moved, 1 when something did, and 2 on bad arguments or
when a side fails to run.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from report_digests import ALL_PAIRS, BLAS_THREAD_VARS, all_pairs_reports

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def dump(root: str, seeds: str, names: list[str]) -> int:
    """The child side: one JSON line per report of root's checkout, with its
    label and, per check name, [repr(max_error), passed]."""
    sys.path[:0] = [str(Path(root) / "src"), str(Path(root) / "perfbench")]
    import workloads

    for seed in parse_seeds(seeds):
        for name in names:
            if name == ALL_PAIRS:
                labelled = ((f"{r.experiment}/{r.model}", r) for r in all_pairs_reports(seed))
            else:
                labelled = ((task.label, workloads.run_task(task))
                            for task in workloads.build_tasks(name, seed))
            for label, report in labelled:
                checks = {c.name: [repr(float(c.max_error)), bool(c.passed)]
                          for c in report.checks}
                print(json.dumps({"label": f"{name} seed {seed} {label}", "checks": checks}),
                      flush=True)
    return 0


def _shown(value) -> str:
    return "absent" if value is None else f"{value[0]} {'pass' if value[1] else 'FAIL'}"


def main(argv: list[str]) -> int:
    if argv[:1] == ["--dump"]:
        return dump(argv[1], argv[2], argv[3:])
    if len(argv) < 2:
        print(f"usage: {__doc__.splitlines()[2].strip()}", file=sys.stderr)
        return 2
    other, seeds, names = Path(argv[0]).resolve(), argv[1], argv[2:]
    try:
        parse_seeds(seeds)
    except ValueError:
        print(f"bad seeds {seeds!r}; expected e.g. 1-60,101-140", file=sys.stderr)
        return 2
    if not (other / "src" / "cartanlab").is_dir():
        print(f"{other} is no cartanlab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    known = [*workloads.WORKLOADS, ALL_PAIRS]
    names = names or list(workloads.WORKLOADS)
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown workload(s) {unknown}; known: {known}", file=sys.stderr)
        return 2
    env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1")}
    results = []
    for root in (other, ROOT):  # both sides run at once, each into its own file
        out = tempfile.TemporaryFile("w+")
        side = subprocess.Popen([sys.executable, __file__, "--dump", str(root), seeds, *names],
                                stdout=out, text=True, env=env)
        results.append((side, out))
    reports = []
    for side, out in results:
        if side.wait():
            print("a side failed to run its reports", file=sys.stderr)
            return 2
        out.seek(0)
        reports.append({r["label"]: r["checks"] for r in map(json.loads, out)})
    before, after = reports
    moved = 0
    for label in dict.fromkeys([*before, *after]):
        old, new = before.get(label, {}), after.get(label, {})
        for name in dict.fromkeys([*old, *new]):
            if old.get(name) != new.get(name):
                moved += 1
                print(f"{label}: {name} {_shown(old.get(name))} → {_shown(new.get(name))}")
    print(f"{moved} moved check(s) in {len(after)} reports", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
