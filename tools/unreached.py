"""Print the functions and methods of cartanlab that no workload, no report
and no demo reaches.

    python3 tools/unreached.py SEED

Run it from anywhere in a checkout: cartanlab is imported from ./src, the
workloads and the tracer's lists from ./perfbench. Under one cProfile it runs
one pass of each benchmark workload at SEED (perfbench/workloads.py,
build_tasks + run_task), every experiment on every model it accepts at SEED
(tools/report_digests.py's all-pairs) and every demo under ./demos, with
their output discarded; each report is serialized as JSON, as the benchmark
does. It then lists every module-level function and every method defined
under src/cartanlab that none of them called. The command-line entry point
(cli.py) is not run.

Functions are matched by code object, not by (file, line, name): cProfile
keys a decorated function by its decorator's line, and a wrapper's code is
not the function's. A listed name is tagged `exported` when cartanlab's
top-level package exports it and `traced` when perfbench/tracing.py's TIMED
or RK4 lists it; deleting either kind breaks the public API or blinds the
tracer, so it stays even when nothing calls it.
"""

import contextlib
import cProfile
import functools
import importlib
import inspect
import io
import os
import pkgutil
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def defined_functions():
    """(code object, qualified name) of every module-level function and every
    method of a class defined under cartanlab, in file and source order."""
    import cartanlab

    found = {}
    for info in pkgutil.walk_packages(cartanlab.__path__, "cartanlab."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from elsewhere
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    code = _code(member)
                    if code is not None:
                        found[code] = f"{module.__name__}.{name}.{attr}"
            elif _code(obj) is not None:
                found[_code(obj)] = f"{module.__name__}.{name}"
    # dataclass-generated methods are compiled from strings, not from the source
    own = {code: name for code, name in found.items()
           if Path(code.co_filename).is_relative_to(ROOT / "src")}
    return sorted(own.items(), key=lambda item: (item[0].co_filename, item[0].co_firstlineno))


def _code(obj):
    """The code object a call of obj runs as its own body, or None."""
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    elif isinstance(obj, property):
        obj = obj.fget
    elif isinstance(obj, functools.cached_property):
        obj = obj.func
    if not inspect.isfunction(obj):
        return None
    return inspect.unwrap(obj).__code__


def reached_codes(seed: int) -> set:
    """The code objects one profiled pass of every workload, all-pairs and
    every demo runs."""
    import workloads
    from report_digests import all_pairs_reports

    profiler = cProfile.Profile()
    with contextlib.redirect_stdout(io.StringIO()):
        profiler.enable()
        try:
            for name in workloads.WORKLOADS:
                for task in workloads.build_tasks(name, seed):
                    workloads.run_task(task).serialize("json")
            for report in all_pairs_reports(seed):
                report.serialize("json")
            for demo in sorted((ROOT / "demos").glob("*.py")):
                runpy.run_path(str(demo), run_name="__main__")
        finally:
            profiler.disable()
    return {entry.code for entry in profiler.getstats() if not isinstance(entry.code, str)}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0].isdigit():
        print(f"usage: {__doc__.splitlines()[3].strip()}", file=sys.stderr)
        return 1
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # as the benchmark runs, before numpy is imported
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]
    import cartanlab
    import tracing

    functions = defined_functions()
    reached = reached_codes(int(argv[0]))
    exported = {id(obj) for obj in vars(cartanlab).values()}
    traced = {f"{module}.{attr}" for module, attr, _ in tracing.TIMED}
    traced |= {f"{module}.{attr}" for module, attr in tracing.RK4}
    unreached = [(name, code) for code, name in functions if code not in reached]
    print(f"# {len(unreached)} of {len(functions)} functions and methods under "
          f"src/cartanlab are reached by no workload, all-pairs or demo at seed {argv[0]}")
    for name, code in unreached:
        module, _, attr = name.rpartition(".")
        tags = []
        obj = getattr(sys.modules.get(module), attr, None)
        if obj is not None and id(obj) in exported:
            tags.append("exported")
        if name in traced:
            tags.append("traced")
        print(f"{name}:{code.co_firstlineno}  {' '.join(tags)}".rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
