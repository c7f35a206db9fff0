"""Batch experiment runner.

    cartan-lab run --config cfg.json [--seed N] [--out DIR] [--format json|csv]
    cartan-lab list

Reports are written to the output directory and a one-line pass/fail summary
per check is printed; the exit code is 0 exactly when the verdict passes.
"""

import argparse
import dataclasses
import os
import sys

from .errors import ConfigError
from .experiments import DEFAULT_COUNTS, EXPERIMENTS, run
from .models import MODELS
from .report import load_config


def _cmd_list() -> int:
    print("models:")
    for name in sorted(MODELS):
        print(f"  {name}")
    print("experiments:")
    for name in sorted(EXPERIMENTS):
        print(f"  {name} (default samples: {DEFAULT_COUNTS[name]})")
    return 0


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.out is not None:
        config = dataclasses.replace(config, output=args.out)
    if args.format is not None:
        config = dataclasses.replace(config, format=args.format)

    report = run(config)

    os.makedirs(config.output, exist_ok=True)
    fname = f"{config.experiment}-{config.model}-seed{config.seed}.{config.format}"
    path = os.path.join(config.output, fname)
    with open(path, "wb") as fh:
        fh.write(report.serialize(config.format))

    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status}  {c.name:40s} max_error={c.max_error:.3e} "
              f"tolerance={c.tolerance:.1e} samples={c.samples}"
              + (f"  {c.detail}" if c.detail else ""))
    print(f"{'PASS' if report.verdict else 'FAIL'}  verdict "
          f"({config.experiment} on {config.model}, seed {config.seed}) -> {path}")
    return 0 if report.verdict else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cartan-lab",
        description="verification experiments for Cartan connections on Lie groupoids")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", required=True, help="path to a JSON config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="override the output directory")
    p_run.add_argument("--format", choices=("json", "csv"), default=None,
                       help="override the report format")

    sub.add_parser("list", help="list models and experiments")

    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        return _cmd_run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
