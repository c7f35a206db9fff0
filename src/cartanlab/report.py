"""Experiment configuration and machine-readable reports.

Configs are strict JSON: unknown keys are rejected before any computation.
Reports serialize deterministically (sorted keys, repr floats), so a fixed
(config, seed, build) reproduces identical bytes.
"""

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field

from .chartcalc import FD_STEP
from .connection import ODE_STEP_TARGET, T_DIFF_STEP
from .curvature import CURV_FD_STEP, GRID_SPACING
from .errors import ConfigError

ALLOWED_FORMATS = ("json", "csv")

_CONFIG_KEYS = {"model", "experiment", "seed", "sample_count", "tolerances",
                "output", "format"}
_MODEL_KEYS = {"name", "parameters"}


@dataclass(frozen=True)
class ExperimentConfig:
    model: str
    experiment: str
    model_params: dict = field(default_factory=dict)
    seed: int = 0
    sample_count: int | None = None
    tolerances: dict = field(default_factory=dict)
    output: str = "."
    format: str = "json"

    def __post_init__(self):
        """Every way of making a config passes here: parse_config, direct
        construction and dataclasses.replace (the CLI's overrides)."""
        if not (isinstance(self.model, str) and isinstance(self.experiment, str)):
            raise ConfigError("the model name and the experiment must be strings")
        if not isinstance(self.model_params, dict):
            raise ConfigError("model parameters must be an object")
        if type(self.seed) is not int or self.seed < 0:  # a bool is no number
            raise ConfigError("seed must be a non-negative integer")
        count = self.sample_count
        if count is not None and (type(count) is not int or count < 1):
            raise ConfigError("sample_count must be a positive integer")
        if not isinstance(self.tolerances, dict) or not all(
                type(v) in (int, float) and 0 <= v <= sys.float_info.max
                for v in self.tolerances.values()):
            raise ConfigError("tolerances must map check names to finite non-negative numbers")
        if self.format not in ALLOWED_FORMATS:
            raise ConfigError(f"format must be one of {ALLOWED_FORMATS}")
        if not isinstance(self.output, str):
            raise ConfigError("output must be a directory path string")


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw JSON config dict; unknown keys are errors."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("model", "experiment"):
        if key not in raw:
            raise ConfigError(f"config is missing required key {key!r}")
    model = raw["model"]
    params: dict = {}
    if isinstance(model, dict):
        unknown = set(model) - _MODEL_KEYS
        if unknown:
            raise ConfigError(f"unknown model keys: {sorted(unknown)}")
        if "name" not in model:
            raise ConfigError("model object needs a 'name'")
        params = model.get("parameters", {})
        name = model["name"]
    elif isinstance(model, str):
        name = model
    else:
        raise ConfigError("model must be a string or an object with name/parameters")
    return ExperimentConfig(
        model=name,
        experiment=raw["experiment"],
        model_params=params,
        seed=raw.get("seed", 0),
        sample_count=raw.get("sample_count"),
        tolerances=raw.get("tolerances", {}),
        output=raw.get("output", "."),
        format=raw.get("format", "json"),
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh, parse_constant=_not_json)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)


def _not_json(constant: str):
    raise ConfigError(f"config is not valid JSON: {constant} is not a JSON value")


@dataclass(frozen=True)
class Check:
    """One verified property: its worst observed error against its tolerance."""

    name: str
    samples: int
    max_error: float
    tolerance: float
    detail: str = field(default="", compare=False)  # e.g. an abort's message; not in as_dict

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance

    def as_dict(self) -> dict:
        """Strict-JSON form: a non-finite max_error or tolerance is written as
        null and named, with its value, under "non_finite"."""
        out = {
            "name": self.name,
            "samples": self.samples,
            "max_error": float(self.max_error),
            "tolerance": float(self.tolerance),
            "pass": self.passed,
        }
        non_finite = {key: repr(out[key]) for key in ("max_error", "tolerance")
                      if not math.isfinite(out[key])}
        if non_finite:
            out.update(dict.fromkeys(non_finite))
            out["non_finite"] = non_finite
        return out


ENVIRONMENT_FINGERPRINT = {
    "fd_step": FD_STEP,
    "t_diff_step": T_DIFF_STEP,
    "ode_step_target": ODE_STEP_TARGET,
    "curvature_fd_step": CURV_FD_STEP,
    "grid_spacing": GRID_SPACING,
    "rng": "numpy PCG64 (np.random.default_rng)",
}


@dataclass(frozen=True)
class Report:
    experiment: str
    model: str
    seed: int
    checks: tuple[Check, ...]

    @property
    def verdict(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "model": self.model,
            "seed": self.seed,
            "checks": [c.as_dict() for c in self.checks],
            "environment": ENVIRONMENT_FINGERPRINT,
            "verdict": self.verdict,
        }

    def to_json_bytes(self) -> bytes:
        return (json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n").encode()

    def to_csv_bytes(self) -> bytes:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["experiment", "model", "seed", "check", "samples",
                         "max_error", "tolerance", "pass"])
        for c in self.checks:
            writer.writerow([self.experiment, self.model, self.seed, c.name,
                             c.samples, repr(float(c.max_error)),
                             repr(float(c.tolerance)), c.passed])
        return buf.getvalue().encode()

    def serialize(self, fmt: str) -> bytes:
        if fmt == "json":
            return self.to_json_bytes()
        if fmt == "csv":
            return self.to_csv_bytes()
        raise ConfigError(f"unknown report format {fmt!r}")
