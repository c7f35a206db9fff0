"""Seeded workloads of the cartanlab benchmark.

A workload is a fixed list of (experiment, model) reports; the seed only
chooses the ExperimentConfig seed of each report, so the same seed gives the
same inputs. One pass runs every report of the list once, one at a time, in
one process: a closed loop with a single client.

* nabla-routes: nabla-compare at its default count. The flow-formula route
  dominates it and its stencil points rarely repeat, so stencil batching shows
  here and a cache does not.
* flat-reconstruct: reconstruct and flatness. They run the direct-formula
  route under curvature, connection_matrix and _transport_matrix, where many
  mu_at and frame points repeat, so caching shows here; the flow-formula route
  is never called.
* jet-oracle: the jet experiments, each once through experiments.run
  (analytic jacobians) and once through EXPERIMENTS[name] on
  model.without_jacobians(). Its time goes to the oracle and to structure-map
  evaluations, on both the analytic and the finite-difference path of
  differentiate.

Nothing here imports numpy at module level, so the set-up probe can time that
import.
"""

import dataclasses
import random

NABLA_MODELS = ("se2-action", "so3-sphere", "isojet-sphere")
JET_MODELS = ("pair-R2", "se2-action", "gauge-se2-so2", "isojet-sphere")
JET_EXPERIMENTS = ("jet-axioms", "inversion", "lemma-3-3", "theorem-3-4",
                   "multiplicativity")

# workload -> ((experiment, model, without_jacobians), ...) in pass order
WORKLOADS = {
    "nabla-routes": tuple(("nabla-compare", m, False) for m in NABLA_MODELS),
    "flat-reconstruct": (
        ("reconstruct", "so3-sphere", False),
        ("reconstruct", "isojet-sphere", False),
        ("flatness", "isojet-perturbed", False),
        ("flatness", "isojet-sphere", False),
        ("flatness", "se2-action", False),
    ),
    "jet-oracle": tuple((e, m, fd) for e in JET_EXPERIMENTS for m in JET_MODELS
                        for fd in (False, True)),
}


@dataclasses.dataclass(frozen=True)
class Task:
    """One report of a pass: a config, run with or without analytic jacobians."""

    config: object  # cartanlab.report.ExperimentConfig
    without_jacobians: bool

    @property
    def label(self) -> str:
        path = "fd" if self.without_jacobians else "analytic"
        return f"{self.config.experiment}/{self.config.model}/{path}"


def model_names(workload: str) -> list[str]:
    """The distinct models a workload builds, in first-use order."""
    return list(dict.fromkeys(model for _, model, _ in WORKLOADS[workload]))


def build_tasks(workload: str, seed: int) -> list[Task]:
    """The workload's reports for one seed; the analytic and finite-difference
    halves of a jet-oracle pair share one config."""
    from cartanlab.report import ExperimentConfig

    rng = random.Random(f"{workload}/{seed}")
    tasks = []
    config = None
    for experiment, model, without_jacobians in WORKLOADS[workload]:
        if not without_jacobians:
            config = ExperimentConfig(model=model, experiment=experiment,
                                      seed=rng.randrange(2**31))
        tasks.append(Task(config, without_jacobians))
    return tasks


def run_task(task: Task):
    """Run one report through the public API and return it."""
    from cartanlab import experiments

    if task.without_jacobians:
        return run_without_jacobians(task.config)
    return experiments.run(task.config)


def run_without_jacobians(config):
    """experiments.run on the model stripped to finite differences, as the
    acceptance suite does; numerical failures become an aborted check as
    they do in experiments.run."""
    import numpy as np

    from cartanlab import experiments, models
    from cartanlab.connection import CartanConnection
    from cartanlab.errors import CartanLabError
    from cartanlab.report import Check, Report

    model, S = models.make_model(config.model, config.model_params)
    fd_model = model.without_jacobians()
    fd_S = CartanConnection(fd_model, S.mu_at, name=S.name)
    count = config.sample_count or experiments.DEFAULT_COUNTS[config.experiment]
    try:
        checks = experiments.EXPERIMENTS[config.experiment](fd_model, fd_S, config, count)
    except (CartanLabError, np.linalg.LinAlgError, FloatingPointError) as exc:
        checks = [Check(f"aborted[{type(exc).__name__}]", 0, np.inf, 0.0)]
    return Report(experiment=config.experiment, model=fd_model.name,
                  seed=config.seed, checks=tuple(checks))
