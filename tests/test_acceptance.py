"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here and nowhere else: closed jet arithmetic agrees with
the bisection-jet oracle to 1e-7 with analytic jacobians and 1e-5 on the pure
finite-difference path; the two infinitesimalization routes agree to 1e-4;
flatness/involutivity verdicts use 1e-4 with a 10x margin for the non-flat
model; reconstruction residuals sit at 1e-5 (1e-4 for path independence);
classical round trips at 1e-6 and the parallelism-derivative consistency at
1e-4; reports must be byte-identical across reruns.
"""

import json

import numpy as np

from cartanlab.chartcalc import worst_case
from cartanlab.connection import infinitesimalize
from cartanlab.curvature import flatness_experiment, reconstruct_action
from cartanlab.groupoid import jet_distance, oracle_jet_mul, random_section, sample_base_point
from cartanlab.jetalg import (
    jet_assemble,
    jet_decompose,
    jet_invert,
    jet_mul,
    mul_kernel_right,
    random_jet,
    random_kernel_hom,
    vee,
)
from cartanlab.groupoid import oracle_jet_inverse
from cartanlab.models import make_model
from cartanlab.report import ExperimentConfig
from cartanlab.experiments import run

JET_MODELS = ["pair-R2", "se2-action", "gauge-se2-so2", "isojet-sphere"]
NABLA_MODELS = ["pair-R2", "translation-R2", "se2-action", "so3-sphere",
                "gauge-se2-so2", "isojet-sphere"]
FLAT_MODELS = ["translation-R2", "se2-action", "so3-sphere", "isojet-plane",
               "isojet-sphere"]
RECONSTRUCT_RANKS = {"translation-R2": 2, "se2-action": 3, "so3-sphere": 3,
                     "isojet-plane": 3, "isojet-sphere": 3}


def report_line(num, label, passed, detail):
    print(f"ACCEPTANCE {num} {'PASS' if passed else 'FAIL'}: {label} ({detail})")
    assert passed, f"criterion {num}: {label}: {detail}"


def sample_ops_worst(model, S, samples, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        g, h = model.sample_composable(rng)
        mu1 = random_jet(model, S.jet, g, rng)
        mu2 = random_jet(model, S.jet, h, rng)
        worst = worst_case(worst, jet_distance(
            jet_invert(model, mu1), oracle_jet_inverse(model, mu1)))
        phi = random_kernel_hom(model, g.source, rng)
        worst = worst_case(worst, jet_distance(
            mul_kernel_right(model, mu1, phi),
            oracle_jet_mul(model, mu1, vee(phi))))
        garr, phi_d = jet_decompose(model, mu1, S.jet)
        worst = worst_case(worst, jet_distance(
            jet_assemble(model, garr, phi_d, S.jet), mu1))
        worst = worst_case(worst, jet_distance(
            jet_mul(model, mu1, mu2, S.jet), oracle_jet_mul(model, mu1, mu2)))
    return worst


def routes_worst(model, first, second, samples, seed):
    """The largest entry of first - second over sampled (m, v, X)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        m = sample_base_point(model, rng)
        v = rng.uniform(-1.0, 1.0, size=model.n)
        X = random_section(model, rng)
        deviation = first(m, v, X).vec - second(m, v, X).vec
        worst = worst_case(worst, float(np.max(np.abs(deviation))))
    return worst


def test_criterion_1_jet_arithmetic_vs_oracle():
    samples = 200
    worst_by_mode = {"analytic": 0.0, "finite-difference": 0.0}
    for name in JET_MODELS:
        model, S = make_model(name)
        worst_by_mode["analytic"] = worst_case(
            worst_by_mode["analytic"], sample_ops_worst(model, S, samples, seed=101))
        fd_model = model.without_jacobians()
        fd_S = type(S)(fd_model, S.mu_at, name=S.name)
        worst_by_mode["finite-difference"] = worst_case(
            worst_by_mode["finite-difference"],
            sample_ops_worst(fd_model, fd_S, samples, seed=102))
    ok = (worst_by_mode["analytic"] <= 1e-7
          and worst_by_mode["finite-difference"] <= 1e-5)
    report_line(1, "jet arithmetic vs oracle on >=200 samples/model", ok,
                f"analytic {worst_by_mode['analytic']:.2e} <= 1e-7, "
                f"fd {worst_by_mode['finite-difference']:.2e} <= 1e-5")


def test_criterion_2_product_formula_identity_suites():
    worst = {}
    for name in JET_MODELS:
        for exp in ("lemma-3-3", "theorem-3-4"):
            rep = run(ExperimentConfig(model=name, experiment=exp, seed=11,
                                       sample_count=50))
            for c in rep.checks:
                key = f"{exp}:{c.name}"
                worst[key] = worst_case(worst.get(key, 0.0), c.max_error / c.tolerance)
    bad = {k: v for k, v in worst.items() if v > 1.0}
    report_line(2, "kernel-product and semidirect identity suites", not bad,
                f"worst error/tolerance ratio {max(worst.values()):.2e} over "
                f"{len(worst)} checks x {len(JET_MODELS)} models")


def test_criterion_3_infinitesimalization_routes_agree():
    samples = 100
    worst = 0.0
    for name in NABLA_MODELS:
        model, S = make_model(name)
        worst = worst_case(worst, routes_worst(
            model, infinitesimalize(S, "flow-formula"),
            infinitesimalize(S, "parallel-transport"), samples, seed=33))
    report_line(3, "flow-formula vs parallel-transport on >=100 samples/model",
                worst <= 1e-4, f"max deviation {worst:.2e} <= 1e-4")


def test_criterion_4_flatness_integrability_experiment():
    tol = 1e-4
    details = []
    ok = True
    for name in FLAT_MODELS:
        _, S = make_model(name)
        rep = flatness_experiment(S, seed=21, count=12, tolerance=tol)
        ok = ok and rep.flat and rep.involutive
        details.append(f"{name}: R {rep.max_curvature:.1e} tau {rep.max_torsion:.1e}")
    _, S = make_model("isojet-perturbed")
    rep = flatness_experiment(S, seed=21, count=25, tolerance=tol)
    frac_r = float(np.mean(rep.curvature_norms > 10 * tol))
    frac_t = float(np.mean(rep.torsion_norms > 10 * tol))
    ok = ok and (not rep.flat) and (not rep.involutive)
    ok = ok and frac_r >= 0.8 and frac_t >= 0.8
    details.append(f"perturbed: fractions above 10x tol R {frac_r:.2f} tau {frac_t:.2f}")
    report_line(4, "flatness <-> involutivity verdicts", ok, "; ".join(details))


def test_criterion_5_action_algebra_reconstruction():
    ok = True
    details = []
    for name in FLAT_MODELS:
        model, S = make_model(name)
        nabla = infinitesimalize(S, "direct-formula")
        m0 = 0.5 * (model.base_box[:, 0] + model.base_box[:, 1])
        res = reconstruct_action(nabla, m0, sample_count=5, seed=5)
        good = (res.dim_g0 == RECONSTRUCT_RANKS[name]
                and res.residuals["jacobi"] <= 1e-5
                and res.residuals["anchor_hom"] <= 1e-5
                and res.residuals["path_dependence"] <= 1e-4)
        ok = ok and good
        details.append(
            f"{name}: dim {res.dim_g0} jac {res.residuals['jacobi']:.1e} "
            f"hom {res.residuals['anchor_hom']:.1e} "
            f"path {res.residuals['path_dependence']:.1e}")
    report_line(5, "flat-connection action-algebra reconstruction", ok,
                "; ".join(details))


def test_criterion_6_classical_roundtrip_and_induced_connection():
    rep = run(ExperimentConfig(model="gauge-se2-so2", experiment="classical-bridge",
                               seed=13, sample_count=20))
    by_name = {c.name: c for c in rep.checks}
    ok = (by_name["roundtrip-connection"].max_error <= 1e-6
          and by_name["roundtrip-parallelism"].max_error <= 1e-6
          and by_name["induced-connection-agreement"].max_error <= 1e-4)
    report_line(6, "classical correspondence round trip", ok,
                f"S {by_name['roundtrip-connection'].max_error:.2e} <= 1e-6, "
                f"omega {by_name['roundtrip-parallelism'].max_error:.2e} <= 1e-6, "
                f"induced {by_name['induced-connection-agreement'].max_error:.2e} <= 1e-4")


def test_criterion_7_classical_curvature():
    rep = run(ExperimentConfig(model="gauge-se2-so2", experiment="classical-bridge",
                               seed=17, sample_count=20))
    by_name = {c.name: c for c in rep.checks}
    mc = by_name["maurer-cartan-curvature"]
    r25 = by_name["parallel-derivative-of-curvature"]
    nonzero = by_name["mismatched-model-curvature-nonzero"]
    ok = mc.max_error <= 1e-6 and r25.max_error <= 1e-4 and nonzero.passed
    report_line(7, "classical curvature identities", ok,
                f"maurer-cartan {mc.max_error:.2e} <= 1e-6, "
                f"parallel-derivative {r25.max_error:.2e} <= 1e-4 with "
                f"nonvanishing curvature")


def test_accumulators_read_a_nan_sample_as_failing(monkeypatch):
    # max(worst, nan) == worst would drop the sample and pass the criterion
    model, S = make_model("pair-R2")
    monkeypatch.setitem(globals(), "jet_distance", lambda j1, j2: float("nan"))
    assert sample_ops_worst(model, S, samples=1, seed=101) == np.inf
    nt = infinitesimalize(S, "direct-formula")

    def nan_route(m, v, X):
        out = nt(m, v, X)
        return type(out)(out.base, np.full_like(out.vec, np.nan))

    assert routes_worst(model, nt, nan_route, samples=2, seed=33) == np.inf


def test_criterion_8_deterministic_reports(tmp_path):
    cfg = ExperimentConfig(model="se2-action", experiment="inversion", seed=99)
    blobs = []
    for _ in range(2):
        rep = run(cfg)
        blobs.append((rep.to_json_bytes(), rep.to_csv_bytes()))
    ok = blobs[0] == blobs[1]
    data = json.loads(blobs[0][0])
    ok = ok and data["seed"] == 99 and all("tolerance" in c for c in data["checks"])
    report_line(8, "bit-identical reports at fixed seed/config", ok,
                f"{len(blobs[0][0])} json bytes, {len(blobs[0][1])} csv bytes")
