"""Named verification suites over the model zoo.

Every experiment draws seeded samples, measures worst-case deviations of the
identities it verifies, and returns Check records; numerical failures surface
as failed checks rather than exceptions. Verdicts are deterministic for a
fixed (config, seed).
"""

import math

import numpy as np

from .chartcalc import jacobian_fd, worst_case, worst_case_min
from .connection import (
    UNITAL_SAMPLES,
    check_multiplicative,
    check_unital,
    infinitesimalize,
    infinitesimalize_along,
)
from .curvature import flatness_experiment, reconstruct_action
from .errors import CartanLabError, ConfigError, NotABisectionError
from .groupoid import (
    algebroid_bracket,
    algebroid_vec,
    aligned_frame,
    check_axioms,
    compose_bisections,
    extend_bisection,
    identity_jet,
    jet_distance,
    oracle_jet,
    oracle_jet_inverse,
    oracle_jet_mul,
    random_section,
    right_translate,
    sample_base_point,
)
from .jetalg import (
    KernelHom,
    adjoint,
    adjoint_hom,
    adjoint_tm,
    adjoint_vec,
    assemble_bisection,
    aut_inv,
    aut_mul,
    jet_decompose,
    jet_invert,
    jet_mul,
    kernel_section_pushforward,
    mul_kernel_right,
    random_jet,
    random_kernel_hom,
    vee,
)
from .models import EXPECTED_FLAT, MODELS, make_model
from .models.classical import (
    classical_curvature,
    classical_curvature_parallel_frame,
    classical_invariants,
    classical_to_groupoid,
    nabla_omega,
    rebuild_classical,
    recover_omega,
    se2_v_bracket,
    so3_v_bracket,
)
from .models.isojet import isometry_matrix, prolongation_jet
from .report import Check, ExperimentConfig, Report

DEFAULT_COUNTS = {
    "jet-axioms": 40,
    "inversion": 40,
    "lemma-3-3": 30,
    "theorem-3-4": 20,
    "multiplicativity": 50,
    "nabla-compare": 25,
    "flatness": 20,
    "reconstruct": 5,
    "classical-bridge": 15,
    "riemannian": 20,
}

ANALYTIC_TOL = 1e-7
FD_TOL = 1e-5


def _tol(config: ExperimentConfig, name: str, default: float) -> float:
    return float(config.tolerances.get(name, default))


def _oracle_tol(model, config, name, default=ANALYTIC_TOL):
    base = default if model.has_jacobians else FD_TOL
    return _tol(config, name, base)


# -- individual experiments ----------------------------------------------------


def run_jet_axioms(model, S, config, count) -> list[Check]:
    rng = np.random.default_rng(config.seed)
    axioms = check_axioms(model, rng, count=count)
    checks = [Check("groupoid-axioms", count, max(axioms.values()),
                    _tol(config, "groupoid-axioms", 1e-10))]

    worst_rt = worst_assoc = worst_invlaw = 0.0
    for _ in range(count):
        g, h = model.sample_composable(rng)
        j1 = random_jet(model, S.jet, g, rng)
        j2 = random_jet(model, S.jet, h, rng)
        worst_rt = worst_case(worst_rt, jet_distance(
            oracle_jet(model, extend_bisection(model, j1), j1.g.source), j1))
        k = model.arrow(model.arrow_with_source(g.target, rng))
        j0 = random_jet(model, S.jet, k, rng)
        lhs = oracle_jet_mul(model, oracle_jet_mul(model, j0, j1), j2)
        rhs = oracle_jet_mul(model, j0, oracle_jet_mul(model, j1, j2))
        worst_assoc = worst_case(worst_assoc, jet_distance(lhs, rhs))
        worst_invlaw = worst_case(worst_invlaw, jet_distance(
            oracle_jet_mul(model, j1, oracle_jet_inverse(model, j1)),
            identity_jet(model, j1.g.target)))
    checks.append(Check("oracle-jet-roundtrip", count, worst_rt,
                        _oracle_tol(model, config, "oracle-jet-roundtrip", 1e-8)))
    checks.append(Check("oracle-mul-associativity", count, worst_assoc,
                        _tol(config, "oracle-mul-associativity", 1e-6)))
    checks.append(Check("oracle-inverse-law", count, worst_invlaw,
                        _oracle_tol(model, config, "oracle-inverse-law")))

    worst_anchor = worst_anti = 0.0
    for _ in range(max(5, count // 4)):
        X = random_section(model, rng)
        Y = random_section(model, rng)
        m = sample_base_point(model, rng)
        bracket = algebroid_bracket(model, X, Y, m)
        lhs = model.Ttgt(model.unit(m)) @ bracket.vec

        def anchored(sec):
            return lambda mm: model.Ttgt(model.unit(mm)) @ np.asarray(sec(mm), dtype=float)

        Xa, Ya = anchored(X), anchored(Y)
        rhs = jacobian_fd(Ya, m) @ Xa(m) - jacobian_fd(Xa, m) @ Ya(m)
        worst_anchor = worst_case(worst_anchor, float(np.max(np.abs(lhs - rhs))))
        worst_anti = worst_case(worst_anti, float(np.max(np.abs(
            algebroid_bracket(model, X, X, m).vec))))
    checks.append(Check("anchor-bracket-homomorphism", max(5, count // 4),
                        worst_anchor, _tol(config, "anchor-bracket-homomorphism", 1e-6)))
    checks.append(Check("bracket-antisymmetry", max(5, count // 4), worst_anti,
                        _tol(config, "bracket-antisymmetry", 1e-8)))
    return checks


def run_inversion(model, S, config, count) -> list[Check]:
    rng = np.random.default_rng(config.seed)
    worst_vs_oracle = worst_double = worst_law = 0.0
    for _ in range(count):
        g = model.sample_arrow(rng)
        j = random_jet(model, S.jet, g, rng)
        jinv = jet_invert(model, j)
        worst_vs_oracle = worst_case(worst_vs_oracle,
                                     jet_distance(jinv, oracle_jet_inverse(model, j)))
        worst_double = worst_case(worst_double, jet_distance(jet_invert(model, jinv), j))
        worst_law = worst_case(worst_law, jet_distance(
            oracle_jet_mul(model, jinv, j), identity_jet(model, j.g.source)))
    return [
        Check("invert-vs-oracle", count, worst_vs_oracle,
              _oracle_tol(model, config, "invert-vs-oracle")),
        Check("double-inversion", count, worst_double,
              _tol(config, "double-inversion", 1e-8)),
        Check("inverse-law-via-oracle", count, worst_law,
              _oracle_tol(model, config, "inverse-law-via-oracle")),
    ]


def run_lemma_3_3(model, S, config, count) -> list[Check]:
    rng = np.random.default_rng(config.seed)
    w1 = w2 = w3 = w4 = 0.0
    for _ in range(count):
        g = model.sample_arrow(rng)
        mu = random_jet(model, S.jet, g, rng)
        phi = random_kernel_hom(model, g.source, rng)
        # (1) product with a kernel element on the right
        nu = mul_kernel_right(model, mu, phi)
        w1 = worst_case(w1, jet_distance(nu, oracle_jet_mul(model, mu, vee(phi))))
        # (2) nu mu^-1 is the embedded difference element
        garr, psi = jet_decompose(model, nu, lambda a, mu=mu: mu)
        w2 = worst_case(w2, jet_distance(
            vee(psi), oracle_jet_mul(model, nu, oracle_jet_inverse(model, mu))))
        # (3) conjugation: mu vee(phi) mu^-1 = vee(Ad_mu phi)
        conj = oracle_jet_mul(model, oracle_jet_mul(model, mu, vee(phi)),
                              jet_invert(model, mu))
        w3 = worst_case(w3, jet_distance(conj, vee(adjoint_hom(model, mu, phi))))
        # (4) mu - nu = TR_g Ad_mu (phi .) column by column
        u = model.unit_arrow(g.target)
        for j in range(model.n):
            xj = algebroid_vec(model, g.source, phi.phi[:, j], check=False)
            adv = adjoint_vec(model, mu, xj)
            col = right_translate(model, g, u, adv.vec)
            w4 = worst_case(w4, float(np.max(np.abs(mu.mu[:, j] - nu.mu[:, j] - col))))
    tol = _oracle_tol(model, config, "lemma-3-3")
    return [
        Check("kernel-right-product", count, w1, _tol(config, "kernel-right-product", tol)),
        Check("difference-element", count, w2, _tol(config, "difference-element", tol)),
        Check("conjugation-identity", count, w3, _tol(config, "conjugation-identity", tol)),
        Check("translation-difference", count, w4, _tol(config, "translation-difference", tol)),
    ]


def run_theorem_3_4(model, S, config, count) -> list[Check]:
    rng = np.random.default_rng(config.seed)
    w_morph = w_inv = w_eq = w_anchor = 0.0
    for _ in range(count):
        m = sample_base_point(model, rng)
        psi = random_kernel_hom(model, m, rng)
        phi = random_kernel_hom(model, m, rng)
        w_morph = worst_case(w_morph, jet_distance(
            vee(aut_mul(psi, phi)), oracle_jet_mul(model, vee(psi), vee(phi))))
        w_inv = worst_case(w_inv, jet_distance(
            vee(aut_inv(phi)), oracle_jet_inverse(model, vee(phi))))
        # equivariance of the embedding
        w_eq = worst_case(w_eq, float(np.max(np.abs(
            adjoint_tm(model, vee(phi)) - phi.phi_tm))))
        X = algebroid_vec(model, m, random_kernel_hom(model, m, rng).phi[:, 0],
                          check=False)
        w_eq = worst_case(w_eq, float(np.max(np.abs(
            adjoint_vec(model, vee(phi), X).vec - phi.phi_g(X).vec))))
        # anchor equivariance of the adjoint action
        g = model.arrow(model.arrow_with_source(m, rng))
        mu = random_jet(model, S.jet, g, rng)
        adx = adjoint_vec(model, mu, X)
        lhs = model.Ttgt(model.unit(g.target)) @ adx.vec
        rhs = adjoint_tm(model, mu) @ (model.Ttgt(model.unit(m)) @ X.vec)
        w_anchor = worst_case(w_anchor, float(np.max(np.abs(lhs - rhs))))

    # semidirect law for bisections of the jet groupoid, on a few base points
    w_semi = 0.0
    semi_samples = max(3, count // 4)
    for _ in range(semi_samples):
        g1, g2 = model.sample_composable(rng)
        b1 = extend_bisection(model, S.jet(g1))
        b2 = extend_bisection(model, S.jet(g2))

        def kernel_section(seed_rng):
            ref = sample_base_point(model, seed_rng)
            frame = aligned_frame(model, ref)
            C0 = seed_rng.uniform(-0.3, 0.3, size=(frame.rank, model.n))
            C1 = seed_rng.uniform(-0.3, 0.3, size=(frame.rank, model.n))

            def Phi(mm):
                mm = np.asarray(mm, dtype=float)
                coeff = C0 + C1 * mm[0]
                return KernelHom(model, mm, frame(mm) @ coeff)

            return Phi

        Phi1 = kernel_section(rng)
        Phi2 = kernel_section(rng)
        B1 = assemble_bisection(model, b1, Phi1)
        B2 = assemble_bisection(model, b2, Phi2)
        m = g2.source
        j2 = B2(m)
        j1 = B1(j2.g.target)
        lhs = oracle_jet_mul(model, j1, j2)
        b12 = compose_bisections(model, b1, b2)
        pushed = kernel_section_pushforward(model, b1, Phi2)

        def Phi12(mm):
            return aut_mul(Phi1(mm), pushed(mm))

        rhs = assemble_bisection(model, b12, Phi12)(m)
        w_semi = worst_case(w_semi, jet_distance(lhs, rhs))

    # the connection-induced isomorphism with the semidirect product
    w_c = w_admorph = 0.0
    for _ in range(count):
        g1, g2 = model.sample_composable(rng)
        mu1 = random_jet(model, S.jet, g1, rng)
        mu2 = random_jet(model, S.jet, g2, rng)
        prod = jet_mul(model, mu1, mu2, S.jet)
        w_c = worst_case(w_c, jet_distance(prod, oracle_jet_mul(model, mu1, mu2)))
        v = rng.uniform(-1.0, 1.0, size=model.n)
        w_admorph = worst_case(w_admorph, float(np.max(np.abs(
            adjoint(model, prod, v)
            - adjoint(model, mu1, adjoint(model, mu2, v))))))
        X = algebroid_vec(model, g2.source,
                          random_kernel_hom(model, g2.source, rng).phi[:, 0],
                          check=False)
        w_admorph = worst_case(w_admorph, float(np.max(np.abs(
            adjoint_vec(model, prod, X).vec
            - adjoint_vec(model, mu1, adjoint_vec(model, mu2, X)).vec))))

    tol = _oracle_tol(model, config, "theorem-3-4")
    return [
        Check("kernel-embedding-morphism", count, w_morph,
              _tol(config, "kernel-embedding-morphism", tol)),
        Check("kernel-embedding-inverse", count, w_inv,
              _tol(config, "kernel-embedding-inverse", tol)),
        Check("embedding-equivariance", count, w_eq,
              _tol(config, "embedding-equivariance", 1e-8)),
        Check("adjoint-anchor-equivariance", count, w_anchor,
              _tol(config, "adjoint-anchor-equivariance", 1e-8)),
        Check("semidirect-bisection-law", semi_samples, w_semi,
              _tol(config, "semidirect-bisection-law", tol)),
        Check("semidirect-multiplication", count, w_c,
              _tol(config, "semidirect-multiplication", tol)),
        Check("adjoint-is-morphism", count, w_admorph,
              _tol(config, "adjoint-is-morphism", tol)),
    ]


def run_multiplicativity(model, S, config, count) -> list[Check]:
    rng = np.random.default_rng(config.seed)
    rep = check_multiplicative(S, seed=config.seed, count=count,
                               tolerance=_tol(config, "multiplicative", 1e-7))
    unital = check_unital(S, rng)
    return [
        Check("multiplicative", rep.samples, rep.max_error, rep.tolerance),
        Check("unital", UNITAL_SAMPLES, unital, _tol(config, "unital", 1e-9)),
    ]


def run_nabla_compare(model, S, config, count) -> list[Check]:
    rng = np.random.default_rng(config.seed)
    nd = infinitesimalize(S, "direct-formula")
    nf = infinitesimalize(S, "flow-formula")
    nt = infinitesimalize(S, "parallel-transport")
    bend = np.full(model.n, 0.3)
    bend[0] = -0.2
    nq = infinitesimalize_along(S, lambda m, v: (lambda t: m + t * v + t * t * bend))
    w_ft = w_df = w_dt = w_path = w_leib = 0.0
    for _ in range(count):
        m = sample_base_point(model, rng)
        v = rng.uniform(-1.0, 1.0, size=model.n)
        X = random_section(model, rng)
        a = nd(m, v, X).vec
        b = nf(m, v, X).vec
        c = nt(m, v, X).vec
        q = nq(m, v, X).vec
        w_ft = worst_case(w_ft, float(np.max(np.abs(b - c))))
        w_df = worst_case(w_df, float(np.max(np.abs(a - b))))
        w_dt = worst_case(w_dt, float(np.max(np.abs(a - c))))
        w_path = worst_case(w_path, float(np.max(np.abs(q - c))))
        scale = float(rng.uniform(0.5, 1.5))
        grad = rng.uniform(-0.5, 0.5, size=model.n)

        def fX(mm):
            return (scale + grad @ np.asarray(mm)) * np.asarray(X(mm), dtype=float)

        lhs = nd(m, v, fX).vec
        rhs = (grad @ v) * np.asarray(X(m), dtype=float) + (scale + grad @ m) * a
        w_leib = worst_case(w_leib, float(np.max(np.abs(lhs - rhs))))
    return [
        Check("flow-vs-transport", count, w_ft, _tol(config, "flow-vs-transport", 1e-4)),
        Check("direct-vs-flow", count, w_df, _tol(config, "direct-vs-flow", 1e-4)),
        Check("direct-vs-transport", count, w_dt, _tol(config, "direct-vs-transport", 1e-4)),
        Check("path-independence", count, w_path, _tol(config, "path-independence", 1e-4)),
        Check("leibniz", count, w_leib, _tol(config, "leibniz", 1e-6)),
    ]


def run_flatness(model, S, config, count) -> list[Check]:
    tol = _tol(config, "flatness", 1e-4)
    rep = flatness_experiment(S, seed=config.seed, count=count, tolerance=tol)
    checks = []
    if EXPECTED_FLAT.get(config.model, True):
        checks.append(Check("curvature-flat", count, rep.max_curvature, tol))
        checks.append(Check("torsion-involutive", count, rep.max_torsion, tol))
    else:
        # non-flat expectation: at least 80% of samples above ten times the
        # tolerance, encoded as the failing fraction against 0.2. A NaN
        # sample would count as non-flat, so a non-finite table reads inf.
        frac_r = float(np.mean(rep.curvature_norms <= 10 * tol)) if rep.finite else np.inf
        frac_t = float(np.mean(rep.torsion_norms <= 10 * tol)) if rep.finite else np.inf
        checks.append(Check("curvature-nonflat-fraction-below", count, frac_r, 0.2))
        checks.append(Check("torsion-noninvolutive-fraction-below", count, frac_t, 0.2))
    checks.append(Check("verdict-agreement", count,
                        0.0 if rep.agreement else 1.0, 0.5))
    return checks


def run_reconstruct(model, S, config, count) -> list[Check]:
    if not EXPECTED_FLAT.get(config.model, True):
        raise ConfigError(f"reconstruct needs a flat model, not {model.name}")
    nabla = infinitesimalize(S, "direct-formula")
    m0 = 0.5 * (model.base_box[:, 0] + model.base_box[:, 1])
    res = reconstruct_action(nabla, m0, sample_count=count, seed=config.seed)
    rank = aligned_frame(model, m0).rank
    return [
        Check("dim-g0", 1, abs(res.dim_g0 - rank), 0.5),
        Check("jacobi", 1, res.residuals["jacobi"], _tol(config, "jacobi", 1e-5)),
        Check("anchor-homomorphism", count, res.residuals["anchor_hom"],
              _tol(config, "anchor-homomorphism", 1e-5)),
        Check("parallelism", 1, res.residuals["parallelism"],
              _tol(config, "parallelism", 1e-5)),
        Check("path-independence", 1, res.residuals["path_dependence"],
              _tol(config, "path-independence", 1e-4)),
    ]


def run_classical_bridge(model, S, config, count) -> list[Check]:
    cc = model.extras.get("classical")
    if cc is None:
        raise ConfigError("classical-bridge runs on gauge models only "
                          f"(got {model.name})")
    rng = np.random.default_rng(config.seed)
    inv = classical_invariants(cc, rng, count=count)

    m0 = np.zeros(model.n)
    rec = recover_omega(S, m0)
    cc2 = rebuild_classical(rec, cc)
    _, S2 = classical_to_groupoid(cc2)
    w_s = 0.0
    for _ in range(count):
        g = model.sample_arrow(rng)
        w_s = worst_case(w_s, float(np.max(np.abs(
            np.asarray(S.mu_at(g.coords)) - np.asarray(S2.mu_at(g.coords))))))

    u0 = cc.sigma(m0)
    lam = rec.omega_matrix(u0) @ np.linalg.inv(np.asarray(cc.omega_matrix(u0), dtype=float))
    w_omega = 0.0
    for _ in range(count):
        u = rng.uniform(cc.p_box[:, 0], cc.p_box[:, 1])
        w_omega = worst_case(w_omega, float(np.max(np.abs(
            rec.omega_matrix(u) - lam @ np.asarray(cc.omega_matrix(u), dtype=float)))))

    nw = nabla_omega(cc, model)
    nd = infinitesimalize(S, "direct-formula")
    w_nabla = 0.0
    for _ in range(max(5, count // 3)):
        m = sample_base_point(model, rng)
        v = rng.uniform(-1.0, 1.0, size=model.n)
        X = random_section(model, rng)
        w_nabla = worst_case(w_nabla, float(np.max(np.abs(
            nw(m, v, X).vec - nd(m, v, X).vec))))

    w_mc = 0.0
    for _ in range(count):
        p = rng.uniform(cc.p_box[:, 0], cc.p_box[:, 1])
        w_mc = worst_case(w_mc, float(np.max(np.abs(
            classical_curvature(cc, se2_v_bracket, p)))))

    w_r25 = 0.0
    min_omega_mag = np.inf
    for _ in range(max(3, count // 5)):
        p = rng.uniform(cc.p_box[:, 0], cc.p_box[:, 1])
        F0, dF = classical_curvature_parallel_frame(cc, so3_v_bracket, p)
        min_omega_mag = worst_case_min(min_omega_mag, float(np.max(np.abs(F0))))
        w_r25 = worst_case(w_r25, float(np.max(np.abs(dF))))

    return [
        Check("parallelism-axioms", count, max(inv["generator"], inv["equivariance"]),
              _tol(config, "parallelism-axioms", 1e-9)),
        Check("roundtrip-connection", count, w_s, _tol(config, "roundtrip-connection", 1e-6)),
        Check("roundtrip-parallelism", count, w_omega,
              _tol(config, "roundtrip-parallelism", 1e-6)),
        Check("induced-connection-agreement", max(5, count // 3), w_nabla,
              _tol(config, "induced-connection-agreement", 1e-4)),
        Check("maurer-cartan-curvature", count, w_mc,
              _tol(config, "maurer-cartan-curvature", 1e-6)),
        Check("mismatched-model-curvature-nonzero", max(3, count // 5),
              0.0 if min_omega_mag > 0.1 else 1.0, 0.5),
        Check("parallel-derivative-of-curvature", max(3, count // 5), w_r25,
              _tol(config, "parallel-derivative-of-curvature", 1e-4)),
    ]


def run_riemannian(model, S, config, count) -> list[Check]:
    metric = model.extras.get("metric")
    if metric is None:
        raise ConfigError(f"riemannian runs on isometry-jet models only (got {model.name})")
    rng = np.random.default_rng(config.seed)
    w_iso = w_res = w_first = 0.0
    for _ in range(count):
        g = model.sample_arrow(rng)
        A = isometry_matrix(metric, g.coords[:2], g.coords[2:4], g.coords[4])
        w_iso = worst_case(w_iso, float(np.max(np.abs(
            A.T @ metric(g.coords[2:4]) @ A - metric(g.coords[:2])))))
        _, res = prolongation_jet(metric, g.coords)
        w_res = worst_case(w_res, res)
        # first-order metric compatibility of the oracle jet of the extension
        b = extend_bisection(model, S.jet(g))
        try:
            j = oracle_jet(model, b, g.source)
        except NotABisectionError:  # the jet is no bisection's, e.g. NaN
            w_first = math.inf
            continue
        Tphi = model.Ttgt(j.g.coords) @ j.mu
        w_first = worst_case(w_first, float(np.max(np.abs(
            Tphi.T @ metric(j.g.target) @ Tphi - metric(j.g.source)))))
    rep = check_multiplicative(S, seed=config.seed, count=max(10, count // 2),
                               tolerance=_tol(config, "multiplicative", 1e-7))
    flat = flatness_experiment(S, seed=config.seed, count=max(6, count // 3))
    expect_flat = EXPECTED_FLAT.get(config.model, True)
    verdict_err = 0.0 if (flat.finite and flat.flat == expect_flat
                          and flat.involutive == expect_flat) else 1.0
    return [
        Check("chart-isometry", count, w_iso, _tol(config, "chart-isometry", 1e-9)),
        Check("prolongation-residual", count, w_res,
              _tol(config, "prolongation-residual", 1e-8)),
        Check("jet-metric-compatibility", count, w_first,
              _tol(config, "jet-metric-compatibility", 1e-7)),
        Check("multiplicative", rep.samples, rep.max_error, rep.tolerance),
        Check("flatness-verdict", max(6, count // 3), verdict_err, 0.5),
    ]


EXPERIMENTS = {
    "jet-axioms": run_jet_axioms,
    "inversion": run_inversion,
    "lemma-3-3": run_lemma_3_3,
    "theorem-3-4": run_theorem_3_4,
    "multiplicativity": run_multiplicativity,
    "nabla-compare": run_nabla_compare,
    "flatness": run_flatness,
    "reconstruct": run_reconstruct,
    "classical-bridge": run_classical_bridge,
    "riemannian": run_riemannian,
}


def run(config: ExperimentConfig) -> Report:
    """Run a configured experiment and assemble its report.

    Unknown model or experiment names are rejected before any computation;
    numerical failures inside an experiment become failed checks."""
    if config.experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {config.experiment!r}; known: {sorted(EXPERIMENTS)}")
    if config.model not in MODELS:
        raise ConfigError(
            f"unknown model {config.model!r}; known: {sorted(MODELS)}")
    model, S = make_model(config.model, config.model_params)
    count = config.sample_count or DEFAULT_COUNTS[config.experiment]
    try:
        checks = EXPERIMENTS[config.experiment](model, S, config, count)
    except ConfigError:
        raise
    except (CartanLabError, np.linalg.LinAlgError, FloatingPointError) as exc:
        checks = [Check(f"aborted[{type(exc).__name__}]", 0, np.inf, 0.0)]
    return Report(
        experiment=config.experiment,
        model=config.model,
        seed=config.seed,
        checks=tuple(checks),
    )
