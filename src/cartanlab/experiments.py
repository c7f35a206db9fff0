"""Named verification suites over the model zoo.

Every experiment draws seeded samples, measures worst-case deviations of the
identities it verifies, and returns Check records; numerical failures surface
as failed checks rather than exceptions. Verdicts are deterministic for a
fixed (config, seed).
"""

import math
from functools import partial

import numpy as np

from .chartcalc import WorstErrors, draw_then_evaluate, jacobian_fd, matvecs, worst_case_min
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
    aligned_frame,
    anchor_matrices,
    check_axioms,
    compose_bisections,
    extend_bisection,
    extend_bisections,
    identity_jets,
    jet_distance,
    jet_distances,
    oracle_jet,
    oracle_jet_inverses,
    oracle_jet_mul,
    oracle_jet_muls,
    oracle_jets,
    random_section,
    right_translate_many,
    sample_base_point,
)
from .jetalg import (
    KernelHom,
    adjoint_hom_many,
    adjoint_tm_many,
    adjoint_vec_many,
    assemble_bisection,
    aut_inv_many,
    aut_mul,
    aut_mul_many,
    deferred_kernel_hom,
    jet_assemble_many,
    jet_decompose_many,
    jet_invert_many,
    jet_mul_many,
    kernel_section_pushforward,
    mul_kernel_right_many,
    random_kernel_hom,
    vee_many,
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


class _Checks:
    """An experiment's checks, each declared once in report order with its
    name, sample count and default tolerance, which the config overrides
    under the check's name unless it is fixed. declare returns the check's
    recorder; build makes the Checks (chartcalc.WorstErrors)."""

    def __init__(self, model, config: ExperimentConfig):
        self.has_jacobians = model.has_jacobians
        self.tolerances = config.tolerances
        self.worst = WorstErrors()
        self.declared: list[tuple[str, int, float]] = []

    def oracle(self, analytic: float = ANALYTIC_TOL) -> float:
        """The default tolerance against the oracle: FD_TOL without jacobians."""
        return analytic if self.has_jacobians else FD_TOL

    def tolerance(self, key: str, default: float) -> float:
        return float(self.tolerances.get(key, default))

    def declare(self, name: str, samples: int, tol: float, fixed: bool = False):
        self.declared.append((name, samples, tol if fixed else self.tolerance(name, tol)))
        self.worst[name] = 0.0
        return partial(self.worst.record, name)

    def build(self) -> list[Check]:
        return [Check(name, samples, self.worst[name], tol)
                for name, samples, tol in self.declared]


# -- individual experiments ----------------------------------------------------


def draw_kernels_then_evaluate(rng, count, draw, evaluate) -> None:
    """chartcalc.draw_then_evaluate for a draw(kernel_hom) that draws its
    kernel elements through kernel_hom: deferred_kernel_hom, so each kernel
    field is resolved as one stack, and random_kernel_hom when the stack is
    replayed on a rejection or the samples rerun on an error."""
    draw_then_evaluate(rng, count, partial(draw, deferred_kernel_hom), evaluate,
                       replay=partial(draw, random_kernel_hom))


def run_jet_axioms(model, S, config, count) -> list[Check]:
    rng = np.random.default_rng(config.seed)
    checks = _Checks(model, config)
    axioms = checks.declare("groupoid-axioms", count, 1e-10)
    roundtrip = checks.declare("oracle-jet-roundtrip", count, checks.oracle(1e-8))
    associativity = checks.declare("oracle-mul-associativity", count, 1e-6)
    inverse_law = checks.declare("oracle-inverse-law", count, checks.oracle())
    bracket_samples = max(5, count // 4)
    anchor = checks.declare("anchor-bracket-homomorphism", bracket_samples, 1e-6)
    antisymmetry = checks.declare("bracket-antisymmetry", bracket_samples, 1e-8)

    for error in check_axioms(model, rng, count=count).values():
        axioms(error)

    def draw(kernel_hom):
        g, h = model.sample_composable(rng)
        phi1 = kernel_hom(model, g.target, rng)
        phi2 = kernel_hom(model, h.target, rng)
        k = model.arrow(model.arrow_with_source(g.target, rng))
        return g.coords, phi1, h.coords, phi2, k.coords, kernel_hom(model, k.target, rng)

    def evaluate(G, phi1, H, phi2, K, phi0):
        j1 = jet_assemble_many(model, G, phi1, S.mu_many)
        j2 = jet_assemble_many(model, H, phi2, S.mu_many)
        roundtrip(jet_distances(
            oracle_jets(model, extend_bisections(model, j1), j1.source), j1))
        j0 = jet_assemble_many(model, K, phi0, S.mu_many)
        lhs = oracle_jet_muls(model, oracle_jet_muls(model, j0, j1), j2)
        rhs = oracle_jet_muls(model, j0, oracle_jet_muls(model, j1, j2))
        associativity(jet_distances(lhs, rhs))
        inverse_law(jet_distances(
            oracle_jet_muls(model, j1, oracle_jet_inverses(model, j1)),
            identity_jets(model, j1.target)))

    draw_kernels_then_evaluate(rng, count, draw, evaluate)

    for _ in range(bracket_samples):
        X = random_section(model, rng)
        Y = random_section(model, rng)
        m = sample_base_point(model, rng)
        bracket = algebroid_bracket(model, X, Y, m)
        lhs = model.Ttgt(model.unit(m)) @ bracket.vec

        def anchored(sec):
            return lambda mm: model.Ttgt(model.unit(mm)) @ np.asarray(sec(mm), dtype=float)

        Xa, Ya = anchored(X), anchored(Y)
        rhs = jacobian_fd(Ya, m) @ Xa(m) - jacobian_fd(Xa, m) @ Ya(m)
        anchor(lhs - rhs)
        antisymmetry(algebroid_bracket(model, X, X, m).vec)
    return checks.build()


def run_inversion(model, S, config, count) -> list[Check]:
    rng = np.random.default_rng(config.seed)
    checks = _Checks(model, config)
    vs_oracle = checks.declare("invert-vs-oracle", count, checks.oracle())
    double = checks.declare("double-inversion", count, 1e-8)
    law = checks.declare("inverse-law-via-oracle", count, checks.oracle())

    def draw(kernel_hom):
        g = model.sample_arrow(rng)
        return g.coords, kernel_hom(model, g.target, rng)

    def evaluate(G, phi):
        j = jet_assemble_many(model, G, phi, S.mu_many)
        jinv = jet_invert_many(model, j)
        vs_oracle(jet_distances(jinv, oracle_jet_inverses(model, j)))
        double(jet_distances(jet_invert_many(model, jinv), j))
        law(jet_distances(oracle_jet_muls(model, jinv, j), identity_jets(model, j.source)))

    draw_kernels_then_evaluate(rng, count, draw, evaluate)
    return checks.build()


def run_lemma_3_3(model, S, config, count) -> list[Check]:
    rng = np.random.default_rng(config.seed)
    checks = _Checks(model, config)
    tol = checks.tolerance("lemma-3-3", checks.oracle())
    right_product = checks.declare("kernel-right-product", count, tol)
    difference = checks.declare("difference-element", count, tol)
    conjugation = checks.declare("conjugation-identity", count, tol)
    translation = checks.declare("translation-difference", count, tol)

    def draw(kernel_hom):
        g = model.sample_arrow(rng)
        phi_mu = kernel_hom(model, g.target, rng)  # mu's kernel factor
        return g.coords, phi_mu, kernel_hom(model, g.source, rng)

    def evaluate(G, phi_mu, phi):
        mu = jet_assemble_many(model, G, phi_mu, S.mu_many)
        # (1) product with a kernel element on the right
        nu = mul_kernel_right_many(model, mu, phi)
        mu_vee_phi = oracle_jet_muls(model, mu, vee_many(phi))
        right_product(jet_distances(nu, mu_vee_phi))
        # (2) nu mu^-1 is the embedded difference element
        psi = jet_decompose_many(model, nu, mu.mu)
        difference(jet_distances(
            vee_many(psi), oracle_jet_muls(model, nu, oracle_jet_inverses(model, mu))))
        # (3) conjugation: mu vee(phi) mu^-1 = vee(Ad_mu phi)
        conj = oracle_jet_muls(model, mu_vee_phi, jet_invert_many(model, mu))
        conjugation(jet_distances(conj, vee_many(adjoint_hom_many(model, mu, phi))))
        # (4) mu - nu = TR_g Ad_mu (phi .) column by column, row a * n + j
        n, N = model.n, model.N
        U = np.repeat(model.unit.many(mu.target), n, axis=0)
        adv = adjoint_vec_many(model, mu.repeat(n), np.repeat(mu.source, n, axis=0),
                               np.swapaxes(phi.phi, 1, 2).reshape(-1, N))
        col = right_translate_many(model, np.repeat(mu.coords, n, axis=0), U, adv)
        translation(np.swapaxes(mu.mu, 1, 2).reshape(-1, N)
                    - np.swapaxes(nu.mu, 1, 2).reshape(-1, N) - col)

    draw_kernels_then_evaluate(rng, count, draw, evaluate)
    return checks.build()


def run_theorem_3_4(model, S, config, count) -> list[Check]:
    rng = np.random.default_rng(config.seed)
    checks = _Checks(model, config)
    tol = checks.tolerance("theorem-3-4", checks.oracle())
    semi_samples = max(3, count // 4)
    morphism = checks.declare("kernel-embedding-morphism", count, tol)
    inverse = checks.declare("kernel-embedding-inverse", count, tol)
    equivariance = checks.declare("embedding-equivariance", count, 1e-8)
    anchor = checks.declare("adjoint-anchor-equivariance", count, 1e-8)
    semidirect = checks.declare("semidirect-bisection-law", semi_samples, tol)
    multiplication = checks.declare("semidirect-multiplication", count, tol)
    adjoint_morphism = checks.declare("adjoint-is-morphism", count, tol)

    def draw(kernel_hom):
        m = sample_base_point(model, rng)
        psi = kernel_hom(model, m, rng)
        phi = kernel_hom(model, m, rng)
        x = kernel_hom(model, m, rng)  # X is its first column
        g = model.arrow(model.arrow_with_source(m, rng))
        return m, psi, phi, x, g.coords, kernel_hom(model, g.target, rng)

    def evaluate(M, psi, phi, x, G, phi_mu):
        vee_prod = vee_many(aut_mul_many(psi, phi))
        vee_phi = vee_many(phi)
        morphism(jet_distances(vee_prod, oracle_jet_muls(model, vee_many(psi), vee_phi)))
        inverse(jet_distances(vee_many(aut_inv_many(phi)), oracle_jet_inverses(model, vee_phi)))
        # equivariance of the embedding
        equivariance(adjoint_tm_many(model, vee_phi) - phi.phi_tm)
        X = x.phi[:, :, 0]  # the vectors X: each drawn element's first column
        equivariance(adjoint_vec_many(model, vee_phi, M, X) - phi.phi_g(M, X))
        # anchor equivariance of the adjoint action
        mu = jet_assemble_many(model, G, phi_mu, S.mu_many)
        adx = adjoint_vec_many(model, mu, M, X)
        lhs = matvecs(anchor_matrices(model, mu.target), adx)
        rhs = matvecs(adjoint_tm_many(model, mu), matvecs(anchor_matrices(model, M), X))
        anchor(lhs - rhs)

    draw_kernels_then_evaluate(rng, count, draw, evaluate)

    # semidirect law for bisections of the jet groupoid, on a few base points
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
        semidirect(jet_distance(lhs, rhs))

    # the connection-induced isomorphism with the semidirect product
    def draw(kernel_hom):
        g1, g2 = model.sample_composable(rng)
        phi1 = kernel_hom(model, g1.target, rng)
        phi2 = kernel_hom(model, g2.target, rng)
        v = rng.uniform(-1.0, 1.0, size=model.n)
        return g1.coords, phi1, g2.coords, phi2, v, kernel_hom(model, g2.source, rng)

    def evaluate(G1, phi1, G2, phi2, V, x):
        mu1 = jet_assemble_many(model, G1, phi1, S.mu_many)
        mu2 = jet_assemble_many(model, G2, phi2, S.mu_many)
        prod = jet_mul_many(model, mu1, mu2, S.mu_many)
        multiplication(jet_distances(prod, oracle_jet_muls(model, mu1, mu2)))
        lhs = matvecs(adjoint_tm_many(model, prod), V)
        inner = matvecs(adjoint_tm_many(model, mu2), V)
        adjoint_morphism(lhs - matvecs(adjoint_tm_many(model, mu1), inner))
        X = x.phi[:, :, 0]
        lhs = adjoint_vec_many(model, prod, mu2.source, X)
        inner = adjoint_vec_many(model, mu2, mu2.source, X)
        adjoint_morphism(lhs - adjoint_vec_many(model, mu1, mu2.target, inner))

    draw_kernels_then_evaluate(rng, count, draw, evaluate)
    return checks.build()


def run_multiplicativity(model, S, config, count) -> list[Check]:
    checks = _Checks(model, config)
    checks.declare("multiplicative", count, 1e-7)(
        check_multiplicative(S, seed=config.seed, count=count))
    checks.declare("unital", UNITAL_SAMPLES, 1e-9)(
        check_unital(S, np.random.default_rng(config.seed)))
    return checks.build()


def run_nabla_compare(model, S, config, count) -> list[Check]:
    rng = np.random.default_rng(config.seed)
    checks = _Checks(model, config)
    flow_transport = checks.declare("flow-vs-transport", count, 1e-4)
    direct_flow = checks.declare("direct-vs-flow", count, 1e-4)
    direct_transport = checks.declare("direct-vs-transport", count, 1e-4)
    path_independence = checks.declare("path-independence", count, 1e-4)
    leibniz = checks.declare("leibniz", count, 1e-6)
    nd = infinitesimalize(S, "direct-formula")
    nf = infinitesimalize(S, "flow-formula")
    nt = infinitesimalize(S, "parallel-transport")
    bend = np.full(model.n, 0.3)
    bend[0] = -0.2
    nq = infinitesimalize_along(S, lambda m, v: (lambda t: m + t * v + t * t * bend))

    def draw():
        m = sample_base_point(model, rng)
        v = rng.uniform(-1.0, 1.0, size=model.n)
        X = random_section(model, rng)
        return m, v, X, float(rng.uniform(0.5, 1.5)), rng.uniform(-0.5, 0.5, size=model.n)

    def evaluate(M, V, X, scale, grad):
        # X is the family of the drawn sections; each route is one call over
        # all samples, an integrating route one RK4 integration
        a = nd.nabla(M, V, X)
        b = nf.nabla(M, V, X)
        c = nt.nabla(M, V, X)
        q = nq.nabla(M, V, X)
        flow_transport(b - c)
        direct_flow(a - b)
        direct_transport(a - c)
        path_independence(q - c)

        def f(P, owner):  # sample r's (scale + grad . m), as the dot grad @ m
            return scale[owner] + matvecs(grad[owner][:, None], P)[:, 0]

        def fX(P, owner):
            return f(P, owner)[:, None] * X(P, owner)

        lhs = nd.nabla(M, V, fX)
        own = np.arange(len(M))
        rhs = matvecs(grad[:, None], V)[:, 0, None] * X(M, own) + f(M, own)[:, None] * a
        leibniz(lhs - rhs)

    draw_then_evaluate(rng, count, draw, evaluate)
    return checks.build()


def run_flatness(model, S, config, count) -> list[Check]:
    checks = _Checks(model, config)
    tol = checks.tolerance("flatness", 1e-4)
    rep = flatness_experiment(S, seed=config.seed, count=count, tolerance=tol)
    if EXPECTED_FLAT.get(config.model, True):
        checks.declare("curvature-flat", count, tol, fixed=True)(rep.max_curvature)
        checks.declare("torsion-involutive", count, tol, fixed=True)(rep.max_torsion)
    else:
        # non-flat expectation: at least 80% of samples above ten times the
        # tolerance, encoded as the failing fraction against 0.2. A NaN
        # sample would count as non-flat, so a non-finite table reads inf.
        frac_r = float(np.mean(rep.curvature_norms <= 10 * tol)) if rep.finite else np.inf
        frac_t = float(np.mean(rep.torsion_norms <= 10 * tol)) if rep.finite else np.inf
        checks.declare("curvature-nonflat-fraction-below", count, 0.2, fixed=True)(frac_r)
        checks.declare("torsion-noninvolutive-fraction-below", count, 0.2,
                       fixed=True)(frac_t)
    checks.declare("verdict-agreement", count, 0.5, fixed=True)(
        0.0 if rep.agreement else 1.0)
    return checks.build()


def run_reconstruct(model, S, config, count) -> list[Check]:
    if not EXPECTED_FLAT.get(config.model, True):
        raise ConfigError(f"reconstruct needs a flat model, not {model.name}")
    nabla = infinitesimalize(S, "direct-formula")
    m0 = 0.5 * (model.base_box[:, 0] + model.base_box[:, 1])
    res = reconstruct_action(nabla, m0, sample_count=count, seed=config.seed)
    rank = aligned_frame(model, m0).rank
    checks = _Checks(model, config)
    checks.declare("dim-g0", 1, 0.5, fixed=True)(res.dim_g0 - rank)
    checks.declare("jacobi", 1, 1e-5)(res.residuals["jacobi"])
    checks.declare("anchor-homomorphism", count, 1e-5)(res.residuals["anchor_hom"])
    checks.declare("parallelism", 1, 1e-5)(res.residuals["parallelism"])
    checks.declare("path-independence", 1, 1e-4)(res.residuals["path_dependence"])
    return checks.build()


def run_classical_bridge(model, S, config, count) -> list[Check]:
    cc = model.extras.get("classical")
    if cc is None:
        raise ConfigError("classical-bridge runs on gauge models only "
                          f"(got {model.name})")
    rng = np.random.default_rng(config.seed)
    checks = _Checks(model, config)
    nabla_samples, curvature_samples = max(5, count // 3), max(3, count // 5)
    parallelism = checks.declare("parallelism-axioms", count, 1e-9)
    roundtrip_connection = checks.declare("roundtrip-connection", count, 1e-6)
    roundtrip_parallelism = checks.declare("roundtrip-parallelism", count, 1e-6)
    induced = checks.declare("induced-connection-agreement", nabla_samples, 1e-4)
    maurer_cartan = checks.declare("maurer-cartan-curvature", count, 1e-6)
    nonzero = checks.declare("mismatched-model-curvature-nonzero", curvature_samples,
                             0.5, fixed=True)
    parallel_derivative = checks.declare("parallel-derivative-of-curvature",
                                         curvature_samples, 1e-4)

    inv = classical_invariants(cc, rng, count=count)
    parallelism(inv["generator"])
    parallelism(inv["equivariance"])

    m0 = np.zeros(model.n)
    rec = recover_omega(S, m0)
    cc2 = rebuild_classical(rec, cc)
    _, S2 = classical_to_groupoid(cc2)
    for _ in range(count):
        g = model.sample_arrow(rng)
        roundtrip_connection(np.asarray(S.mu_at(g.coords)) - np.asarray(S2.mu_at(g.coords)))

    u0 = cc.sigma(m0)
    lam = rec.omega_matrix(u0) @ np.linalg.inv(np.asarray(cc.omega_matrix(u0), dtype=float))
    for _ in range(count):
        u = rng.uniform(cc.p_box[:, 0], cc.p_box[:, 1])
        roundtrip_parallelism(
            rec.omega_matrix(u) - lam @ np.asarray(cc.omega_matrix(u), dtype=float))

    nw = nabla_omega(cc, model)
    nd = infinitesimalize(S, "direct-formula")

    def draw_induced():
        m = sample_base_point(model, rng)
        return m, rng.uniform(-1.0, 1.0, size=model.n), random_section(model, rng)

    def evaluate_induced(M, V, X):  # X is the family of the drawn sections
        induced(nw.nabla(M, V, X) - nd.nabla(M, V, X))

    draw_then_evaluate(rng, nabla_samples, draw_induced, evaluate_induced)

    for _ in range(count):
        p = rng.uniform(cc.p_box[:, 0], cc.p_box[:, 1])
        maurer_cartan(classical_curvature(cc, se2_v_bracket, p))

    min_omega_mag = np.inf
    for _ in range(curvature_samples):
        p = rng.uniform(cc.p_box[:, 0], cc.p_box[:, 1])
        F0, dF = classical_curvature_parallel_frame(cc, so3_v_bracket, p)
        min_omega_mag = worst_case_min(min_omega_mag, float(np.max(np.abs(F0))))
        parallel_derivative(dF)
    nonzero(0.0 if min_omega_mag > 0.1 else 1.0)
    return checks.build()


def run_riemannian(model, S, config, count) -> list[Check]:
    metric = model.extras.get("metric")
    if metric is None:
        raise ConfigError(f"riemannian runs on isometry-jet models only (got {model.name})")
    rng = np.random.default_rng(config.seed)
    checks = _Checks(model, config)
    multiplicative_samples, flatness_samples = max(10, count // 2), max(6, count // 3)
    isometry = checks.declare("chart-isometry", count, 1e-9)
    residual = checks.declare("prolongation-residual", count, 1e-8)
    compatibility = checks.declare("jet-metric-compatibility", count, 1e-7)
    multiplicative = checks.declare("multiplicative", multiplicative_samples, 1e-7)
    verdict = checks.declare("flatness-verdict", flatness_samples, 0.5, fixed=True)
    for _ in range(count):
        g = model.sample_arrow(rng)
        A = isometry_matrix(metric, g.coords[:2], g.coords[2:4], g.coords[4])
        isometry(A.T @ metric(g.coords[2:4]) @ A - metric(g.coords[:2]))
        residual(prolongation_jet(metric, g.coords)[1])
        # first-order metric compatibility of the oracle jet of the extension
        b = extend_bisection(model, S.jet(g))
        try:
            j = oracle_jet(model, b, g.source)
        except NotABisectionError:  # the jet is no bisection's, e.g. NaN
            compatibility(math.inf)
            continue
        Tphi = model.Ttgt(j.g.coords) @ j.mu
        compatibility(Tphi.T @ metric(j.g.target) @ Tphi - metric(j.g.source))
    multiplicative(check_multiplicative(S, seed=config.seed, count=multiplicative_samples))
    flat = flatness_experiment(S, seed=config.seed, count=flatness_samples)
    expect_flat = EXPECTED_FLAT.get(config.model, True)
    verdict(0.0 if flat.agreement and flat.flat == expect_flat else 1.0)
    return checks.build()


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
        checks = [Check(f"aborted[{type(exc).__name__}]", 0, np.inf, 0.0, detail=str(exc))]
    return Report(
        experiment=config.experiment,
        model=config.model,
        seed=config.seed,
        checks=tuple(checks),
    )
