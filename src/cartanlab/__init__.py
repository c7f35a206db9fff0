"""Cartan connections on Lie groupoids, numerically, in coordinate charts.

The library presents Lie groupoids by their structure maps on a single chart,
does closed-form arithmetic in the groupoid of bisection one-jets, verifies
every formula against brute-force bisection-jet oracles, infinitesimalizes
horizontal-jet connections to linear connections on the algebroid, and runs
curvature/integrability and classical principal-bundle experiments over a zoo
of concrete models.
"""

from .chartcalc import ChartMap, MetricChart, christoffel, differentiate, flow
from .connection import (
    AlgebroidConnection,
    CartanConnection,
    algebroid_transport,
    check_multiplicative,
    infinitesimalize,
    parallel_transport,
)
from .curvature import (
    CurvatureTensor,
    ReconstructionResult,
    curvature,
    flatness_experiment,
    frobenius_torsion,
    reconstruct_action,
)
from .groupoid import (
    AlgebroidVec,
    Arrow,
    GroupoidModel,
    Jet1,
    algebroid_bracket,
    aligned_frame,
    anchor,
    identity_jet,
    jet_distance,
    oracle_jet,
    oracle_jet_inverse,
    oracle_jet_mul,
)
from .jetalg import (
    KernelHom,
    adjoint,
    aut_inv,
    aut_mul,
    jet_decompose,
    jet_invert,
    jet_mul,
    mul_kernel_right,
    vee,
)
from .report import Check, ExperimentConfig, Report

__version__ = "0.1.0"
