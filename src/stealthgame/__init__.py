"""Decentralized Gaussian stealth-attack games on linearized state estimation.

The package builds the Gaussian observation model of a sensed linear
system, evaluates mutual-information / KL-divergence attack metrics,
solves the three attacker games by round-robin best-response dynamics,
and validates stealth with Monte-Carlo likelihood-ratio detection.
"""

from .grid import (
    Branch,
    BusNetwork,
    JacobianMatrix,
    NetworkFormatError,
    build_dc_jacobian,
    bundled_case,
    load_matrix,
    parse_network,
    serialize_network,
)
from .model import (
    MeasurementModel,
    StatePriorSpec,
    attacked_cov,
    build_model,
    calibrate_noise,
    toeplitz_cov,
)
from .metrics import (
    kl_global,
    kl_local,
    mi_global,
    mi_local,
)
from .games import GameSpec, cost, potential
from .bestresponse import (
    BRContext,
    best_response,
    br_context,
    br_g1,
    br_g2,
    br_g3,
)
from .dynamics import (
    ConvergenceReport,
    NonFiniteUpdateError,
    TrajectoryRecord,
    potential_audit,
    run_brd,
    verify_ne,
)
from .detection import (
    error_curve,
    llr_joint,
    llr_samples,
    roc_auc,
    sample_observations,
    threshold_curve,
)

__version__ = "0.1.0"
