"""adiatrack: tabular TD(0)/Q-learning tracking of drifting policies, with
mixing-bound and tracking-bound verification at desk scale."""

from .chains import (
    Distribution,
    TransitionMatrix,
    ergodicity_coefficient,
    is_irreducible,
    matrix_tv_distance,
    propagate_marginal,
    second_eigenvalue_2x2,
    simulate,
    stationary_distribution,
    tv_distance,
)
from .schedules import (
    DriftParams,
    Schedule,
    restart_wrap,
    schedule_from_spec,
    verify_drift,
)
from .dp import (
    RewardSpec,
    bellman_f,
    bellman_g,
    check_lipschitz_q,
    check_lipschitz_reward,
    check_restart_identity,
    exact_q,
    exact_reward,
)
from .learners import (
    LearningRate,
    NoiseModel,
    TrackingTrace,
    check_boundedness,
    q_track,
    td0_track,
)
from .bounds import (
    BoundReport,
    ExponentTriple,
    Thm2Constants,
    classify_regime,
    conditional_mixing_check,
    homogeneous_comparison_bound,
    noise_envelope_coverage,
    stationarity_gap_bound,
    tracking_error_bound,
)
from .harness import ExperimentConfig, fit_slope, log_checkpoints, run_sweep, run_tracking

__version__ = "0.1.0"
