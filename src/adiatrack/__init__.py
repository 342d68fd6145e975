"""adiatrack: tabular TD(0)/Q-learning tracking of drifting policies, with
mixing-bound and tracking-bound verification at desk scale."""

from .chains import (
    ergodicity_coefficient,
    simulate,
    stationary_distribution,
)
from .schedules import (
    DriftParams,
    Schedule,
    schedule_from_spec,
    verify_drift,
)
from .dp import (
    RewardSpec,
    bellman_g,
    check_lipschitz_q,
    exact_q,
    exact_reward,
)
from .learners import (
    LearningRate,
    NoiseModel,
    TrackingTrace,
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
