"""monocal: optimal monotone staircase calibration of estimator scores.

Fits the unique nondecreasing step function minimizing a cumulative strictly
convex loss over (score, target) observations, via four solvers: offline
pass-based merging, a single-sweep stack variant, an online streaming updater
for ordered arrivals, and an anytime bisection solver for losses that only
expose a derivative. Each loss is one ``LossFamily`` value; the built-ins are
``WEIGHTED_SQUARE`` and ``LOG_LOSS``.
"""

from . import errors
from .anytime import (
    AnytimeConfig,
    AnytimeGroup,
    AnytimeResult,
    anytime_init,
    anytime_run,
    probe_point,
)
from .core import (
    Block,
    Problem,
    Sample,
    Staircase,
    blocks_loss,
    blocks_to_staircase,
    evaluate,
    normalize,
)
from .losses import (
    LOG_LOSS,
    WEIGHTED_SQUARE,
    DerivativeOracle,
    LossFamily,
    check_label,
    weighted_square_merge,
)
from .online import OnlineState
from .oracle import OracleResult, brute_force_fit, grid_minimize
from .pav_offline import FitReport, direct_passes, fit_direct, fit_stack

__version__ = "0.1.0"

__all__ = [
    "errors",
    "Sample",
    "Problem",
    "Block",
    "Staircase",
    "normalize",
    "evaluate",
    "blocks_to_staircase",
    "blocks_loss",
    "LossFamily",
    "DerivativeOracle",
    "WEIGHTED_SQUARE",
    "LOG_LOSS",
    "weighted_square_merge",
    "check_label",
    "FitReport",
    "fit_direct",
    "fit_stack",
    "direct_passes",
    "OnlineState",
    "AnytimeGroup",
    "AnytimeConfig",
    "AnytimeResult",
    "probe_point",
    "anytime_init",
    "anytime_run",
    "OracleResult",
    "brute_force_fit",
    "grid_minimize",
    "__version__",
]
