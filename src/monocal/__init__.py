"""monocal: optimal monotone staircase calibration of estimator scores.

Fits the unique nondecreasing step function minimizing a cumulative strictly
convex loss over (score, target) observations, via four solvers: offline
pass-based merging, a single-sweep stack variant, an online streaming updater
for ordered arrivals, and an anytime bisection solver for losses that only
expose a derivative. Each loss is one ``LossFamily`` value; the built-ins are
``WEIGHTED_SQUARE`` and ``LOG_LOSS``.

Public names resolve lazily (PEP 562): ``import monocal`` loads no submodule,
and the first use of a name imports the module that defines it, so a command
line run loads only the solvers it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_HOMES = {
    "errors": None,
    "Sample": "core",
    "Problem": "problem",
    "Block": "problem",
    "normalize": "problem",
    "Staircase": "staircase",
    "evaluate": "staircase",
    "blocks_to_staircase": "staircase",
    "blocks_loss": "problem",
    "LossFamily": "losses",
    "DerivativeOracle": "losses",
    "WEIGHTED_SQUARE": "losses",
    "LOG_LOSS": "losses",
    "weighted_square_merge": "losses",
    "check_label": "losses",
    "FitReport": "pav_offline",
    "fit_direct": "pav_offline",
    "fit_stack": "pav_offline",
    "direct_passes": "pav_offline",
    "OnlineState": "online",
    "AnytimeGroup": "anytime",
    "AnytimeConfig": "anytime",
    "AnytimeResult": "anytime",
    "probe_point": "anytime",
    "anytime_init": "anytime",
    "anytime_run": "anytime",
    "OracleResult": "oracle",
    "brute_force_fit": "oracle",
    "grid_minimize": "oracle",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str) -> object:
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = _HOMES[name]
    # A submodule (None) is the module itself; importing it binds it here too.
    value = import_module(f".{home or name}", __name__)
    if home is not None:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
