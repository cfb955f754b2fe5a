"""Balanced token pruning: staged attention/diversity selection for image tokens.

The engine scores image tokens by the attention they receive from prompt
text, rebalances the ranking against causal position bias, tops the kept
set up with max-min diverse tokens, and schedules the pruning layers from
a calibration-time representation-shift profile.  A deterministic float32
toy transformer serves as the testbed, and closed-form cost accounting
reports the FLOPs/KV savings of a schedule.

Each name below is imported from its module on first access, so that
``import btp`` loads no module and a command loads only those it runs.
"""

from importlib import import_module

_EXPORTS = {
    "calibration": (
        "DEFAULT_CALIBRATION_SIZE",
        "DEFAULT_TAU",
        "LayerSelection",
        "ShiftProfile",
        "aggregate_profiles",
        "build_schedule",
        "select_pruning_layers",
        "shift_profile",
        "synthetic_shift_stack",
    ),
    "costs": ("CostReport", "ModelDims", "layer_flops", "schedule_flops"),
    "diversity": (
        "DiversityConfig",
        "brute_force_maxmin",
        "distance_matrix",
        "greedy_maxmin",
        "grid_coordinates",
        "min_pairwise_distance",
        "spatial_init",
        "sum_of_distances",
    ),
    "errors": ("BtpError", "TraceError", "ValidationError"),
    "oracles": (
        "SuiteReport",
        "mmdp_suite",
        "orthonormal_value_instance",
        "roundtrip_suite",
        "single_layer_suite",
        "spatial_grid_exactness",
        "unequal_norm_counterexample",
    ),
    "scoring": ("importance_last_token", "rebalanced_topk"),
    "selector": (
        "ScheduleDriver",
        "StageInputs",
        "run_schedule",
        "run_stage",
        "select_stage",
        "trace_stage_provider",
    ),
    "toymodel": (
        "ForwardRecord",
        "ToyConfig",
        "ToyWeights",
        "forward",
        "init_weights",
        "layer_output_distance",
        "local_prune_error",
        "single_layer_optimality_check",
        "sinusoidal_encoding",
        "value_rows",
    ),
    "trace": (
        "ModelShape",
        "PruningSchedule",
        "PruningStage",
        "SelectionResult",
        "StageSelection",
        "TensorBlob",
        "TokenLayout",
        "TraceManifest",
        "TensorSpec",
        "layer_tensors",
        "make_manifest",
        "read_trace",
        "stage_kept_count",
        "write_trace",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:  # a submodule not yet imported falls through to the import system
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
