"""Balanced token pruning: staged attention/diversity selection for image tokens.

The engine scores image tokens by the attention they receive from prompt
text, rebalances the ranking against causal position bias, tops the kept
set up with max-min diverse tokens, and schedules the pruning layers from
a calibration-time representation-shift profile.  A deterministic float32
toy transformer serves as the testbed, and closed-form cost accounting
reports the FLOPs/KV savings of a schedule.
"""

from .calibration import (
    DEFAULT_CALIBRATION_SIZE,
    DEFAULT_TAU,
    LayerSelection,
    ShiftProfile,
    aggregate_profiles,
    build_schedule,
    select_pruning_layers,
    shift_profile,
    synthetic_shift_stack,
)
from .costs import CostReport, ModelDims, layer_flops, schedule_flops
from .diversity import (
    DiversityConfig,
    brute_force_maxmin,
    distance_matrix,
    greedy_maxmin,
    grid_coordinates,
    min_pairwise_distance,
    spatial_init,
    sum_of_distances,
)
from .errors import BtpError, TraceError, ValidationError
from .oracles import (
    SuiteReport,
    mmdp_suite,
    orthonormal_value_instance,
    roundtrip_suite,
    single_layer_suite,
    spatial_grid_exactness,
    unequal_norm_counterexample,
)
from .scoring import importance_last_token, rebalanced_topk
from .selector import (
    ScheduleDriver,
    StageInputs,
    run_schedule,
    run_stage,
    select_stage,
    trace_stage_provider,
)
from .toymodel import (
    ForwardRecord,
    ToyConfig,
    ToyWeights,
    forward,
    init_weights,
    layer_output_distance,
    local_prune_error,
    single_layer_optimality_check,
    sinusoidal_encoding,
    value_rows,
)
from .trace import (
    ModelShape,
    PruningSchedule,
    PruningStage,
    SelectionResult,
    StageSelection,
    TensorBlob,
    TokenLayout,
    TraceManifest,
    TensorSpec,
    layer_tensors,
    make_manifest,
    read_trace,
    stage_kept_count,
    write_trace,
)

__version__ = "0.1.0"
