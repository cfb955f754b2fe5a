"""Staged image-token selection: attention quota plus diversity quota.

A stage's keep budget k is split by the stage's balance factor: the
attention share goes to positionally rebalanced top-k over importance
scores, the rest to greedy max-min dispersion over the remaining
survivors' hidden states, seeded from a spatial grid skeleton.  Both
halves operate only on tokens that survived every earlier stage, so the
per-stage survivor sets are nested by construction.  ``run_schedule`` reads
one score vector and one hidden matrix per stage layer from two plain
mappings; ``trace_stage_provider`` builds them from a trace, scoring the
attention rows of the schedule's layers before the first stage runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .diversity import (
    DiversityConfig,
    ZeroNormRow,
    greedy_maxmin,
    pair_distances,
    spatial_init,
)

# not called here; perfbench/traced_cli.py looks these names up on this module
from .diversity import min_pairwise_distance, sum_of_distances  # noqa: F401
from .errors import ValidationError
from .scoring import check_attention_row_shape, importance_last_token, rebalanced_topk
from .trace import (
    PruningSchedule,
    PruningStage,
    SelectionResult,
    StageSelection,
    TensorBlob,
    TokenLayout,
    TraceManifest,
    layer_tensors,
    stage_kept_count,
)

@dataclass(frozen=True)
class StageInputs:
    """Everything a stage needs, restricted to the current survivors.

    ``survivors`` are original image indices in ascending order; ``scores``
    and ``hidden`` rows align with them.  The spatial skeleton is matched
    against the original indices, so spatial structure refers to the full
    image grid no matter how many tokens remain.
    """

    layer: int
    survivors: np.ndarray
    scores: np.ndarray
    hidden: np.ndarray
    layout: TokenLayout

    def __post_init__(self) -> None:
        survivors = np.asarray(self.survivors, dtype=np.int64).reshape(-1)
        scores = np.asarray(self.scores, dtype=np.float64).reshape(-1)
        hidden = np.asarray(self.hidden)
        object.__setattr__(self, "survivors", survivors)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "hidden", hidden)
        if survivors.size == 0:
            raise ValidationError("stage has an empty survivor set")
        if np.any(np.diff(survivors) <= 0):
            raise ValidationError("survivors must be strictly ascending")
        if survivors[0] < 0 or survivors[-1] >= self.layout.n_image:
            raise ValidationError(
                f"survivor indices outside [0, {self.layout.n_image})"
            )
        if scores.size != survivors.size:
            raise ValidationError(
                f"{scores.size} scores for {survivors.size} survivors"
            )
        if hidden.ndim != 2 or hidden.shape[0] != survivors.size:
            raise ValidationError(
                f"hidden must be [{survivors.size}, d], got {hidden.shape}"
            )
        if not np.isfinite(scores).all():
            raise ValidationError(f"layer {self.layer}: stage scores contain non-finite values")
        if not np.isfinite(hidden).all():
            raise ValidationError(f"layer {self.layer}: hidden states contain non-finite values")


def _zero_norm_error(inputs: StageInputs, exc: ZeroNormRow) -> ValidationError:
    """``exc`` names a row of ``inputs.hidden``; say which layer and image token it is."""
    return ValidationError(
        f"layer {inputs.layer}: cosine distance undefined for zero-norm hidden state "
        f"of image token {inputs.survivors[exc.row]}"
    )


def _quotas(stage: PruningStage, n: int, final: bool) -> tuple[int, int]:
    """(k_att, k_div): the attention and diversity shares of the k tokens
    a stage keeps of ``n`` survivors, the attention share rounded half up."""
    k = stage_kept_count(stage.retention, n, final=final)
    k_att = math.floor(stage.balance * k + 0.5)
    return k_att, k - k_att


def select_stage(
    inputs: StageInputs,
    stage: PruningStage,
    cfg: DiversityConfig = DiversityConfig(),
    final: bool = False,
) -> np.ndarray:
    """Run one pruning stage; returns kept original indices, ascending.

    The budget is k = floor(retention * survivors) (clamped to >= 1 unless
    this is a final drop-all stage).  k_att = round(balance * k) tokens come
    from rebalanced top-k over the survivor-relative score vector; the
    remaining k - k_att come from greedy max-min dispersion over the hidden
    states of survivors not already picked, seeded with the spatial grid
    skeleton of ceil(k_div / 4) cells intersected with those survivors.
    """
    n = inputs.survivors.size
    k_att, k_div = _quotas(stage, n, final)
    if k_att + k_div == 0:
        return np.empty(0, dtype=np.int64)

    if k_att > 0:
        att_local = rebalanced_topk(inputs.scores, k_att)
    else:
        att_local = np.empty(0, dtype=np.int64)

    if k_div > 0:
        taken = np.zeros(n, dtype=bool)
        taken[att_local] = True
        rem_local = np.flatnonzero(~taken)
        rem_orig = inputs.survivors[rem_local]
        seed_size = -(-k_div // 4)  # ceil
        cells = spatial_init(
            inputs.layout.grid_rows, inputs.layout.grid_cols, seed_size, cfg.spatial_metric
        )
        # skeleton cells still among the remaining survivors, in selection order
        pos = np.minimum(np.searchsorted(rem_orig, cells), rem_orig.size - 1)
        initial = pos[rem_orig[pos] == cells][:k_div]
        try:
            div_rel = greedy_maxmin(
                inputs.hidden,
                k_div,
                metric=cfg.semantic_metric,
                initial=initial,
                seed_rule=cfg.seed_rule,
                rows=rem_local,
            )
        except ZeroNormRow as exc:
            raise _zero_norm_error(inputs, exc) from exc
        div_orig = rem_orig[div_rel]
    else:
        div_orig = np.empty(0, dtype=np.int64)

    kept = np.sort(np.concatenate([inputs.survivors[att_local], div_orig]))
    return kept.astype(np.int64)


def _stage_diagnostics(
    inputs: StageInputs, stage: PruningStage, kept: np.ndarray, cfg: DiversityConfig
) -> dict[str, float]:
    kept_local = np.searchsorted(inputs.survivors, kept)
    total = float(inputs.scores.sum())
    kept_score = float(inputs.scores[kept_local].sum()) if kept_local.size else 0.0
    mass = kept_score / total if total > 0 else 0.0
    try:
        pairs = pair_distances(inputs.hidden, kept_local, cfg.semantic_metric)
    except ZeroNormRow as exc:
        raise _zero_norm_error(inputs, exc) from exc
    min_dist = float(pairs.min()) if pairs.size else 0.0
    dist_sum = float(pairs.sum())
    objective = stage.balance * kept_score + (1.0 - stage.balance) * dist_sum
    return {
        "kept_count": float(kept_local.size),
        "attention_mass": mass,
        "min_pairwise_distance": min_dist,
        "sum_of_distances": dist_sum,
        "objective": objective,
    }


def run_stage(
    inputs: StageInputs,
    stage: PruningStage,
    cfg: DiversityConfig = DiversityConfig(),
    final: bool = False,
) -> StageSelection:
    """``select_stage`` plus the per-stage diagnostics bundle."""
    kept = select_stage(inputs, stage, cfg, final=final)
    return StageSelection(
        layer=stage.layer,
        kept_indices=kept,
        diagnostics=_stage_diagnostics(inputs, stage, kept, cfg),
    )


def stage_peak_bytes(
    schedule: PruningSchedule, n_image: int, widths: Mapping[int, int], metric: str
) -> int:
    """Estimated peak bytes of the largest stage of ``run_schedule``.

    ``widths[l]`` is the width d of layer l's hidden rows; a layer it lacks
    counts as width 0.  Each stage's survivor count follows from the
    schedule alone, so this runs before anything is scored or gathered.  A
    stage holds its survivors' gathered float32 rows, then the larger of
    the greedy's and the diagnostics' float64 temporaries: under cosine
    distance the unit rows and the [c, c] Gram of the c candidates (and
    their raw rows, for the centroid seed), then the kept rows' unit rows,
    Gram and pair distances with their int64 indices; under an elementwise
    metric the candidates' rows and one difference matrix, then the kept
    rows, one difference row and the pair distances, twice as they are
    joined.
    """
    peak, alive = 0, n_image
    for i, stage in enumerate(schedule.stages):
        d = widths.get(stage.layer, 0)
        k_att, k_div = _quotas(stage, alive, final=i == len(schedule.stages) - 1)
        kept = k_att + k_div
        c = alive - k_att if k_div else 0
        pairs = kept * (kept - 1) // 2
        if metric == "cosine_distance":
            greedy = 8 * c * (c + 2 * d)
            diagnostics = 8 * kept * (kept + d) + 24 * pairs
        else:
            greedy = 16 * c * d
            diagnostics = 16 * kept * d + 16 * pairs
        peak = max(peak, 4 * alive * d + max(greedy, diagnostics))
        alive = kept
    return peak


def trace_stage_provider(
    manifest: TraceManifest, tensors: Mapping[str, TensorBlob], layers: Iterable[int]
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """Per-layer scores and hidden rows from trace tensors ``attn_l{i}``/``hidden_l{i}``.

    ``attn_l{i}`` is the last prompt position's attention row at layer i
    ([seq] or [heads, seq]); ``hidden_l{i}`` holds that layer's input
    hidden states for the image segment ([n_image, d], or [seq, d] from
    which the image rows are sliced).  Names and shapes of every layer are
    checked; attention rows are read and scored only at ``layers``, the
    layers a schedule runs a stage at.  Returns the float64 [n_image] score
    vectors of those layers and uncopied [n_image, d] image-row views of
    every hidden payload, which stay unread until a stage gathers its
    survivors' rows: the mappings ``run_schedule`` takes.
    """
    layout = manifest.layout
    attn = layer_tensors(tensors, "attn_l")
    for blob in attn.values():
        check_attention_row_shape(blob.shape, layout)
    hidden = {
        layer: layout.image_rows(blob.view(), blob.name)
        for layer, blob in layer_tensors(tensors, "hidden_l").items()
    }
    # through the module global, which perfbench/traced_cli.py wraps
    scores = {
        layer: importance_last_token(attn[layer].view(), layout, layer=layer)
        for layer in layers
        if layer in attn
    }
    return scores, hidden


class ScheduleDriver:
    """The prune hook that runs a schedule inside the toy transformer.

    Feed it to ``toymodel.forward``: at each scheduled layer it runs
    ``select_stage`` on the live ``StageInputs`` and returns the kept
    indices, keeping everything elsewhere.  Only the schedule's last stage
    may drop every token.  It stores nothing: the forward's record holds the
    picks of the stage at layer l as ``image_survivors[l + 1]``, and
    ``run_schedule`` gives the selections with their diagnostics.
    """

    def __init__(self, schedule: PruningSchedule, cfg: DiversityConfig = DiversityConfig()) -> None:
        self.schedule = schedule
        self.cfg = cfg
        self._by_layer = {stage.layer: stage for stage in schedule.stages}

    def __call__(self, inputs: StageInputs) -> np.ndarray | None:
        stage = self._by_layer.get(inputs.layer)
        if stage is None:
            return None
        return select_stage(inputs, stage, self.cfg, final=stage is self.schedule.stages[-1])


def run_schedule(
    layout: TokenLayout,
    scores_by_layer: Mapping[int, np.ndarray],
    hidden_by_layer: Mapping[int, np.ndarray],
    schedule: PruningSchedule,
    cfg: DiversityConfig = DiversityConfig(),
) -> SelectionResult:
    """Run every stage of ``schedule`` on per-layer scores and hidden states.

    ``scores_by_layer[l]`` is the image-segment score vector ([n_image]) at
    layer l and ``hidden_by_layer[l]`` its image hidden rows ([n_image, d]);
    only the schedule's layers are read and checked.  Each stage runs
    through ``run_stage``, diagnostics included, on the rows of the tokens
    still alive; those inputs are built in the call, so they are dropped
    before the next stage's are gathered.
    """
    survivors = np.arange(layout.n_image, dtype=np.int64)
    per_stage = []
    for stage in schedule.stages:
        layer = stage.layer
        if layer not in scores_by_layer or layer not in hidden_by_layer:
            raise ValidationError(f"no stage data recorded for scheduled layer {layer}")
        scores = np.asarray(scores_by_layer[layer])
        hidden = np.asarray(hidden_by_layer[layer])
        if scores.shape != (layout.n_image,):
            raise ValidationError(
                f"layer {layer}: score vector shape {scores.shape} != ({layout.n_image},)"
            )
        if hidden.ndim != 2 or hidden.shape[0] != layout.n_image:
            raise ValidationError(
                f"layer {layer}: hidden shape {hidden.shape} != ({layout.n_image}, d)"
            )
        # through the module global, which perfbench/traced_cli.py wraps
        selection = run_stage(
            StageInputs(layer, survivors, scores[survivors], hidden[survivors], layout),
            stage, cfg, final=stage is schedule.stages[-1],
        )
        per_stage.append(selection)
        survivors = np.array(selection.kept_indices, dtype=np.int64)
    return SelectionResult(per_stage=tuple(per_stage))
