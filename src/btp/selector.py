"""Staged image-token selection: attention quota plus diversity quota.

A stage's keep budget k is split by the stage's balance factor: the
attention share goes to positionally rebalanced top-k over importance
scores, the rest to greedy max-min dispersion over the remaining
survivors' hidden states, seeded from a spatial grid skeleton.  Both
halves operate only on tokens that survived every earlier stage, so the
per-stage survivor sets are nested by construction.  A stage provider holds
one float64 score vector and one hidden matrix per stage layer;
``trace_stage_provider`` builds one from a trace, scoring the attention
rows of the schedule's layers when it is built.
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
    k = stage_kept_count(stage.retention, n, final=final)
    if k == 0:
        return np.empty(0, dtype=np.int64)

    k_att = math.floor(stage.balance * k + 0.5)  # round half up
    k_div = k - k_att

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


class ArrayStageProvider:
    """Stage inputs backed by per-layer score vectors and hidden matrices.

    ``scores_by_layer[l]`` is the full image-segment score vector at layer
    l and ``hidden_by_layer[l]`` the [n_image, d] hidden states; stage
    inputs are produced by slicing rows for the current survivors.
    """

    def __init__(
        self,
        layout: TokenLayout,
        scores_by_layer: Mapping[int, np.ndarray],
        hidden_by_layer: Mapping[int, np.ndarray],
    ) -> None:
        self.layout = layout
        self._scores = {int(l): np.asarray(v, dtype=np.float64) for l, v in scores_by_layer.items()}
        self._hidden = {int(l): np.asarray(v) for l, v in hidden_by_layer.items()}
        for l, vec in self._scores.items():
            if vec.shape != (layout.n_image,):
                raise ValidationError(
                    f"layer {l}: score vector shape {vec.shape} != ({layout.n_image},)"
                )
        for l, mat in self._hidden.items():
            if mat.ndim != 2 or mat.shape[0] != layout.n_image:
                raise ValidationError(
                    f"layer {l}: hidden shape {mat.shape} != ({layout.n_image}, d)"
                )

    def stage_inputs(self, layer: int, survivors: np.ndarray) -> StageInputs:
        if layer not in self._scores or layer not in self._hidden:
            raise ValidationError(f"no stage data recorded for scheduled layer {layer}")
        survivors = np.asarray(survivors, dtype=np.int64)
        return StageInputs(
            layer=layer,
            survivors=survivors,
            scores=self._scores[layer][survivors],
            hidden=self._hidden[layer][survivors],
            layout=self.layout,
        )


def trace_stage_provider(
    manifest: TraceManifest, tensors: Mapping[str, TensorBlob], layers: Iterable[int]
) -> ArrayStageProvider:
    """Build a provider from trace tensors named ``attn_l{i}``/``hidden_l{i}``.

    ``attn_l{i}`` is the last prompt position's attention row at layer i
    ([seq] or [heads, seq]); ``hidden_l{i}`` holds that layer's input
    hidden states for the image segment ([n_image, d], or [seq, d] from
    which the image rows are sliced).  Names and shapes of every layer are
    checked; attention rows are read and scored only at ``layers``, the
    layers a schedule runs a stage at.  Hidden payloads stay unread until
    a stage slices its survivors' rows.
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
    return ArrayStageProvider(layout, scores, hidden)


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
    provider, schedule: PruningSchedule, cfg: DiversityConfig = DiversityConfig()
) -> SelectionResult:
    """Run every stage of ``schedule`` against a stage-input provider.

    ``provider`` exposes ``layout`` and ``stage_inputs(layer, survivors)``;
    see ``ArrayStageProvider``.  Scores and hidden states are re-read at
    each stage layer, restricted to the tokens still alive.  Each stage
    runs through ``run_stage``, diagnostics included, and its inputs are
    dropped before the next stage's are built.
    """
    survivors = np.arange(provider.layout.n_image, dtype=np.int64)
    per_stage = []
    for stage in schedule.stages:
        selection = run_stage(
            provider.stage_inputs(stage.layer, survivors), stage, cfg,
            final=stage is schedule.stages[-1],
        )
        per_stage.append(selection)
        survivors = np.array(selection.kept_indices, dtype=np.int64)
    return SelectionResult(per_stage=tuple(per_stage))
