"""Property tests: invariants of the stage selector and the trace manifest
reader over generated inputs."""

import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from btp.diversity import SEED_RULES, SEMANTIC_METRICS, SPATIAL_METRICS, DiversityConfig
from btp.errors import TraceError, ValidationError
from btp.selector import ArrayStageProvider, StageInputs, run_schedule, select_stage
from btp.trace import (
    MANIFEST_NAME,
    ModelShape,
    PruningSchedule,
    PruningStage,
    TensorBlob,
    TokenLayout,
    make_manifest,
    read_trace,
    stage_kept_count,
    write_trace,
)

# float32, as hidden states are stored in traces; every finite value
HIDDEN_VALUES = st.floats(width=32, allow_nan=False, allow_infinity=False)
# importance scores are attention mass
SCORE_VALUES = st.floats(0.0, 1.0)
CONFIGS = st.builds(
    DiversityConfig,
    spatial_metric=st.sampled_from(SPATIAL_METRICS),
    semantic_metric=st.sampled_from(SEMANTIC_METRICS),
    seed_rule=st.sampled_from(SEED_RULES),
)
PROPERTY_SETTINGS = settings(deadline=None)


@st.composite
def layouts(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return TokenLayout(n_system=0, n_image=rows * cols, n_text=0, grid_rows=rows, grid_cols=cols)


def _hidden(draw, n, d):
    hidden = draw(arrays(np.float32, (n, d), elements=HIDDEN_VALUES))
    hidden[~hidden.any(axis=1), 0] = 1.0  # no zero-norm rows: cosine rejects them
    return hidden


def _stages(draw, count):
    layers = sorted(draw(st.sets(st.integers(0, 7), min_size=count, max_size=count)))
    balances = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=count, max_size=count)))
    retentions = draw(st.lists(
        st.floats(0.0, 1.0, exclude_min=True), min_size=count, max_size=count
    ))
    return tuple(PruningStage(*s) for s in zip(layers, retentions, balances))


def _select(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValidationError as exc:
        # exact cancellation leaves the cosine centroid seed undefined, which
        # is reported, not guessed around
        assume("centroid has zero norm" not in str(exc))
        raise


@st.composite
def stage_cases(draw):
    layout = draw(layouts())
    survivors = sorted(draw(st.sets(st.integers(0, layout.n_image - 1), min_size=1)))
    n, d = len(survivors), draw(st.integers(1, 5))
    inputs = StageInputs(
        layer=2,
        survivors=np.asarray(survivors),
        scores=draw(arrays(np.float64, n, elements=SCORE_VALUES)),
        hidden=_hidden(draw, n, d),
        layout=layout,
    )
    stage = _stages(draw, 1)[0]
    return inputs, PruningStage(2, stage.retention, stage.balance)


@PROPERTY_SETTINGS
@given(case=stage_cases(), cfg=CONFIGS, final=st.booleans())
def test_select_stage_keeps_sorted_unique_survivors(case, cfg, final):
    inputs, stage = case
    kept = _select(select_stage, inputs, stage, cfg, final=final)
    assert kept.dtype == np.int64
    assert np.all(np.diff(kept) > 0)
    assert set(kept.tolist()) <= set(inputs.survivors.tolist())
    assert kept.size == stage_kept_count(stage.retention, inputs.survivors.size, final=final)


@st.composite
def schedule_cases(draw):
    layout = draw(layouts())
    stages = _stages(draw, draw(st.integers(1, 3)))
    d = draw(st.integers(1, 5))
    scores = {s.layer: draw(arrays(np.float64, layout.n_image, elements=SCORE_VALUES))
              for s in stages}
    hidden = {s.layer: _hidden(draw, layout.n_image, d) for s in stages}
    provider = ArrayStageProvider(layout, scores, hidden)
    return provider, PruningSchedule(stages=stages, num_layers=8)


@PROPERTY_SETTINGS
@given(case=schedule_cases(), cfg=CONFIGS)
def test_run_schedule_stages_are_nested(case, cfg):
    provider, schedule = case
    result = _select(run_schedule, provider, schedule, cfg)
    alive = set(range(provider.layout.n_image))
    for selection, want in zip(result.per_stage, schedule.kept_counts(provider.layout.n_image),
                               strict=True):
        kept = list(selection.kept_indices)
        assert kept == sorted(set(kept)) and len(kept) == want
        assert set(kept) <= alive
        alive = set(kept)


# ---------------------------------------------------------------------------
# trace manifests

MANIFEST_LAYOUT = TokenLayout(n_system=1, n_image=4, n_text=1, grid_rows=2, grid_cols=2)
MANIFEST_BLOBS = {
    "attn_l0": TensorBlob.from_array("attn_l0", np.full(MANIFEST_LAYOUT.total(), 1 / 6)),
    "hidden_l0": TensorBlob.from_array("hidden_l0", np.ones((MANIFEST_LAYOUT.n_image, 3))),
}
VALID_MANIFEST = make_manifest(MANIFEST_LAYOUT, ModelShape(2, 3, 1, 6), MANIFEST_BLOBS)


def _json_paths(obj, prefix=()):
    """The path of ``obj`` and of every value nested in it."""
    yield prefix
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        items = ()
    for key, value in items:
        yield from _json_paths(value, prefix + (key,))


VALID_JSON = VALID_MANIFEST.to_json_dict()
MANIFEST_PATHS = list(_json_paths(VALID_JSON))
# values the manifest itself holds, so that a mutation can be a near miss
NEAR_MISSES = ["1", "f32le", "attn_l0", "hidden_l0", "attn_l0.bin", "hidden_l0.bin",
               [6], [4, 3], []]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=8) | st.sampled_from(NEAR_MISSES),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def manifest_mutations(draw):
    """The valid manifest with one value replaced, or one field or item removed."""
    mutated = json.loads(json.dumps(VALID_JSON))
    path = draw(st.sampled_from(MANIFEST_PATHS))
    if not path:
        return draw(JSON_VALUES)
    parent = mutated
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JSON_VALUES)
    return mutated


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("manifest") / "trace"
    write_trace(root, VALID_MANIFEST, MANIFEST_BLOBS)
    return root


@PROPERTY_SETTINGS
@given(mutated=manifest_mutations())
# a manifest that names no file was once read as naming hidden_l0.bin
@example(mutated={**VALID_JSON, "tensors": [
    VALID_JSON["tensors"][0], {**VALID_JSON["tensors"][1], "file": ""},
]})
def test_mutated_manifest_is_rejected_or_read_back_equal(trace_dir, mutated):
    (trace_dir / MANIFEST_NAME).write_text(json.dumps(mutated))
    try:
        manifest, _ = read_trace(trace_dir)
    except TraceError:
        return
    # accepted as written: nothing coerced, defaulted or dropped
    assert manifest.to_json_dict() == mutated
