"""Property tests: invariants of the stage selector, the trace manifest
reader, ``btp calibrate``'s flag handling, and ``btp select``, ``btp cost``
and ``btp simulate`` over generated inputs."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from btp import cli
from btp.calibration import synthetic_shift_stack
from btp.diversity import SEED_RULES, SEMANTIC_METRICS, SPATIAL_METRICS, DiversityConfig
from btp.errors import TraceError, ValidationError
from btp.selector import StageInputs, run_schedule, select_stage
from btp.toymodel import DISTANCE_METRICS, VALUE_NORM_MODES
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


def _stages(draw, count, depth=8):
    layers = sorted(draw(st.sets(st.integers(0, depth - 1), min_size=count, max_size=count)))
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
    return layout, scores, hidden, PruningSchedule(stages=stages, num_layers=8)


@PROPERTY_SETTINGS
@given(case=schedule_cases(), cfg=CONFIGS)
def test_run_schedule_stages_are_nested(case, cfg):
    layout, scores, hidden, schedule = case
    result = _select(run_schedule, layout, scores, hidden, schedule, cfg)
    alive = set(range(layout.n_image))
    for selection, want in zip(result.per_stage, schedule.kept_counts(layout.n_image),
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


# ---------------------------------------------------------------------------
# calibrate flags

# trace name -> (depth, planted shifts): two peaks, no peak, and a shallower
# trace that no other can be calibrated with
CALIB_TRACES = {"peaks": (10, {3: 9, 6: 7}), "flat": (10, {}), "short": (5, {2: 8})}


@pytest.fixture(scope="module")
def calib_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("calibrate")
    for seed, (name, (depth, planted)) in enumerate(CALIB_TRACES.items()):
        stack = synthetic_shift_stack(
            np.random.default_rng(seed), num_layers=depth, n_image=12, d=8, shifted=planted,
            shift_cos=0.5,
        )
        layout = TokenLayout(n_system=0, n_image=12, n_text=0, grid_rows=3, grid_cols=4)
        blobs = {f"hidden_l{i}": TensorBlob.from_array(f"hidden_l{i}", m)
                 for i, m in enumerate(stack)}
        write_trace(root / name, make_manifest(layout, ModelShape(depth, 8, 1, 16), blobs), blobs)
    return root


def _float_text(values):
    return ",".join(repr(v) for v in values)


FLAG_FLOATS = st.floats(-0.5, 1.5) | st.sampled_from([0.0, 1.0, float("nan")])


def _balances(lambdas: str) -> list[float]:
    return list(cli.LAMBDA_PRESETS.get(lambdas, ())) or [float(x) for x in lambdas.split(",") if x]


@st.composite
def calibrate_flags(draw):
    """Flags in range, except that half the time one is drawn from a wider set."""
    wild = draw(st.sampled_from([None] * 5 + ["tau", "lambdas", "retentions", "min_gap",
                                              "calib_size"]))

    def pick(name, in_range, wider):
        return draw(wider if name == wild else in_range)

    lambdas = pick(
        "lambdas",
        st.sampled_from(sorted(cli.LAMBDA_PRESETS))
        | st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4).map(sorted).map(_float_text),
        st.sampled_from(["", ","]) | st.lists(FLAG_FLOATS, max_size=4).map(_float_text),
    )
    count = max(1, len(_balances(lambdas)))
    return {
        "traces": draw(st.lists(st.sampled_from(sorted(CALIB_TRACES)), min_size=1, max_size=3)),
        # the planted shifts have cosine 0.5, the others 0.999
        "tau": pick("tau", st.floats(0.51, 0.99), FLAG_FLOATS),
        "lambdas": lambdas,
        "retentions": pick(
            "retentions",
            st.floats(0.05, 1.0).map(repr)
            | st.lists(st.floats(0.05, 1.0), min_size=count, max_size=count).map(_float_text),
            st.lists(FLAG_FLOATS, max_size=4).map(_float_text),
        ),
        "min_gap": pick("min_gap", st.integers(1, 4), st.integers(-1, 4)),
        "calib_size": pick("calib_size", st.integers(1, 3), st.integers(-1, 3)),
    }


def _flags_break_a_rule(tau, balances, retentions, min_gap, calib_size) -> bool:
    """Whether the flags break a rule the README states for them."""
    kept = [float(x) for x in retentions.split(",") if x]
    if len(kept) == 1:
        kept = kept * len(balances)
    return (
        calib_size < 1 or not 0 < tau < 1 or min_gap < 1 or not balances
        or len(kept) != len(balances)
        or not all(0 < r <= 1 for r in kept) or not all(0 <= b <= 1 for b in balances)
        or any(b < a for a, b in zip(balances, balances[1:]))
    )


def _flags(lambdas="0.6,1.0", retentions="0.5", min_gap=1):
    return {"traces": ["peaks"], "tau": 0.8, "lambdas": lambdas, "retentions": retentions,
            "min_gap": min_gap, "calib_size": 1}


@settings(deadline=None, max_examples=200)
@given(flags=calibrate_flags())
# each once profiled every trace before it was refused
@example(flags=_flags(lambdas=""))
@example(flags=_flags(lambdas=","))
@example(flags=_flags(min_gap=0))
@example(flags=_flags(retentions="1.5"))
@example(flags=_flags(lambdas="1.0,0.5"))
def test_calibrate_flags_are_checked_before_any_trace_is_read(calib_dir, flags):
    out = calib_dir / "schedule.json"
    out.unlink(missing_ok=True)
    argv = ["calibrate", *(str(calib_dir / t) for t in flags["traces"]),
            f"--tau={flags['tau']!r}", f"--lambdas={flags['lambdas']}",
            f"--retentions={flags['retentions']}", f"--min-gap={flags['min_gap']}",
            f"--calib-size={flags['calib_size']}", f"--out={out}"]
    reads = []

    def counting_read(path):
        reads.append(path)
        return read_trace(path)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "read_trace", counting_read)
        code = cli.main(argv)
    assert code in (0, 1, 2)
    balances = _balances(flags["lambdas"])
    if _flags_break_a_rule(flags["tau"], balances, flags["retentions"], flags["min_gap"],
                           flags["calib_size"]):
        assert code == 1 and reads == [] and not out.exists()
        return
    assert reads
    if out.exists():
        schedule = PruningSchedule.from_json_dict(json.loads(out.read_text()))
        depth = CALIB_TRACES[flags["traces"][0]][0]
        layers = [s.layer for s in schedule.stages]
        assert schedule.num_layers == depth
        assert [s.balance for s in schedule.stages] == balances
        assert all(1 <= l < depth for l in layers)
        assert all(b - a >= flags["min_gap"] for a, b in zip(layers, layers[1:]))


# ---------------------------------------------------------------------------
# select and cost


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


def _run_cli(argv):
    code = cli.main([str(a) for a in argv])
    assert code in (0, 1, 2)
    return code


def _attention_row(draw, size):
    row = draw(arrays(np.float32, size, elements=st.floats(0.0, 1.0, width=32)))
    row[-1] += not row.any()  # no softmax gives an all-zero row
    return row


@st.composite
def select_cases(draw):
    """A small trace, a schedule for its depth and the diversity flags.

    Half the time one fault is planted: a stored attention row one entry
    short, a stage layer's tensors left out, or a schedule for another depth.
    """
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    layout = TokenLayout(draw(st.integers(0, 2)), rows * cols, draw(st.integers(0, 2)),
                         rows, cols)
    depth, d = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    schedule = PruningSchedule(_stages(draw, draw(st.integers(0, min(3, depth))), depth), depth)
    stored = sorted({s.layer for s in schedule.stages} | draw(st.sets(st.integers(0, depth - 1))))
    tensors = {}
    for layer in stored:
        tensors[f"attn_l{layer}"] = _attention_row(draw, layout.total())
        tensors[f"hidden_l{layer}"] = _hidden(
            draw, layout.total() if draw(st.booleans()) else layout.n_image, d)
    fault = draw(st.sampled_from([None] * 3 + ["short_row", "missing_layer", "depth"]))
    if fault == "short_row" and stored and layout.total() > 1:
        name = f"attn_l{draw(st.sampled_from(stored))}"
        tensors[name] = tensors[name][:-1]
    elif fault == "missing_layer" and schedule.stages:
        layer = draw(st.sampled_from(schedule.stages)).layer
        for prefix in draw(st.sampled_from([("attn_l",), ("hidden_l",), ("attn_l", "hidden_l")])):
            del tensors[f"{prefix}{layer}"]
    elif fault == "depth":
        schedule = PruningSchedule(schedule.stages, depth + 1)
    else:
        fault = None
    return {"layout": layout, "shape": ModelShape(depth, d, 1, 2 * d), "schedule": schedule,
            "tensors": tensors, "cfg": draw(CONFIGS), "fault": fault}


def _select_example(fault):
    layout = TokenLayout(n_system=1, n_image=4, n_text=1, grid_rows=2, grid_cols=2)
    rng = np.random.default_rng(0)
    tensors = {"attn_l1": np.full(layout.total() - (fault == "short_row"), 1 / 6),
               "hidden_l1": rng.standard_normal((4, 3))}
    stages = (PruningStage(1, 0.5, 0.5), PruningStage(2, 0.5, 1.0))
    return {"layout": layout, "shape": ModelShape(3, 3, 1, 6),
            "schedule": PruningSchedule(stages[: 1 + (fault == "missing_layer")], 3),
            "tensors": tensors, "cfg": DiversityConfig(), "fault": fault}


@PROPERTY_SETTINGS
@given(case=select_cases())
@example(case=_select_example("short_row"))
@example(case=_select_example("missing_layer"))
def test_select_exits_cleanly_with_nested_repeatable_stages(cli_dir, case):
    blobs = {name: TensorBlob.from_array(name, a) for name, a in case["tensors"].items()}
    write_trace(cli_dir / "trace", make_manifest(case["layout"], case["shape"], blobs), blobs)
    schedule = case["schedule"]
    (cli_dir / "schedule.json").write_text(json.dumps(schedule.to_json_dict()))
    cfg = case["cfg"]
    outs = [cli_dir / "first.json", cli_dir / "second.json"]
    for out in outs:
        out.unlink(missing_ok=True)

    def select(out):
        return _run_cli(["select", "--trace", cli_dir / "trace",
                         "--schedule", cli_dir / "schedule.json", "--out", out,
                         "--spatial-metric", cfg.spatial_metric,
                         "--semantic-metric", cfg.semantic_metric, "--seed-rule", cfg.seed_rule])

    code = select(outs[0])
    if case["fault"] is not None:
        assert code == 1
    if code != 0:
        assert not outs[0].exists()
        return
    stages = json.loads(outs[0].read_text())["stages"]
    assert [s["layer"] for s in stages] == [s.layer for s in schedule.stages]
    n_image = case["layout"].n_image
    assert [len(s["kept_indices"]) for s in stages] == schedule.kept_counts(n_image)
    alive = set(range(n_image))
    for stage in stages:
        kept = stage["kept_indices"]
        assert kept == sorted(set(kept)) and set(kept) <= alive
        alive = set(kept)
    assert select(outs[1]) == 0
    assert outs[1].read_bytes() == outs[0].read_bytes()


@st.composite
def cost_flags(draw):
    """``btp cost`` flags in range, except that half the time one is drawn wider.

    Returns the argv, the depth, the schedule JSON (None for
    ``--num-layers``) and whether every flag is in range.
    """
    wild = draw(st.sampled_from([None] * 5 + ["layout", "d", "mlp", "kv_bytes", "depth"]))

    def pick(name, in_range, wider):
        return draw(wider if name == wild else in_range)

    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    layout = pick("layout", st.just([draw(st.integers(0, 2)), rows * cols,
                                     draw(st.integers(0, 2)), rows, cols]),
                  st.lists(st.integers(-1, 4), min_size=4, max_size=6))
    argv = ["cost", "--layout", ",".join(map(str, layout))]
    for name in ("d", "mlp", "kv_bytes"):
        argv += [f"--{name.replace('_', '-')}", pick(name, st.integers(1, 64), st.integers(-1, 64))]
    depth = pick("depth", st.integers(1, 12), st.integers(-1, 12))
    if draw(st.booleans()):
        return argv + ["--num-layers", depth], depth, None, wild is None
    stages = _stages(draw, draw(st.integers(0, min(3, max(depth, 1)))), max(depth, 1))
    schedule = {"num_layers": depth, "stages": [
        {"layer": s.layer, "retention": s.retention, "balance": s.balance} for s in stages]}
    return argv, depth, schedule, wild is None


@PROPERTY_SETTINGS
@given(case=cost_flags())
def test_cost_exits_cleanly_with_one_entry_per_layer(cli_dir, case):
    argv, depth, schedule, in_range = case
    if schedule is not None:
        (cli_dir / "cost_schedule.json").write_text(json.dumps(schedule))
        argv = argv + ["--schedule", cli_dir / "cost_schedule.json"]
    out = cli_dir / "cost.json"
    out.unlink(missing_ok=True)
    code = _run_cli([*argv, "--out", out])
    if in_range:
        assert code == 0
    if code == 0:
        assert len(json.loads(out.read_text())["per_layer_tokens"]) == depth


@st.composite
def simulate_flags(draw):
    """``btp simulate`` flags for a toy model of d <= 16, up to 6 layers and
    up to 16 image tokens.  d is a multiple of the head count, so d = 1,
    which is refused, comes only with one head; a layout without text
    tokens or a schedule for another depth is drawn now and then.  Returns
    the argv, the depth and the schedule JSON."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n_text = draw(st.sampled_from([1, 2, 3] * 3 + [0]))
    layout = [draw(st.integers(0, 2)), rows * cols, n_text, rows, cols]
    depth, heads = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    argv = ["simulate", "--layout", ",".join(map(str, layout)), "--layers", depth,
            "--d", heads * draw(st.integers(1, 16 // heads)), "--heads", heads,
            "--mlp", draw(st.integers(1, 16)), "--seed", draw(st.integers(0, 3)),
            "--value-norm", draw(st.sampled_from(VALUE_NORM_MODES)),
            "--metric", draw(st.sampled_from(DISTANCE_METRICS)),
            "--spatial-metric", draw(st.sampled_from(SPATIAL_METRICS)),
            "--semantic-metric", draw(st.sampled_from(SEMANTIC_METRICS)),
            "--seed-rule", draw(st.sampled_from(SEED_RULES))]
    stages = _stages(draw, draw(st.integers(0, min(3, depth))), depth)
    schedule = {"num_layers": depth + draw(st.sampled_from([0] * 5 + [1])), "stages": [
        {"layer": s.layer, "retention": s.retention, "balance": s.balance} for s in stages]}
    return argv, depth, schedule


@PROPERTY_SETTINGS
@given(case=simulate_flags())
def test_simulate_exits_cleanly_with_one_finite_row_per_layer(cli_dir, case):
    argv, depth, schedule = case
    (cli_dir / "sim_schedule.json").write_text(json.dumps(schedule))
    argv = argv + ["--schedule", cli_dir / "sim_schedule.json"]
    results = []
    for threads in ("1", "2"):
        out = cli_dir / f"sim_{threads}.csv"
        out.unlink(missing_ok=True)
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("BTP_THREADS", threads)
            code = _run_cli([*argv, "--out", out])
        results.append((code, out.read_text() if code == 0 else None))
    assert results[1] == results[0]
    code, csv = results[0]
    if code != 0:
        return
    header, *lines = csv.splitlines()
    assert header == "layer,btp,attention_only,diversity_only"
    rows = [line.split(",") for line in lines]
    assert [int(row[0]) for row in rows] == list(range(1, depth + 1))
    for row in rows:
        assert len(row) == 4 and all(math.isfinite(float(v)) for v in row[1:]), row
