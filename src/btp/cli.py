"""Command line entry points.

Subcommands: ``calibrate`` (shift profile -> pruning schedule), ``select``
(run a schedule against a trace), ``simulate`` (toy-transformer strategy
comparison), ``cost`` (FLOPs / KV-cache accounting), ``oracle``
(verification suites).  Exit codes: 0 success, 1 validation problem,
2 IO or format problem, 3 oracle suite failure.  All outputs are
deterministic.  The JSON or CSV result goes to ``--out`` or, without it,
to stdout, which then carries nothing else; tables and the resolved
``simulate`` configuration go to stderr.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import importlib
import inspect
import json
import os
import sys
import uuid
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .errors import TraceError, ValidationError
from .trace import (
    DEFAULT_CALIBRATION_SIZE,
    DEFAULT_TAU,
    DISTANCE_METRICS,
    SEED_RULES,
    SEMANTIC_METRICS,
    SPATIAL_METRICS,
    VALUE_NORM_MODES,
    PruningSchedule,
    TokenLayout,
    layer_tensors,
    read_schedule,
    read_trace,
    staging_path,
)

# the names each command imports when it runs, so that a command loads only
# the modules it calls.  ``_load`` binds them as globals of this module, and
# the commands call them through those globals, so that a wrapper set on
# ``btp.cli`` before the command runs is what it calls.
_DEFERRED = {
    "calibration": ("aggregate_profiles", "build_schedule", "select_pruning_layers",
                    "shift_profile"),
    "costs": ("ModelDims", "schedule_flops"),
    "diversity": ("DiversityConfig",),
    "oracles": ("mmdp_suite", "roundtrip_suite", "single_layer_suite"),
    "selector": ("ScheduleDriver", "run_schedule", "stage_peak_bytes", "trace_stage_provider"),
    "threads": ("openblas_thread_setter", "pinned_pool", "thread_count"),
    "toymodel": ("ToyConfig", "forward", "init_weights", "layer_output_distance"),
}


def _load(module: str):
    """Import ``btp.<module>`` and bind its deferred names here, leaving any
    name already bound as it is; returns the module."""
    loaded = importlib.import_module(f".{module}", __package__)
    for name in _DEFERRED[module]:
        globals().setdefault(name, getattr(loaded, name))
    return loaded


def __getattr__(name: str):
    # a deferred name is an attribute of this module before any command runs
    for module, names in _DEFERRED.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


LAMBDA_PRESETS = {
    "llava7b": (0.6, 0.8, 1.0),
    "llava13b": (0.6, 0.8, 1.0),
    "llava16-13b": (0.4, 0.7, 1.0),
    "qwen25vl7b": (0.2, 0.5, 0.8, 1.0),
}


class _Parser(argparse.ArgumentParser):
    # route usage problems through the validation exit code instead of
    # argparse's hard sys.exit
    def error(self, message):
        raise ValidationError(message)


def _float_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x != ""]
    except ValueError as exc:
        raise ValidationError(f"expected a comma-separated float list, got {text!r}") from exc


def _parse_lambdas(text: str) -> list[float]:
    if text in LAMBDA_PRESETS:
        return list(LAMBDA_PRESETS[text])
    return _float_list(text)


def _parse_layout(text: str) -> TokenLayout:
    parts = text.split(",")
    if len(parts) != 5:
        raise ValidationError(
            "layout must be n_system,n_image,n_text,grid_rows,grid_cols"
        )
    try:
        nums = [int(p) for p in parts]
    except ValueError as exc:
        raise ValidationError(f"layout fields must be integers, got {text!r}") from exc
    return TokenLayout(*nums)


def _check_fits_in_memory(what: str, nbytes: int) -> None:
    """Refuse a command whose estimated ``nbytes`` exceed physical memory.

    Callers estimate before they allocate, so that a command too large for
    the machine exits with one error line instead of being killed midway,
    as it may be under memory overcommit.
    """
    try:
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError):  # not known on this platform
        return
    if nbytes > physical:
        raise MemoryError(
            f"{what} needs about {nbytes / 2**30:.1f} GiB, more than the "
            f"{physical / 2**30:.1f} GiB of physical memory"
        )


def _keep_freed_heap() -> None:
    """Let glibc's malloc keep the heap a command frees, for its next use.

    Each toy layer frees a few MB of temporaries that the next layer
    allocates again.  Under glibc's default thresholds the freed top of
    each thread's heap goes back to the system at every layer and is
    faulted in again page by page: at simulate-toy's shape on two workers,
    about 63k minor faults per command instead of 19k, and about 7% more
    CPU time.  The values are those glibc's own dynamic thresholds reach at
    their cap (mmap 32 MiB, trim twice that).  Nothing happens without
    ``mallopt``.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no C library with mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def _emit(text: str, out: str | None) -> None:
    """Write a command's result to ``out``, or to stdout without one.

    A new or regular file is staged beside ``out`` and renamed onto it, so a
    failed write leaves the old file whole; a symlink, FIFO or device at
    ``out`` is written through, as a rename would replace it.
    """
    if not out:
        sys.stdout.write(text)
        return
    target = Path(out)
    if target.is_symlink() or (target.exists() and not target.is_file()):
        target.write_text(text)
        return
    staging = staging_path(target, uuid.uuid4().hex[:12])
    try:
        staging.write_text(text)
        os.replace(staging, target)
    except BaseException as exc:
        staging.unlink(missing_ok=True)
        if isinstance(exc, OSError):  # name ``out``, not the temporary file
            raise OSError(exc.errno, exc.strerror, out) from exc
        raise


def _dump_json(obj: dict, out: str | None) -> None:
    _emit(json.dumps(obj, indent=2) + "\n", out)


def _note(line: str) -> None:
    # human-readable lines go to stderr; stdout carries only the JSON or CSV
    print(line, file=sys.stderr)


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


# ---------------------------------------------------------------------------
# calibrate


class _Snapshots(list):
    """Image-row views of one trace's hidden snapshots, uncopied.

    ``shape`` is that of the [L+1, N, d] stack they form, as for an array
    (perfbench/traced_cli.py records it for each ``shift_profile`` call).
    """

    @property
    def shape(self) -> tuple[int, ...]:
        return (len(self), *self[0].shape)


def _profile_one_trace(trace_dir: str, tau: float):
    manifest, tensors = read_trace(trace_dir)
    hidden = layer_tensors(tensors, "hidden_l")
    if not hidden:
        raise ValidationError(f"{trace_dir}: no hidden_l<i> tensors in trace")
    if list(hidden) != list(range(len(hidden))):
        raise ValidationError(
            f"{trace_dir}: hidden snapshots must be contiguous from 0, got "
            f"{', '.join(blob.name for blob in hidden.values())}"
        )
    layout = manifest.layout
    mats = _Snapshots(layout.image_rows(blob.view(), blob.name) for blob in hidden.values())
    try:
        return shift_profile(mats, tau=tau)
    except ValidationError as exc:
        raise ValidationError(f"{trace_dir}: {exc}") from exc


def cmd_calibrate(args) -> int:
    _load("calibration")
    if args.calib_size < 1:
        raise ValidationError(f"--calib-size must be >= 1, got {args.calib_size}")
    if not 0.0 < args.tau < 1.0:
        raise ValidationError(f"--tau must be in (0, 1), got {args.tau}")
    if args.min_gap < 1:
        raise ValidationError(f"--min-gap must be >= 1, got {args.min_gap}")
    # argparse takes one trace at least, so at least one is kept
    traces = list(args.traces)[: args.calib_size]
    balances = _parse_lambdas(args.lambdas)
    if not balances:
        raise ValidationError(f"--lambdas must list at least one value, got {args.lambdas!r}")
    retentions = _float_list(args.retentions)
    if len(retentions) == 1 and len(balances) > 1:
        retentions = retentions * len(balances)
    if len(retentions) != len(balances):
        raise ValidationError(
            f"{len(retentions)} retentions for {len(balances)} lambda values"
        )
    # the stage and schedule rules, on stand-in layers, before any trace is read
    build_schedule(range(1, len(balances) + 1), retentions, balances, len(balances) + 1)

    # one trace at a time, so that only one is mapped
    profiles = []
    for trace in traces:
        profiles.append(_profile_one_trace(trace, args.tau))
        if profiles[-1].num_layers != profiles[0].num_layers:
            raise ValidationError(
                f"{trace}: shift profile covers {profiles[-1].num_layers} layers, "
                f"{traces[0]} covers {profiles[0].num_layers}"
            )
    profile = aggregate_profiles(profiles)

    selection = select_pruning_layers(profile, len(balances), min_gap=args.min_gap)
    schedule = build_schedule(selection.layers, retentions, balances, profile.num_layers)

    _note(f"shift profile over {len(traces)} trace(s), tau={args.tau}")
    _note("layer  shifted")
    for layer, count in enumerate(profile.counts):
        marker = " <- prune next layer" if layer + 1 in selection.layers else ""
        _note(f"{layer:>5}  {count:>7}{marker}")
    _note(f"pruning layers: {list(selection.layers)}")

    payload = schedule.to_json_dict()
    payload["profile"] = [
        {"layer": layer, "shifted_count": count} for layer, count in enumerate(profile.counts)
    ]
    payload["fallback"] = selection.fallback
    payload["config"] = {
        "command": "calibrate",
        "traces": traces,
        "tau": args.tau,
        "num_stages": len(balances),
        "retentions": retentions,
        "lambdas": balances,
        "min_gap": args.min_gap,
        "calib_size": args.calib_size,
    }
    _dump_json(payload, args.out)
    if selection.fallback:
        print(
            "warning: flat shift profile, fell back to even subdivision",
            file=sys.stderr,
        )
        return 1
    return 0


# ---------------------------------------------------------------------------
# select


def _diversity_config(args) -> DiversityConfig:
    _load("diversity")
    return DiversityConfig(args.spatial_metric, args.semantic_metric, args.seed_rule)


def cmd_select(args) -> int:
    _load("selector")
    manifest, tensors = read_trace(args.trace)
    schedule = read_schedule(args.schedule)
    if schedule.num_layers != manifest.model_dims.layers:
        raise ValidationError(
            f"schedule covers {schedule.num_layers} layers, trace says "
            f"{manifest.model_dims.layers}"
        )
    cfg = _diversity_config(args)
    # the widths of the stage layers' hidden rows, from the manifest alone;
    # trace_stage_provider checks the names and shapes
    blobs = [tensors.get(f"hidden_l{stage.layer}") for stage in schedule.stages]
    widths = {stage.layer: blob.shape[1] for stage, blob in zip(schedule.stages, blobs)
              if blob is not None and len(blob.shape) == 2}
    _check_fits_in_memory(
        "select",
        stage_peak_bytes(schedule, manifest.layout.n_image, widths, cfg.semantic_metric),
    )
    scores, hidden = trace_stage_provider(manifest, tensors, [s.layer for s in schedule.stages])
    result = run_schedule(manifest.layout, scores, hidden, schedule, cfg)

    _note("layer  kept  attn_mass  min_dist   sum_dist")
    for stage in result.per_stage:
        d = stage.diagnostics
        _note(
            f"{stage.layer:>5}  {len(stage.kept_indices):>4}  "
            f"{d['attention_mass']:>9.4f}  {d['min_pairwise_distance']:>8.4f}  "
            f"{d['sum_of_distances']:>9.3f}"
        )

    payload = result.to_json_dict()
    payload["config"] = {
        "command": "select",
        "trace": args.trace,
        "schedule": args.schedule,
        **asdict(cfg),
    }
    _dump_json(payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# simulate


def _simulate_serially(inputs, layout, cfg, hooks, head_layers, pool) -> list:
    """The head, then one ``forward`` per hook, each run whole on ``pool``
    after the last, with the weights ``init_weights`` draws on this thread,
    every layer before the head runs.

    The head calls ``toymodel.forward`` itself, so that the forwards are
    the only calls of ``forward``; the head and ``text_only`` go in by
    position, as a tracer reads ``prune_hook`` alone.
    """
    toymodel = _load("toymodel")
    weights = init_weights(cfg)
    head = None
    if head_layers:
        head_cfg = replace(cfg, num_layers=head_layers)
        head = pool.submit(toymodel.forward, inputs, layout, head_cfg, weights).result()
    return [pool.submit(forward, inputs, layout, cfg, weights, head, True, prune_hook=hook).result()
            for hook in hooks]


def cmd_simulate(args) -> int:
    toymodel = _load("toymodel")
    _load("selector")
    _load("threads")
    layout = _parse_layout(args.layout)
    if layout.n_text < 1:
        raise ValidationError("simulate needs at least one text token to compare on")
    cfg = ToyConfig(
        num_layers=args.layers,
        d=args.d,
        heads=args.heads,
        mlp=args.mlp,
        seed=args.seed,
        value_norm=args.value_norm,
    )
    schedule = read_schedule(args.schedule)
    if schedule.num_layers != cfg.num_layers:
        raise ValidationError(
            f"schedule covers {schedule.num_layers} layers, model has {cfg.num_layers}"
        )
    dcfg = _diversity_config(args)

    # A caller (a tracer, say) that has replaced ``forward``, which is looked
    # up here and need not be thread-safe, gets the serial path below, on
    # one worker.  Without the BLAS pin the pool has one worker too.
    serial = forward is not toymodel.forward
    workers = min(4, thread_count())
    if serial or not openblas_thread_setter():
        workers = 1
    head_layers = schedule.stages[0].layer + 1 if schedule.stages else 0
    strategies = {"btp": schedule} | {
        name: replace(schedule, stages=tuple(replace(s, balance=b) for s in schedule.stages))
        for name, b in (("attention_only", 1.0), ("diversity_only", 0.0))
    }
    hooks = [None] + [ScheduleDriver(sched, dcfg) for sched in strategies.values()]
    _check_fits_in_memory("simulate", toymodel.forward_many_peak_bytes(
        layout, cfg, hooks, head_layers, workers, streamed=not serial))
    _keep_freed_heap()
    rng = np.random.default_rng([cfg.seed, 1])
    inputs = rng.standard_normal((layout.total(), cfg.d)).astype(np.float32)

    # Up to and including the first stage's layer all four forwards compute
    # the same unpruned layers, so a head runs them once and every forward
    # starts from its record.  The head runs on a worker: run on the main
    # thread, it raised the peak RSS of a paper-shape run from 207 to
    # 234 MB.  The unpruned baseline comes
    # first, as it is the longest; an error is that of the first failing
    # forward in this order, as one forward after another would raise it.
    # The CSV compares text rows alone, so each forward records only those
    # (``text_only``); the head's record stays whole.
    with pinned_pool(workers) as pool:
        if serial:
            baseline, *pruned = _simulate_serially(inputs, layout, cfg, hooks, head_layers, pool)
        else:
            baseline, *pruned = toymodel.forward_many(inputs, layout, cfg, hooks, head_layers,
                                                      pool, workers)
    records = dict(zip(strategies, pruned))

    text_positions = list(range(layout.n_system + layout.n_image, layout.total()))
    lines = ["layer," + ",".join(strategies)]
    for layer in range(1, cfg.num_layers + 1):
        row = [str(layer)]
        for name in strategies:
            row.append(
                _fmt(
                    layer_output_distance(
                        baseline, records[name], layer, text_positions, metric=args.metric
                    )
                )
            )
        lines.append(",".join(row))
    _emit("\n".join(lines) + "\n", args.out)

    config = {
        "command": "simulate",
        "schedule": args.schedule,
        "layout": args.layout,
        "layers": cfg.num_layers,
        "d": cfg.d,
        "heads": cfg.heads,
        "mlp": cfg.mlp,
        "seed": cfg.seed,
        "value_norm": cfg.value_norm,
        "metric": args.metric,
        **asdict(dcfg),
        "out": args.out,
    }
    _note("config: " + json.dumps(config))
    return 0


# ---------------------------------------------------------------------------
# cost

# the per-layer token lists and their lines of indented JSON: measured at
# 123 bytes per layer between 1e6 and 2e6 layers
_COST_BYTES_PER_LAYER = 128


def cmd_cost(args) -> int:
    _load("costs")
    layout = _parse_layout(args.layout)
    if args.num_layers is not None and args.num_layers < 1:
        raise ValidationError(f"--num-layers must be >= 1, got {args.num_layers}")
    schedule = (read_schedule(args.schedule) if args.num_layers is None
                else PruningSchedule(stages=(), num_layers=args.num_layers))
    _check_fits_in_memory("cost", schedule.num_layers * _COST_BYTES_PER_LAYER)
    dims = ModelDims(
        num_layers=schedule.num_layers,
        d=args.d,
        m=args.mlp,
        kv_bytes_per_elem=args.kv_bytes,
    )
    report = schedule_flops(layout, schedule, dims)
    payload = report.to_json_dict()
    payload["config"] = {
        "command": "cost",
        "layout": args.layout,
        "schedule": args.schedule,
        "d": args.d,
        "mlp": args.mlp,
        "num_layers": schedule.num_layers,
        "kv_bytes": args.kv_bytes,
    }
    _dump_json(payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# oracle


def cmd_oracle(args) -> int:
    _load("oracles")
    suite = {"mmdp": mmdp_suite, "single_layer": single_layer_suite,
             "roundtrip": roundtrip_suite}[args.kind]
    # a flag left out, or --instances 0, leaves the suite's own default
    given = {name: getattr(args, name) for name in ("seed", "max_n", "max_k", "guard")
             if getattr(args, name) is not None}
    if args.instances:
        given["instances"] = args.instances
    takes = inspect.signature(suite).parameters
    for name in given:
        if name not in takes:
            raise ValidationError(
                f"--{name.replace('_', '-')} does not apply to the {args.kind} suite"
            )
    report = suite(**given)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 3


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="btp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    diversity = argparse.ArgumentParser(add_help=False)
    diversity.add_argument("--spatial-metric", choices=SPATIAL_METRICS, default="manhattan")
    diversity.add_argument("--semantic-metric", choices=SEMANTIC_METRICS,
                           default="cosine_distance")
    diversity.add_argument("--seed-rule", choices=SEED_RULES, default="farthest_from_centroid")

    cal = sub.add_parser("calibrate", help="build a pruning schedule from traces")
    cal.add_argument("traces", nargs="+", help="trace directories with hidden_l<i> tensors")
    cal.add_argument("--tau", type=float, default=DEFAULT_TAU)
    cal.add_argument("--retentions", default="0.5",
                     help="comma list; a single value repeats per stage")
    cal.add_argument("--lambdas", default="llava7b",
                     help=f"comma list or preset: {', '.join(sorted(LAMBDA_PRESETS))}")
    cal.add_argument("--min-gap", type=int, default=1)
    cal.add_argument("--calib-size", type=int, default=DEFAULT_CALIBRATION_SIZE,
                     help="use at most this many traces")
    cal.add_argument("--out", default=None, help="schedule JSON path (default stdout)")
    cal.set_defaults(func=cmd_calibrate)

    sel = sub.add_parser("select", parents=[diversity], help="run a schedule against a trace")
    sel.add_argument("--trace", required=True)
    sel.add_argument("--schedule", required=True)
    sel.add_argument("--out", default=None, help="selection JSON path (default stdout)")
    sel.set_defaults(func=cmd_select)

    sim = sub.add_parser("simulate", parents=[diversity], help="toy-model strategy comparison")
    sim.add_argument("--schedule", required=True)
    sim.add_argument("--layout", default="2,16,6,4,4",
                     help="n_system,n_image,n_text,grid_rows,grid_cols")
    sim.add_argument("--layers", type=int, default=4)
    sim.add_argument("--d", type=int, default=32)
    sim.add_argument("--heads", type=int, default=4)
    sim.add_argument("--mlp", type=int, default=64)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--value-norm", choices=VALUE_NORM_MODES, default="raw")
    sim.add_argument("--metric", choices=DISTANCE_METRICS, default="cosine_similarity")
    sim.add_argument("--out", default=None, help="CSV path (default stdout)")
    sim.set_defaults(func=cmd_simulate)

    cost = sub.add_parser("cost", help="FLOPs and KV-cache accounting")
    cost.add_argument("--layout", required=True,
                      help="n_system,n_image,n_text,grid_rows,grid_cols")
    depth = cost.add_mutually_exclusive_group(required=True)
    depth.add_argument("--schedule", help="depth and stages from a schedule file")
    depth.add_argument("--num-layers", type=int, help="depth of the unpruned model")
    cost.add_argument("--d", type=int, required=True)
    cost.add_argument("--mlp", type=int, required=True)
    cost.add_argument("--kv-bytes", type=int, default=2)
    cost.add_argument("--out", default=None, help="report JSON path (default stdout)")
    cost.set_defaults(func=cmd_cost)

    orc = sub.add_parser("oracle", help="run a verification suite")
    orc.add_argument("kind", choices=("mmdp", "single_layer", "roundtrip"))
    orc.add_argument("--instances", type=int, default=0, help="0 = suite default")
    for flag in ("--seed", "--max-n", "--max-k", "--guard"):
        orc.add_argument(flag, type=int, help="suite default when not given")
    orc.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    # Every output is written and closed before this returns, so the
    # interpreter's final collections need not walk the objects the exiting
    # process frees anyway: freeze them first.  Registered once, however
    # often main runs in one process.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TraceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
