"""Per-layer metrics from the spans of traced commands.

``command_metrics`` turns the spans of one traced command into one value
per metric; ``PER_LAYER`` names each metric, its unit, which way is
better, and what it is.  A metric whose layer the command never calls
reads 0.  Values marked "computed" are derived from shapes, not measured;
every ratio names its base.
"""

from __future__ import annotations

import math

from btp.costs import ModelDims, layer_flops

# name: (unit, better, description)
PER_LAYER = {
    "cli.startup_s": ("s", "lower", "import btp.cli in a fresh interpreter"),
    "cli.self_s": ("s", "lower", "cli.main minus its traced calls: argument parsing, "
                                 "np.stack in calibrate, tables and output"),
    "trace.read_s": ("s", "lower", "read_trace, summed over the command's traces"),
    "trace.read_bytes": ("B", "lower", "payload bytes the manifests of the read traces list"),
    "trace.read_mb_per_s": ("MB/s", "higher", "trace.read_bytes / trace.read_s"),
    "trace.used_bytes_ratio": ("ratio", "higher", "bytes of tensors the schedule consumes "
                               "(computed from the schedule) over the base trace.read_bytes"),
    "trace.write_s": ("s", "lower", "write_trace during set-up, median over set-ups"),
    "trace.write_bytes": ("B", "lower", "payload bytes handed to write_trace in one set-up"),
    "scoring.importance_s": ("s", "lower", "importance_last_token, summed"),
    "scoring.importance_calls": ("count", "lower", "importance_last_token calls"),
    "scoring.used_ratio": ("ratio", "higher", "scored layers a stage then runs at over the "
                           "base scoring.importance_calls"),
    "scoring.topk_s": ("s", "lower", "rebalanced_topk, summed"),
    "diversity.spatial_init_s": ("s", "lower", "spatial_init, summed"),
    "diversity.spatial_init_calls": ("count", "lower", "spatial_init calls"),
    "diversity.greedy_s": ("s", "lower", "greedy_maxmin with its distance matrix, summed"),
    "diversity.diag_s": ("s", "lower", "min_pairwise_distance + sum_of_distances, summed"),
    "diversity.dist_calls": ("count", "lower", "distance_matrix calls"),
    "diversity.dist_cells": ("count", "lower", "N*N summed over distance_matrix calls"),
    "diversity.dist_temp_mb_max": ("MB", "lower", "computed: largest array one distance_matrix "
                                   "call allocates, N*N*d*8 B for euclidean and manhattan, "
                                   "N*N*8 B for cosine_distance"),
    "selector.stage_self_s": ("s", "lower", "run_stage minus scoring and diversity calls, "
                              "summed"),
    "selector.stages": ("count", "lower", "run_stage calls"),
    "calibration.shift_profile_s": ("s", "lower", "shift_profile, summed over traces"),
    "calibration.stack_mb": ("MB", "lower", "computed: float32 [L+1, N, d] stack the CLI "
                             "builds per trace"),
    "calibration.upcast_mb": ("MB", "lower", "computed: float64 copy of that stack made by "
                              "shift_profile"),
    "toymodel.layer_s.unpruned": ("s", "lower", "mean layer_step time, unpruned forward"),
    "toymodel.layer_s.pruned": ("s", "lower", "mean layer_step time, forward under the "
                                "btp schedule"),
    "toymodel.gflops_per_s.unpruned": ("GFLOP/s", "higher", "costs.layer_flops(n) over "
                                       "layer_step time, unpruned forward"),
    "toymodel.gflops_per_s.pruned": ("GFLOP/s", "higher", "the same for the btp forward"),
    "toymodel.speedup_measured": ("x", "higher", "layer_step time of the unpruned forward "
                                  "over the base: layer_step time of the btp forward"),
    "costs.speedup_predicted": ("x", "higher", "computed: sum of costs.layer_flops(n) over "
                                "the unpruned forward's layers over the base: the same sum "
                                "for the btp forward"),
    "costs.speedup_error": ("ratio", "lower", "toymodel.speedup_measured / "
                            "costs.speedup_predicted - 1"),
    "tracing_overhead_s": ("s", "lower", "traced minus untraced cmd_s.p50 in the same run"),
}


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def command_metrics(spans: list[dict], used_tensors, toy_dims: ModelDims | None) -> dict:
    """Per-layer values of one traced command; ``PER_LAYER`` says what each is."""
    children: dict[int, list[dict]] = {}
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
        by_name.setdefault(span["name"], []).append(span)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(_dur(s) for s in named(name))

    def self_time(span):
        kids = children.get(span["id"], [])
        return _dur(span) - _covered([(k["start"], k["end"]) for k in kids])

    m = {
        "cli.startup_s": total("cli.startup"),
        "cli.self_s": sum(self_time(s) for s in named("cli.main")),
    }

    read_bytes = used_bytes = 0
    for span in named("trace.read"):
        for tensor, nbytes in span["tensors"].items():
            read_bytes += nbytes
            if used_tensors is None or tensor in used_tensors:
                used_bytes += nbytes
    read_s = total("trace.read")
    m["trace.read_s"] = read_s
    m["trace.read_bytes"] = read_bytes
    m["trace.read_mb_per_s"] = read_bytes / read_s / 1e6 if read_s else 0.0
    m["trace.used_bytes_ratio"] = used_bytes / read_bytes if read_bytes else 0.0

    stages = named("selector.stage")
    stage_layers = {s["layer"] for s in stages}
    scored = named("scoring.importance")
    m["scoring.importance_s"] = total("scoring.importance")
    m["scoring.importance_calls"] = len(scored)
    m["scoring.used_ratio"] = (
        sum(s["layer"] in stage_layers for s in scored) / len(scored) if scored else 0.0
    )
    m["scoring.topk_s"] = total("scoring.topk")

    dists = named("diversity.distance_matrix")
    m["diversity.spatial_init_s"] = total("diversity.spatial_init")
    m["diversity.spatial_init_calls"] = len(named("diversity.spatial_init"))
    m["diversity.greedy_s"] = total("diversity.greedy")
    m["diversity.diag_s"] = total("diversity.diag")
    m["diversity.dist_calls"] = len(dists)
    m["diversity.dist_cells"] = sum(s["shape"][0] ** 2 for s in dists)
    m["diversity.dist_temp_mb_max"] = max((_dist_temp_bytes(s) / 1e6 for s in dists), default=0.0)

    m["selector.stage_self_s"] = sum(self_time(s) for s in stages)
    m["selector.stages"] = len(stages)

    profiles = named("calibration.shift_profile")
    cells = max((math.prod(s["shape"]) for s in profiles), default=0)
    m["calibration.shift_profile_s"] = total("calibration.shift_profile")
    m["calibration.stack_mb"] = cells * 4 / 1e6
    m["calibration.upcast_mb"] = cells * 8 / 1e6

    m.update(_toymodel_metrics(spans, children, toy_dims))
    return m


def _dist_temp_bytes(span: dict) -> int:
    n, d = span["shape"]
    if span["metric"] == "cosine_distance":
        return n * n * 8
    return n * n * d * 8


def _toymodel_metrics(spans, children, dims) -> dict:
    forwards = [s for s in spans if s["name"] == "toymodel.forward"]
    unpruned = next((s for s in forwards if not s["pruned"]), None)
    # the CLI runs the btp schedule first among the pruned forwards
    pruned = next((s for s in forwards if s["pruned"]), None)
    names = ("toymodel.layer_s.unpruned", "toymodel.layer_s.pruned",
             "toymodel.gflops_per_s.unpruned", "toymodel.gflops_per_s.pruned",
             "toymodel.speedup_measured", "costs.speedup_predicted", "costs.speedup_error")
    if unpruned is None or pruned is None:
        return dict.fromkeys(names, 0.0)

    def steps(forward):
        found = [k for k in children.get(forward["id"], []) if k["name"] == "toymodel.layer_step"]
        secs = sum(_dur(k) for k in found)
        flops = sum(layer_flops(k["n"], dims) for k in found)
        return secs, flops, len(found)

    secs_u, flops_u, layers_u = steps(unpruned)
    secs_p, flops_p, layers_p = steps(pruned)
    measured = secs_u / secs_p
    predicted = flops_u / flops_p
    return dict(zip(names, (
        secs_u / layers_u, secs_p / layers_p,
        flops_u / secs_u / 1e9, flops_p / secs_p / 1e9,
        measured, predicted, measured / predicted - 1.0,
    )))
