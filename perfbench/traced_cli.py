"""Run one ``btp`` command with spans around the calls into each module.

Usage: ``python3 traced_cli.py SPANS_JSON COMMAND_ID BTP_ARGS...``

The wrappers replace the names that callers look up (``btp.cli.read_trace``,
``btp.selector.greedy_maxmin``, ``btp.diversity.distance_matrix``,
``btp.toymodel.layer_step`` and so on), so the program itself is unchanged.
Spans stay in memory and are written to SPANS_JSON when the command ends.
Each span has a name, start and end (``time.perf_counter`` seconds), the id
of its parent span, the command id and attributes read off the call's
arguments or result after the span closed.  The exit code is the command's.
"""

import functools
import json
import math
import sys
import time

_spans = []
_stack = [None]


def _open(name: str, cmd: int) -> dict:
    span = {"id": len(_spans), "name": name, "parent": _stack[-1], "cmd": cmd,
            "start": time.perf_counter()}
    _spans.append(span)
    _stack.append(span["id"])
    return span


def _close(span: dict) -> None:
    span["end"] = time.perf_counter()
    _stack.pop()


def _wrap(module, attr: str, name: str, cmd: int, attrs=None) -> None:
    fn = getattr(module, attr)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = _open(name, cmd)
        try:
            result = fn(*args, **kwargs)
        finally:
            _close(span)
        if attrs is not None:
            span.update(attrs(result, *args, **kwargs))
        return result

    setattr(module, attr, traced)


def _read_attrs(result, path):
    manifest, _ = result
    return {"tensors": {t.name: math.prod(t.shape) * 4 for t in manifest.tensors}}


def _dist_attrs(result, points, metric):
    return {"shape": list(points.shape), "metric": metric}


def _stack_attrs(result, stack, **_):
    return {"shape": list(stack.shape)}


def _layer_attrs(result, *_, layer):
    return {"layer": int(layer)}


def _stage_attrs(result, inputs, *_, **__):
    return {"layer": int(inputs.layer)}


def _step_attrs(result, x, layer, *_):
    return {"n": int(x.shape[0]), "layer": int(layer)}


def _forward_attrs(result, *_, prune_hook=None):
    return {"pruned": prune_hook is not None}


def main(argv: list[str]) -> int:
    spans_path, cmd, btp_args = argv[0], int(argv[1]), argv[2:]
    startup = _open("cli.startup", cmd)
    import btp.cli
    _close(startup)

    import btp.diversity
    import btp.selector
    import btp.toymodel

    cli, sel, div, toy = btp.cli, btp.selector, btp.diversity, btp.toymodel
    _wrap(cli, "read_trace", "trace.read", cmd, _read_attrs)
    _wrap(cli, "shift_profile", "calibration.shift_profile", cmd, _stack_attrs)
    _wrap(cli, "trace_stage_provider", "selector.provider", cmd)
    _wrap(cli, "run_schedule", "selector.run_schedule", cmd)
    _wrap(cli, "init_weights", "toymodel.init_weights", cmd)
    _wrap(cli, "forward", "toymodel.forward", cmd, _forward_attrs)
    _wrap(cli, "layer_output_distance", "toymodel.compare", cmd)
    _wrap(sel, "importance_last_token", "scoring.importance", cmd, _layer_attrs)
    _wrap(sel, "rebalanced_topk", "scoring.topk", cmd)
    _wrap(sel, "run_stage", "selector.stage", cmd, _stage_attrs)
    _wrap(sel, "spatial_init", "diversity.spatial_init", cmd)
    _wrap(sel, "greedy_maxmin", "diversity.greedy", cmd)
    _wrap(sel, "min_pairwise_distance", "diversity.diag", cmd)
    _wrap(sel, "sum_of_distances", "diversity.diag", cmd)
    _wrap(div, "distance_matrix", "diversity.distance_matrix", cmd, _dist_attrs)
    _wrap(toy, "layer_step", "toymodel.layer_step", cmd, _step_attrs)

    main_span = _open("cli.main", cmd)
    try:
        code = cli.main(btp_args)
    finally:
        _close(main_span)
        with open(spans_path, "w") as fh:
            json.dump(_spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
