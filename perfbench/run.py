"""Benchmark of the ``btp`` command line at paper shapes.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload select-anyres --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The program is used as a user uses it: one client in a closed loop runs
one ``btp`` command after another, each in a fresh interpreter with
``src`` on ``PYTHONPATH``, for ``--seconds`` seconds.  ``BTP_THREADS`` is
removed from the children's environment, so ``calibrate`` uses one worker;
numpy's BLAS keeps its own default.  Every input is generated from
``--seed`` before the loop (workloads.py), and every command's output is
checked; a command that exits non-zero or fails its check is counted in
``failed``.

With ``--trace 0`` the result holds the end-to-end metrics: ``setup_s``
(median time to generate the inputs and write them, over several
set-ups), ``cmd_s.p50`` and ``cmd_s.tail`` (wall time of one command,
interpreter start-up included) and ``peak_rss_mb`` (highest ``ru_maxrss``
of any command, from ``os.wait4``).  With ``--trace 1`` the loop
alternates plain commands with commands run under traced_cli.py and the
result holds the per-layer metrics of layers.py.  The last line of
standard output is the result as one JSON object; the lines above it
repeat each metric with its unit, sample count and meaning, and record
the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
LAUNCH = "import sys; from btp.cli import main; sys.exit(main())"
# generous: the slowest command takes about 7 s at paper shapes
COMMAND_TIMEOUT_S = 90.0
# set up at least this many times, and for at least this long, per run
SETUP_REPS = 3
SETUP_MIN_S = 0.25
# write_trace stages a new trace beside the old one before replacing it
DISK_HEADROOM = 2
# in a traced run: one plain and one traced command at the least
MIN_COMMANDS = 2

END_TO_END = {
    "setup_s": ("s", "median time to generate the inputs and write them, per set-up"),
    "cmd_s.p50": ("s", "median wall time of one btp command, interpreter start-up included"),
    "cmd_s.tail": ("s", "command wall time at the highest percentile with ten samples above "
                        "it; the maximum (p100) below 20 samples"),
    "peak_rss_mb": ("MB", "highest ru_maxrss of any command in the run"),
}
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass
class Command:
    """One finished ``btp`` command; ``error`` is None when it succeeded."""

    secs: float
    rss_mb: float
    error: str | None


def run_child(argv: list[str], env: dict, log: Path) -> tuple[float, float, int]:
    """Run ``argv`` to completion: (wall seconds, peak RSS MB, exit code).

    The child is killed after ``COMMAND_TIMEOUT_S``.  It is always reaped
    before this returns.
    """
    lock = threading.Lock()
    exited = False

    def kill() -> None:
        with lock:
            if not exited:
                proc.kill()

    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env)
        timer = threading.Timer(COMMAND_TIMEOUT_S, kill)
        timer.start()
        try:
            # wait without reaping, so the timer never signals a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            secs = time.perf_counter() - start
            with lock:
                exited = True
        finally:
            timer.cancel()
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return secs, usage.ru_maxrss / 1024.0, proc.returncode


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the tail statistic ``cmd_s.tail`` reports.

    The highest nearest-rank percentile with at least ten samples above
    it.  Below 20 samples every such percentile lies under the median, so
    the maximum (p100) is reported instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return 100.0, ordered[-1]
    rank = n - 10
    return 100.0 * rank / n, ordered[rank - 1]


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "btp_threads": "unset in children",
    }


class Bench:
    """One workload run: set up, closed loop, checks, metrics."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float, traced: bool,
                 shapes=None, mutate=None):
        import workloads

        self.root, self.workload, self.seed = root, workload, seed
        self.seconds, self.traced = seconds, traced
        self.shapes = shapes or workloads.PAPER[workload]
        # test hook: rewrites a command's output before it is checked
        self.mutate = mutate
        self.work = root / WORK_DIR / workload
        self.env = dict(os.environ)
        self.env.pop("BTP_THREADS", None)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )

    def run(self) -> dict:
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        try:
            self._check_disk()
            self._setup()
            self._flush()
            self._loop()
            if self.traced:
                spans = self.root / WORK_DIR / f"{self.workload}.spans.json"
                spans.write_text(json.dumps(self.traced_spans))
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        return self._result()

    def _check_disk(self) -> None:
        import workloads

        need = DISK_HEADROOM * workloads.trace_payload_bytes(self.shapes, self.workload)
        free = shutil.disk_usage(self.work).free
        if free < need:
            raise SystemExit(
                f"error: {self.workload} needs {need / 1e9:.2f} GB free in {self.work}, "
                f"{free / 1e9:.2f} GB available"
            )

    def _setup(self) -> None:
        import workloads

        times, writes = [], []
        start = time.perf_counter()
        while len(times) < SETUP_REPS or time.perf_counter() - start < SETUP_MIN_S:
            t0 = time.perf_counter()
            self.prepared = workloads.prepare(self.workload, self.work, self.seed, self.shapes)
            times.append(time.perf_counter() - t0)
            writes.append(self.prepared.write_s)
        self.setup_times = times
        self.write_s = statistics.median(writes)

    def _flush(self) -> None:
        """Write the inputs back to disk, so that no write-back overlaps the loop."""
        for path in self.work.rglob("*"):
            if path.is_file():
                fd = os.open(path, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)

    def _loop(self) -> None:
        self.commands: list[Command] = []
        self.traced_spans: list[list[dict]] = []
        self.traced_secs: list[float] = []
        self.digest = None
        # untimed but checked: the first command after set-up runs slower
        # (bytecode compilation, the kernel reclaiming the set-up's memory)
        self.warmup = self._one(-1, False)
        start = time.perf_counter()
        while len(self.commands) < MIN_COMMANDS or self._fits(time.perf_counter() - start):
            traced = self.traced and len(self.commands) % 2 == 1
            self.commands.append(self._one(len(self.commands), traced))

    def _fits(self, elapsed: float) -> bool:
        """Whether one more command of median length ends within the run."""
        typical = statistics.median(c.secs for c in self.commands)
        return elapsed + typical <= self.seconds

    def _one(self, index: int, traced: bool) -> Command:
        prep = self.prepared
        prep.out.unlink(missing_ok=True)
        spans_path = self.work / f"spans{index}.json"
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), str(index)]
        else:
            argv = [sys.executable, "-c", LAUNCH]
        log = self.work / f"cmd{index}.log"
        secs, rss_mb, code = run_child(argv + prep.argv, self.env, log)
        if code != 0:
            last = log.read_bytes()[-400:].decode(errors="replace").strip()
            error = f"exit {code}: {last}"
        else:
            error = self._check_output()
        if traced and code == 0:
            self.traced_spans.append(json.loads(spans_path.read_text()))
            self.traced_secs.append(secs)
        spans_path.unlink(missing_ok=True)
        return Command(secs, rss_mb, error)

    def _check_output(self) -> str | None:
        prep = self.prepared
        if not prep.out.is_file():
            return f"no output at {prep.out}"
        if self.mutate is not None:
            self.mutate(prep.out)
        raw = prep.out.read_bytes()
        try:
            error = prep.check(raw)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            error = f"malformed output: {exc!r}"
        digest = hashlib.sha256(raw).hexdigest()
        if error is None and self.digest not in (None, digest):
            error = "output bytes differ from the run's first command"
        if self.digest is None and error is None:
            self.digest = digest
        return error

    def _result(self) -> dict:
        ran = [self.warmup] + self.commands
        failed = [c for c in ran if c.error is not None]
        secs = [c.secs for c in self.commands if c.error is None]
        lines = [f"workload {self.workload} seed {self.seed}: {len(ran)} commands "
                 f"(1 untimed warm-up), {len(failed)} failed",
                 f"  fail_ratio {len(failed) / len(ran):>12.6f} ratio n={len(ran):<4} "
                 f"commands that exited non-zero or failed their check, over all commands"]
        lines += [f"  failure: {c.error}" for c in failed[:5]]
        if self.traced:
            metrics = self._per_layer(lines)
        else:
            metrics = self._end_to_end(secs, max(c.rss_mb for c in ran), lines)
        return {
            "correct": not failed,
            "attempted": len(ran),
            "failed": len(failed),
            "metrics": metrics,
            "lines": lines,
        }

    def _end_to_end(self, secs: list[float], peak_rss_mb: float, lines: list[str]) -> dict:
        values = {"setup_s": statistics.median(self.setup_times), "peak_rss_mb": peak_rss_mb}
        counts = {"setup_s": len(self.setup_times), "peak_rss_mb": len(self.commands) + 1}
        if secs:
            pct, worst = tail(secs)
            values["cmd_s.p50"] = statistics.median(secs)
            values["cmd_s.tail"] = worst
            counts["cmd_s.p50"] = counts["cmd_s.tail"] = len(secs)
        lines.append("  cmd_s samples: " + " ".join(f"{s:.3f}" for s in secs))
        metrics = {}
        for name, (unit, what) in END_TO_END.items():
            if name not in values:
                continue
            metrics[name] = {"value": values[name], "unit": unit}
            note = f" (p{pct:.0f})" if name == "cmd_s.tail" else ""
            lines.append(f"  {name:<12} {values[name]:>12.6f} {unit:<3} n={counts[name]:<4}"
                         f"{note} {what}")
        return metrics

    def _per_layer(self, lines: list[str]) -> dict:
        import layers
        from btp.costs import ModelDims

        dims = ModelDims(num_layers=self.shapes.layers, d=self.shapes.d, m=self.shapes.mlp)
        per_cmd = [layers.command_metrics(s, self.prepared.used_tensors, dims)
                   for s in self.traced_spans]
        plain = [c.secs for c in self.commands[0::2] if c.error is None]
        values = {}
        for name in layers.PER_LAYER:
            if name == "trace.write_s":
                values[name] = self.write_s
            elif name == "trace.write_bytes":
                values[name] = self.prepared.trace_bytes
            elif name == "tracing_overhead_s":
                values[name] = (statistics.median(self.traced_secs) - statistics.median(plain)
                                if self.traced_secs and plain else 0.0)
            elif per_cmd:
                values[name] = statistics.median(m[name] for m in per_cmd)
        metrics = {}
        for name, (unit, _better, what) in layers.PER_LAYER.items():
            if name not in values:
                continue
            metrics[name] = {"value": values[name], "unit": unit}
            lines.append(f"  {name:<31} {values[name]:>14.6f} {unit:<7} "
                         f"n={len(per_cmd)} {what}")
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "btp" / "cli.py").is_file():
        print(f"error: {root} holds no btp source tree (src/btp); run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(root / "src")]
    import workloads

    names = list(workloads.PAPER) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.PAPER]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(workloads.PAPER)} or all", file=sys.stderr)
        return 2

    results = {}
    for name in names:
        result = Bench(root, name, args.seed, args.seconds, bool(args.trace)).run()
        print("\n".join(result.pop("lines")), flush=True)
        results[name] = result
    print("env: " + json.dumps(environment()))
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
