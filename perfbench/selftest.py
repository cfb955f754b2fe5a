"""Self-test of the benchmark at tiny shapes; takes about half a minute.

Run from the root of a source checkout::

    python3 perfbench/selftest.py

For each workload it checks that clean commands pass and that the traced
run yields every per-layer metric; that a corrupted output counts as a
failure, both one that breaks the workload's check and one that only
changes the output's bytes; and that run.py refuses to run without the
btp sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _edit_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _bump_profile(payload):
    payload["profile"][0]["shifted_count"] += 1


def _duplicate_index(payload):
    kept = payload["stages"][-1]["kept_indices"]
    kept[0] = kept[1]


def _nan_cell(path: Path) -> None:
    text = path.read_text().rstrip("\n")
    head, _, _ = text.rpartition(",")
    path.write_text(head + ",nan\n")


BREAKS_CHECK = {
    "calibrate-llava7b": lambda p: _edit_json(p, _bump_profile),
    "select-anyres": lambda p: _edit_json(p, _duplicate_index),
    "simulate-toy": _nan_cell,
}


def _changes_bytes_later():
    """Append a blank line to every output after the first: only the bytes differ."""
    seen = []

    def mutate(path: Path) -> None:
        if seen:
            path.write_bytes(path.read_bytes() + b"\n")
        seen.append(path)

    return mutate


def _bench(name: str, traced: bool = False, mutate=None) -> dict:
    bench = run.Bench(ROOT, name, seed=3, seconds=0.0, traced=traced,
                      shapes=workloads.TINY[name], mutate=mutate)
    return bench.run()


def _refuses_without_sources() -> None:
    bare = ROOT / run.WORK_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "simulate-toy",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and proc.stdout == "", (proc.returncode, proc.stdout)


def main() -> int:
    for name in workloads.PAPER:
        clean = _bench(name)
        assert clean["correct"] and clean["failed"] == 0, (name, clean["lines"])
        assert set(clean["metrics"]) == set(run.END_TO_END), (name, clean["metrics"])

        traced = _bench(name, traced=True)
        assert traced["correct"], (name, traced["lines"])
        assert set(traced["metrics"]) == set(layers.PER_LAYER), (name, traced["metrics"])

        broken = _bench(name, mutate=BREAKS_CHECK[name])
        assert broken["failed"] == broken["attempted"], (name, broken["lines"])

        drifting = _bench(name, mutate=_changes_bytes_later())
        assert drifting["failed"] == drifting["attempted"] - 1, (name, drifting["lines"])
        print(f"{name}: ok")

    _refuses_without_sources()
    print("run.py without sources: refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
