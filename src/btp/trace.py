"""Core domain types and the on-disk trace directory format.

A trace directory holds a single ``manifest.json`` plus one raw binary file
per tensor.  Tensor payloads are 32-bit little-endian IEEE floats in
row-major order, nothing else: the format is deliberately dumb so that an
export script in any framework can produce it with ``json.dump`` and
``tofile``.  Reads and writes round-trip payload bytes verbatim, including
NaN bit patterns.

Manifest layout (format version "1")::

    {
      "version": "1",
      "model_dims": {"layers": 32, "d": 4096, "heads": 32, "m": 11008},
      "layout": {"n_system": 35, "n_image": 576, "n_text": 64,
                 "grid_rows": 24, "grid_cols": 24},
      "tensors": [{"name": "hidden_l0", "shape": [576, 4096],
                   "dtype": "f32le", "file": "hidden_l0.bin"}]
    }

Rewriting an existing trace directory is atomic at the directory level:
content is staged in a sibling temp directory which is renamed over the
target, so readers never observe a half-written trace.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import shutil
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import TraceError, ValidationError

TRACE_VERSION = "1"
MANIFEST_NAME = "manifest.json"

# dtype tag -> numpy dtype; version "1" supports f32le only
_DTYPE_TAGS = {"f32le": np.dtype("<f4")}


# ---------------------------------------------------------------------------
# tensors


@dataclass(frozen=True)
class TensorBlob:
    """A dense float32 tensor stored flat in row-major order."""

    name: str
    shape: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("tensor name must be non-empty")
        shape = tuple(int(s) for s in self.shape)
        object.__setattr__(self, "shape", shape)
        if not shape or any(s < 1 for s in shape):
            raise ValidationError(
                f"tensor {self.name!r}: every extent must be >= 1, got {shape}"
            )
        data = np.ascontiguousarray(self.data, dtype=np.float32).reshape(-1)
        object.__setattr__(self, "data", data)
        want = math.prod(shape)
        if data.size != want:
            raise ValidationError(
                f"tensor {self.name!r}: shape {shape} implies {want} values, "
                f"payload has {data.size}"
            )

    @classmethod
    def from_array(cls, name: str, array) -> "TensorBlob":
        arr = np.asarray(array, dtype=np.float32)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        return cls(name, tuple(arr.shape), arr.reshape(-1))

    def view(self) -> np.ndarray:
        """Shaped view of the flat payload (no copy)."""
        return self.data.reshape(self.shape)


def layer_tensors(tensors: Mapping[str, TensorBlob], prefix: str) -> dict[int, TensorBlob]:
    """The tensors named ``<prefix><layer>``, keyed by layer, ascending.

    The layer must be written canonically (ASCII digits, no sign, no
    leading zero), so no two names can denote the same layer.
    """
    found = {}
    for name, blob in tensors.items():
        if not name.startswith(prefix):
            continue
        suffix = name[len(prefix):]
        try:
            layer = int(suffix)
        except ValueError:  # not a number, or more digits than int() parses
            layer = -1
        # str() of a non-negative int is the one canonical spelling
        if layer < 0 or str(layer) != suffix:
            raise ValidationError(f"tensor name {name!r} is not {prefix}<layer>")
        found[layer] = blob
    return dict(sorted(found.items()))


# ---------------------------------------------------------------------------
# token layout


@dataclass(frozen=True)
class TokenLayout:
    """Prompt segmentation: system prefix, image grid, trailing text.

    Image tokens occupy the contiguous positions
    ``[n_system, n_system + n_image)`` and map row-major onto a
    ``grid_rows x grid_cols`` grid.  Indices called "image indices" below
    are relative to the image segment, i.e. in ``[0, n_image)``.
    """

    n_system: int
    n_image: int
    n_text: int
    grid_rows: int
    grid_cols: int

    def __post_init__(self) -> None:
        if self.n_system < 0 or self.n_text < 0:
            raise ValidationError("segment sizes must be non-negative")
        if self.grid_rows < 1 or self.grid_cols < 1:
            raise ValidationError("grid extents must be positive")
        if self.grid_rows * self.grid_cols != self.n_image:
            raise ValidationError(
                f"grid {self.grid_rows}x{self.grid_cols} does not cover "
                f"{self.n_image} image tokens"
            )

    def total(self) -> int:
        return self.n_system + self.n_image + self.n_text

    @property
    def image_slice(self) -> slice:
        return slice(self.n_system, self.n_system + self.n_image)

    def image_mask(self, positions) -> np.ndarray:
        """Which of the sequence ``positions`` fall in the image segment."""
        positions = np.asarray(positions)
        return (positions >= self.n_system) & (positions < self.n_system + self.n_image)

    def image_rows(self, mat: np.ndarray, name: str) -> np.ndarray:
        """View of the image rows of tensor ``name``.

        ``mat`` is [n_image, d] (returned as is) or the whole sequence
        [total, d], from which the image segment is sliced; no copy is made.
        """
        if mat.ndim != 2:
            raise ValidationError(f"tensor {name!r}: expected a matrix, got shape {mat.shape}")
        if mat.shape[0] == self.total():
            return mat[self.image_slice]
        if mat.shape[0] != self.n_image:
            raise ValidationError(
                f"tensor {name!r}: {mat.shape[0]} rows, want n_image={self.n_image} "
                f"or the full sequence {self.total()}"
            )
        return mat

    def to_json_dict(self) -> dict:
        return {
            "n_system": self.n_system,
            "n_image": self.n_image,
            "n_text": self.n_text,
            "grid_rows": self.grid_rows,
            "grid_cols": self.grid_cols,
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "TokenLayout":
        try:
            return cls(
                n_system=int(obj["n_system"]),
                n_image=int(obj["n_image"]),
                n_text=int(obj["n_text"]),
                grid_rows=int(obj["grid_rows"]),
                grid_cols=int(obj["grid_cols"]),
            )
        except KeyError as exc:
            raise ValidationError(f"layout is missing field {exc.args[0]!r}") from exc


# ---------------------------------------------------------------------------
# pruning schedules


@dataclass(frozen=True)
class PruningStage:
    """One pruning event.

    At decoder layer ``layer`` the engine keeps a ``retention`` fraction of
    the currently surviving image tokens and splits that budget between
    attention-ranked picks and diversity picks: ``balance`` is the attention
    share (1.0 = attention only, 0.0 = diversity only).
    """

    layer: int
    retention: float
    balance: float

    def __post_init__(self) -> None:
        if self.layer < 0:
            raise ValidationError(f"stage layer must be >= 0, got {self.layer}")
        if not 0.0 < self.retention <= 1.0:
            raise ValidationError(
                f"retention must be in (0, 1], got {self.retention}"
            )
        if not 0.0 <= self.balance <= 1.0:
            raise ValidationError(f"balance must be in [0, 1], got {self.balance}")


def stage_kept_count(retention: float, previous: int, final: bool) -> int:
    """Tokens kept by one stage given the current survivor count.

    floor(retention * previous), clamped to >= 1 except that the final
    stage of a schedule may compute 0, which means "drop every remaining
    image token".  The small epsilon guards against floor(0.1 * 290)
    landing on 28 instead of 29 in binary floating point.
    """
    if previous < 0:
        raise ValidationError("survivor count must be non-negative")
    kept = int(math.floor(retention * previous + 1e-9))
    if kept == 0 and not final:
        kept = 1
    return min(kept, previous)


@dataclass(frozen=True)
class PruningSchedule:
    """Ordered pruning stages for a decoder with ``num_layers`` layers.

    Stage layers are strictly increasing and the attention share is
    non-decreasing from stage to stage: early stages lean on diversity to
    keep coverage, late stages trust attention.
    """

    stages: tuple[PruningStage, ...]
    num_layers: int

    def __post_init__(self) -> None:
        stages = tuple(self.stages)
        object.__setattr__(self, "stages", stages)
        if self.num_layers < 1:
            raise ValidationError("num_layers must be >= 1")
        for stage in stages:
            if stage.layer >= self.num_layers:
                raise ValidationError(
                    f"stage layer {stage.layer} outside [0, {self.num_layers})"
                )
        layers = [s.layer for s in stages]
        if any(b <= a for a, b in zip(layers, layers[1:])):
            raise ValidationError(f"stage layers must be strictly increasing: {layers}")
        balances = [s.balance for s in stages]
        if any(b < a for a, b in zip(balances, balances[1:])):
            raise ValidationError(
                f"attention share must be non-decreasing across stages: {balances}"
            )

    def kept_counts(self, n_image: int) -> list[int]:
        """Survivor count after each stage, starting from ``n_image``."""
        counts = []
        alive = n_image
        for i, stage in enumerate(self.stages):
            alive = stage_kept_count(stage.retention, alive, final=i == len(self.stages) - 1)
            counts.append(alive)
        return counts

    def to_json_dict(self) -> dict:
        return {
            "num_layers": self.num_layers,
            "stages": [
                {"layer": s.layer, "retention": s.retention, "balance": s.balance}
                for s in self.stages
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "PruningSchedule":
        try:
            stages = tuple(
                PruningStage(int(s["layer"]), float(s["retention"]), float(s["balance"]))
                for s in obj["stages"]
            )
            return cls(stages=stages, num_layers=int(obj["num_layers"]))
        except KeyError as exc:
            raise ValidationError(f"schedule is missing field {exc.args[0]!r}") from exc


# ---------------------------------------------------------------------------
# selection results


@dataclass(frozen=True)
class StageSelection:
    """Outcome of one stage: kept image indices plus diagnostic metrics."""

    layer: int
    kept_indices: tuple[int, ...]
    diagnostics: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        kept = tuple(int(i) for i in self.kept_indices)
        object.__setattr__(self, "kept_indices", kept)
        if list(kept) != sorted(set(kept)):
            raise ValidationError(
                f"kept indices must be strictly ascending and unique: {kept}"
            )

    @property
    def drop_all(self) -> bool:
        return len(self.kept_indices) == 0


@dataclass(frozen=True)
class SelectionResult:
    """Per-stage selections; later stages are subsets of earlier ones."""

    per_stage: tuple[StageSelection, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_stage", tuple(self.per_stage))
        for before, after in zip(self.per_stage, self.per_stage[1:]):
            if not set(after.kept_indices) <= set(before.kept_indices):
                raise ValidationError(
                    f"stage at layer {after.layer} keeps tokens not surviving "
                    f"the stage at layer {before.layer}"
                )

    def to_json_dict(self) -> dict:
        return {
            "stages": [
                {
                    "layer": s.layer,
                    "kept_indices": list(s.kept_indices),
                    "diagnostics": dict(s.diagnostics),
                }
                for s in self.per_stage
            ]
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "SelectionResult":
        stages = tuple(
            StageSelection(
                layer=int(s["layer"]),
                kept_indices=tuple(int(i) for i in s["kept_indices"]),
                diagnostics={str(k): float(v) for k, v in s.get("diagnostics", {}).items()},
            )
            for s in obj["stages"]
        )
        return cls(per_stage=stages)


# ---------------------------------------------------------------------------
# manifests


@dataclass(frozen=True)
class ModelShape:
    """Decoder dimensions recorded alongside a trace."""

    layers: int
    d: int
    heads: int
    m: int

    def __post_init__(self) -> None:
        for name in ("layers", "d", "heads", "m"):
            if getattr(self, name) < 1:
                raise ValidationError(f"model dim {name!r} must be >= 1")


def _check_tensor_filename(name: str, file: str) -> None:
    if not file:
        raise TraceError(f"tensor {name!r}: empty file name")
    if os.path.isabs(file) or "/" in file or "\\" in file or file in (".", ".."):
        raise TraceError(f"tensor {name!r}: file name {file!r} must be a plain basename")


@dataclass(frozen=True)
class TensorSpec:
    """Manifest entry describing one tensor payload file."""

    name: str
    shape: tuple[int, ...]
    dtype: str = "f32le"
    file: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("tensor name must be non-empty")
        shape = tuple(self.shape)
        if not shape or not all(
            isinstance(s, numbers.Integral) and not isinstance(s, bool) and s >= 1
            for s in shape
        ):
            raise ValidationError(
                f"tensor {self.name!r}: shape must be integers >= 1, got {list(shape)}"
            )
        object.__setattr__(self, "shape", tuple(int(s) for s in shape))
        if not self.file:
            object.__setattr__(self, "file", f"{self.name}.bin")
        _check_tensor_filename(self.name, self.file)


@dataclass(frozen=True)
class TraceManifest:
    version: str
    model_dims: ModelShape
    layout: TokenLayout
    tensors: tuple[TensorSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tensors", tuple(self.tensors))
        names = [t.name for t in self.tensors]
        if len(names) != len(set(names)):
            raise TraceError("manifest lists duplicate tensor names")

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "model_dims": {
                "layers": self.model_dims.layers,
                "d": self.model_dims.d,
                "heads": self.model_dims.heads,
                "m": self.model_dims.m,
            },
            "layout": self.layout.to_json_dict(),
            "tensors": [
                {
                    "name": t.name,
                    "shape": list(t.shape),
                    "dtype": t.dtype,
                    "file": t.file,
                }
                for t in self.tensors
            ],
        }


def make_manifest(
    layout: TokenLayout,
    model_dims: ModelShape,
    blobs: Mapping[str, TensorBlob],
    version: str = TRACE_VERSION,
) -> TraceManifest:
    """Manifest covering ``blobs`` with default one-file-per-tensor naming."""
    specs = tuple(TensorSpec(name=name, shape=blob.shape) for name, blob in blobs.items())
    return TraceManifest(version=version, model_dims=model_dims, layout=layout, tensors=specs)


def _manifest_from_json(obj, where: str) -> TraceManifest:
    """Parse a manifest object; every malformed field is a ``TraceError``."""
    if not isinstance(obj, dict):
        raise TraceError(f"{where}: manifest root must be an object")
    try:
        version = str(obj["version"])
        if version != TRACE_VERSION:
            raise TraceError(f"unsupported trace version {version!r}")
        dims = obj["model_dims"]
        specs = tuple(
            TensorSpec(
                name=str(entry["name"]),
                shape=tuple(entry["shape"]),
                dtype=str(entry["dtype"]),
                file=str(entry["file"]),
            )
            for entry in obj["tensors"]
        )
        for spec in specs:
            if spec.dtype not in _DTYPE_TAGS:
                raise TraceError(f"tensor {spec.name!r}: unknown dtype tag {spec.dtype!r}")
        return TraceManifest(
            version=version,
            model_dims=ModelShape(
                layers=int(dims["layers"]),
                d=int(dims["d"]),
                heads=int(dims["heads"]),
                m=int(dims["m"]),
            ),
            layout=TokenLayout.from_json_dict(obj["layout"]),
            tensors=specs,
        )
    except (KeyError, TypeError, ValueError) as exc:
        # ValidationError and TraceError are ValueErrors too
        detail = f"missing field {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
        raise TraceError(f"{where}: malformed manifest: {detail}") from exc


# ---------------------------------------------------------------------------
# directory IO


def read_trace(path) -> tuple[TraceManifest, dict[str, TensorBlob]]:
    """Load a trace directory.

    Returns the parsed manifest and a name-keyed dict of tensors.  Payload
    bytes are taken verbatim, so NaN payloads survive a round trip.
    """
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise TraceError(f"{root}: no {MANIFEST_NAME} found")
    try:
        obj = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise TraceError(f"{manifest_path}: malformed JSON: {exc}") from exc
    manifest = _manifest_from_json(obj, where=str(manifest_path))

    tensors: dict[str, TensorBlob] = {}
    for spec in manifest.tensors:
        file_path = root / spec.file
        if not file_path.is_file():
            raise TraceError(f"tensor {spec.name!r}: payload file {file_path} missing")
        dtype = _DTYPE_TAGS[spec.dtype]
        want = math.prod(spec.shape)
        raw = np.fromfile(file_path, dtype=dtype)
        if raw.size != want:
            raise TraceError(
                f"tensor {spec.name!r}: shape {spec.shape} needs {want * dtype.itemsize} "
                f"bytes, file {spec.file!r} holds {raw.size * dtype.itemsize}"
            )
        # view as native float32 without touching the bit patterns
        data = raw.astype("<f4", copy=False).view(np.float32)
        tensors[spec.name] = TensorBlob(name=spec.name, shape=spec.shape, data=data)
    return manifest, tensors


def write_trace(path, manifest: TraceManifest, tensors: Mapping[str, TensorBlob]) -> None:
    """Write a trace directory, staging in a temp dir and renaming over ``path``.

    The manifest must list exactly the tensors provided, with matching shapes.
    """
    given = set(tensors)
    listed = {t.name for t in manifest.tensors}
    if given != listed:
        missing = sorted(listed - given)
        extra = sorted(given - listed)
        raise ValidationError(
            f"manifest/tensor mismatch: missing blobs {missing}, unlisted blobs {extra}"
        )
    for spec in manifest.tensors:
        if spec.dtype not in _DTYPE_TAGS:
            raise ValidationError(
                f"tensor {spec.name!r}: unknown dtype tag {spec.dtype!r}"
            )
        blob = tensors[spec.name]
        if tuple(blob.shape) != tuple(spec.shape):
            raise ValidationError(
                f"tensor {spec.name!r}: manifest shape {spec.shape} != blob shape {blob.shape}"
            )

    root = Path(path)
    root.parent.mkdir(parents=True, exist_ok=True)
    staging = root.parent / f".{root.name}.tmp-{uuid.uuid4().hex[:12]}"
    staging.mkdir()
    try:
        (staging / MANIFEST_NAME).write_text(
            json.dumps(manifest.to_json_dict(), indent=2) + "\n"
        )
        for spec in manifest.tensors:
            blob = tensors[spec.name]
            blob.data.astype("<f4", copy=False).tofile(staging / spec.file)
        if root.exists():
            shutil.rmtree(root)
        os.rename(staging, root)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
