"""Core domain types and the on-disk trace directory format.

A trace directory holds a single ``manifest.json`` plus one raw binary file
per tensor.  Tensor payloads are 32-bit little-endian IEEE floats in
row-major order, nothing else: the format is deliberately dumb so that an
export script in any framework can produce it with ``json.dump`` and
``tofile``.  Reads and writes round-trip payload bytes verbatim, including
NaN bit patterns.  Reads are lazy: each payload is memory-mapped read-only,
so a command pages in only the bytes it touches.

Manifest layout (format version "1")::

    {
      "version": "1",
      "model_dims": {"layers": 32, "d": 4096, "heads": 32, "m": 11008},
      "layout": {"n_system": 35, "n_image": 576, "n_text": 64,
                 "grid_rows": 24, "grid_cols": 24},
      "tensors": [{"name": "hidden_l0", "shape": [576, 4096],
                   "dtype": "f32le", "file": "hidden_l0.bin"}]
    }

Rewriting an existing trace directory swaps whole directories: content is
staged in a sibling temp directory, the old trace is renamed aside, the
staged one is renamed into place and only then is the old one removed.  A
write that fails at any step leaves the old trace as it was.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import shutil
import uuid
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import TraceError, ValidationError

TRACE_VERSION = "1"
MANIFEST_NAME = "manifest.json"

# the choices of the command line's diversity and toy-model flags and the
# calibration defaults, defined here, which every command loads, so that its
# parser lists them without importing the modules that use them.  The
# spatial metrics are also the elementwise ones, which
# ``diversity.distance_rows`` computes for any points.
SPATIAL_METRICS = ("manhattan", "euclidean")
SEMANTIC_METRICS = ("cosine_distance", "euclidean")
SEED_RULES = ("spatial_first_point", "farthest_from_centroid")
VALUE_NORM_MODES = ("raw", "unit")
DISTANCE_METRICS = ("cosine_similarity", "euclidean")
DEFAULT_TAU = 0.93
DEFAULT_CALIBRATION_SIZE = 64

# the manifest tag of the one payload dtype of version "1", numpy's "<f4"
_DTYPE_TAG = "f32le"


def _is_int(value) -> bool:
    # a JSON boolean is a Python int, and int() would truncate a float such as 12.9
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _json(kind: type, value, field: str):
    """``value`` if it is of JSON type ``kind``: int, float (any number), str, list or dict.

    Booleans are none of these, and str() or tuple() would accept 5 as
    tensor "5", or "" as no tensors.
    """
    test, name = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number")}.get(
        kind, (kind, f"a {kind.__name__}"))
    if isinstance(value, bool) or not isinstance(value, test):
        raise TypeError(f"{field} must be {name}, got {value!r}")
    return kind(value) if kind in (int, float) else value


def _decode(raw: bytes, where, what: str):
    # ValueError is bad syntax or UTF-8, or an integer past Python's digit
    # limit; RecursionError is nesting too deep for the decoder
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise TraceError(f"{where}: malformed {what}: {exc}") from exc


@contextmanager
def _json_fields(obj, where, what: str):
    # a root that is no object, or a field the block reads that is missing,
    # of the wrong type or breaks a rule, is one error naming ``where``
    try:
        if not isinstance(obj, dict):
            raise TypeError("root must be an object")
        yield
    except (KeyError, TypeError, ValueError) as exc:
        # ValidationError and TraceError are ValueErrors too
        detail = f"missing field {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
        raise TraceError(f"{where}: malformed {what}: {detail}") from exc


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
        # np.require keeps a read-only memmap a memmap, and copies nothing
        # that is already contiguous float32
        data = np.require(self.data, dtype=np.float32, requirements="C").reshape(-1)
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
        return asdict(self)

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "TokenLayout":
        try:
            return cls(**{f.name: _json(int, obj[f.name], f.name) for f in fields(cls)})
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
    def from_json_dict(cls, obj: Mapping, where: str = "schedule") -> "PruningSchedule":
        """Parse a schedule object.

        A field of the wrong JSON type or a missing field is a
        ``TraceError`` naming ``where``; a well-formed schedule whose values
        break a rule (retention 1.5, say) is a ``ValidationError``.
        """
        with _json_fields(obj, where, "schedule"):
            # iterating "" or {} would read as a schedule with no stages
            entries = _json(list, obj["stages"], "stages")
            stages = [
                (_json(int, s["layer"], "stage layer"),
                 _json(float, s["retention"], "retention"),
                 _json(float, s["balance"], "balance"))
                for s in (_json(dict, entry, "stage") for entry in entries)
            ]
            num_layers = _json(int, obj["num_layers"], "num_layers")
        return cls(stages=tuple(PruningStage(*s) for s in stages), num_layers=num_layers)


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
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValidationError(f"model dim {f.name!r} must be >= 1")


def _check_tensor_filename(name: str, file: str) -> None:
    if os.path.isabs(file) or any(c in file for c in "/\\\0") or file in (".", ".."):
        raise TraceError(f"tensor {name!r}: file name {file!r} must be a plain basename")
    if file == MANIFEST_NAME:
        raise TraceError(f"tensor {name!r}: file name {file!r} is the manifest's")
    try:
        os.fsencode(file)
    except UnicodeEncodeError as exc:  # an unpaired surrogate names no file
        raise TraceError(f"tensor {name!r}: file name {file!r} is not encodable") from exc


@dataclass(frozen=True)
class TensorSpec:
    """Manifest entry describing one tensor payload file."""

    name: str
    shape: tuple[int, ...]
    file: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("tensor name must be non-empty")
        shape = tuple(self.shape)
        if not shape or not all(_is_int(s) and s >= 1 for s in shape):
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
        owner: dict[str, str] = {}
        for t in self.tensors:
            if t.file in owner:
                raise TraceError(
                    f"tensors {owner[t.file]!r} and {t.name!r} share payload file {t.file!r}"
                )
            owner[t.file] = t.name

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "model_dims": asdict(self.model_dims),
            "layout": self.layout.to_json_dict(),
            "tensors": [
                {
                    "name": t.name,
                    "shape": list(t.shape),
                    "dtype": _DTYPE_TAG,
                    "file": t.file,
                }
                for t in self.tensors
            ],
        }


def make_manifest(
    layout: TokenLayout,
    model_dims: ModelShape,
    blobs: Mapping[str, TensorBlob],
) -> TraceManifest:
    """Manifest covering ``blobs`` with default one-file-per-tensor naming."""
    specs = tuple(TensorSpec(name=name, shape=blob.shape) for name, blob in blobs.items())
    return TraceManifest(TRACE_VERSION, model_dims, layout, specs)


def _spec_from_json(entry) -> TensorSpec:
    # fields are read in manifest order, so the first bad one is the one named
    name = _json(str, entry["name"], "tensor name")
    shape = tuple(_json(list, entry["shape"], "shape"))
    tag = _json(str, entry["dtype"], "dtype")
    spec = TensorSpec(name=name, shape=shape, file=_json(str, entry["file"], "file"))
    if tag != _DTYPE_TAG:
        raise TraceError(f"tensor {spec.name!r}: unknown dtype tag {tag!r}")
    # TensorSpec names an empty file after its tensor; a manifest must name it
    if not entry["file"]:
        raise TraceError(f"tensor {spec.name!r}: empty file name")
    return spec


def _manifest_from_json(obj, where: str) -> TraceManifest:
    """Parse a manifest object; every malformed field is a ``TraceError``."""
    with _json_fields(obj, where, "manifest"):
        version = _json(str, obj["version"], "version")
        if version != TRACE_VERSION:
            raise TraceError(f"unsupported trace version {version!r}")
        dims = obj["model_dims"]
        specs = tuple(_spec_from_json(entry) for entry in _json(list, obj["tensors"], "tensors"))
        return TraceManifest(
            version=version,
            model_dims=ModelShape(**{f.name: _json(int, dims[f.name], f.name)
                                     for f in fields(ModelShape)}),
            layout=TokenLayout.from_json_dict(obj["layout"]),
            tensors=specs,
        )


# ---------------------------------------------------------------------------
# directory IO


def read_trace(path) -> tuple[TraceManifest, dict[str, TensorBlob]]:
    """Open a trace directory.

    Returns the parsed manifest and a name-keyed dict of tensors.  No payload
    byte is read here: each payload's length is checked against its shape
    and the file is mapped read-only, so bytes are paged in as they are
    used and taken verbatim (NaN payloads survive a round trip).  Each
    mapped tensor holds one file descriptor until it is garbage collected.
    Every file is opened relative to one handle on the directory, so a
    trace replaced by ``write_trace`` mid-read is either read whole or
    reported missing, never mixed with its successor.
    """
    root = Path(path)
    try:
        dir_fd = os.open(root, os.O_RDONLY | os.O_DIRECTORY)
    except (FileNotFoundError, NotADirectoryError) as exc:
        raise TraceError(f"{root}: no {MANIFEST_NAME} found") from exc

    def opener(name, flags):
        return os.open(name, flags, dir_fd=dir_fd)

    try:
        try:
            with open(MANIFEST_NAME, "rb", opener=opener) as fh:
                raw = fh.read()
        except (FileNotFoundError, IsADirectoryError) as exc:
            raise TraceError(f"{root}: no {MANIFEST_NAME} found") from exc
        where = root / MANIFEST_NAME
        manifest = _manifest_from_json(_decode(raw, where, "JSON"), where=str(where))

        tensors: dict[str, TensorBlob] = {}
        for spec in manifest.tensors:
            want = math.prod(spec.shape)
            try:
                with open(spec.file, "rb", opener=opener) as fh:
                    size = os.fstat(fh.fileno()).st_size
                    if size != want * 4:
                        raise TraceError(
                            f"tensor {spec.name!r}: shape {spec.shape} needs "
                            f"{want * 4} bytes, file {spec.file!r} holds {size}"
                        )
                    data = np.memmap(fh, dtype="<f4", mode="r", shape=(want,))
            except (FileNotFoundError, IsADirectoryError) as exc:
                raise TraceError(
                    f"tensor {spec.name!r}: payload file {root / spec.file} missing"
                ) from exc
            tensors[spec.name] = TensorBlob(name=spec.name, shape=spec.shape, data=data)
    finally:
        os.close(dir_fd)
    return manifest, tensors


def read_schedule(path) -> PruningSchedule:
    """The schedule in file ``path``, decoded and checked by the manifest's rules."""
    raw = Path(path).read_bytes()
    return PruningSchedule.from_json_dict(_decode(raw, path, "schedule JSON"), where=str(path))


def staging_path(path: Path, tag: str) -> Path:
    """The hidden sibling a write to ``path`` is staged in, then renamed."""
    return path.parent / f".{path.name}.tmp-{tag}"


def write_trace(path, manifest: TraceManifest, tensors: Mapping[str, TensorBlob]) -> None:
    """Write a trace directory, staging in a temp dir and swapping it in.

    The manifest must list exactly the tensors provided, with matching
    shapes.  An existing trace at ``path`` is renamed aside, the staged one
    renamed into place, and the old one removed last; if any step fails the
    old trace is put back and the staging directory removed.  Payloads are
    not fsynced, so the guarantee covers failed writes and concurrent
    readers, not power loss.
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
        blob = tensors[spec.name]
        if tuple(blob.shape) != tuple(spec.shape):
            raise ValidationError(
                f"tensor {spec.name!r}: manifest shape {spec.shape} != blob shape {blob.shape}"
            )

    root = Path(path)
    root.parent.mkdir(parents=True, exist_ok=True)
    tag = uuid.uuid4().hex[:12]
    staging = staging_path(root, tag)
    # only a real directory is swapped out; renaming the staging directory
    # onto a file or a symlink fails and leaves it alone
    aside = None
    if root.is_dir() and not root.is_symlink():
        aside = root.parent / f".{root.name}.old-{tag}"
    staging.mkdir()
    try:
        (staging / MANIFEST_NAME).write_text(
            json.dumps(manifest.to_json_dict(), indent=2) + "\n"
        )
        for spec in manifest.tensors:
            blob = tensors[spec.name]
            blob.data.astype("<f4", copy=False).tofile(staging / spec.file)
        if aside is not None:
            os.rename(root, aside)
        try:
            os.rename(staging, root)
        except BaseException:
            if aside is not None:
                os.rename(aside, root)
            raise
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    if aside is not None:
        shutil.rmtree(aside)
