"""Domain types and the on-disk trace directory format."""

import json
import math
import os
import re

import numpy as np
import pytest

import btp.trace
from btp.diversity import grid_coordinates
from btp.errors import TraceError, ValidationError
from btp.trace import (
    ModelShape,
    PruningSchedule,
    PruningStage,
    SelectionResult,
    StageSelection,
    TensorBlob,
    TensorSpec,
    TokenLayout,
    TraceManifest,
    make_manifest,
    read_trace,
    stage_kept_count,
    write_trace,
)


# ---------------------------------------------------------------------------
# TensorBlob


def test_blob_shape_payload_mismatch_rejected():
    with pytest.raises(ValidationError):
        TensorBlob(name="t", shape=(2, 3), data=np.zeros(5, dtype=np.float32))


def test_blob_rejects_zero_extent():
    with pytest.raises(ValidationError):
        TensorBlob(name="t", shape=(2, 0), data=np.zeros(0, dtype=np.float32))


def test_blob_from_array_and_view_roundtrip():
    arr = np.arange(12, dtype=np.float32).reshape(3, 4)
    blob = TensorBlob.from_array("t", arr)
    assert blob.shape == (3, 4)
    np.testing.assert_array_equal(blob.view(), arr)


def test_blob_scalar_promoted_to_length_one():
    blob = TensorBlob.from_array("s", 7.0)
    assert blob.shape == (1,)


# ---------------------------------------------------------------------------
# TokenLayout


def test_layout_grid_must_cover_image_tokens():
    with pytest.raises(ValidationError):
        TokenLayout(n_system=1, n_image=10, n_text=2, grid_rows=3, grid_cols=3)


def test_layout_grid_invariant_holds_through_deserialization():
    # the grid consistency check runs inside the constructor, so a manifest
    # with an inconsistent layout can never produce a layout object
    obj = {"n_system": 1, "n_image": 10, "n_text": 2, "grid_rows": 3, "grid_cols": 3}
    with pytest.raises(ValidationError):
        TokenLayout.from_json_dict(obj)


def test_layout_accessors():
    lay = TokenLayout(n_system=2, n_image=6, n_text=3, grid_rows=2, grid_cols=3)
    assert lay.total() == 11
    assert lay.image_slice == slice(2, 8)
    coords = grid_coordinates(lay.grid_rows, lay.grid_cols)
    assert coords.shape == (6, 2) and coords.dtype == np.float64
    np.testing.assert_array_equal(coords[0], [0.0, 0.0])
    np.testing.assert_array_equal(coords[4], [1.0, 1.0])
    np.testing.assert_array_equal(coords[5], [1.0, 2.0])
    full = np.arange(11 * 4, dtype=np.float32).reshape(11, 4)
    rows = lay.image_rows(full, "h")
    np.testing.assert_array_equal(rows, full[2:8])
    assert np.shares_memory(rows, full)
    image = full[2:8]
    assert lay.image_rows(image, "h") is image
    with pytest.raises(ValidationError, match="tensor 'h'.*matrix"):
        lay.image_rows(full[0], "h")
    with pytest.raises(ValidationError, match="tensor 'h'.*7 rows"):
        lay.image_rows(full[:7], "h")


def test_layout_non_square_grid_allowed():
    lay = TokenLayout(n_system=0, n_image=12, n_text=0, grid_rows=3, grid_cols=4)
    coords = grid_coordinates(lay.grid_rows, lay.grid_cols)
    assert coords.shape == (12, 2)
    np.testing.assert_array_equal(coords[11], [2.0, 3.0])


def test_layout_json_roundtrip():
    lay = TokenLayout(n_system=2, n_image=4, n_text=1, grid_rows=2, grid_cols=2)
    assert TokenLayout.from_json_dict(lay.to_json_dict()) == lay


# ---------------------------------------------------------------------------
# stages and schedules


def test_stage_validation_bounds():
    with pytest.raises(ValidationError):
        PruningStage(layer=-1, retention=0.5, balance=0.5)
    with pytest.raises(ValidationError):
        PruningStage(layer=0, retention=0.0, balance=0.5)
    with pytest.raises(ValidationError):
        PruningStage(layer=0, retention=1.1, balance=0.5)
    with pytest.raises(ValidationError):
        PruningStage(layer=0, retention=0.5, balance=1.5)


def test_stage_kept_count_floors():
    assert stage_kept_count(0.5, 576, final=False) == 288
    # binary-float guard: 0.1 * 290 is 28.999... without the epsilon
    assert stage_kept_count(0.1, 290, final=False) == 29
    assert stage_kept_count(0.9, 1, final=False) == 1  # clamp to >= 1
    assert stage_kept_count(0.01, 36, final=True) == 0  # final stage may drop all
    assert stage_kept_count(0.01, 36, final=False) == 1
    assert stage_kept_count(1.0, 7, final=False) == 7


def test_five_stage_halving_with_drop_all_tail():
    stages = tuple(
        PruningStage(layer=i * 2 + 1, retention=r, balance=b)
        for i, (r, b) in enumerate(
            [(0.5, 0.2), (0.5, 0.4), (0.5, 0.6), (0.5, 0.8), (0.01, 1.0)]
        )
    )
    sched = PruningSchedule(stages=stages, num_layers=12)
    assert sched.kept_counts(576) == [288, 144, 72, 36, 0]


def test_schedule_rejects_unordered_layers():
    s = [PruningStage(5, 0.5, 0.5), PruningStage(5, 0.5, 0.5)]
    with pytest.raises(ValidationError):
        PruningSchedule(stages=tuple(s), num_layers=8)


def test_schedule_rejects_decreasing_balance():
    s = [PruningStage(2, 0.5, 0.8), PruningStage(4, 0.5, 0.6)]
    with pytest.raises(ValidationError):
        PruningSchedule(stages=tuple(s), num_layers=8)


def test_schedule_rejects_layer_beyond_depth():
    with pytest.raises(ValidationError):
        PruningSchedule(stages=(PruningStage(8, 0.5, 0.5),), num_layers=8)


def test_schedule_json_roundtrip():
    sched = PruningSchedule(
        stages=(PruningStage(2, 0.5, 0.6), PruningStage(5, 0.25, 1.0)),
        num_layers=8,
    )
    assert PruningSchedule.from_json_dict(sched.to_json_dict()) == sched


# ---------------------------------------------------------------------------
# selections


def test_stage_selection_requires_sorted_unique():
    with pytest.raises(ValidationError):
        StageSelection(layer=1, kept_indices=(3, 1))
    with pytest.raises(ValidationError):
        StageSelection(layer=1, kept_indices=(1, 1, 2))
    assert StageSelection(layer=1, kept_indices=()).kept_indices == ()


def test_selection_result_enforces_nesting():
    a = StageSelection(layer=1, kept_indices=(0, 2, 4))
    b = StageSelection(layer=3, kept_indices=(2, 5))
    with pytest.raises(ValidationError):
        SelectionResult(per_stage=(a, b))
    ok = StageSelection(layer=3, kept_indices=(0, 4))
    result = SelectionResult(per_stage=(a, ok))
    assert [s["kept_indices"] for s in result.to_json_dict()["stages"]] == [[0, 2, 4], [0, 4]]


# ---------------------------------------------------------------------------
# manifests


def _small_layout():
    return TokenLayout(n_system=1, n_image=4, n_text=2, grid_rows=2, grid_cols=2)


def _small_dims():
    return ModelShape(layers=2, d=8, heads=2, m=16)


def test_manifest_rejects_duplicate_tensor_names():
    spec = TensorSpec(name="x", shape=(2,))
    with pytest.raises(TraceError):
        TraceManifest(
            version="1", model_dims=_small_dims(), layout=_small_layout(),
            tensors=(spec, spec),
        )


def test_tensor_spec_default_file_and_path_escape():
    assert TensorSpec(name="x", shape=(2,)).file == "x.bin"
    with pytest.raises(TraceError):
        TensorSpec(name="x", shape=(2,), file="../x.bin")
    with pytest.raises(TraceError):
        TensorSpec(name="x", shape=(2,), file="/etc/passwd")


# ---------------------------------------------------------------------------
# directory IO


def _write_simple_trace(root):
    blobs = {
        "hidden_l0": TensorBlob.from_array(
            "hidden_l0", np.arange(32, dtype=np.float32).reshape(4, 8)
        ),
        "attn_l0": TensorBlob.from_array("attn_l0", np.full(7, 1.0 / 7, dtype=np.float32)),
    }
    manifest = make_manifest(_small_layout(), _small_dims(), blobs)
    write_trace(root, manifest, blobs)
    return manifest, blobs


def test_write_read_roundtrip(tmp_path):
    root = tmp_path / "trace"
    manifest, blobs = _write_simple_trace(root)
    got_manifest, got = read_trace(root)
    assert got_manifest == manifest
    for name, blob in blobs.items():
        assert got[name].shape == blob.shape
        assert got[name].data.tobytes() == blob.data.tobytes()


def test_nan_payload_bits_survive(tmp_path):
    # a quiet NaN with a nonstandard payload must come back bit-identical
    payload = np.array([0x7FC12345, 0xFF800000, 0x80000000], dtype=np.uint32)
    arr = payload.view(np.float32)
    blobs = {"weird": TensorBlob.from_array("weird", arr)}
    manifest = make_manifest(_small_layout(), _small_dims(), blobs)
    root = tmp_path / "trace"
    write_trace(root, manifest, blobs)
    _, got = read_trace(root)
    assert got["weird"].data.tobytes() == arr.tobytes()


def test_read_rejects_byte_length_mismatch(tmp_path):
    root = tmp_path / "trace"
    _write_simple_trace(root)
    payload = root / "hidden_l0.bin"
    raw = payload.read_bytes()
    # one element short, then one element long
    for wrong in (raw[:-4], raw + raw[:4]):
        payload.write_bytes(wrong)
        message = (f"tensor 'hidden_l0': shape (4, 8) needs 128 bytes, "
                   f"file 'hidden_l0.bin' holds {len(wrong)}")
        with pytest.raises(TraceError, match=re.escape(message)):
            read_trace(root)


def test_read_maps_payloads_read_only(tmp_path):
    root = tmp_path / "trace"
    _, blobs = _write_simple_trace(root)
    _, got = read_trace(root)
    data = got["hidden_l0"].data
    assert isinstance(data, np.memmap) and data.dtype == np.dtype("<f4")
    assert not data.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        data[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        got["hidden_l0"].view()[0, 0] = 1.0
    assert got["hidden_l0"].data.tobytes() == blobs["hidden_l0"].data.tobytes()


def test_read_rejects_undecodable_manifest(tmp_path):
    root = tmp_path / "trace"
    _write_simple_trace(root)
    (root / "manifest.json").write_bytes(b"\xff\xfe{")
    with pytest.raises(TraceError, match="malformed JSON"):
        read_trace(root)


def test_read_during_replace_is_never_mixed(tmp_path, monkeypatch):
    """A trace replaced between the manifest and the payload reads is
    reported missing, not read as the old manifest over new payloads."""
    root = tmp_path / "trace"
    manifest, blobs = _write_simple_trace(root)
    parse = btp.trace._manifest_from_json

    def parse_then_replace(obj, where):
        newer = {name: TensorBlob.from_array(name, blob.view() + 1) for name, blob in blobs.items()}
        write_trace(root, manifest, newer)
        return parse(obj, where)

    monkeypatch.setattr(btp.trace, "_manifest_from_json", parse_then_replace)
    with pytest.raises(TraceError, match="missing"):
        read_trace(root)


@pytest.mark.parametrize("step", ["aside", "swap"])
def test_failed_rename_keeps_old_trace(tmp_path, monkeypatch, step):
    root = tmp_path / "trace"
    manifest, blobs = _write_simple_trace(root)
    before = {p.name: p.read_bytes() for p in root.iterdir()}
    rename = os.rename
    # "aside" renames the old trace to .trace.old-*, "swap" renames the
    # staged .trace.tmp-* into place
    prefix = {"aside": ".trace.old-", "swap": ".trace.tmp-"}[step]

    def failing_rename(src, dst):
        if any(os.path.basename(p).startswith(prefix) for p in (src, dst)):
            raise OSError(f"injected {step} failure")
        rename(src, dst)

    monkeypatch.setattr(os, "rename", failing_rename)
    newer = {"only": TensorBlob.from_array("only", np.ones(2, dtype=np.float32))}
    with pytest.raises(OSError, match=f"injected {step} failure"):
        write_trace(root, make_manifest(_small_layout(), _small_dims(), newer), newer)
    monkeypatch.undo()

    assert {p.name: p.read_bytes() for p in root.iterdir()} == before
    got_manifest, got = read_trace(root)
    assert got_manifest == manifest
    assert {n: b.data.tobytes() for n, b in got.items()} == {
        n: b.data.tobytes() for n, b in blobs.items()
    }
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trace"]


def test_read_rejects_unknown_version(tmp_path):
    root = tmp_path / "trace"
    _write_simple_trace(root)
    manifest_path = root / "manifest.json"
    obj = json.loads(manifest_path.read_text())
    obj["version"] = "2"
    manifest_path.write_text(json.dumps(obj))
    with pytest.raises(TraceError, match="version"):
        read_trace(root)


def test_read_rejects_unknown_dtype_tag(tmp_path):
    root = tmp_path / "trace"
    _write_simple_trace(root)
    manifest_path = root / "manifest.json"
    obj = json.loads(manifest_path.read_text())
    obj["tensors"][0]["dtype"] = "f64le"
    manifest_path.write_text(json.dumps(obj))
    name = obj["tensors"][0]["name"]
    with pytest.raises(TraceError, match=f"tensor '{name}': unknown dtype tag 'f64le'"):
        read_trace(root)


def test_read_missing_manifest(tmp_path):
    with pytest.raises(TraceError, match="manifest"):
        read_trace(tmp_path / "nope")


def test_write_rejects_manifest_blob_mismatch(tmp_path):
    blobs = {"a": TensorBlob.from_array("a", np.zeros(3, dtype=np.float32))}
    manifest = make_manifest(_small_layout(), _small_dims(), blobs)
    with pytest.raises(ValidationError):
        write_trace(tmp_path / "t", manifest, {})
    wrong = {"a": TensorBlob.from_array("a", np.zeros((3, 1), dtype=np.float32))}
    with pytest.raises(ValidationError):
        write_trace(tmp_path / "t", manifest, wrong)


# payload file names per tensor that make one write clobber another; an
# empty name stands for the default, "<name>.bin"
COLLIDING_FILES = {
    "shared": ({"a": "x.bin", "b": "x.bin"}, "tensors 'a' and 'b' share payload file 'x.bin'"),
    "shared-default": ({"a": "x.bin", "x": ""}, "tensors 'a' and 'x' share payload file 'x.bin'"),
    "manifest": ({"a": "manifest.json"}, "file name 'manifest.json' is the manifest's"),
}


def _colliding_manifest_json(files):
    blobs = {
        name: TensorBlob.from_array(name, np.full(3, i, dtype=np.float32))
        for i, name in enumerate(files)
    }
    obj = make_manifest(_small_layout(), _small_dims(), blobs).to_json_dict()
    for entry in obj["tensors"]:
        entry["file"] = files[entry["name"]] or entry["file"]
    return obj, blobs


@pytest.mark.parametrize("case", list(COLLIDING_FILES))
def test_write_rejects_colliding_payload_files(tmp_path, case):
    files, message = COLLIDING_FILES[case]
    obj, blobs = _colliding_manifest_json(files)
    with pytest.raises(TraceError, match=re.escape(message)):
        specs = [TensorSpec(e["name"], e["shape"], file=e["file"]) for e in obj["tensors"]]
        write_trace(tmp_path / "t", TraceManifest("1", _small_dims(), _small_layout(), specs), blobs)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("case", list(COLLIDING_FILES))
def test_read_rejects_colliding_payload_files(tmp_path, case):
    # as a writer that did not check would leave them: x.bin holds the later
    # payload, which read back for both tensors
    files, message = COLLIDING_FILES[case]
    obj, blobs = _colliding_manifest_json(files)
    root = tmp_path / "t"
    root.mkdir()
    for entry in obj["tensors"]:
        blobs[entry["name"]].data.tofile(root / entry["file"])
    (root / "manifest.json").write_text(json.dumps(obj))
    with pytest.raises(TraceError, match=re.escape(message)):
        read_trace(root)


def test_overwrite_is_atomic_replacement(tmp_path):
    """Rewriting replaces the directory wholesale; stale tensors vanish."""
    root = tmp_path / "trace"
    _write_simple_trace(root)
    blobs = {"only": TensorBlob.from_array("only", np.ones(2, dtype=np.float32))}
    manifest = make_manifest(_small_layout(), _small_dims(), blobs)
    write_trace(root, manifest, blobs)
    _, got = read_trace(root)
    assert set(got) == {"only"}
    assert not (root / "hidden_l0.bin").exists()
    # no staging litter left behind
    leftovers = [p for p in root.parent.iterdir() if p.name.startswith(".trace.tmp-")]
    assert leftovers == []
