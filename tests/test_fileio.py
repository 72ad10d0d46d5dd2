import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from viewsynth import fileio, geometry
from viewsynth.fileio import FileFormatError
from viewsynth.geometry import Intrinsics


def test_wf01_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.random((5, 7, 3)).astype(np.float32).astype(float)
    p = tmp_path / "a.wf01"
    fileio.save_wf01(p, arr)
    back = fileio.load_wf01(p)
    assert np.array_equal(back, arr)


def test_wf01_bad_magic_names_offset(tmp_path):
    p = tmp_path / "bad.wf01"
    p.write_bytes(b"NOPE\n2 2 1\n" + b"\x00" * 16)
    with pytest.raises(FileFormatError, match="offset 0"):
        fileio.load_wf01(p)


def test_wf01_truncated(tmp_path):
    p = tmp_path / "t.wf01"
    fileio.save_wf01(p, np.zeros((4, 4, 1)))
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(FileFormatError, match="truncated"):
        fileio.load_wf01(p)


def test_wf01_malformed_header(tmp_path):
    p = tmp_path / "h.wf01"
    p.write_bytes(b"WF01\n2 two 1\n" + b"\x00" * 32)
    with pytest.raises(FileFormatError, match="dimension header"):
        fileio.load_wf01(p)


def test_intrinsics_roundtrip(tmp_path):
    K = Intrinsics(fx=123.456789, fy=98.7, cx=31.5, cy=24.25, width=64, height=48)
    p = tmp_path / "K.txt"
    fileio.save_intrinsics(p, K)
    assert fileio.load_intrinsics(p) == K


def test_intrinsics_missing_key_named(tmp_path):
    p = tmp_path / "K.txt"
    p.write_text("fx 10\ncx 5\ncy 5\nwidth 10\nheight 10\n")
    with pytest.raises(FileFormatError, match="'fy'"):
        fileio.load_intrinsics(p)


@pytest.mark.parametrize("key, value, line", [
    ("fx", "inf", 1), ("fx", "-inf", 1), ("fy", "nan", 2), ("fy", "0", 2),
    ("cx", "12", 3), ("cy", "nan", 4), ("width", "2.5", 5), ("height", "x", 6)])
def test_intrinsics_bad_value_names_its_line(tmp_path, key, value, line):
    good = {"fx": "10", "fy": "10", "cx": "5", "cy": "4", "width": "10", "height": "8"}
    good[key] = value
    p = tmp_path / "K.txt"
    p.write_text("".join(f"{k} {v}\n" for k, v in good.items()))
    with pytest.raises(FileFormatError, match=re.escape(f"{p}:{line}:") + ".*" + key):
        fileio.load_intrinsics(p)


@pytest.mark.parametrize("extra, line, message", [
    ("fx 999\n", 7, "repeated key 'fx'"), ("fz 3\n", 7, "unknown key 'fz'"),
    ("height 8\n", 7, "repeated key 'height'")])
def test_intrinsics_repeated_or_unknown_key_names_its_line(tmp_path, extra, line, message):
    p = tmp_path / "K.txt"
    p.write_text("fx 10\nfy 10\ncx 5\ncy 4\nwidth 10\nheight 8\n" + extra)
    with pytest.raises(FileFormatError, match=re.escape(f"{p}:{line}: {message}")):
        fileio.load_intrinsics(p)


def test_manifest_repeated_target_names_its_line(tmp_path):
    p = tmp_path / "seq.txt"
    p.write_text("target 0\na.wf01\ntarget 1\nb.wf01\n")
    with pytest.raises(FileFormatError, match=re.escape(f"{p}:3: repeated key 'target'")):
        fileio.load_manifest(p)


def test_manifest_roundtrip(tmp_path):
    p = tmp_path / "seq.txt"
    fileio.save_manifest(p, ["a.wf01", "b.wf01", "c.wf01"], 1)
    frames, target = fileio.load_manifest(p)
    assert frames == ["a.wf01", "b.wf01", "c.wf01"] and target == 1


def test_manifest_missing_target(tmp_path):
    p = tmp_path / "seq.txt"
    p.write_text("a.wf01\nb.wf01\n")
    with pytest.raises(FileFormatError, match="target"):
        fileio.load_manifest(p)


def test_trajectory_roundtrip_bit_faithful(tmp_path):
    rng = np.random.default_rng(3)
    traj = [
        geometry.pose_to_transform(rng.normal(0, 0.5, 6))
        for _ in range(4)
    ]
    p = tmp_path / "traj.txt"
    fileio.save_trajectory(p, traj)
    back = fileio.load_trajectory(p)
    for a, b in zip(traj, back):
        assert np.array_equal(a, b)  # 17 significant digits round-trip doubles


def test_trajectory_wrong_field_count(tmp_path):
    p = tmp_path / "traj.txt"
    p.write_text("1 0 0 0 0 1 0 0 0 0 1\n")
    with pytest.raises(FileFormatError, match="expected 12"):
        fileio.load_trajectory(p)


def test_pnm_preview(tmp_path):
    p = tmp_path / "img.pgm"
    fileio.save_pnm(p, np.linspace(0, 1, 12).reshape(3, 4))
    data = p.read_bytes()
    assert data.startswith(b"P5\n4 3\n255\n")
    assert len(data) == len(b"P5\n4 3\n255\n") + 12


# -- Parser fuzz ---------------------------------------------------------------
#
# Every parser either loads cleanly or raises FileFormatError; any other
# exception escapes the CLI's error reporting without naming the file.

_KNOWN_ESCAPES = [
    (fileio.load_wf01, b"WF01\n-1 -1 4\n" + b"\x00" * 16),
    (fileio.load_trajectory, b"1 0 0 0 0 1 0 0 0 0 1 x\n"),
    (fileio.load_trajectory, b"1 0 0 0 0 1 0 0 0 0 1 0\n\xff\xfe\n"),
    (fileio.load_intrinsics, b"fx 10\nfy 10\ncx 5\ncy 4\nwidth 2.5\nheight 8\n"),
]


@pytest.mark.parametrize("load, data", _KNOWN_ESCAPES)
def test_malformed_input_names_the_file(tmp_path, load, data):
    p = tmp_path / "input"
    p.write_bytes(data)
    with pytest.raises(FileFormatError, match=re.escape(str(p))):
        load(p)


def _fuzz_bytes(tokens):
    """Byte strings joined from format tokens and arbitrary bytes."""
    piece = st.sampled_from(tokens) | st.binary(max_size=6)
    return st.binary(max_size=64) | st.lists(piece, max_size=40).map(b"".join)


_COMMON_TOKENS = [b"0", b"1", b"-1", b"2.5", b"1e400", b"nan", b"inf", b"-0", b"x",
            b" ", b"\n", b"\r\n", b"\t", b"#", b"\xff"]
_FUZZ = settings(max_examples=150, derandomize=True, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def _load_or_format_error(load, path, data):
    """What load(path) returns for data, or None after a FileFormatError
    that names the file."""
    path.write_bytes(data)
    try:
        return load(path)
    except FileFormatError as e:
        assert str(path) in str(e)
        return None


@_FUZZ
@given(_fuzz_bytes([b"WF01\n", b"2 2 1\n", b"-1 -1 4\n", b"\x00" * 4] + _COMMON_TOKENS))
def test_fuzz_load_wf01(tmp_path, data):
    _load_or_format_error(fileio.load_wf01, tmp_path / "f.wf01", data)


@_FUZZ
@given(_fuzz_bytes([b"target ", b"a.wf01", b"target 0\n", b"target 1\n"] + _COMMON_TOKENS))
def test_fuzz_load_manifest(tmp_path, data):
    _load_or_format_error(fileio.load_manifest, tmp_path / "seq.txt", data)


@_FUZZ
@given(_fuzz_bytes([b"fx ", b"fy ", b"cx ", b"cy ", b"width ", b"height ",
                    b"inf\n", b"-inf\n", b"nan\n", b"0\n",
                    b"fx 10\nfy 10\ncx 5\ncy 4\nwidth 10\nheight 8\n"] + _COMMON_TOKENS))
def test_fuzz_load_intrinsics(tmp_path, data):
    K = _load_or_format_error(fileio.load_intrinsics, tmp_path / "K.txt", data)
    if K is not None:
        assert np.isfinite([K.fx, K.fy]).all() and K.fx > 0 and K.fy > 0


@_FUZZ
@given(_fuzz_bytes([b"1 0 0 0 0 1 0 0 0 0 1 0\n", b"0 1 0 0 -1 0 0 0 0 0 1 0.5\n",
                    b"1 0 0 0 ", b"0.5 "] + _COMMON_TOKENS))
def test_fuzz_load_trajectory(tmp_path, data):
    _load_or_format_error(fileio.load_trajectory, tmp_path / "traj.txt", data)
