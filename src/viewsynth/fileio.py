"""On-disk interchange formats.

* WF01 float container: magic line "WF01", ASCII header line "H W C", then
  little-endian float32, row-major. Bit-exact round-trip.
* Intrinsics: one "key value" per line, each of fx fy cx cy width height once.
* Sequence manifest: "target <index>" once, then one frame path per line.
* PGM/PPM (binary, maxval 255) previews.
* Trajectory: one pose per line, 12 floats = row-major 3x4 [R|t]
  (camera-to-world), printed with 17 significant digits.
"""

from __future__ import annotations

import io

import numpy as np

from . import geometry
from .geometry import Intrinsics, InvalidIntrinsics


class FileFormatError(ValueError):
    pass


def _read_lines(path):
    """(line number, stripped line) for each line of a UTF-8 text file.

    Lines split as in text mode (\n, \r\n or \r). Bytes that are not
    UTF-8 raise FileFormatError naming the line.
    """
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        ln = data.count(b"\n", 0, e.start) + 1
        raise FileFormatError(f"{path}:{ln}: not UTF-8 text: {e.reason}") from e
    return [(ln, line.strip())
            for ln, line in enumerate(io.StringIO(text, newline=None), start=1)]


# -- WF01 float container ----------------------------------------------------

def save_wf01(path, arr) -> None:
    arr = np.asarray(arr, dtype=np.float32)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3:
        raise ValueError("expected a 2-D or 3-D array")
    h, w, c = arr.shape
    with open(path, "wb") as f:
        f.write(b"WF01\n")
        f.write(f"{h} {w} {c}\n".encode("ascii"))
        f.write(arr.astype("<f4").tobytes())


def load_wf01(path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    if data[:5] != b"WF01\n":
        raise FileFormatError(f"{path}: bad magic at offset 0: {data[:4]!r}")
    nl = data.find(b"\n", 5)
    if nl < 0:
        raise FileFormatError(f"{path}: missing header line at offset 5")
    try:
        h, w, c = (int(x) for x in data[5:nl].split())
    except ValueError as e:
        raise FileFormatError(f"{path}: malformed dimension header: {e}") from e
    if min(h, w, c) < 0:
        raise FileFormatError(f"{path}: negative dimension in header {h} {w} {c}")
    expected = h * w * c * 4
    body = data[nl + 1 :]
    if len(body) != expected:
        raise FileFormatError(
            f"{path}: truncated payload at offset {nl + 1}: "
            f"expected {expected} bytes, got {len(body)}"
        )
    return np.frombuffer(body, dtype="<f4").reshape(h, w, c).astype(float)


def load_depth_map(path) -> np.ndarray:
    """The (H, W) depth map of a one-channel WF01 file of finite depths > 0;
    otherwise a FileFormatError naming the file and the first bad value."""
    arr = load_wf01(path)
    if arr.shape[2] != 1:
        raise FileFormatError(f"{path}: {arr.shape[2]} depth channels, not 1")
    bad = ~((arr > 0.0) & (arr < np.inf))   # NaN fails both comparisons
    if bad.any():
        raise FileFormatError(f"{path}: depth values must be finite and > 0, got {arr[bad][0]}")
    return arr[..., 0]


# -- PGM / PPM previews ------------------------------------------------------

def save_pnm(path, img) -> None:
    """Binary PGM (1 channel) or PPM (3 channels), maxval 255."""
    img = np.asarray(img, dtype=float)
    if img.ndim == 2:
        img = img[:, :, None]
    h, w, c = img.shape
    if c not in (1, 3):
        raise ValueError("preview images must have 1 or 3 channels")
    q = np.clip(np.rint(img * 255), 0, 255).astype(np.uint8)
    magic = b"P5" if c == 1 else b"P6"
    with open(path, "wb") as f:
        f.write(magic + b"\n" + f"{w} {h}\n255\n".encode("ascii"))
        f.write(q.tobytes())


# -- Intrinsics --------------------------------------------------------------

_K_KEYS = ("fx", "fy", "cx", "cy", "width", "height")


def save_intrinsics(path, K: Intrinsics) -> None:
    with open(path, "w") as f:
        for k in _K_KEYS:
            v = getattr(K, k)
            f.write(f"{k} {v:.17g}\n" if isinstance(v, float) else f"{k} {v}\n")


def load_intrinsics(path) -> Intrinsics:
    fields = {}
    lines = {}
    for ln, line in _read_lines(path):
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FileFormatError(f"{path}:{ln}: malformed line {line!r}")
        k, value = parts
        if k in fields or k not in _K_KEYS:
            raise FileFormatError(f"{path}:{ln}: {'repeated' if k in fields else 'unknown'} key {k!r}")
        kind = int if k in ("width", "height") else float
        try:
            fields[k] = kind(value)
        except ValueError as e:
            raise FileFormatError(f"{path}:{ln}: invalid {k}: {e}") from e
        lines[k] = ln
    for k in _K_KEYS:
        if k not in fields:
            raise FileFormatError(f"{path}: missing key {k!r}")
    try:
        return Intrinsics(**fields)
    except InvalidIntrinsics as e:
        raise FileFormatError(f"{path}:{lines[e.field]}: invalid intrinsics: {e}") from e


# -- Sequence manifest -------------------------------------------------------

def save_manifest(path, frame_paths, target_index: int) -> None:
    with open(path, "w") as f:
        f.write(f"target {target_index}\n")
        for p in frame_paths:
            f.write(f"{p}\n")


def load_manifest(path):
    """Returns (frame_paths, target_index)."""
    frames = []
    target = None
    for ln, line in _read_lines(path):
        if not line:
            continue
        if line.startswith("target "):
            if target is not None:
                raise FileFormatError(f"{path}:{ln}: repeated key 'target'")
            try:
                target = int(line.split()[1])
            except (IndexError, ValueError) as e:
                raise FileFormatError(f"{path}:{ln}: malformed target line {line!r}") from e
        else:
            frames.append(line)
    if target is None:
        raise FileFormatError(f"{path}: missing key 'target'")
    if not 0 <= target < len(frames):
        raise FileFormatError(f"{path}: target index {target} out of range for {len(frames)} frames")
    return frames, target


# -- Trajectory --------------------------------------------------------------

def save_trajectory(path, transforms) -> None:
    with open(path, "w") as f:
        for T in transforms:
            row = np.asarray(T, dtype=float)[:3, :4].reshape(-1)
            f.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def load_trajectory(path):
    out = []
    for ln, line in _read_lines(path):
        if not line:
            continue
        vals = line.split()
        if len(vals) != 12:
            raise FileFormatError(f"{path}:{ln}: expected 12 values, got {len(vals)}")
        T = np.eye(4)
        try:
            T[:3, :4] = np.array([float(v) for v in vals]).reshape(3, 4)
            geometry.check_rigid(T)
        except ValueError as e:
            raise FileFormatError(f"{path}:{ln}: {e}") from e
        out.append(T)
    return out
