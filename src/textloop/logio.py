"""JSONL log format shared by the simulator and the pipeline commands.

One record per line.  A sensor log starts with a single ``calib`` record
(camera intrinsics as [fx, fy, cx, cy] plus the camera-in-LiDAR pose) and
then carries ``odom`` {t, frame, pose}, ``cloud`` {frame, points} and
``texts`` {t, detections} records; ground-truth files hold ``gt`` {frame,
pose} records.  A loop file holds untyped {i, j, pose, info_diag, source}
records, one LoopConstraint each: integer frames j < i, the pose of frame j
in frame i, the six positive diagonal entries of its information matrix and
its LoopSource value.  Poses serialize as translation + unit quaternion,
floats at full round-trip precision (the default for json on this side), and
every number is read back through json_finite or json_array, which reject a
boolean, a string, null, NaN and an infinity.  A cloud's
``points`` is one ASCII string, the base64 of its little-endian float64 xyz
rows in row-major order, so the reader gets back the same bits.

A sensor log is a stream in stamp order, at one stamp ``odom`` before
``cloud`` before ``texts``.  ``detect`` keeps only the clouds a later step can
read: when frame k's odometry arrives it drops the clouds of frames stamped
before stamps[k - 1] - window that anchor no text observation.  So odometry
stamps must not decrease, and a ``texts`` record may trail the odometry by at
most one frame (t - window >= stamps[k - 1] - window), and a ``cloud`` record
follows its own ``odom`` record, or ``detect`` exits 2.
Every file is read as UTF-8; a byte that is not is a LogFormatError.

``simulate`` writes records as it generates them, so no more than one cloud
line is held at a time; each is made from one template (cloud_line), the
bytes json.dumps gives the record.  Trajectory readers (``optimize``,
``evaluate``) use only ``odom``/``gt`` records and skip cloud lines in that
form without decoding them; a corrupt cloud payload inside such a line is
reported by ``detect``, which parses every record.  They decode the poses of
a file in one stacked pass, and fall back to the per-record parse_pose on
any bad value, so the error and its line are that parse's.
"""

from __future__ import annotations

import binascii
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .entities import CalibratedRig, TextDetection
from .geometry import (
    CameraIntrinsics,
    GeometryError,
    Pose,
    quaternion_to_rotation,
    quaternion_to_rotation_stacked,
)
from .loop_closure import LoopConstraint, LoopSource


class LogFormatError(ValueError):
    """Malformed log record; the message names the offending line."""


@dataclass(frozen=True)
class LogRecord:
    kind: str
    line: int
    payload: dict


def calib_record(rig: CalibratedRig) -> dict:
    k = rig.intrinsics
    return {
        "type": "calib",
        "intrinsics": [k.fx, k.fy, k.cx, k.cy],
        "extrinsic": rig.camera_in_lidar.to_json(),
    }


def odom_record(t: float, frame: int, pose: Pose) -> dict:
    return {"type": "odom", "t": float(t), "frame": int(frame), "pose": pose.to_json()}


# a cloud record is written as its finished line; a trajectory reader skips,
# undecoded, a line that starts with the prefix and ends with an ending
_CLOUD_PREFIX = '{"type":"cloud",'
_CLOUD_ENDINGS = ('"}\n', '"}')
_CLOUD_LINE = _CLOUD_PREFIX + '"frame":%d,"points":"%s' + _CLOUD_ENDINGS[0]


def cloud_line(frame: int, points: np.ndarray) -> str:
    """The JSON line of a {type, frame, points} cloud record, as json.dumps writes it.

    A base64 payload needs no JSON escape, and %d prints an int as json does.
    """
    pts = np.ascontiguousarray(points, dtype="<f8").reshape(-1, 3)
    return _CLOUD_LINE % (frame, binascii.b2a_base64(pts.tobytes(), newline=False).decode("ascii"))


def texts_record(t: float, detections) -> dict:
    return {
        "type": "texts",
        "t": float(t),
        "detections": [
            {"text": d.content, "conf": float(d.confidence), "quad": d.quad.tolist()}
            for d in detections
        ],
    }


def gt_record(frame: int, pose: Pose) -> dict:
    return {"type": "gt", "frame": int(frame), "pose": pose.to_json()}


def write_log(path, records) -> None:
    """One line per record: a dict as compact JSON, a str (a finished line) as it is."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            if isinstance(record, str):
                handle.write(record)
            else:
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")


# a pixel coordinate or focal length far beyond any camera image; a quad
# corner or an intrinsic beyond it is an error (1e300 would overflow the
# polygon test and the projection)
MAX_PIXEL_COORDINATE = 1e6

_REQUIRED_FIELDS = {
    "calib": ("intrinsics", "extrinsic"),
    "odom": ("t", "frame", "pose"),
    "cloud": ("frame", "points"),
    "texts": ("t", "detections"),
    "gt": ("frame", "pose"),
}


def _json_line(raw: str, line: int):
    try:
        return json.loads(raw)
    except ValueError as exc:  # a JSONDecodeError, or an integer past sys.get_int_max_str_digits()
        raise LogFormatError(f"line {line}: invalid JSON ({getattr(exc, 'msg', exc)})") from exc


def text_lines(path) -> Iterator[tuple[int, str]]:
    """(1-based number, line) of a UTF-8 file; a byte that is not UTF-8 is a LogFormatError."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for number, raw in enumerate(handle, start=1):
            # str.isascii reads a flag of the string, and an ASCII line is UTF-8
            if not raw.isascii():
                try:
                    raw.encode("utf-8")
                except UnicodeEncodeError as exc:  # a byte the decoder escaped
                    byte = ord(raw[exc.start]) - 0xDC00
                    raise LogFormatError(
                        f"line {number}: byte 0x{byte:02x} at column {exc.start + 1} is not UTF-8"
                    ) from None
            yield number, raw


def read_log(path, *, skip_clouds: bool = False):
    """Yield LogRecord items; raise LogFormatError with the 1-based line number.

    skip_clouds drops, undecoded, the lines that start and end as write_log
    writes a cloud record; any other line, cloud or not, is validated.
    """
    for number, raw in text_lines(path):
        if skip_clouds and raw.startswith(_CLOUD_PREFIX) and raw.endswith(_CLOUD_ENDINGS):
            continue
        if not raw.strip():
            continue
        payload = _json_line(raw, number)
        if not isinstance(payload, dict) or "type" not in payload:
            raise LogFormatError(f"line {number}: record must be an object with a type")
        kind = payload["type"]
        required = _REQUIRED_FIELDS.get(kind) if isinstance(kind, str) else None
        if required is None:
            raise LogFormatError(f"line {number}: unknown record type {kind!r}")
        for fieldname in required:
            if fieldname not in payload:
                raise LogFormatError(f"line {number}: {kind} record missing {fieldname!r}")
        yield LogRecord(kind, number, payload)


def parse_field(payload: dict, key: str, conv, line: int):
    """conv(payload[key]); a value conv rejects is a LogFormatError naming the line."""
    try:
        return conv(payload[key])
    except (TypeError, ValueError) as exc:
        raise LogFormatError(f"line {line}: bad {key} value ({exc})") from exc


def json_int(value) -> int:
    """A JSON integer as is; a float or a boolean is a TypeError, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def json_str(value) -> str:
    """A JSON string as is; any other value is a TypeError, not converted."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def json_float(value) -> float:
    """A JSON number as a float; a boolean or a string is a TypeError, not converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(f"{value} is out of float range") from exc


def json_finite(value) -> float:
    """A timestamp or a confidence: a json_float that is neither NaN nor infinite."""
    number = json_float(value)
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {number!r}")
    return number


def json_array(value, shape: tuple[int, ...]) -> np.ndarray:
    """Nested JSON lists of exactly this shape, of json_finite numbers, as float64.

    A list of another length, or anything else where a list belongs, is a
    TypeError, as are a boolean, a string and null where a number belongs.
    """
    items = [value]
    for size in shape:
        for item in items:
            if not isinstance(item, list) or len(item) != size:
                what = " lists of ".join(str(n) for n in shape)
                raise TypeError(f"expected a list of {what} numbers, got {value!r}")
        items = [x for item in items for x in item]
    return np.array([json_finite(x) for x in items]).reshape(shape)


def json_pixels(value, shape: tuple[int, ...]) -> np.ndarray:
    """A json_array of pixel values, each at most MAX_PIXEL_COORDINATE in magnitude."""
    pixels = json_array(value, shape)
    if np.abs(pixels).max() > MAX_PIXEL_COORDINATE:
        raise ValueError(f"a value is beyond {MAX_PIXEL_COORDINATE:.0f} px")
    return pixels


def parse_pose(obj: dict, line: int, name: str = "pose") -> Pose:
    """t three and q four json_array numbers, q of nonzero, finite norm."""
    try:
        rotation = quaternion_to_rotation(json_array(obj["q"], (4,)))
        return Pose(rotation, json_array(obj["t"], (3,)))
    except (KeyError, TypeError, ValueError) as exc:  # GeometryError is a ValueError
        raise LogFormatError(f"line {line}: bad {name} ({exc})") from exc


def parse_calib(payload: dict, line: int) -> CalibratedRig:
    try:
        intrinsics = CameraIntrinsics(*json_pixels(payload["intrinsics"], (4,)).tolist())
    except (TypeError, ValueError) as exc:  # GeometryError is a ValueError
        raise LogFormatError(f"line {line}: bad intrinsics ({exc})") from exc
    return CalibratedRig(
        intrinsics=intrinsics, camera_in_lidar=parse_pose(payload["extrinsic"], line)
    )


def parse_cloud(payload: dict, line: int) -> np.ndarray:
    """The (n, 3) float64 points of a cloud record's base64 payload, any bits."""
    try:
        # a2b_base64 reads an ASCII str in place; base64.b64decode copies it to bytes first
        raw = binascii.a2b_base64(payload["points"], strict_mode=True)
        if len(raw) % 24:
            raise ValueError(f"{len(raw)} bytes is not a whole number of float64 xyz rows")
        return np.frombuffer(raw, dtype="<f8").reshape(-1, 3)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise LogFormatError(f"line {line}: bad points value ({exc})") from exc


def parse_detections(payload: dict, line: int) -> list[TextDetection]:
    entries = payload["detections"]
    if not isinstance(entries, list):
        raise LogFormatError(f"line {line}: detections must be a list, got {entries!r}")
    out = []
    for entry in entries:
        try:
            out.append(
                TextDetection(
                    content=json_str(entry["text"]),
                    confidence=json_finite(entry["conf"]),
                    quad=json_pixels(entry["quad"], (4, 2)),
                    timestamp=json_finite(payload["t"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise LogFormatError(f"line {line}: bad detection entry ({exc})") from exc
    return out


def parse_loop(raw: str, line: int) -> LoopConstraint:
    """One line of a loop file as a LoopConstraint, each field decoded once."""
    obj = _json_line(raw, line)
    if not isinstance(obj, dict):
        raise LogFormatError(f"line {line}: loop record must be an object")
    for fieldname in ("i", "j", "pose", "info_diag", "source"):
        if fieldname not in obj:
            raise LogFormatError(f"line {line}: loop record missing {fieldname!r}")
    pose = parse_pose(obj["pose"], line, "loop pose")
    info = parse_field(obj, "info_diag", lambda value: json_array(value, (6,)), line)
    if not (info > 0.0).all():
        raise LogFormatError(f"line {line}: bad info_diag value (expected positive numbers)")
    i = parse_field(obj, "i", json_int, line)
    j = parse_field(obj, "j", json_int, line)
    source = parse_field(obj, "source", LoopSource, line)
    try:
        return LoopConstraint(i, j, pose, np.diag(info), source)
    except ValueError as exc:  # j >= i
        raise LogFormatError(f"line {line}: bad loop record ({exc})") from exc


def simulation_to_records(result) -> tuple[Iterator[dict | str], list[dict]]:
    """Sensor-log records, built one at a time in log order, and ground-truth records.

    Events are ordered by (stamp, odom < cloud < texts), ties kept in
    generation order; only their keys are sorted, each record is built when
    the consumer asks for it.  A cloud record comes as its finished line
    (cloud_line), the others as dicts.
    """
    events: list[tuple[float, int, int]] = []
    for frame, t in enumerate(result.stamps):
        events.append((float(t), 0, frame))
        events.append((float(t), 1, frame))
    for index, (t_image, detections) in enumerate(result.camera):
        if detections:
            events.append((float(t_image), 2, index))
    events.sort(key=lambda item: (item[0], item[1]))
    gt = [gt_record(frame, pose) for frame, pose in enumerate(result.gt_poses)]
    return _log_records(result, events), gt


def _log_records(result, events) -> Iterator[dict | str]:
    yield calib_record(result.rig)
    for _, rank, index in events:
        if rank == 0:
            yield odom_record(result.stamps[index], index, result.odom_poses[index])
        elif rank == 1:
            yield cloud_line(index, result.clouds[index])
        else:
            yield texts_record(*result.camera[index])


def read_trajectory(path) -> tuple[list[float | None], list[Pose]]:
    """Stamps (None for gt files) and poses from odom/gt records, frame order.

    The records are decoded in one stacked pass (_decode_rows).  If any value
    is one the per-record parse rejects, they go through _parse_row in file
    order instead, so the first error, its message and its line are that
    parse's, as they are when a later line is not a valid record.
    """
    records = []
    try:
        for record in read_log(path, skip_clouds=True):
            if record.kind in ("odom", "gt"):
                records.append(record)
    except LogFormatError:
        for record in records:
            _parse_row(record)
        raise
    rows = _decode_rows(records)
    if rows is None:
        rows = [_parse_row(record) for record in records]
    rows.sort(key=lambda row: row[0])
    frames = [row[0] for row in rows]
    if frames != list(range(len(frames))):
        raise LogFormatError("trajectory frames must be contiguous from 0")
    return [row[1] for row in rows], [row[2] for row in rows]


def _parse_row(record: LogRecord) -> tuple[int, float | None, Pose]:
    """(frame, stamp or None for gt, pose) of an odom or gt record."""
    payload, line = record.payload, record.line
    t = parse_field(payload, "t", json_finite, line) if record.kind == "odom" else None
    return parse_field(payload, "frame", json_int, line), t, parse_pose(payload["pose"], line)


def _decode_rows(records) -> list[tuple[int, float | None, Pose]] | None:
    """_parse_row of every record, with its bits; None if any record has a value it rejects.

    It takes what json_int, json_finite and parse_pose take: an int (not bool)
    frame, a finite int or float t, and a pose dict whose q and t are lists of
    4 and 3 finite ints or floats, q of norm at least 1e-12.
    """
    frames, stamps, numbers = [], [], []
    for record in records:
        payload = record.payload
        pose = payload["pose"]
        if type(pose) is not dict:
            return None
        q, t = pose.get("q"), pose.get("t")
        if type(q) is not list or type(t) is not list or len(q) != 4 or len(t) != 3:
            return None
        frames.append(payload["frame"])
        if record.kind == "odom":
            stamps.append(payload["t"])
        numbers += q
        numbers += t
    numbers += stamps
    if not set(map(type, frames)) <= {int} or not set(map(type, numbers)) <= {int, float}:
        return None
    try:
        values = np.array(numbers, dtype=float)
    except OverflowError:  # an integer past float range
        return None
    if not np.isfinite(values).all():
        return None
    poses = values[: 7 * len(records)].reshape(-1, 7)
    try:
        rotations = quaternion_to_rotation_stacked(poses[:, :4])
    except GeometryError:
        return None
    stamp_values = iter(values[7 * len(records) :].tolist())
    return [
        (frame, next(stamp_values) if record.kind == "odom" else None, Pose(rotation, translation))
        for record, frame, rotation, translation in zip(records, frames, rotations, poses[:, 4:])
    ]
