import base64
import json
import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import default_rig, poses_close
from textloop.cli import MAX_POINT_COORDINATE, main
from textloop.entities import TextDetection
from textloop.geometry import Pose, exp_map, quaternion_to_rotation
from textloop.logio import (
    LogFormatError,
    calib_record,
    cloud_record,
    gt_record,
    json_array,
    json_finite,
    json_float,
    odom_record,
    parse_calib,
    parse_cloud,
    parse_detections,
    parse_pose,
    read_log,
    read_trajectory,
    simulation_to_records,
    texts_record,
    write_log,
)
from textloop.simulator import NoiseModel, build_world, default_route, simulate


def _random_pose(rng) -> Pose:
    return exp_map(rng.normal(scale=0.8, size=6))


def test_write_read_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    path = tmp_path / "log.jsonl"
    records = [
        calib_record(default_rig()),
        odom_record(0.0, 0, _random_pose(rng)),
        cloud_record(0, rng.normal(size=(5, 3))),
        texts_record(0.05, [TextDetection("A1-R07", 0.9, rng.uniform(0, 50, (4, 2)), 0.05)]),
    ]
    write_log(path, records)
    parsed = list(read_log(path))
    assert [r.kind for r in parsed] == ["calib", "odom", "cloud", "texts"]
    assert [r.line for r in parsed] == [1, 2, 3, 4]
    assert parsed[1].payload == records[1]


def test_pose_serialization_round_trips(tmp_path):
    rng = np.random.default_rng(3)
    for _ in range(20):
        pose = _random_pose(rng)
        recovered = parse_pose(odom_record(0.0, 0, pose)["pose"], line=1)
        np.testing.assert_allclose(recovered.rotation, pose.rotation, atol=1e-12)
        np.testing.assert_allclose(recovered.translation, pose.translation, atol=1e-15)


def test_truncated_line_reports_number(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"type":"odom","t":0.0,"frame":0,"pose"\n')
    with pytest.raises(LogFormatError, match="line 1"):
        list(read_log(path))


def test_unknown_type_reports_number(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"type":"odom","t":0.0,"frame":0,"pose":{}}\n{"type":"imu","t":1.0}\n')
    with pytest.raises(LogFormatError, match="line 2.*imu"):
        list(read_log(path))


def test_missing_field_reports_field(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"type":"cloud","frame":0}\n')
    with pytest.raises(LogFormatError, match="missing 'points'"):
        list(read_log(path))


def test_calib_and_detection_round_trip():
    rig = default_rig()
    recovered = parse_calib(calib_record(rig), line=1)
    assert recovered.intrinsics == rig.intrinsics
    got, expected = recovered.camera_in_lidar, rig.camera_in_lidar
    np.testing.assert_allclose(got.rotation, expected.rotation, atol=1e-12)
    np.testing.assert_allclose(got.translation, expected.translation, atol=1e-12)
    quad = np.array([[10.0, 20.0], [40.0, 21.0], [41.0, 35.0], [11.0, 34.0]])
    record = texts_record(2.5, [TextDetection("EXIT", 0.93, quad, 2.5)])
    parsed = parse_detections(record, line=3)
    assert parsed[0].content == "EXIT"
    assert parsed[0].timestamp == 2.5
    np.testing.assert_allclose(parsed[0].quad, quad)


def test_simulation_records_ordered_and_complete(tmp_path):
    world = build_world("corridor", seed=1)
    result = simulate(
        world, default_route("corridor", laps=1), default_rig(), NoiseModel(), seed=1
    )
    log, gt = simulation_to_records(result)
    log = list(log)
    assert log[0]["type"] == "calib"
    stamps = [r["t"] for r in log[1:] if r["type"] in ("odom", "texts")]
    assert stamps == sorted(stamps)
    odom_frames = [r["frame"] for r in log if r["type"] == "odom"]
    cloud_frames = [r["frame"] for r in log if r["type"] == "cloud"]
    assert odom_frames == cloud_frames == list(range(len(result.stamps)))
    assert [r["frame"] for r in gt] == list(range(len(result.gt_poses)))


def test_read_trajectory_sorts_and_validates(tmp_path):
    rng = np.random.default_rng(11)
    poses = [_random_pose(rng) for _ in range(4)]
    path = tmp_path / "traj.jsonl"
    records = [odom_record(0.1 * k, k, poses[k]) for k in (2, 0, 3, 1)]
    write_log(path, records)
    stamps, recovered = read_trajectory(path)
    assert stamps == [0.0, pytest.approx(0.1), pytest.approx(0.2), pytest.approx(0.3)]
    for got, expected in zip(recovered, poses):
        assert poses_close(got, expected, tol=1e-12)

    gappy = tmp_path / "gappy.jsonl"
    write_log(gappy, [odom_record(0.0, 0, poses[0]), odom_record(0.2, 2, poses[2])])
    with pytest.raises(LogFormatError, match="contiguous"):
        read_trajectory(gappy)


def test_gt_records_read_as_trajectory(tmp_path):
    rng = np.random.default_rng(5)
    poses = [_random_pose(rng) for _ in range(3)]
    path = tmp_path / "gt.jsonl"
    write_log(path, [gt_record(k, p) for k, p in enumerate(poses)])
    stamps, recovered = read_trajectory(path)
    assert stamps == [None, None, None]
    assert all(poses_close(g, p, tol=1e-12) for g, p in zip(recovered, poses))


def _records_oracle(result) -> tuple[list[dict], list[dict]]:
    """The earlier list-building simulation_to_records, kept as the oracle."""
    log: list[dict] = [calib_record(result.rig)]
    events: list[tuple[float, int, dict]] = []
    for frame, (t, pose) in enumerate(zip(result.stamps, result.odom_poses)):
        events.append((float(t), 0, odom_record(t, frame, pose)))
        events.append((float(t), 1, cloud_record(frame, result.clouds[frame])))
    for t_image, detections in result.camera:
        if detections:
            events.append((float(t_image), 2, texts_record(t_image, detections)))
    events.sort(key=lambda item: (item[0], item[1]))
    log.extend(record for _, _, record in events)
    gt = [gt_record(frame, pose) for frame, pose in enumerate(result.gt_poses)]
    return log, gt


@pytest.fixture(scope="module")
def corridor_lap():
    world = build_world("corridor", seed=2)
    return simulate(world, default_route("corridor", laps=1), default_rig(), NoiseModel(), seed=2)


@pytest.fixture(scope="module")
def corridor_log(corridor_lap, tmp_path_factory):
    path = tmp_path_factory.mktemp("lap") / "log.jsonl"
    log, _ = simulation_to_records(corridor_lap)
    write_log(path, log)
    return path


def _assert_streamed_log_matches_oracle(result, tmp_path):
    streamed, oracle = tmp_path / "streamed.jsonl", tmp_path / "oracle.jsonl"
    log, gt = simulation_to_records(result)
    write_log(streamed, log)
    oracle_log, oracle_gt = _records_oracle(result)
    write_log(oracle, oracle_log)
    assert streamed.read_bytes() == oracle.read_bytes()
    assert gt == oracle_gt


def test_streamed_records_byte_equal_to_list_oracle(corridor_lap, tmp_path):
    _assert_streamed_log_matches_oracle(corridor_lap, tmp_path)


def test_streamed_records_keep_tie_order(tmp_path):
    rng = np.random.default_rng(4)
    poses = [_random_pose(rng) for _ in range(3)]

    def detection(content, t):
        return TextDetection(content, 0.9, rng.uniform(0, 50, (4, 2)), t)

    # two images at t = 0.1 (itself an odometry stamp), one empty, one after the last frame
    result = SimpleNamespace(
        rig=default_rig(),
        stamps=np.array([0.0, 0.1, 0.2]),
        odom_poses=poses,
        gt_poses=poses,
        clouds=[rng.normal(size=(k + 1, 3)) for k in range(3)],
        camera=[
            (0.1, [detection("B", 0.1)]),
            (0.05, []),
            (0.1, [detection("A", 0.1), detection("C", 0.1)]),
            (0.25, [detection("D", 0.25)]),
        ],
    )
    _assert_streamed_log_matches_oracle(result, tmp_path)
    log, _ = simulation_to_records(result)
    texts = [r["detections"][0]["text"] for r in log if r["type"] == "texts"]
    assert texts == ["B", "A", "D"]


def test_read_trajectory_equals_full_parse(corridor_log):
    rows = sorted(
        (r.payload["frame"], float(r.payload["t"]), parse_pose(r.payload["pose"], r.line))
        for r in read_log(corridor_log)
        if r.kind == "odom"
    )
    stamps, poses = read_trajectory(corridor_log)
    assert stamps == [t for _, t, _ in rows]
    assert len(poses) == len(rows)
    for got, (_, _, expected) in zip(poses, rows):
        assert got.rotation.tobytes() == expected.rotation.tobytes()
        assert got.translation.tobytes() == expected.translation.tobytes()


def _cloud_line_cut_in_half(log_path, out_path) -> int:
    lines = log_path.read_text().splitlines()
    number = next(k for k, line in enumerate(lines, start=1) if line.startswith('{"type":"cloud"'))
    lines[number - 1] = lines[number - 1][: len(lines[number - 1]) // 2]
    out_path.write_text("\n".join(lines) + "\n")
    return number


def test_truncated_cloud_line_still_reported(corridor_log, tmp_path, capsys):
    broken = tmp_path / "broken.jsonl"
    number = _cloud_line_cut_in_half(corridor_log, broken)
    with pytest.raises(LogFormatError, match=f"line {number}:"):
        read_trajectory(broken)
    loops = tmp_path / "loops.jsonl"
    loops.write_text("")
    rc = main(
        ["optimize", "--log", str(broken), "--loops", str(loops), "--out", str(tmp_path / "traj.jsonl")]
    )
    assert rc == 2
    assert f"line {number}:" in capsys.readouterr().err


def test_reordered_cloud_record_still_validated(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "log.jsonl"
    write_log(path, [odom_record(0.0, 0, _random_pose(rng))])
    with open(path, "a") as handle:
        handle.write('{"frame":0,"type":"cloud"}\n')
    with pytest.raises(LogFormatError, match="line 2: cloud record missing 'points'"):
        read_trajectory(path)


def test_malformed_odom_line_reported_by_trajectory_reader(corridor_log, tmp_path):
    lines = corridor_log.read_text().splitlines()
    number = next(
        k for k, line in enumerate(lines, start=1) if k > 10 and line.startswith('{"type":"odom"')
    )
    lines[number - 1] = lines[number - 1][:-5]
    broken = tmp_path / "odom.jsonl"
    broken.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogFormatError, match=f"line {number}:"):
        read_trajectory(broken)


def _nan_with_payload() -> float:
    return struct.unpack("<d", struct.pack("<Q", 0xFFF8_0000_0000_0001))[0]


_CLOUD_RNG = np.random.default_rng(13)
_CLOUDS = {
    "special": np.array(
        [[0.0, -0.0, np.nan], [np.inf, -np.inf, _nan_with_payload()],
         [5e-324, -2.2e-308, 1e308], [-1e308, 1.0, -1.0]]
    ),
    "empty": np.empty((0, 3)),
    "one_point": np.array([[1.5, -2.25, 3.125]]),
    "float32": _CLOUD_RNG.normal(size=(7, 3)).astype(np.float32),
    "fortran": np.asfortranarray(_CLOUD_RNG.normal(size=(6, 3))),
    "strided": _CLOUD_RNG.normal(size=(10, 6))[::2, ::2],
}


@pytest.mark.parametrize("name", sorted(_CLOUDS))
def test_cloud_payload_round_trips_bit_exact(name, tmp_path):
    points = _CLOUDS[name]
    record = cloud_record(4, points)
    assert list(record) == ["type", "frame", "points"]
    assert isinstance(record["points"], str)
    path = tmp_path / "log.jsonl"
    write_log(path, [record])
    assert path.read_text().endswith('"}\n')
    (parsed,) = read_log(path)
    got = parse_cloud(parsed.payload, parsed.line)
    expected = np.asarray(points, dtype=float).reshape(-1, 3)
    assert got.dtype == np.float64 and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


# points value -> what the error message says after "bad points value"
_BAD_POINTS = {
    "non_alphabet": ("A" * 16 + "!" + "A" * 15, "base64"),
    "bad_padding": ("AAA", "padding"),
    "not_24_byte_rows": (base64.b64encode(bytes(16)).decode("ascii"), "16 bytes is not a whole"),
    "list_payload": ([[1.0, 2.0, 3.0]], "not 'list'"),
}


@pytest.mark.parametrize("name", sorted(_BAD_POINTS))
def test_bad_cloud_payload_reported_with_line(name, tmp_path, capsys):
    points, detail = _BAD_POINTS[name]
    with pytest.raises(LogFormatError, match=f"line 3: bad points value \\(.*{detail}"):
        parse_cloud({"type": "cloud", "frame": 0, "points": points}, 3)
    path = tmp_path / "log.jsonl"
    write_log(
        path,
        [
            calib_record(default_rig()),
            odom_record(0.0, 0, Pose.identity()),
            {"type": "cloud", "frame": 0, "points": points},
        ],
    )
    rc = main(["detect", "--log", str(path), "--out", str(tmp_path / "loops.jsonl")])
    assert rc == 2
    assert "line 3: bad points value" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")], ids=str)
def test_non_finite_cloud_coordinate_exits_2(value, tmp_path, capsys):
    # parse_cloud gives back any bits (see the round trip above); detect, which
    # builds planes and ICP trees from the points, takes finite ones only
    points = np.array([[1.0, 2.0, 3.0], [4.0, value, 6.0]])
    path = tmp_path / "log.jsonl"
    write_log(
        path,
        [calib_record(default_rig()), odom_record(0.0, 0, Pose.identity()), cloud_record(0, points)],
    )
    rc = main(["detect", "--log", str(path), "--out", str(tmp_path / "loops.jsonl")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: line 3: bad points value (a coordinate is NaN or infinite)\n"
    )


@pytest.mark.parametrize("value", [1e300, -1e300, 1e5], ids=str)
def test_absurd_cloud_coordinate_exits_2_at_its_line(value, tmp_path, capsys):
    # a finite coordinate far beyond LiDAR range is the cloud line's fault, not
    # that of the odometry line whose ICP it would overflow
    points = np.array([[1.0, 2.0, 3.0], [4.0, value, 6.0]])
    path = tmp_path / "log.jsonl"
    write_log(
        path,
        [calib_record(default_rig()), odom_record(0.0, 0, Pose.identity()), cloud_record(0, points)],
    )
    rc = main(["detect", "--log", str(path), "--out", str(tmp_path / "loops.jsonl")])
    if abs(value) <= MAX_POINT_COORDINATE:
        assert rc == 0
        return
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: line 3: bad points value (a coordinate is beyond 100000 m)\n"
    )


def test_trajectory_reader_skips_canonical_cloud_lines_undecoded(tmp_path):
    path = tmp_path / "log.jsonl"
    write_log(path, [odom_record(0.0, 0, Pose.identity())])
    with open(path, "a") as handle:
        handle.write('{"type":"cloud","frame":0,"points":"AA"AA"}\n')
    stamps, _ = read_trajectory(path)
    assert stamps == [0.0]
    with pytest.raises(LogFormatError, match="line 2: invalid JSON"):
        list(read_log(path))


def test_reordered_base64_cloud_record_without_points_raises(tmp_path):
    rng = np.random.default_rng(9)
    path = tmp_path / "log.jsonl"
    write_log(path, [odom_record(0.0, 0, _random_pose(rng))])
    payload = cloud_record(0, rng.normal(size=(3, 3)))["points"]
    with open(path, "a") as handle:
        handle.write(json.dumps({"frame": 0, "type": "cloud", "xyz": payload}) + "\n")
    with pytest.raises(LogFormatError, match="line 2: cloud record missing 'points'"):
        read_trajectory(path)


def test_log_feeds_detect_the_bits_of_a_json_round_trip(corridor_lap, corridor_log):
    clouds = [parse_cloud(r.payload, r.line) for r in read_log(corridor_log) if r.kind == "cloud"]
    assert len(clouds) == len(corridor_lap.stamps)
    for got, points in zip(clouds, corridor_lap.clouds):
        # what a list payload gave detect: json's float repr round-trips float64
        as_json_list = np.asarray(json.loads(json.dumps(np.asarray(points).tolist())), dtype=float)
        assert got.tobytes() == as_json_list.reshape(-1, 3).tobytes()


@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("odom", "frame", "x"),
        ("odom", "t", "x"),
        ("gt", "frame", "x"),
        ("odom", "frame", 1.9),
        ("odom", "frame", True),
        ("gt", "frame", 1.9),
        ("gt", "frame", True),
        ("odom", "t", True),
        ("odom", "t", float("nan")),
        ("odom", "t", "0.1"),
    ],
    ids=[
        "odom-frame",
        "odom-t",
        "gt-frame",
        "odom-frame-float",
        "odom-frame-bool",
        "gt-frame-float",
        "gt-frame-bool",
        "odom-t-bool",
        "odom-t-nan",
        "odom-t-string",
    ],
)
def test_non_numeric_trajectory_field_exits_2(kind, key, value, tmp_path, capsys):
    pose = Pose.identity()
    records = [
        odom_record(0.1 * k, k, pose) if kind == "odom" else gt_record(k, pose) for k in (0, 1)
    ]
    records[1][key] = value
    path = tmp_path / "traj.jsonl"
    write_log(path, records)
    with pytest.raises(LogFormatError, match=f"line 2: bad {key} value"):
        read_trajectory(path)
    loops = tmp_path / "loops.jsonl"
    loops.write_text("")
    out = ["--loops", str(loops), "--out", str(tmp_path / "out.jsonl")]
    traj = str(path)
    for argv in (["optimize", "--log", traj], ["evaluate", "--traj", traj, "--gt", traj]):
        assert main(argv + out) == 2
        assert f"error: line 2: bad {key} value" in capsys.readouterr().err


@pytest.mark.parametrize("value", [1.9, True], ids=["float", "bool"])
@pytest.mark.parametrize("kind", ["odom", "cloud"])
def test_non_integer_sensor_frame_exits_2(kind, value, tmp_path, capsys):
    pose, points = Pose.identity(), np.zeros((1, 3))
    records = [calib_record(default_rig())]
    for k in (0, 1):
        records += [odom_record(0.1 * k, k, pose), cloud_record(k, points)]
    line = 4 if kind == "odom" else 5
    records[line - 1]["frame"] = value
    path = tmp_path / "log.jsonl"
    write_log(path, records)
    assert main(["detect", "--log", str(path), "--out", str(tmp_path / "loops.jsonl")]) == 2
    assert f"error: line {line}: bad frame value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "intrinsics, detail",
    [(["a", 1, 2, 3], "expected a number, got 'a'"), ([-1, 1, 2, 3], "focal lengths must be positive")],
    ids=["non_numeric", "negative_focal"],
)
def test_bad_calib_intrinsics_exit_2(intrinsics, detail, tmp_path, capsys):
    record = calib_record(default_rig())
    record["intrinsics"] = intrinsics
    with pytest.raises(LogFormatError, match=f"line 1: bad intrinsics \\(.*{detail}"):
        parse_calib(record, line=1)
    path = tmp_path / "log.jsonl"
    write_log(path, [record])
    assert main(["detect", "--log", str(path), "--out", str(tmp_path / "loops.jsonl")]) == 2
    assert "error: line 1: bad intrinsics" in capsys.readouterr().err


def test_json_float_takes_json_numbers_only():
    assert json_float(2) == 2.0 and isinstance(json_float(2), float)
    assert json_float(-0.25) == -0.25
    assert np.isnan(json_float(float("nan")))
    assert json_float(float("-inf")) == float("-inf")
    for value in (True, False, "1.5", None, [1.0]):
        with pytest.raises(TypeError):
            json_float(value)
    with pytest.raises(ValueError):
        json_float(10**400)


def test_json_stamp_is_finite():
    assert json_finite(0) == 0.0
    assert json_finite(12.5) == 12.5
    for value in (float("nan"), float("inf"), float("-inf"), 10**400):
        with pytest.raises(ValueError):
            json_finite(value)
    with pytest.raises(TypeError):
        json_finite(True)


def _sensor_log(tmp_path, key_path, value):
    """A two-frame sensor log with one texts record; key_path names the field to overwrite."""
    pose, points = Pose.identity(), np.zeros((1, 3))
    quad = np.array([[10.0, 20.0], [40.0, 21.0], [41.0, 35.0], [11.0, 34.0]])
    records = [calib_record(default_rig())]
    for k in (0, 1):
        records += [odom_record(0.1 * k, k, pose), cloud_record(k, points)]
    records.append(texts_record(0.05, [TextDetection("EXIT", 0.93, quad, 0.05)]))
    line, *keys = key_path
    target = records[line - 1]
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path = tmp_path / "log.jsonl"
    write_log(path, records)
    return str(path)


@pytest.mark.parametrize("value", [True, float("nan"), float("inf"), "0.1"])
@pytest.mark.parametrize(
    "key_path, message",
    [((4, "t"), "line 4: bad t value"), ((6, "t"), "line 6: bad t value")],
    ids=["odom", "texts"],
)
def test_bad_sensor_stamp_exits_2(key_path, message, value, tmp_path, capsys):
    path = _sensor_log(tmp_path, key_path, value)
    assert main(["detect", "--log", path, "--out", str(tmp_path / "loops.jsonl")]) == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("value", [True, "0.93", None, float("nan"), float("inf"), float("-inf")])
def test_bad_detection_confidence_exits_2(value, tmp_path, capsys):
    path = _sensor_log(tmp_path, (6, "detections", 0, "conf"), value)
    assert main(["detect", "--log", path, "--out", str(tmp_path / "loops.jsonl")]) == 2
    assert "error: line 6: bad detection entry" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key_path, value, message",
    [
        ((2, "type"), ["odom"], "line 2: unknown record type ['odom']"),
        ((6, "detections"), 5, "line 6: detections must be a list, got 5"),
        ((6, "detections"), None, "line 6: detections must be a list, got None"),
        ((6, "detections", 0, "text"), 7, "line 6: bad detection entry (expected a string, got 7)"),
        ((6, "detections", 0, "text"), None, "line 6: bad detection entry"),
    ],
    ids=["odom-type-list", "detections-number", "detections-null", "text-number", "text-null"],
)
def test_mistyped_sensor_field_exits_2(key_path, value, message, tmp_path, capsys):
    path = _sensor_log(tmp_path, key_path, value)
    assert main(["detect", "--log", path, "--out", str(tmp_path / "loops.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize(
    "value", [None, True, "0.5", float("nan")], ids=["null", "bool", "string", "nan"]
)
@pytest.mark.parametrize(
    "key_path, message",
    [
        ((4, "pose", "t", 1), "line 4: bad pose"),
        ((4, "pose", "q", 0), "line 4: bad pose"),
        ((1, "intrinsics", 2), "line 1: bad intrinsics"),
        ((1, "extrinsic", "q", 3), "line 1: bad pose"),
        ((6, "detections", 0, "quad", 2, 0), "line 6: bad detection entry"),
    ],
    ids=["odom-t", "odom-q", "calib-cx", "calib-extrinsic", "quad-corner"],
)
def test_non_number_in_a_sensor_array_exits_2(key_path, message, value, tmp_path, capsys):
    # before, np.asarray and float() read null as NaN, true as 1.0 and "0.5" as
    # 0.5, and detect exited 0 with other constraints or none
    path = _sensor_log(tmp_path, key_path, value)
    assert main(["detect", "--log", path, "--out", str(tmp_path / "loops.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message} (") and err.count("\n") == 1


@pytest.mark.parametrize(
    "value, detail",
    [
        ([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], "expected a list of 4 lists of 2 numbers"),
        ([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0]], "expected a list of 4 lists of 2 numbers"),
        ([1.0, 2.0, 3.0, 4.0], "expected a list of 4 lists of 2 numbers"),
        ([[1, 2], [3, 4], [5, 6], [7, True]], "expected a number, got True"),
        ([[1, 2], [3, 4], [5, 6], [7, 1e999]], "expected a finite number, got inf"),
    ],
    ids=["three-corners", "short-corner", "flat", "bool", "inf"],
)
def test_json_array_takes_its_shape_of_finite_numbers_only(value, detail):
    with pytest.raises((TypeError, ValueError), match=re.escape(detail)):
        json_array(value, (4, 2))
    quad = json_array([[1, 2.5], [3, 4], [5, 6], [7, 8]], (4, 2))
    assert quad.dtype == np.float64 and quad.shape == (4, 2) and quad[0, 1] == 2.5


def test_decoded_poses_have_the_bits_of_the_asarray_decoder():
    # the decoder before this one: quaternion_to_rotation(np.asarray(q, dtype=float)), t as given
    rng = np.random.default_rng(11)
    for _ in range(50):
        record = json.loads(json.dumps(_random_pose(rng).to_json()))
        pose = parse_pose(record, line=1)
        rotation = quaternion_to_rotation(np.asarray(record["q"], dtype=float))
        assert pose.rotation.tobytes() == rotation.tobytes()
        assert pose.translation.tobytes() == np.asarray(record["t"], dtype=float).tobytes()
