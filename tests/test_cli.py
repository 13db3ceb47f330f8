import json

import numpy as np
import pytest

from helpers import assert_golden, default_rig, poses_close, sha256_of, simulate_and_detect
from textloop.cli import main
from textloop.geometry import Pose
from textloop.logio import (
    calib_record,
    gt_record,
    odom_record,
    parse_loop,
    read_trajectory,
    write_log,
)
from textloop.loop_closure import LoopConstraint, LoopSource


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One corridor run shared by the read-only tests below."""
    d = tmp_path_factory.mktemp("corridor")
    simulate_and_detect(d, "corridor", 3)
    return d


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "textloop" in capsys.readouterr().out


def test_invalid_scenario_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--scenario", "spiral", "--seed", "0", "--out", str(tmp_path)])
    assert info.value.code == 2
    # a config-supplied scenario bypasses argparse choices and must still fail
    (tmp_path / "bad.ini").write_text("[sim]\nscenario = spiral\n")
    rc = main(["simulate", "--config", str(tmp_path / "bad.ini"), "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["simulate", "--scenario", "corridor", "--seed", "9", "--out", str(out)]) == 0
    assert sha256_of(a / "log.jsonl") == sha256_of(b / "log.jsonl")
    assert sha256_of(a / "gt.jsonl") == sha256_of(b / "gt.jsonl")


def test_detect_without_texts_writes_empty_loops(run_dir, tmp_path):
    quiet = tmp_path / "quiet.jsonl"
    with open(run_dir / "log.jsonl") as fin, open(quiet, "w") as fout:
        for line in fin:
            if json.loads(line)["type"] != "texts":
                fout.write(line)
    out = tmp_path / "loops.jsonl"
    assert main(["detect", "--log", str(quiet), "--out", str(out)]) == 0
    assert out.read_text() == ""


def test_detect_golden_constraint_count(run_dir):
    lines = (run_dir / "loops.jsonl").read_text().splitlines()
    loops = [parse_loop(line, number) for number, line in enumerate(lines, start=1)]
    assert len(loops) == 31
    assert all(c.frame_j < c.frame_i for c in loops)


def test_detect_loops_match_golden(run_dir):
    assert_golden("detect_corridor_seed3", {"loops.jsonl": sha256_of(run_dir / "loops.jsonl")})


def test_single_sign_revisit_gives_one_constraint(run_dir, tmp_path):
    single = tmp_path / "single.jsonl"
    with open(run_dir / "log.jsonl") as fin, open(single, "w") as fout:
        for line in fin:
            rec = json.loads(line)
            if rec["type"] == "texts":
                rec["detections"] = [d for d in rec["detections"] if d["text"] == "A1-R03"]
                if not rec["detections"]:
                    continue
            fout.write(json.dumps(rec, separators=(",", ":")) + "\n")
    # one acceptance suppresses the rest of the pass
    config = tmp_path / "run.ini"
    config.write_text("[detect]\ncooldown_frames = 10000\n")
    out = tmp_path / "loops.jsonl"
    assert main(["detect", "--log", str(single), "--config", str(config), "--out", str(out)]) == 0
    loops = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(loops) == 1
    assert loops[0]["source"] == "id"


def test_truncated_line_exits_2_with_line_number(run_dir, tmp_path, capsys):
    lines = (run_dir / "log.jsonl").read_text().splitlines()
    lines[4] = lines[4][: len(lines[4]) // 2]
    broken = tmp_path / "broken.jsonl"
    broken.write_text("\n".join(lines) + "\n")
    rc = main(["detect", "--log", str(broken), "--out", str(tmp_path / "loops.jsonl")])
    assert rc == 2
    assert "line 5" in capsys.readouterr().err


def test_log_must_start_with_calib(run_dir, tmp_path, capsys):
    lines = (run_dir / "log.jsonl").read_text().splitlines()
    headless = tmp_path / "headless.jsonl"
    headless.write_text("\n".join(lines[1:]) + "\n")
    rc = main(["detect", "--log", str(headless), "--out", str(tmp_path / "loops.jsonl")])
    assert rc == 2
    assert "calib" in capsys.readouterr().err


def test_out_of_order_odometry_exits_2(run_dir, tmp_path, capsys):
    lines = (run_dir / "log.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    odom_idx = [k for k, r in enumerate(records) if r["type"] == "odom"]
    records[odom_idx[1]], records[odom_idx[2]] = records[odom_idx[2]], records[odom_idx[1]]
    shuffled = tmp_path / "shuffled.jsonl"
    shuffled.write_text("\n".join(json.dumps(r, separators=(",", ":")) for r in records) + "\n")
    rc = main(["detect", "--log", str(shuffled), "--out", str(tmp_path / "loops.jsonl")])
    assert rc == 2
    assert "out of order" in capsys.readouterr().err


def test_optimize_with_empty_loops_returns_odometry(run_dir, tmp_path):
    empty = tmp_path / "none.jsonl"
    empty.write_text("")
    traj = tmp_path / "traj.jsonl"
    rc = main(["optimize", "--log", str(run_dir / "log.jsonl"), "--loops", str(empty), "--out", str(traj)])
    assert rc == 0
    _, odom = read_trajectory(run_dir / "log.jsonl")
    _, optimized = read_trajectory(traj)
    assert len(odom) == len(optimized)
    assert all(poses_close(a, b, tol=1e-10) for a, b in zip(odom, optimized))


def test_evaluate_est_equal_gt_scores_zero_ate(run_dir, tmp_path):
    report_path = tmp_path / "report.json"
    rc = main(
        [
            "evaluate",
            "--traj", str(run_dir / "gt.jsonl"),
            "--gt", str(run_dir / "gt.jsonl"),
            "--loops", str(run_dir / "loops.jsonl"),
            "--out", str(report_path),
        ]
    )
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["ate_mean"] < 1e-12
    assert report["params"] == {"tau": 1.0, "min_travel": 10.0}


def test_evaluate_mismatched_lengths_exits_2(run_dir, tmp_path, capsys):
    _, gt = read_trajectory(run_dir / "gt.jsonl")
    short = tmp_path / "short.jsonl"
    write_log(short, [gt_record(k, p) for k, p in enumerate(gt[:-5])])
    rc = main(
        [
            "evaluate",
            "--traj", str(short),
            "--gt", str(run_dir / "gt.jsonl"),
            "--loops", str(run_dir / "loops.jsonl"),
            "--out", str(tmp_path / "report.json"),
        ]
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_env_override_reaches_commands(run_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("TEXTLOOP_EVAL__TAU", "1.7")
    report_path = tmp_path / "report.json"
    rc = main(
        [
            "evaluate",
            "--traj", str(run_dir / "gt.jsonl"),
            "--gt", str(run_dir / "gt.jsonl"),
            "--loops", str(run_dir / "loops.jsonl"),
            "--out", str(report_path),
        ]
    )
    assert rc == 0
    assert json.loads(report_path.read_text())["params"]["tau"] == 1.7


def test_missing_input_file_exits_2(tmp_path, capsys):
    rc = main(["detect", "--log", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def _three_pose_run(tmp_path, loop: dict) -> tuple[str, str]:
    """A 3-pose ground truth (usable as log, traj and gt) and a one-record loops file."""
    traj = tmp_path / "gt.jsonl"
    write_log(traj, [gt_record(k, Pose(np.eye(3), [float(k), 0.0, 0.0])) for k in range(3)])
    loops = tmp_path / "loops.jsonl"
    write_log(loops, [loop])
    return str(traj), str(loops)


def _optimize_and_evaluate(traj: str, loops: str, tmp_path) -> list[list[str]]:
    out = ["--loops", loops, "--out", str(tmp_path / "out")]
    return [
        ["optimize", "--log", traj] + out,
        ["evaluate", "--traj", traj, "--gt", traj] + out,
    ]


def _loop_record(i, j) -> dict:
    record = LoopConstraint(2, 0, Pose.identity(), np.eye(6), LoopSource.ID_TEXT).to_json()
    record.update(i=i, j=j)
    return record


@pytest.mark.parametrize("i, j", [(10, 0), (3, 1), (2, -1)])
def test_loop_outside_trajectory_exits_2(i, j, tmp_path, capsys):
    traj, loops = _three_pose_run(tmp_path, _loop_record(i, j))
    for argv in _optimize_and_evaluate(traj, loops, tmp_path):
        assert main(argv) == 2
        assert f"error: line 1: loop ({i}, {j}) outside" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("i", 1.9), ("i", True), ("j", 0.5), ("j", False)])
def test_non_integer_loop_frame_exits_2(key, value, tmp_path, capsys):
    traj, loops = _three_pose_run(tmp_path, {**_loop_record(2, 0), key: value})
    for argv in _optimize_and_evaluate(traj, loops, tmp_path):
        assert main(argv) == 2
        assert f"error: line 1: bad {key} value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry", [-1.0, 0.0, True, float("nan"), float("inf")], ids=str
)
def test_bad_information_diagonal_exits_2(entry, tmp_path, capsys):
    record = _loop_record(2, 0)
    record["info_diag"][3] = entry
    traj, loops = _three_pose_run(tmp_path, record)
    for argv in _optimize_and_evaluate(traj, loops, tmp_path):
        assert main(argv) == 2
        assert "error: line 1: bad info_diag value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("t", [float("nan"), 0.0, 0.0]),
        ("t", [0.0, float("inf"), 0.0]),
        ("t", [0.0, 0.0, None]),
        ("t", [0.0, 0.0]),
        ("q", [1.0, float("nan"), 0.0, 0.0]),
        ("q", [float("-inf"), 0.0, 0.0, 0.0]),
        ("q", [True, 0.0, 0.0, 0.0]),
        ("q", ["1", 0.0, 0.0, 0.0]),
        ("q", [0.0, 0.0, 0.0, 0.0]),
        ("q", 1.0),
    ],
    ids=str,
)
def test_bad_loop_pose_exits_2(key, value, tmp_path, capsys):
    # before, a NaN in t or q made optimize exit 2 with a message that named
    # no line, and evaluate exit 0
    record = _loop_record(2, 0)
    record["pose"][key] = value
    traj, loops = _three_pose_run(tmp_path, record)
    for argv in _optimize_and_evaluate(traj, loops, tmp_path):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 1: bad loop pose (") and err.count("\n") == 1


@pytest.mark.parametrize("key", ["gate_generic_with_icp", "refine_poses", "exact_cutoff"])
def test_removed_detect_keys_are_unknown(key, tmp_path, capsys, monkeypatch):
    config = tmp_path / "run.ini"
    config.write_text(f"[detect]\n{key} = true\n")
    argv = ["detect", "--log", str(tmp_path / "log.jsonl"), "--out", str(tmp_path / "loops")]
    assert main(argv + ["--config", str(config)]) == 2
    assert f"error: unknown key '{key}' in section [detect]" in capsys.readouterr().err
    monkeypatch.setenv(f"TEXTLOOP_DETECT__{key.upper()}", "20")
    assert main(argv) == 2
    assert f"error: unknown key '{key}' in section [detect]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, key, index, value", [("traj", "t", 1, None), ("gt", "q", 0, True)], ids=str
)
def test_non_number_in_a_trajectory_pose_exits_2(name, key, index, value, tmp_path, capsys):
    # before, a null t made evaluate fail in the alignment SVD (exit 1), and a
    # true in q read as 1.0 (exit 0)
    poses = [Pose(np.eye(3), [float(k), 0.0, 0.0]) for k in range(3)]
    records = {
        "traj": [odom_record(0.1 * k, k, pose) for k, pose in enumerate(poses)],
        "gt": [gt_record(k, pose) for k, pose in enumerate(poses)],
    }
    records[name][1]["pose"][key][index] = value
    for file, rows in records.items():
        write_log(tmp_path / f"{file}.jsonl", rows)
    (tmp_path / "loops.jsonl").write_text("")
    argv = ["evaluate", "--traj", str(tmp_path / "traj.jsonl"), "--gt", str(tmp_path / "gt.jsonl"),
            "--loops", str(tmp_path / "loops.jsonl"), "--out", str(tmp_path / "report.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: bad pose (") and err.count("\n") == 1


def test_trajectory_too_large_to_align_exits_2(tmp_path, capsys):
    # a finite 1e308 in one pose made evaluate's alignment SVD loop without end
    records = [gt_record(k, Pose(np.eye(3), [float(k), 1.0, 0.0])) for k in range(3)]
    records[1]["pose"]["t"][0] = 1e308
    write_log(tmp_path / "gt.jsonl", records)
    (tmp_path / "loops.jsonl").write_text("")
    gt = str(tmp_path / "gt.jsonl")
    argv = ["evaluate", "--traj", gt, "--gt", gt, "--loops", str(tmp_path / "loops.jsonl"),
            "--out", str(tmp_path / "report.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot align {gt} to {gt}: the cross-covariance of the points overflows\n"


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--laps", "0", "[sim] laps must be at least 1, got 0"),
        ("--laps", "-1", "[sim] laps must be at least 1, got -1"),
        ("--seed", "-1", "[sim] seed must be non-negative, got -1"),
    ],
)
def test_simulate_option_outside_its_range_exits_2(option, value, message, tmp_path, capsys):
    # the options override [sim] laps and seed and meet the same bounds; they
    # raised a bare ValueError in the simulator (exit 1)
    argv = ["simulate", "--scenario", "corridor", option, value, "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _insert_line_2(path, raw: bytes) -> None:
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(lines[0] + raw + b"".join(lines[1:]))


@pytest.mark.parametrize("name", ["traj", "gt", "loops", "log"])
def test_byte_that_is_not_utf8_exits_2_with_its_line(name, tmp_path, capsys):
    # each file read through logio.text_lines; the decode error was a traceback (exit 1)
    poses = [Pose(np.eye(3), [float(k), 0.0, 0.0]) for k in range(3)]
    write_log(tmp_path / "traj.jsonl", [odom_record(0.1 * k, k, p) for k, p in enumerate(poses)])
    write_log(tmp_path / "gt.jsonl", [gt_record(k, p) for k, p in enumerate(poses)])
    write_log(tmp_path / "loops.jsonl", [_loop_record(2, 0), _loop_record(1, 0)])
    write_log(tmp_path / "log.jsonl", [calib_record(default_rig()), odom_record(0.0, 0, poses[0])])
    _insert_line_2(tmp_path / f"{name}.jsonl", b'{"type":"gt","frame":1,\xff\xfe}\n')
    traj, gt, loops, log = (str(tmp_path / f"{key}.jsonl") for key in ("traj", "gt", "loops", "log"))
    out = str(tmp_path / "out")
    optimize = ["optimize", "--log", traj, "--loops", loops, "--out", out]
    evaluate = ["evaluate", "--traj", traj, "--gt", gt, "--loops", loops, "--out", out]
    detect = ["detect", "--log", log, "--out", out]
    readers = {"traj": [optimize, evaluate], "gt": [evaluate], "loops": [optimize, evaluate],
               "log": [detect]}
    for argv in readers[name]:
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: line 2: byte 0xff at column 24 is not UTF-8\n"
