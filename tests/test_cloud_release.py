"""The detector drops every cloud that no later extraction or ICP can read.

A wrongly dropped cloud would not fail loudly: extraction would see a thinner
window, and _close_loop keeps a generic pair's prior, with inflated
uncertainty, when a cloud is missing.  Only the bytes would move.  The oracle
here is the same detector with its release step switched off.
"""

import json

import numpy as np
import pytest

import textloop.cli as cli
from helpers import ACCEPT_NOISE, default_rig
from textloop.cli import main
from textloop.config import load_config
from textloop.logio import write_log
from textloop.simulator import build_world, default_route, simulate


class KeepEveryCloud(cli.DetectorRun):
    """The shipped detector, holding every cloud to the end of the run."""

    def _release(self, horizon: float) -> None:
        pass


def _loop_lines(constraints) -> list[str]:
    return [json.dumps(c.to_json(), separators=(",", ":")) for c in constraints]


@pytest.fixture(
    scope="module", params=[("corridor", 1, 3), ("multifloor", 3, 2)], ids=lambda p: p[0]
)
def runs(request):
    """One simulation detected by the shipped class and by the oracle."""
    scenario, seed, laps = request.param
    route = default_route(scenario, laps=laps)
    world = build_world(scenario, seed=seed)
    result = simulate(world, route, default_rig(), noise=ACCEPT_NOISE, seed=seed)
    config = load_config(None, environ={})
    shipped = cli.run_detector(result, config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "DetectorRun", KeepEveryCloud)
        kept = cli.run_detector(result, config)
    return config, shipped, kept


def test_released_clouds_leave_the_constraints_bit_equal(runs):
    _, shipped, kept = runs
    assert isinstance(kept, KeepEveryCloud) and not isinstance(shipped, KeepEveryCloud)
    # the oracle kept every cloud and the shipped class most of them not, so
    # the comparison below has something to tell apart
    assert len(kept.state.clouds) == len(kept.state.stamps)
    assert len(shipped.state.clouds) < len(kept.state.clouds) // 2
    assert shipped.constraints
    assert _loop_lines(shipped.constraints) == _loop_lines(kept.constraints)


def test_kept_clouds_are_the_anchors_and_the_frames_past_the_horizon(runs):
    config, shipped, _ = runs
    stamps = shipped.state.stamps
    horizon = stamps[-2] - config.extraction_params().window
    anchors = {f for f in range(len(stamps)) if shipped.state.db.entities_in_frame(f)}
    recent = {f for f in range(len(stamps)) if stamps[f] >= horizon}
    assert set(shipped.state.clouds) == anchors | recent
    # memory is freed only when neither store holds the array
    assert set(shipped._raw_clouds) == set(shipped.state.clouds)


@pytest.fixture(scope="module")
def lap(tmp_path_factory):
    """The records of a 1-lap corridor log."""
    d = tmp_path_factory.mktemp("lap")
    argv = ["simulate", "--scenario", "corridor", "--seed", "1", "--laps", "1", "--out", str(d)]
    assert main(argv) == 0
    return [json.loads(line) for line in (d / "log.jsonl").read_text().splitlines()]


def _detect(records, directory) -> int:
    path = directory / "log.jsonl"
    write_log(path, records)
    return main(["detect", "--log", str(path), "--out", str(directory / "loops.jsonl")])


def _move_texts(records, frames_later: int, t) -> tuple[list, int, float]:
    """The first texts record after odom frame 95, moved behind later odometry.

    The record follows the odometry of some frame f.  It goes after the cloud
    of frame f + frames_later, with its stamp set to t(stamp of frame f).
    Returns the records, the record's new line and the newest odometry stamp
    when it is read.  Stamps from 9.5 s to 16 s less a window of 1 s subtract
    exactly, so one ulp decides.
    """
    odom = {r["frame"]: k for k, r in enumerate(records) if r["type"] == "odom"}
    source = next(k for k in range(odom[95], len(records)) if records[k]["type"] == "texts")
    frame = max(f for f, k in odom.items() if k < source)
    stamp = records[odom[frame]]["t"]
    assert 9.5 <= stamp < 16.0
    texts = dict(records[source], t=t(stamp))
    target = odom[frame + frames_later] + 1
    assert records[target]["type"] == "cloud"
    moved = records[:source] + records[source + 1 : target + 1] + [texts] + records[target + 1 :]
    return moved, target + 1, records[odom[frame + frames_later]]["t"]


def test_texts_at_the_horizon_is_processed(lap, tmp_path, capsys):
    moved, _, _ = _move_texts(lap, 1, lambda stamp: stamp)
    capsys.readouterr()
    assert _detect(lap, tmp_path) == 0
    images = capsys.readouterr().out.splitlines()[0]
    assert _detect(moved, tmp_path) == 0
    # one image moved and restamped, none dropped
    assert capsys.readouterr().out.splitlines()[0] == images


@pytest.mark.parametrize(
    "frames_later, t",
    [(1, lambda stamp: float(np.nextafter(stamp, -np.inf))), (12, lambda stamp: stamp + 0.05)],
    ids=["one_ulp_behind", "twelve_frames_behind"],
)
def test_texts_behind_the_horizon_exits_2_with_its_line(frames_later, t, lap, tmp_path, capsys):
    moved, line, newest = _move_texts(lap, frames_later, t)
    capsys.readouterr()
    assert _detect(moved, tmp_path) == 2
    t_image = moved[line - 1]["t"]
    assert capsys.readouterr().err == (
        f"error: line {line}: texts at t = {t_image} trail the odometry, now at t = {newest}, "
        "by more than one frame\n"
    )


def test_odometry_stamp_going_back_exits_2_with_its_line(lap, tmp_path, capsys):
    # the horizon assumes stamps that never decrease; a frame stamped before
    # its predecessor would let a later window reach released clouds
    records = [dict(r) for r in lap]
    odom = [k for k, r in enumerate(records) if r["type"] == "odom"]
    previous = records[odom[99]]["t"]
    records[odom[100]]["t"] = float(np.nextafter(previous, -np.inf))
    capsys.readouterr()
    assert _detect(records, tmp_path) == 2
    assert capsys.readouterr().err == (
        f"error: line {odom[100] + 1}: odom t = {records[odom[100]]['t']} precedes the previous "
        f"frame's t = {previous}\n"
    )


@pytest.fixture(scope="module")
def two_laps(tmp_path_factory):
    """The records of a 2-lap corridor log."""
    d = tmp_path_factory.mktemp("two_laps")
    argv = ["simulate", "--scenario", "corridor", "--seed", "1", "--laps", "2", "--out", str(d)]
    assert main(argv) == 0
    return [json.loads(line) for line in (d / "log.jsonl").read_text().splitlines()]


@pytest.mark.parametrize(
    "odom_frame, value",
    [(0, -3), (5, 50), (300, 100), (5, 10**400)],
    ids=["negative", "ahead", "behind", "past_float_range"],
)
def test_cloud_of_another_frame_exits_2_with_its_line(odom_frame, value, two_laps, tmp_path, capsys):
    # a cloud follows its own odom record; any other frame was kept, or
    # dropped as released, without a word
    records = [dict(r) for r in two_laps]
    odom = {r["frame"]: k for k, r in enumerate(records) if r["type"] == "odom"}
    line = odom[odom_frame] + 2
    assert records[line - 1]["type"] == "cloud" and records[line - 1]["frame"] == odom_frame
    records[line - 1]["frame"] = value
    capsys.readouterr()
    assert _detect(records, tmp_path) == 2
    assert capsys.readouterr().err == (
        f"error: line {line}: cloud frame {value} arrived out of order (expected {odom_frame})\n"
    )
