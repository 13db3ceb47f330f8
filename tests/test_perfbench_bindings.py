"""perfbench reaches into the package by name; this keeps those names alive.

``spans.py`` patches package attributes, and ``stage.py`` builds the detector
itself and reads its attributes.  The benchmark's own tests (``python -m
pytest perfbench``) are not part of the main suite, so a renamed or removed
name would otherwise show only as an error in the first benchmark run.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402

import numpy as np  # noqa: E402

import textloop.cli as cli  # noqa: E402
from textloop.config import load_config  # noqa: E402
from textloop.geometry import Pose  # noqa: E402
from textloop.loop_closure import DetectorState, LoopConstraint, LoopSource  # noqa: E402
from textloop.pose_graph import PoseGraph  # noqa: E402
from textloop.simulator import build_world, default_route, simulate  # noqa: E402


def test_tracer_wraps_every_binding_and_restores_it():
    tracer = spans.Tracer().install()
    try:
        patched = list(tracer._undo)
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original
    wrapped = {(owner, attr) for owner, attr, _ in patched}
    for attr in ("optimize", "cost", "edge_jacobians"):
        assert (PoseGraph, attr) in wrapped


def test_stage_builds_and_reads_the_detector(monkeypatch):
    config = load_config(None, environ={})
    route = default_route("corridor", laps=1)[:3]
    result = simulate(build_world("corridor", seed=1), route, config.rig(), seed=1)
    # stage.py's constructor call, its patch of on_odom and its in-memory replay
    run = cli.DetectorRun(
        rig=config.rig(),
        extraction=config.extraction_params(),
        state=DetectorState(config.detector_params()),
    )
    on_odom = cli.DetectorRun.on_odom
    marks = []

    def marked_on_odom(run, stamp, frame, pose):
        marks.append(run.timings.images)
        return on_odom(run, stamp, frame, pose)

    monkeypatch.setattr(cli.DetectorRun, "on_odom", marked_on_odom)
    camera = sorted(result.camera, key=lambda item: item[0])
    next_image = 0
    for frame, (stamp, pose) in enumerate(zip(result.stamps, result.odom_poses)):
        run.on_odom(float(stamp), frame, pose)
        run.on_cloud(frame, result.clouds[frame])
        while next_image < len(camera) and camera[next_image][0] <= stamp:
            t_image, detections = camera[next_image]
            if detections:
                run.on_texts(float(t_image), detections)
            next_image += 1
    run.finish()
    assert len(marks) == len(result.stamps)
    assert run.timings.images > 0 and marks[-1] > 0
    assert len(run.state.db) > 0
    # the detector releases the clouds no later step reads; stage.py sums the
    # points of those it keeps
    assert run.state.clouds and set(run.state.clouds) <= set(range(len(result.stamps)))
    assert all(hasattr(cloud, "points") for cloud in run.state.clouds.values())
    assert sum(len(c.points) for c in run.state.clouds.values()) > 0


def test_in_memory_replay_records_every_detect_layer():
    # a layer inlined into its caller would leave its per-layer row at zero
    config = load_config(None, environ={})
    route = default_route("corridor", laps=2)
    result = simulate(build_world("corridor", seed=1), route, config.rig(), seed=1)
    tracer = spans.Tracer().install()
    try:
        run = cli.run_detector(result, config)
    finally:
        tracer.uninstall()
    assert run.constraints
    for name in (
        "entities.fit_plane_ransac",
        "entities.points_in_region",
        "entities.accumulate_local_cloud",
        "loop_closure.icp_verify",
    ):
        assert tracer.counts[name + ".calls"] > 0, name
        assert any(span[2] == name for span in tracer.spans), name


def test_optimize_span_counts_one_edge_per_odometry_step_and_loop():
    # on_optimize adds len(graph.edges): that must count rows, not the fields
    # of the edge stack, or the pose_graph.edges row is wrong without an error
    odom = [Pose(np.eye(3), [float(k), 0.0, 0.0]) for k in range(12)]
    constraints = [
        LoopConstraint(i, j, odom[i].inverse() @ odom[j], np.eye(6), LoopSource.GENERIC_TEXT)
        for i, j in ((9, 1), (11, 3), (11, 4))
    ]
    tracer = spans.Tracer().install()
    try:
        cli.optimize_trajectory(odom, constraints, load_config(None, environ={}))
    finally:
        tracer.uninstall()
    assert tracer.counts["pose_graph.optimize.calls"] == 1
    assert tracer.counts["pose_graph.edges"] == (len(odom) - 1) + len(constraints)


def test_encoders_that_perfbench_hashes_exist():
    # stage.py and test_perfbench.py hash loops and poses through these two
    pose = Pose(np.eye(3), [1.0, 2.0, 3.0])
    assert pose.to_json() == {"t": [1.0, 2.0, 3.0], "q": [1.0, 0.0, 0.0, 0.0]}
    constraint = LoopConstraint(2, 0, pose, 4.0 * np.eye(6), LoopSource.ID_TEXT)
    assert constraint.to_json() == {
        "i": 2, "j": 0, "pose": pose.to_json(), "info_diag": [4.0] * 6, "source": "id",
    }
