"""Acceptance suite: one test per shipped guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  The multifloor fixture is shared between the precision and
the trajectory-error criteria, so those two lines come from the same runs.
"""

import time

import numpy as np
import pytest

from helpers import (
    assert_golden,
    brute_force_densest_subset,
    cli_pipeline,
    default_rig,
    loop_pose_indices,
    poses_close,
    random_consistency_instance,
    random_pose,
    run_digests,
    set_density,
    simulate_detect_optimize_multifloor,
)
from textloop.association import solve_consistent_set
from textloop.cli import run_detector
from textloop.config import PipelineConfig, load_config
from textloop.entities import TextCategory, TextEntity
from textloop.evaluation import ate, label_loop_poses, score
from textloop.geometry import (
    CameraIntrinsics,
    PixelPoint,
    PlaneParams,
    Pose,
    backproject,
    cumulative_path_length,
    exp_map,
    interpolate,
    log_map,
    project_array,
)
from textloop.loop_closure import DetectorState, process_frame
from textloop.simulator import (
    FLOOR_SPACING,
    NoiseModel,
    build_world,
    default_route,
    simulate,
)

@pytest.fixture(scope="module")
def multifloor_runs():
    """Twenty seeded multifloor runs: simulate, detect, optimize."""
    return simulate_detect_optimize_multifloor()


def test_geometry_round_trips_within_tolerance_and_time_budget():
    rng = np.random.default_rng(2024)
    intrinsics = CameraIntrinsics(420.0, 415.0, 310.0, 242.0)
    start = time.perf_counter()

    for _ in range(1000):
        # plane through a point in front of the camera, tilted < 45 degrees,
        # so every ray in the sampled pixel box hits it at positive depth
        tilt = rng.uniform(-0.5, 0.5, size=2)
        normal = -np.array([tilt[0], tilt[1], 1.0])
        anchor = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(2.0, 6.0)])
        plane = PlaneParams(normal, -float(normal @ anchor))
        pixel = PixelPoint(float(rng.uniform(50, 590)), float(rng.uniform(50, 430)))
        point = backproject(intrinsics, plane, pixel)
        assert abs(point @ plane.normal + plane.offset) < 1e-9
        u, v = project_array(intrinsics, point)[0][0]
        assert abs(u - pixel.u) < 1e-7 and abs(v - pixel.v) < 1e-7

    for _ in range(1000):
        pose = random_pose(rng, max_angle=3.0)
        assert poses_close(interpolate(pose, 0.0), Pose.identity(), tol=1e-12)
        assert poses_close(interpolate(pose, 1.0), pose, tol=1e-12)

    for _ in range(1000):
        xi = rng.normal(scale=1.0, size=6)
        angle = np.linalg.norm(xi[3:])
        if angle >= np.pi - 1e-3:
            xi[3:] *= (np.pi - 0.1) / angle
        assert np.linalg.norm(log_map(exp_map(xi)) - xi) < 1e-10

    assert time.perf_counter() - start < 5.0


def test_zero_noise_loop_constraints_match_ground_truth():
    world = build_world("corridor", seed=3)
    result = simulate(world, default_route("corridor"), default_rig(), NoiseModel(), seed=3)
    # a tight offset gate keeps only true revisit pairs, where the whole
    # chain (entity poses, relative pose, ICP refinement) is exact
    config = PipelineConfig({"detect": {"max_offset": 0.05}})
    constraints = run_detector(result, config).constraints
    assert len(constraints) > 0
    gt = result.gt_poses
    for c in constraints:
        expected = gt[c.frame_i].inverse() @ gt[c.frame_j]
        gap = log_map(c.relative_pose.inverse() @ expected)
        assert np.linalg.norm(c.relative_pose.translation - expected.translation) < 1e-6
        assert np.linalg.norm(gap[3:]) < 1e-6


def test_association_solvers_match_exhaustive_oracle():
    rng = np.random.default_rng(77)
    exact_hits = relaxed_set_hits = 0
    start = time.perf_counter()
    for _ in range(100):
        graph = random_consistency_instance(rng, max_associations=12)
        oracle = brute_force_densest_subset(graph)
        oracle_density = set_density(graph, oracle)

        exact = solve_consistent_set(graph, mode="exact")
        assert sorted(exact) == sorted(oracle)
        exact_hits += 1

        relaxed = solve_consistent_set(graph, mode="relaxed")
        relaxed_density = set_density(graph, relaxed)
        assert relaxed_density >= oracle_density * 0.99 - 1e-12
        if sorted(relaxed) == sorted(oracle):
            relaxed_set_hits += 1
    assert exact_hits == 100
    assert relaxed_set_hits >= 90
    assert time.perf_counter() - start < 30.0


def _floor_of(pose: Pose) -> int:
    return 1 if pose.translation[2] < FLOOR_SPACING / 2 else 2


def test_multifloor_precision_100_at_relaxed_tau(multifloor_runs):
    for result, constraints, _, _ in multifloor_runs:
        gt = result.gt_poses
        cum = cumulative_path_length([p.translation for p in gt])
        assert len(constraints) > 0
        per_floor = {1: 0, 2: 0}
        for c in constraints:
            gap = np.linalg.norm(gt[c.frame_i].translation - gt[c.frame_j].translation)
            travel = cum[c.frame_i] - cum[c.frame_j]
            assert gap < 1.7 and travel > 10.0  # no false constraints in any run
            if _floor_of(gt[c.frame_i]) == _floor_of(gt[c.frame_j]):
                per_floor[_floor_of(gt[c.frame_i])] += 1
        # each revisited corridor (one per floor) closes at least once
        assert per_floor[1] >= 1 and per_floor[2] >= 1
        gtl = label_loop_poses(gt, tau=1.7, min_travel=10.0)
        report = score([(c.frame_i, c.frame_j) for c in constraints], gtl)
        assert report.fp == 0 and report.precision == 1.0


def test_multifloor_trajectory_error_reduction(multifloor_runs):
    wins = 0
    reductions = []
    for result, _, nodes, report in multifloor_runs:
        assert report.final_cost <= report.initial_cost + 1e-12
        err_odom = ate(result.odom_poses, result.gt_poses).mean_error
        err_opt = ate(nodes, result.gt_poses).mean_error
        if err_opt < err_odom:
            wins += 1
        reductions.append(1.0 - err_opt / err_odom)
    assert wins >= 19
    assert float(np.median(reductions)) >= 0.5
    # the same constraints and the same optimized poses, bit for bit, on every seed
    assert_golden("multifloor_runs", run_digests(multifloor_runs))


def _square_pose(k: int) -> Pose:
    """Pose k on an 8 m square ring walked at 1 m steps, 32 poses per lap."""
    side, step = 8, k % 32
    edge, along = divmod(step, side)
    corners = [(0.0, 0.0), (8.0, 0.0), (8.0, 8.0), (0.0, 8.0)]
    headings = [0.0, np.pi / 2, np.pi, -np.pi / 2]
    x0, y0 = corners[edge]
    dx, dy = np.cos(headings[edge]), np.sin(headings[edge])
    rot = np.array(
        [
            [np.cos(headings[edge]), -np.sin(headings[edge]), 0.0],
            [np.sin(headings[edge]), np.cos(headings[edge]), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    return Pose(rot, [x0 + along * dx, y0 + along * dy, 0.0])


def _run_generic_revisit(contents) -> int:
    """Same generic signs seen at frame 2 and (one lap later) frame 34."""
    state = DetectorState()
    spots = [np.array([2.0 + 0.9 * k, 1.2 + 0.3 * k, 1.4]) for k in range(len(contents))]
    constraints = []
    for frame in range(40):
        pose = _square_pose(frame)
        state.add_odometry(0.1 * frame, pose)
        entities = []
        if frame in (2, 34):
            for content, spot in zip(contents, spots):
                entities.append(
                    TextEntity(
                        content=content,
                        category=TextCategory.GENERIC,
                        pose_in_anchor=pose.inverse() @ Pose(np.eye(3), spot),
                        anchor_frame=frame,
                        confidence=0.95,
                    )
                )
        constraints.extend(process_frame(state, frame, entities))
    return len(constraints)


def test_consistent_set_of_three_flips_acceptance():
    assert _run_generic_revisit(["EXIT", "HOSE"]) == 0
    assert _run_generic_revisit(["EXIT", "HOSE", "PUSH"]) >= 1


def _brute_force_labels(positions, tau, min_travel):
    cum = cumulative_path_length(positions)
    partners = []
    for k in range(len(positions)):
        near = []
        for p in range(k):
            close = np.linalg.norm(positions[k] - positions[p]) < tau
            if close and cum[k] - cum[p] > min_travel:
                near.append(p)
        partners.append(tuple(near))
    return tuple(partners)


def test_evaluation_matches_brute_force_and_rigid_invariance():
    for seed in range(10):
        rng = np.random.default_rng([5, seed])
        steps = rng.normal(scale=1.1, size=(150, 3))
        steps[:, 2] *= 0.05
        positions = np.cumsum(steps, axis=0)
        gtl = label_loop_poses(positions, tau=2.0, min_travel=8.0)
        assert gtl.partners == _brute_force_labels(positions, 2.0, 8.0)
        predictions = [(k, gtl.partners[k][0]) for k in loop_pose_indices(gtl)]
        report = score(predictions, gtl)
        assert report.fp == 0 and report.fn == 0
        assert report.tp == len(loop_pose_indices(gtl))

    rng = np.random.default_rng(99)
    gt = [random_pose(rng, max_angle=2.0, max_radius=20.0) for _ in range(60)]
    rigid = random_pose(rng, max_angle=2.0, max_radius=5.0)
    moved = [rigid @ p for p in gt]
    assert ate(moved, gt).mean_error < 1e-9


def test_detect_stage_mean_runtime_under_100ms_per_frame():
    world = build_world("corridor", seed=1)
    route = default_route("corridor", laps=6)
    result = simulate(world, route, default_rig(), NoiseModel(), seed=1)
    assert len(result.stamps) >= 2000
    run = run_detector(result, load_config(None, environ={}))
    assert run.timings.frames == len(result.stamps)
    assert run.timings.per_frame_ms() < 100.0


def test_pipeline_artifacts_byte_identical_across_runs(tmp_path):
    first = cli_pipeline(tmp_path / "a")
    second = cli_pipeline(tmp_path / "b")
    assert first == second
    assert_golden("pipeline_corridor_seed5", first)
