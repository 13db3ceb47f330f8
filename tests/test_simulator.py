"""Tests for the synthetic world generator and sensor simulation."""

import numpy as np
import pytest

import one_row_lie
from helpers import default_rig, placement_entity_pose
from textloop.entities import ExtractionParams, classify_text, compile_id_pattern, extract_entities
from textloop.entities import TextCategory
from textloop.geometry import OutOfRangeFactor, interpolate, stack_poses
from textloop.simulator import (
    CAMERA_OFFSET,
    CONFUSABLE,
    NoiseModel,
    Wall,
    WaypointOutsideWorld,
    World,
    _camera_poses,
    _misread,
    _try_detect,
    build_world,
    default_route,
    route_poses,
    simulate,
    wall_point_grid,
)


def _placement_key(p):
    return (p.content, p.wall_index, p.offset, p.height)


def test_build_world_deterministic():
    a = build_world("corridor", seed=7)
    b = build_world("corridor", seed=7)
    assert [_placement_key(p) for p in a.placements] == [_placement_key(p) for p in b.placements]
    for wa, wb in zip(a.walls, b.walls):
        assert np.array_equal(wa.start, wb.start) and np.array_equal(wa.end, wb.end)


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        build_world("warehouse", seed=0)


def test_placements_stay_inside_walls():
    # the World constructor audits extents, so building is the assertion
    for scenario in ("corridor", "semi_outdoor", "multifloor"):
        for seed in range(100):
            world = build_world(scenario, seed=seed)
            for p in world.placements:
                wall = world.walls[p.wall_index]
                assert p.offset - p.width / 2 >= 0.0
                assert p.offset + p.width / 2 <= wall.length
                assert p.height - p.text_height / 2 >= wall.z_min
                assert p.height + p.text_height / 2 <= wall.z_max


def test_multifloor_generic_layout_repeats_across_floors():
    world = build_world("multifloor", seed=3)
    lower = [p for p in world.placements if p.category is TextCategory.GENERIC and p.wall_index < 8]
    upper = [p for p in world.placements if p.category is TextCategory.GENERIC and p.wall_index >= 8]
    assert len(lower) == 3 and len(upper) == 3
    for a, b in zip(lower, upper):
        assert a.content == b.content
        assert b.wall_index == a.wall_index + 8
        assert b.offset == a.offset
        assert b.height == pytest.approx(a.height + world.floor_spacing, abs=1e-12)
    ids_lower = {p.content for p in world.placements if p.category is TextCategory.ID and p.wall_index < 8}
    ids_upper = {p.content for p in world.placements if p.category is TextCategory.ID and p.wall_index >= 8}
    assert all(c.startswith("F1-") for c in ids_lower)
    assert all(c.startswith("F2-") for c in ids_upper)
    assert {c[3:] for c in ids_lower} == {c[3:] for c in ids_upper}


def test_route_poses_sampling():
    stamps, poses = route_poses(np.array([[0.0, 0.0, 1.2], [4.0, 0.0, 1.2], [4.0, 3.0, 1.2]]))
    assert stamps[1] - stamps[0] == pytest.approx(0.1)
    assert np.allclose(poses[0].translation, [0.0, 0.0, 1.2])
    steps = [
        np.linalg.norm(b.translation - a.translation) for a, b in zip(poses, poses[1:])
    ]
    assert max(steps) < 0.2 + 1e-9
    # heading tracks the segment: +x first, +y after the corner
    assert np.allclose(poses[0].rotation[:, 0], [1.0, 0.0, 0.0])
    assert np.allclose(poses[-1].rotation[:, 0], [0.0, 1.0, 0.0])


def test_route_validation():
    with pytest.raises(ValueError):
        route_poses(np.array([[0.0, 0.0, 0.0]]))
    world = build_world("corridor", seed=0)
    with pytest.raises(WaypointOutsideWorld):
        simulate(world, np.array([[0.0, 0.0, 1.2], [500.0, 0.0, 1.2]]), default_rig())


def test_zero_noise_odometry_equals_ground_truth():
    world = build_world("corridor", seed=1)
    route = np.array([[1.25, 1.25, 1.2], [12.0, 1.25, 1.2]])
    result = simulate(world, route, default_rig(), NoiseModel(), seed=5)
    for gt, od in zip(result.gt_poses, result.odom_poses):
        assert np.array_equal(gt.rotation, od.rotation)
        assert np.array_equal(gt.translation, od.translation)


def test_same_seed_reproduces_run():
    world = build_world("corridor", seed=2)
    route = np.array([[1.25, 1.25, 1.2], [10.0, 1.25, 1.2]])
    noise = NoiseModel(
        odom_sigma=np.array([0.01] * 3 + [0.001] * 3),
        detect_prob=0.7,
        misread_prob=0.3,
        bbox_jitter=0.5,
        cloud_sigma=0.005,
    )
    a = simulate(world, route, default_rig(), noise, seed=9)
    b = simulate(world, route, default_rig(), noise, seed=9)
    for ca, cb in zip(a.clouds, b.clouds):
        assert np.array_equal(ca, cb)
    for (ta, da), (tb, db) in zip(a.camera, b.camera):
        assert ta == tb and len(da) == len(db)
        for x, y in zip(da, db):
            assert x.content == y.content
            assert x.confidence == y.confidence
            assert np.array_equal(x.quad, y.quad)
    for pa, pb in zip(a.odom_poses, b.odom_poses):
        assert np.array_equal(pa.translation, pb.translation)


def test_clouds_are_world_anchored_grids():
    world = build_world("corridor", seed=0)
    route = np.array([[1.25, 1.25, 1.2], [8.0, 1.25, 1.2]])
    result = simulate(world, route, default_rig(), seed=0)
    points, _ = wall_point_grid(world)
    frame = 10
    mapped = result.gt_poses[frame].apply(result.clouds[frame])
    assert len(mapped) > 200
    # every cloud point is one of the world grid points
    from scipy.spatial import cKDTree

    dist, _ = cKDTree(points).query(mapped)
    assert dist.max() < 1e-9


def test_floor_slab_blocks_cross_floor_points():
    world = build_world("multifloor", seed=0)
    route = np.array([[1.25, 1.25, 1.2], [10.0, 1.25, 1.2]])
    result = simulate(world, route, default_rig(), seed=0)
    for frame in range(0, len(result.clouds), 7):
        mapped = result.gt_poses[frame].apply(result.clouds[frame])
        if len(mapped):
            assert mapped[:, 2].max() <= 3.0 + 1e-9


def test_misread_swaps_one_confusable_char():
    rng = np.random.default_rng(0)
    pattern = compile_id_pattern(r"[A-Z]\d-R\d{2}")
    for _ in range(200):
        content = "F1-R03"
        out = _misread(content, rng)
        diff = [k for k in range(len(content)) if content[k] != out[k]]
        assert len(diff) == 1
        k = diff[0]
        assert out[k] == CONFUSABLE[content[k]]
        # a single swap always breaks the room-code shape
        assert classify_text(out, pattern) is TextCategory.GENERIC


def test_detection_gates():
    world = build_world("corridor", seed=1)
    route = np.array([[1.25, 1.25, 1.2], [12.0, 1.25, 1.2]])
    off = simulate(world, route, default_rig(), NoiseModel(detect_prob=0.0), seed=3)
    assert all(len(dets) == 0 for _, dets in off.camera)
    near_blind = simulate(world, route, default_rig(), NoiseModel(max_range=0.3), seed=3)
    assert all(len(dets) == 0 for _, dets in near_blind.camera)


def test_detection_confidence_tracks_range():
    world = build_world("corridor", seed=1)
    route = np.array([[1.25, 1.25, 1.2], [26.0, 1.25, 1.2]])
    rig = default_rig()
    noise = NoiseModel()
    result = simulate(world, route, rig, noise, seed=3)
    centers = {p.content: world.placement_center(p) for p in world.placements}
    checked = 0
    for k, (t_image, dets) in enumerate(result.camera):
        motion = interpolate(result.gt_poses[k].inverse() @ result.gt_poses[k + 1], 0.5)
        cam = result.gt_poses[k] @ motion @ rig.camera_in_lidar
        for det in dets:
            distance = np.linalg.norm(centers[det.content] - cam.translation)
            expected = 1.0 - 0.15 * min(1.0, distance / noise.max_range)
            assert det.confidence == pytest.approx(expected)
            assert 0.85 <= det.confidence <= 1.0
            checked += 1
    assert checked > 10


def test_zero_noise_detections_recover_placement_poses():
    world = build_world("corridor", seed=4)
    route = np.array([[1.25, 1.25, 1.2], [16.0, 1.25, 1.2]])
    rig = default_rig()
    result = simulate(world, route, rig, NoiseModel(), seed=6)
    stamps = list(result.stamps)
    clouds = {k: c for k, c in enumerate(result.clouds)}
    reference = {p.content: placement_entity_pose(world, p) for p in world.placements}
    params = ExtractionParams()
    checked = 0
    for k, (t_image, dets) in enumerate(result.camera):
        if not dets:
            continue
        entities = extract_entities(
            dets, t_image, rig, stamps, result.gt_poses, clouds, params
        )
        for entity in entities:
            anchor = entity.anchor_frame
            world_pose = result.gt_poses[anchor] @ entity.pose_in_anchor
            expected = reference[entity.content]
            assert np.allclose(world_pose.translation, expected.translation, atol=1e-9)
            assert np.allclose(world_pose.rotation, expected.rotation, atol=1e-9)
            checked += 1
        if checked >= 8:
            break
    assert checked >= 8


def test_translation_drift_follows_random_walk():
    world = build_world("corridor", seed=0)
    route = np.array([[1.25, 1.25, 1.2], [25.0, 1.25, 1.2]])
    sigma = 0.01
    noise = NoiseModel(odom_sigma=np.array([sigma] * 3 + [0.0] * 3))
    finals = []
    for seed in range(30):
        result = simulate(world, route, default_rig(), noise, seed=seed)
        finals.append(result.odom_poses[-1].translation - result.gt_poses[-1].translation)
    finals = np.array(finals)
    steps = len(result.gt_poses) - 1
    expected = sigma * np.sqrt(steps)
    observed = finals.std(axis=0)
    # sample std over 30 runs: allow a wide but bounded band around sqrt(N) * sigma
    assert np.all(observed > 0.45 * expected)
    assert np.all(observed < 1.6 * expected)


def test_default_routes_within_worlds():
    for scenario in ("corridor", "semi_outdoor", "multifloor"):
        world = build_world(scenario, seed=0)
        route = default_route(scenario, laps=1 if scenario != "multifloor" else 2)
        stamps, poses = route_poses(route)
        assert len(poses) > 100
        lo, hi, z_lo, z_hi = world.bounds()
        for waypoint in route:
            assert lo[0] <= waypoint[0] <= hi[0] and lo[1] <= waypoint[1] <= hi[1]
            assert z_lo <= waypoint[2] <= z_hi


def test_wall_geometry_cached_read_only_and_bit_exact():
    wall = Wall(start=[1.0, 2.0], end=[4.5, -3.25], z_min=0.0, z_max=3.0)
    delta = np.array([4.5, -3.25]) - np.array([1.0, 2.0])
    length = float(np.linalg.norm(delta))
    direction = delta / length
    assert wall.length == length
    assert wall.direction.tobytes() == direction.tobytes()
    assert wall.normal.tobytes() == np.array([-direction[1], direction[0]]).tobytes()
    assert wall.direction is wall.direction and wall.normal is wall.normal
    for cached in (wall.direction, wall.normal):
        with pytest.raises(ValueError):
            cached[0] = 0.0


def _per_frame_loops(result, noise, seed):
    """simulate's odometry and camera loops as they ran one frame at a time.

    A frozen copy, on the one-pose functions of one_row_lie: the oracle for
    the stacked odometry draw and the stacked camera interpolation.
    """
    stamps, gt, rig = result.stamps, result.gt_poses, result.rig
    rng_odom = np.random.default_rng([seed, 11])
    rng_detect = np.random.default_rng([seed, 17])
    odom = [gt[0]]
    for k in range(1, len(gt)):
        increment = gt[k - 1].inverse() @ gt[k]
        twist = rng_odom.standard_normal(6) * noise.odom_sigma
        odom.append(odom[-1] @ increment @ one_row_lie.exp_map(twist))
    cam_poses, camera = [], []
    for k in range(len(gt) - 1):
        t_image = float(stamps[k]) + CAMERA_OFFSET
        factor = (t_image - stamps[k]) / (stamps[k + 1] - stamps[k])
        motion = one_row_lie.interpolate(gt[k].inverse() @ gt[k + 1], factor)
        cam_pose = gt[k] @ motion @ rig.camera_in_lidar
        detections = []
        for placement in result.world.placements:
            det = _try_detect(
                result.world, placement, cam_pose, rig.intrinsics, noise, rng_detect, t_image
            )
            if det is not None:
                detections.append(det)
        cam_poses.append(cam_pose)
        camera.append((t_image, detections))
    return odom, cam_poses, camera


def _first_pose_that_differs(got, expected):
    assert len(got) == len(expected)
    for k, (a, b) in enumerate(zip(got, expected)):
        if not np.array_equal(a.rotation, b.rotation) or not np.array_equal(a.translation, b.translation):
            return k
    return None


def _detection_bits(camera):
    return [
        (t, [(d.content, d.confidence, d.quad.tobytes(), d.timestamp) for d in dets])
        for t, dets in camera
    ]


def test_stacked_odometry_and_camera_poses_match_per_frame_loops_bitwise():
    # rotation sigma near _SMALL_ANGLE puts odometry twists on both sides of
    # the series switch; straight runs and corners do the same for camera steps
    noise = NoiseModel(odom_sigma=np.array([0.01, 0.01, 0.002, 6e-5, 6e-5, 6e-5]), bbox_jitter=0.5)
    world, route = build_world("corridor", seed=2), default_route("corridor", laps=1)
    result = simulate(world, route, default_rig(), noise, seed=5)
    odom, cam_poses, camera = _per_frame_loops(result, noise, seed=5)
    k = _first_pose_that_differs(result.odom_poses, odom)
    assert k is None, f"odom pose {k} of {len(odom)} differs from the per-frame loop"
    gt = result.gt_poses
    steps = stack_poses([gt[k].inverse() @ gt[k + 1] for k in range(len(gt) - 1)])
    t_images, stacked = _camera_poses(result.stamps, gt, steps, result.rig.camera_in_lidar)
    k = _first_pose_that_differs(list(stacked), cam_poses)
    assert k is None, f"camera pose {k} of {len(cam_poses)} differs from the per-frame loop"
    assert t_images == [t for t, _ in camera]
    assert _detection_bits(result.camera) == _detection_bits(camera)


@pytest.mark.parametrize("rate", [20.0, 30.0])
def test_simulate_raises_when_an_image_stamp_leaves_its_frame_interval(rate):
    # 20 Hz is the first rate the config rejects: 0.05 s after a frame is
    # already past the next one for some frames there
    world = build_world("corridor", seed=0)
    with pytest.raises(OutOfRangeFactor):
        simulate(world, default_route("corridor", laps=1), default_rig(), rate=rate)
