"""Tests for the synthetic world generator and sensor simulation."""

import re

import numpy as np
import pytest

import one_row_lie
import one_row_sim
from helpers import ACCEPT_NOISE, default_rig, placement_entity_pose
from textloop.entities import ExtractionParams, classify_text, compile_id_pattern, extract_entities
from textloop.entities import TextCategory
from textloop.geometry import (
    CameraIntrinsics,
    OutOfRangeFactor,
    Pose,
    interpolate,
    relative_stacked,
    stack_poses,
)
from textloop.simulator import (
    CAMERA_OFFSET,
    CONFUSABLE,
    LIDAR_RANGE,
    SCENARIOS,
    NoiseModel,
    Placement,
    Wall,
    WaypointOutsideWorld,
    World,
    _camera_poses,
    _clouds,
    _detections,
    _misread,
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
    t_images, cam_poses = [], []
    for k in range(len(gt) - 1):
        t_image = float(stamps[k]) + CAMERA_OFFSET
        factor = (t_image - stamps[k]) / (stamps[k + 1] - stamps[k])
        motion = one_row_lie.interpolate(gt[k].inverse() @ gt[k + 1], factor)
        t_images.append(t_image)
        cam_poses.append(gt[k] @ motion @ rig.camera_in_lidar)
    camera = one_row_sim.camera(
        result.world, t_images, cam_poses, rig.intrinsics, noise, rng_detect
    )
    return odom, cam_poses, camera


def _first_pose_that_differs(got, expected):
    assert len(got) == len(expected)
    for k, (a, b) in enumerate(zip(got, expected)):
        if not np.array_equal(a.rotation, b.rotation) or not np.array_equal(a.translation, b.translation):
            return k
    return None


def _unstack(poses) -> list:
    return [Pose(r, t) for r, t in zip(*poses)]


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
    t_images, stacked = _camera_poses(
        result.stamps, stack_poses(gt), steps, result.rig.camera_in_lidar
    )
    k = _first_pose_that_differs(_unstack(stacked), cam_poses)
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


@pytest.mark.parametrize(
    "values, message",
    [
        ({"max_range": np.nan}, "max_range must be non-negative, got nan"),
        ({"max_range": -0.5}, "max_range must be non-negative, got -0.5"),
        ({"max_incidence": np.nan}, "max_incidence must be non-negative, got nan"),
        ({"max_incidence": -0.5}, "max_incidence must be non-negative, got -0.5"),
        ({"odom_sigma": [0.0] * 5 + [np.nan]}, "noise sigmas must be non-negative"),
        ({"bbox_jitter": np.nan}, "noise sigmas must be non-negative"),
        ({"cloud_sigma": np.nan}, "noise sigmas must be non-negative"),
        ({"cloud_sigma": -0.1}, "noise sigmas must be non-negative"),
    ],
)
def test_noise_model_rejects_nan_or_negative_values(values, message):
    # a NaN compares False, so it would turn a detection gate off
    with pytest.raises(ValueError, match=re.escape(message)):
        NoiseModel(**values)


HEAVY_NOISE = NoiseModel(
    odom_sigma=np.array([0.01] * 3 + [0.002] * 3),
    detect_prob=0.7,
    misread_prob=0.3,
    bbox_jitter=2.0,
    cloud_sigma=0.01,
    max_range=11.0,
    max_incidence=1.5,
)
ORACLE_NOISES = {"default": NoiseModel(), "demo": ACCEPT_NOISE, "heavy": HEAVY_NOISE}


def _cloud_bits(clouds):
    return [(c.shape, c.tobytes()) for c in clouds]


@pytest.mark.parametrize("noise", ORACLE_NOISES.values(), ids=ORACLE_NOISES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_sensor_loops_match_one_row_oracle_bitwise(scenario, noise):
    world = build_world(scenario, seed=3)
    route = default_route(scenario, laps=1)
    if scenario == "multifloor":
        route = route[:9]  # the lower lap, the ramp and a side of the upper floor
    result = simulate(world, route, default_rig(), noise, seed=3)
    gt, rig = result.gt_poses, result.rig
    clouds = one_row_sim.clouds(world, gt, noise, np.random.default_rng([3, 13]))
    assert _cloud_bits(result.clouds) == _cloud_bits(clouds)
    poses = stack_poses(gt)
    k = np.arange(len(gt) - 1)
    steps = relative_stacked(*poses, k, k + 1)
    t_images, cam_poses = _camera_poses(result.stamps, poses, steps, rig.camera_in_lidar)
    got_rng, want_rng = np.random.default_rng([3, 17]), np.random.default_rng([3, 17])
    got = _detections(world, t_images, cam_poses, rig.intrinsics, noise, got_rng)
    camera = one_row_sim.camera(
        world, t_images, _unstack(cam_poses), rig.intrinsics, noise, want_rng
    )
    assert _detection_bits(result.camera) == _detection_bits(camera)
    assert _detection_bits(got) == _detection_bits(camera)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert sum(len(dets) for _, dets in camera) > 0


def _crossing(flips, lo: float, hi: float) -> tuple[float, float]:
    """Adjacent floats between lo and hi on either side of where flips(x) changes."""
    assert flips(lo) != flips(hi)
    while (mid := (lo + hi) / 2) not in (lo, hi):
        if flips(mid) == flips(lo):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _floats_around(lo: float, hi: float, n: int = 3) -> list[float]:
    """The 2n + 2 consecutive floats from n before lo to n after hi, lo and hi adjacent."""
    ahead = np.inf if hi > lo else -np.inf
    x = lo
    for _ in range(n):
        x = np.nextafter(x, -ahead)
    out = []
    for _ in range(2 * n + 2):
        out.append(float(x))
        x = np.nextafter(x, ahead)
    return out


# one sign facing +y, centered at (2, 0, 1.4), and cameras in front of it
SIGN_WORLD = World(
    walls=(Wall(start=[0.0, 0.0], end=[4.0, 0.0], z_min=0.0, z_max=3.0),),
    placements=(Placement("A1-R01", TextCategory.ID, wall_index=0, offset=2.0, height=1.4),),
)
SIGN_CENTER = np.array([2.0, 0.0, 1.4])
FACING_SIGN = np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, -1.0, 0.0]])


def _looking_at(position, target) -> Pose:
    """Camera at position with its optical axis on target and its x axis level."""
    forward = (target - position) / np.linalg.norm(target - position)
    right = np.cross(forward, [0.0, 0.0, 1.0])
    right /= np.linalg.norm(right)
    return Pose(np.column_stack([right, np.cross(forward, right), forward]), position)


WIDE = CameraIntrinsics(100.0, 100.0, 320.0, 240.0)
# gate: (noise, intrinsics, camera pose at parameter s, an s inside, an s outside)
GATE_FAMILIES = {
    "max_range": (
        NoiseModel(max_range=3.0),
        None,
        lambda s: _looking_at(SIGN_CENTER + [0.0, s, 0.0], SIGN_CENTER),
        2.5,
        3.5,
    ),
    "max_incidence": (
        NoiseModel(max_incidence=1.0),
        None,
        lambda a: _looking_at(SIGN_CENTER + 3.0 * np.array([np.sin(a), np.cos(a), 0]), SIGN_CENTER),
        0.8,
        1.2,
    ),
    "slab": (
        NoiseModel(),
        WIDE,
        lambda s: _looking_at(SIGN_CENTER + [0.0, 3.0, s], SIGN_CENTER),
        2.0,
        3.0,
    ),
    "corner_depth": (
        NoiseModel(),
        WIDE,
        lambda s: Pose(FACING_SIGN, SIGN_CENTER + [0.0, s, 0.0]),
        0.25,
        0.15,
    ),
    "image_border_u": (
        NoiseModel(),
        None,
        lambda s: Pose(FACING_SIGN, SIGN_CENTER + [s, 3.0, 0.0]),
        0.0,
        3.5,
    ),
    "image_border_v": (
        NoiseModel(),
        None,
        lambda s: Pose(FACING_SIGN, SIGN_CENTER + [0.0, 3.0, s]),
        0.0,
        2.4,
    ),
    "image_border_u_low": (
        NoiseModel(),
        None,
        lambda s: Pose(FACING_SIGN, SIGN_CENTER + [s, 3.0, 0.0]),
        0.0,
        -3.5,
    ),
    "image_border_v_low": (
        NoiseModel(),
        None,
        lambda s: Pose(FACING_SIGN, SIGN_CENTER + [0.0, 3.0, s]),
        0.0,
        -2.4,
    ),
}


@pytest.mark.parametrize("gate", GATE_FAMILIES)
def test_pre_gate_keeps_every_pair_at_a_detection_gate_boundary(gate):
    # cameras a few ulps either side of the bound: those inside draw from
    # the rng, those outside do not, and the stacked gates must pass
    # exactly the first
    noise, intrinsics, pose_at, inside, outside = GATE_FAMILIES[gate]
    intrinsics = intrinsics or default_rig().intrinsics

    def draws(s):
        rng = np.random.default_rng(0)
        one_row_sim.camera(SIGN_WORLD, [0.0], [pose_at(s)], intrinsics, noise, rng)
        return rng.bit_generator.state != np.random.default_rng(0).bit_generator.state

    family = _floats_around(*_crossing(draws, inside, outside))
    assert len(set(map(draws, family))) == 2
    poses = [pose_at(s) for s in family]
    t_images = [0.1 * k for k in range(len(poses))]
    got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = _detections(SIGN_WORLD, t_images, stack_poses(poses), intrinsics, noise, got_rng)
    want = one_row_sim.camera(SIGN_WORLD, t_images, poses, intrinsics, noise, want_rng)
    assert _detection_bits(got) == _detection_bits(want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_lidar_masks_match_one_row_oracle_at_range_and_facing_boundaries():
    # sensors placed so that one grid point sits a few ulps either side of
    # LIDAR_RANGE, from a spread of directions; then sensors a few ulps
    # either side of a wall's plane, where its points stop facing them
    world = build_world("corridor", seed=0)
    points, normals = wall_point_grid(world)
    rng = np.random.default_rng(4)
    positions = []
    for k in rng.choice(len(points), size=40, replace=False):
        direction = normals[k] + [*rng.uniform(-0.3, 0.3, size=2), rng.uniform(-0.15, 0.15)]
        direction /= np.linalg.norm(direction)

        def outside(s, k=k, direction=direction):
            rel = points[k : k + 1] - (points[k] + s * direction)
            return bool(np.linalg.norm(rel, axis=1)[0] > LIDAR_RANGE)

        family = _floats_around(*_crossing(outside, 8.5, 9.5))
        positions += [points[k] + s * direction for s in family]
    # the outer wall from (0, 0) to (30, 0) lies in the plane y = 0
    positions += [np.array([6.0, s, 1.2]) for s in _floats_around(0.0, 5e-324)]
    gt = [Pose(np.eye(3), position) for position in positions]
    got = _clouds(world, gt, NoiseModel(), np.random.default_rng(0))
    want = one_row_sim.clouds(world, gt, NoiseModel(), np.random.default_rng(0))
    assert _cloud_bits(got) == _cloud_bits(want)
