"""Tests for rigid-transform and projection primitives."""

from __future__ import annotations

import numpy as np
import pytest

import one_row_lie
from helpers import default_rig, poses_close, random_pose
from textloop.geometry import (
    CameraIntrinsics,
    GeometryError,
    NearPiRotation,
    NegativeDepth,
    OutOfRangeFactor,
    PixelPoint,
    PlaneParams,
    Pose,
    RayParallelToPlane,
    _so3_exp_stacked,
    _so3_log_stacked,
    _v_matrix_inverse_stacked,
    _v_matrix_stacked,
    adjoint,
    backproject,
    depth_from_plane,
    exp_map,
    exp_map_stacked,
    interpolate,
    kabsch,
    log_map,
    log_map_stacked,
    project_array,
    quaternion_to_rotation,
    rotation_to_quaternion,
    relative_stacked,
    se3_right_jacobian_inverse,
    stack_poses,
)
from textloop.logio import parse_pose
from textloop.simulator import NoiseModel, build_world, default_route, simulate

IDENTITY_K = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0)
WALL_PLANE = PlaneParams(normal=[0.0, 0.0, -1.0], offset=5.0)

# interpolate(T, s) for T = (yaw pi/2, t = [2, 0, 1]), frozen from the fractional
# matrix power of the homogeneous matrix (scipy.linalg.fractional_matrix_power)
FRAC_POWER_HALF_R = np.array(
    [
        [0.7071067811865477, -0.7071067811865475, 0.0],
        [0.7071067811865479, 0.7071067811865477, 0.0],
        [0.0, 0.0, 1.0],
    ]
)
FRAC_POWER_HALF_T = np.array([1.0000000000000002, -0.4142135623730951, 0.5])
FRAC_POWER_QUARTER_T = np.array([0.45880389985380293, -0.3065629648763765, 0.25])

# log of the same T, frozen from scipy.linalg.logm of the homogeneous matrix
LOGM_RHO = np.array([1.5707963267948966, -1.5707963267948966, 1.0])


def _yaw_pose() -> Pose:
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    return Pose(rot, [2.0, 0.0, 1.0])


def test_project_center_pixel():
    uv, valid = project_array(IDENTITY_K, [0.0, 0.0, 5.0])
    assert valid.tolist() == [True] and uv.tolist() == [[0.0, 0.0]]


def test_project_rejects_non_positive_depth():
    _, valid = project_array(IDENTITY_K, [[0.0, 0.0, 0.0], [1.0, 1.0, -2.0]])
    assert valid.tolist() == [False, False]


def test_depth_from_plane_head_on():
    assert depth_from_plane(IDENTITY_K, WALL_PLANE, PixelPoint(0.0, 0.0)) == pytest.approx(5.0)


def test_backproject_by_substitution():
    # ray [2, 1, 1] meets z = 5 at depth 5, so the point is [10, 5, 5]
    point = backproject(IDENTITY_K, WALL_PLANE, PixelPoint(2.0, 1.0))
    np.testing.assert_allclose(point, [10.0, 5.0, 5.0], atol=1e-12)


def test_backproject_lands_on_plane():
    rng = np.random.default_rng(3)
    intr = CameraIntrinsics(fx=458.0, fy=461.5, cx=320.25, cy=239.5)
    for _ in range(200):
        normal = rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        point_on_plane = rng.uniform(-2.0, 2.0, size=3) + [0.0, 0.0, 6.0]
        plane = PlaneParams(normal, -float(normal @ point_on_plane))
        pixel = PixelPoint(rng.uniform(0, 640), rng.uniform(0, 480))
        try:
            point = backproject(intr, plane, pixel)
        except (RayParallelToPlane, NegativeDepth):
            continue
        assert abs(point @ plane.normal + plane.offset) < 1e-9
        u, v = project_array(intr, point)[0][0]
        assert abs(u - pixel.u) < 1e-7 and abs(v - pixel.v) < 1e-7


def test_depth_from_plane_parallel_ray():
    plane = PlaneParams(normal=[1.0, 0.0, 0.0], offset=-1.0)
    with pytest.raises(RayParallelToPlane):
        depth_from_plane(IDENTITY_K, plane, PixelPoint(0.0, 0.0))


def test_depth_from_plane_behind_camera():
    plane = PlaneParams(normal=[0.0, 0.0, -1.0], offset=-5.0)
    with pytest.raises(NegativeDepth):
        depth_from_plane(IDENTITY_K, plane, PixelPoint(0.0, 0.0))


def test_project_array_matches_scalar():
    rng = np.random.default_rng(11)
    intr = CameraIntrinsics(fx=400.0, fy=400.0, cx=320.0, cy=240.0)
    pts = rng.uniform(-1.0, 1.0, size=(50, 3)) + [0.0, 0.0, 4.0]
    # a point on the camera plane and one behind it are not projected
    pts[7, 2], pts[31, 2] = 0.0, -2.0
    uv, valid = project_array(intr, pts)
    assert np.flatnonzero(~valid).tolist() == [7, 31]
    for i in np.flatnonzero(valid):
        x, y, z = (float(c) for c in pts[i])
        assert uv[i].tolist() == [400.0 * x / z + 320.0, 400.0 * y / z + 240.0]


def test_exp_map_pure_yaw():
    pose = exp_map([0.0, 0.0, 0.0, 0.0, 0.0, np.pi / 2])
    expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(pose.rotation, expected, atol=1e-15)
    np.testing.assert_allclose(pose.translation, 0.0, atol=1e-15)


def test_exp_map_zero_is_identity():
    pose = exp_map(np.zeros(6))
    assert poses_close(pose, Pose.identity(), tol=1e-16)


def test_log_map_against_matrix_log():
    xi = log_map(_yaw_pose())
    np.testing.assert_allclose(xi[:3], LOGM_RHO, atol=1e-12)
    np.testing.assert_allclose(xi[3:], [0.0, 0.0, np.pi / 2], atol=1e-12)


def test_exp_log_round_trip():
    # the log is canonical, so sample rotation magnitudes below pi
    rng = np.random.default_rng(17)
    for _ in range(300):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        xi = np.concatenate(
            [rng.uniform(-5.0, 5.0, size=3), rng.uniform(0.0, np.pi - 1e-3) * axis]
        )
        pose = exp_map(xi)
        np.testing.assert_allclose(log_map(pose), xi, atol=1e-10)


def test_exp_log_round_trip_small_and_near_pi_angles():
    rng = np.random.default_rng(23)
    for angle in (1e-12, 1e-9, 1e-5, 3.0, np.pi - 1e-4, np.pi - 1e-6):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        xi = np.concatenate([rng.uniform(-2.0, 2.0, size=3), angle * axis])
        back = log_map(exp_map(xi))
        np.testing.assert_allclose(back, xi, atol=1e-9)


def test_log_map_rejects_pi_rotation():
    rot = np.diag([1.0, -1.0, -1.0])  # rotation by pi about x
    with pytest.raises(NearPiRotation):
        log_map(Pose(rot, np.zeros(3)))


def test_interpolate_endpoints_exact():
    pose = _yaw_pose()
    start = interpolate(pose, 0.0)
    end = interpolate(pose, 1.0)
    assert poses_close(start, Pose.identity(), tol=1e-12)
    assert poses_close(end, pose, tol=1e-12)


def test_interpolate_half_translation():
    pose = Pose(np.eye(3), [2.0, 0.0, 0.0])
    mid = interpolate(pose, 0.5)
    np.testing.assert_allclose(mid.translation, [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(mid.rotation, np.eye(3), atol=1e-15)


def test_interpolate_matches_fractional_matrix_power():
    pose = _yaw_pose()
    half = interpolate(pose, 0.5)
    np.testing.assert_allclose(half.rotation, FRAC_POWER_HALF_R, atol=1e-12)
    np.testing.assert_allclose(half.translation, FRAC_POWER_HALF_T, atol=1e-12)
    quarter = interpolate(pose, 0.25)
    np.testing.assert_allclose(quarter.translation, FRAC_POWER_QUARTER_T, atol=1e-12)


def test_interpolate_is_constant_twist():
    rng = np.random.default_rng(29)
    pose = random_pose(rng)
    a = interpolate(pose, 0.3)
    b = interpolate(pose, 0.8)
    gap = a.inverse() @ b
    np.testing.assert_allclose(log_map(gap), 0.5 * log_map(pose), atol=1e-9)


def test_interpolate_rejects_out_of_range():
    pose = _yaw_pose()
    for s in (-0.1, 1.0001, 5.0):
        with pytest.raises(OutOfRangeFactor):
            interpolate(pose, s)


def test_compose_inverse_identity():
    rng = np.random.default_rng(31)
    for _ in range(50):
        pose = random_pose(rng)
        assert poses_close(pose @ pose.inverse(), Pose.identity(), tol=1e-12)
        assert poses_close(pose.inverse() @ pose, Pose.identity(), tol=1e-12)


@pytest.mark.parametrize(
    "shape, order",
    [((0, 3), "C"), ((1, 3), "C"), ((257, 3), "C"), ((257, 3), "F"), ((4, 6, 3), "C"), ((3,), "C")],
    ids=str,
)
def test_pose_apply_bit_equal_to_broadcast_add(shape, order):
    rng = np.random.default_rng(41)
    pose = random_pose(rng, max_radius=50.0)
    points = np.asarray(rng.normal(scale=20.0, size=shape), order=order)
    if points.ndim == 1:
        expected = pose.rotation @ points + pose.translation
    else:
        expected = points @ pose.rotation.T + pose.translation
    moved = pose.apply(points)
    assert moved.shape == expected.shape and moved.tobytes() == expected.tobytes()


def test_transform_point_batch_matches_single():
    rng = np.random.default_rng(37)
    pose = random_pose(rng)
    pts = rng.normal(size=(20, 3))
    batch = pose.apply(pts)
    for i in range(len(pts)):
        np.testing.assert_allclose(batch[i], pose.apply(pts[i]), atol=1e-14)


def test_quaternion_round_trip():
    rng = np.random.default_rng(41)
    for _ in range(200):
        rot = random_pose(rng).rotation
        q = rotation_to_quaternion(rot)
        assert q[0] >= 0.0
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12
        np.testing.assert_allclose(quaternion_to_rotation(q), rot, atol=1e-12)


def test_quaternion_against_reference():
    # rotation by 1.234 rad about a seeded axis, frozen from scipy Rotation
    rot = np.array(
        [
            [0.33047127096577755, 0.6396188673132739, 0.694029137459767],
            [-0.6366255216727374, 0.6939355025925936, -0.33639480286782003],
            [-0.6967759210974348, -0.3306678436413935, 0.6365234425850884],
        ]
    )
    expected = np.array(
        [0.8156178970791806, 0.00175540508825745, 0.4263041135861017, -0.3911894263099136]
    )
    np.testing.assert_allclose(rotation_to_quaternion(rot), expected, atol=1e-12)


def test_pose_json_round_trip():
    rng = np.random.default_rng(43)
    for _ in range(20):
        pose = random_pose(rng)
        again = parse_pose(pose.to_json(), line=1)
        assert poses_close(again, pose, tol=1e-12)


def test_adjoint_conjugation_identity():
    rng = np.random.default_rng(47)
    for _ in range(30):
        pose = random_pose(rng, max_angle=2.0)
        xi = rng.uniform(-0.5, 0.5, size=6)
        lhs = log_map(pose @ exp_map(xi) @ pose.inverse())
        np.testing.assert_allclose(lhs, adjoint(pose.rotation, pose.translation) @ xi, atol=1e-9)


def test_right_jacobian_inverse_matches_finite_differences():
    rng = np.random.default_rng(53)
    eps = 1e-6
    for _ in range(20):
        xi = rng.uniform(-1.0, 1.0, size=6)
        xi[3:] *= rng.uniform(0.1, 2.0)
        base = exp_map(xi)
        analytic = se3_right_jacobian_inverse(xi)
        numeric = np.zeros((6, 6))
        for col in range(6):
            delta = np.zeros(6)
            delta[col] = eps
            plus = log_map(base @ exp_map(delta))
            minus = log_map(base @ exp_map(-delta))
            numeric[:, col] = (plus - minus) / (2.0 * eps)
        assert np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric) < 1e-5


def _rotation_vectors(rng):
    """Random, tiny (series branch), zero and near-pi (log fallback band) rotation vectors."""
    axes = rng.normal(size=(400, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    angles = np.concatenate(
        [
            rng.uniform(0.0, 3.0, size=100),
            10.0 ** rng.uniform(-9.0, -4.0, size=100),
            np.pi - 10.0 ** rng.uniform(-6.0, -3.0, size=100),
            rng.uniform(1e-4, 2e-4, size=100),
        ]
    )
    thetas = angles[:, None] * axes
    thetas[0] = 0.0
    return thetas


def test_stacked_so3_and_v_matrices_match_one_row_functions_bitwise():
    thetas = _rotation_vectors(np.random.default_rng(59))
    pairs = (
        (_so3_exp_stacked, one_row_lie.so3_exp),
        (_v_matrix_stacked, one_row_lie.v_matrix),
        (_v_matrix_inverse_stacked, one_row_lie.v_matrix_inverse),
    )
    for stacked, one_row in pairs:
        got = stacked(thetas)
        assert got.shape == (len(thetas), 3, 3)
        for row, theta in zip(got, thetas):
            assert np.array_equal(row, one_row(theta))
    rotations = _so3_exp_stacked(thetas)
    logs = _so3_log_stacked(rotations)
    for row, rot in zip(logs, rotations):
        assert np.array_equal(row, one_row_lie.so3_log(rot))
    # leading axes beyond one
    assert np.array_equal(_so3_log_stacked(rotations.reshape(20, 20, 3, 3)), logs.reshape(20, 20, 3))


def test_one_pose_exp_log_interpolate_match_one_row_functions_bitwise():
    rng = np.random.default_rng(61)
    thetas = _rotation_vectors(rng)
    twists = np.concatenate([rng.uniform(-5.0, 5.0, size=thetas.shape), thetas], axis=1)
    for xi in twists:
        pose = exp_map(xi)
        expected = one_row_lie.exp_map(xi)
        assert np.array_equal(pose.rotation, expected.rotation)
        assert np.array_equal(pose.translation, expected.translation)
        assert np.array_equal(log_map(pose), one_row_lie.log_map(pose))
        factor = rng.uniform(0.0, 1.0)
        mid, expected = interpolate(pose, factor), one_row_lie.interpolate(pose, factor)
        assert np.array_equal(mid.rotation, expected.rotation)
        assert np.array_equal(mid.translation, expected.translation)


def test_stacked_so3_log_raises_for_first_row_at_pi():
    rotations = _so3_exp_stacked(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, np.pi], [0.0, np.pi, 0.0]]))
    with pytest.raises(NearPiRotation) as expected:
        one_row_lie.so3_log(rotations[1])
    with pytest.raises(NearPiRotation) as got:
        _so3_log_stacked(rotations)
    assert str(got.value) == str(expected.value)


def test_log_map_stacked_takes_one_bare_pose():
    # below _SMALL_ANGLE, in between, and in the 1e-3 band below pi
    for angle in (0.0, 3e-5, 0.7, 2.9, np.pi - 5e-4):
        rotation, translation = exp_map_stacked(np.array([1.0, -2.0, 0.5, 0.0, angle, 0.0]))
        assert rotation.shape == (3, 3) and translation.shape == (3,)
        got = log_map_stacked(rotation, translation)
        assert got.shape == (6,)
        assert np.array_equal(got, log_map_stacked(rotation[None], translation[None])[0])
    flip = exp_map_stacked(np.array([0.0, 0.0, 0.0, 0.0, 0.0, np.pi]))
    with pytest.raises(NearPiRotation) as expected:
        log_map_stacked(flip[0][None], flip[1][None])
    with pytest.raises(NearPiRotation) as got:
        log_map_stacked(*flip)
    assert str(got.value) == str(expected.value)


def _assert_relative_matches_one_row(poses, i, j):
    rotations, translations = relative_stacked(*stack_poses(poses), i, j)
    assert rotations.flags.c_contiguous and translations.flags.c_contiguous
    for k, (rotation, translation) in enumerate(zip(rotations, translations)):
        step = poses[i[k]].inverse() @ poses[j[k]]
        assert np.array_equal(rotation, step.rotation), f"row {k} rotation"
        assert np.array_equal(translation, step.translation), f"row {k} translation"


def _steps(poses):
    k = np.arange(len(poses) - 1)
    return k, k + 1


def test_relative_stacked_matches_one_row_inverse_compose_bitwise():
    rng = np.random.default_rng(73)
    poses = [random_pose(rng, max_angle=np.pi - 1e-6, max_radius=50.0) for _ in range(200)]
    # near-identity steps: each pose a tiny twist past the one before it
    for scale in (1e-9, 1e-5, 1e-2):
        for _ in range(50):
            twist = rng.normal(scale=scale, size=6)
            poses.append(poses[-1] @ one_row_lie.exp_map(twist))
    _assert_relative_matches_one_row(poses, *_steps(poses))
    pairs = rng.integers(0, len(poses), size=(500, 2))
    _assert_relative_matches_one_row(poses, *pairs.T)
    shapes = [a.shape for a in relative_stacked(*stack_poses(poses[:1]), *_steps(poses[:1]))]
    assert shapes == [(0, 3, 3), (0, 3)]


def test_relative_stacked_steps_match_one_row_on_noisy_odometry():
    noise = NoiseModel(odom_sigma=np.array([0.01] * 3 + [0.002] * 3))
    world = build_world("corridor", seed=2)
    result = simulate(world, default_route("corridor", laps=1), default_rig(), noise, seed=2)
    assert len(result.odom_poses) > 100
    _assert_relative_matches_one_row(result.odom_poses, *_steps(result.odom_poses))


def test_plane_params_normalizes_input():
    plane = PlaneParams(normal=[0.0, 0.0, -2.0], offset=10.0)
    np.testing.assert_allclose(plane.normal, [0.0, 0.0, -1.0])
    assert plane.offset == pytest.approx(5.0)
    with pytest.raises(ValueError):
        PlaneParams(normal=[0.0, 0.0, 0.0], offset=1.0)


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=-1.0, fy=1.0, cx=0.0, cy=0.0)


def test_kabsch_rejects_an_overflowing_cross_covariance():
    # LAPACK's SVD can loop without end on an infinity, so kabsch must not call it
    source = np.array([[0.0, 0.0, 0.0], [1e308, 0.0, 0.0], [0.0, 1e308, 0.0]])
    with pytest.raises(GeometryError, match="overflows"):
        kabsch(source, source)
