"""Tests for text entity extraction."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from helpers import poses_close
from textloop import entities as entities_module
from textloop.entities import (
    CalibratedRig,
    DegenerateEdge,
    DegenerateSample,
    EmptyWindow,
    ExtractionError,
    ExtractionParams,
    InvalidPattern,
    LowInlierRatio,
    RansacParams,
    TextCategory,
    TextDetection,
    TooFewPoints,
    UnbracketedTimestamp,
    accumulate_local_cloud,
    classify_text,
    extract_entities,
    fit_plane_ransac,
    make_entity_pose,
    normalize_content,
    points_in_region,
    pose_at_image_time,
)
from textloop.geometry import CameraIntrinsics, PlaneParams, Pose, project_array

K100 = CameraIntrinsics(fx=100.0, fy=100.0, cx=0.0, cy=0.0)
# classification runs on normalized (uppercased) content
ROOM_CODE_PATTERN = r"[A-Z]\d-[A-Z]\d[A-Z]?-\d{1,3}"


def _translation(x, y=0.0, z=0.0) -> Pose:
    return Pose(np.eye(3), [x, y, z])


def test_normalize_content():
    assert normalize_content("  exit \n") == "EXIT"
    assert normalize_content("s1-b4c-14") == "S1-B4C-14"


def test_classify_room_code_as_id():
    assert classify_text("S1-B4c-14", ROOM_CODE_PATTERN) is TextCategory.ID
    assert classify_text("EXIT", ROOM_CODE_PATTERN) is TextCategory.GENERIC
    # a one-character misread must not collide with the original key
    assert classify_text("EX1T", ROOM_CODE_PATTERN) is TextCategory.GENERIC


def test_classify_requires_full_match():
    assert classify_text("S1-B4c-14 HALLWAY", ROOM_CODE_PATTERN) is TextCategory.GENERIC


def test_invalid_pattern_raises():
    with pytest.raises(InvalidPattern):
        classify_text("EXIT", "[unclosed")


def test_accumulate_local_cloud_reexpresses_in_newest_frame():
    pts_a = np.array([[0.0, 0.0, 5.0], [1.0, 0.0, 5.0]])
    pts_b = np.array([[2.0, 0.0, 5.0]])
    frames = [
        (0.0, Pose.identity(), pts_a),
        (0.5, _translation(1.0), pts_b),
    ]
    cloud = accumulate_local_cloud(frames, t_now=0.5, window=1.0)
    # frame A points shift by -1 m in x once expressed in the newest frame
    np.testing.assert_allclose(
        cloud, [[-1.0, 0.0, 5.0], [0.0, 0.0, 5.0], [2.0, 0.0, 5.0]], atol=1e-12
    )


def test_accumulate_local_cloud_window_cutoff():
    frames = [(0.0, Pose.identity(), np.ones((3, 3))), (2.0, Pose.identity(), np.zeros((2, 3)))]
    cloud = accumulate_local_cloud(frames, t_now=2.0, window=1.0)
    assert len(cloud) == 2
    with pytest.raises(EmptyWindow):
        accumulate_local_cloud(frames, t_now=5.0, window=1.0)


def test_points_in_region_square():
    quad = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    depth = 5.0
    scale = depth / K100.fx
    inside = [0.0, 0.0, depth]
    boundary = [scale, 0.0, depth]  # projects to (1, 0), on the edge
    outside = [3.0 * scale, 0.0, depth]
    behind = [0.0, 0.0, -depth]
    pts = np.array([inside, boundary, outside, behind])
    kept = points_in_region(pts, K100, quad)
    np.testing.assert_allclose(kept, [inside, boundary], atol=1e-12)


def test_points_in_region_matches_convex_oracle():
    rng = np.random.default_rng(5)
    quad = np.array([[-3.0, -2.0], [4.0, -1.5], [3.5, 2.5], [-2.0, 3.0]])  # convex, CCW

    def _inside_convex(u, v):
        sides = []
        for k in range(4):
            a, b = quad[k], quad[(k + 1) % 4]
            sides.append((b[0] - a[0]) * (v - a[1]) - (b[1] - a[1]) * (u - a[0]))
        return all(s >= -1e-12 for s in sides) or all(s <= 1e-12 for s in sides)

    depth = 4.0
    pts = np.column_stack(
        [
            rng.uniform(-6, 6, size=400) * depth / K100.fx,
            rng.uniform(-6, 6, size=400) * depth / K100.fy,
            np.full(400, depth),
        ]
    )
    kept = points_in_region(pts, K100, quad)
    expected = [p for p, uv in zip(pts, project_array(K100, pts)[0]) if _inside_convex(*uv)]
    np.testing.assert_allclose(kept, np.asarray(expected).reshape(-1, 3), atol=1e-12)


def test_fit_plane_ransac_recovers_wall():
    rng = np.random.default_rng(7)
    grid = np.column_stack(
        [rng.uniform(-2, 2, size=80), rng.uniform(-1, 1, size=80), np.full(80, 5.0)]
    )
    outliers = np.column_stack(
        [rng.uniform(-2, 2, size=20), rng.uniform(-1, 1, size=20), rng.uniform(1.0, 4.0, size=20)]
    )
    plane = fit_plane_ransac(np.vstack([grid, outliers]), seed=7)
    angle = np.arccos(np.clip(abs(plane.normal @ [0.0, 0.0, -1.0]), -1, 1))
    assert angle < 1e-3
    # oriented toward the camera at the origin
    np.testing.assert_allclose(plane.normal, [0.0, 0.0, -1.0], atol=1e-9)
    assert abs(plane.offset - 5.0) < 5e-3


def test_fit_plane_ransac_too_few_points():
    with pytest.raises(TooFewPoints):
        fit_plane_ransac(np.zeros((10, 3)), seed=0)


def test_fit_plane_ransac_low_inlier_ratio():
    rng = np.random.default_rng(13)
    coplanar = np.column_stack(
        [rng.uniform(-2, 2, size=30), rng.uniform(-1, 1, size=30), np.full(30, 5.0)]
    )
    scatter = rng.uniform(-3.0, 3.0, size=(70, 3)) + [0.0, 0.0, 8.0]
    with pytest.raises(LowInlierRatio):
        fit_plane_ransac(np.vstack([coplanar, scatter]), seed=0)


def test_fit_plane_ransac_degenerate_sample():
    line = np.column_stack([np.linspace(0, 1, 30), np.zeros(30), np.full(30, 5.0)])
    with pytest.raises(DegenerateSample):
        fit_plane_ransac(line, seed=0)


def _rect_quad_on_plane(intrinsics, origin, x_axis, y_axis, width, height):
    """Project a rectangle's corners: TL, TR, BR, BL for a y-down image."""
    top_left = origin + y_axis * height / 2
    corners3d = [
        top_left,
        top_left + x_axis * width,
        top_left + x_axis * width - y_axis * height,
        top_left - y_axis * height,
    ]
    return project_array(intrinsics, corners3d)[0], corners3d


def test_make_entity_pose_head_on():
    plane = PlaneParams([0.0, 0.0, -1.0], 5.0)
    origin = np.array([0.0, 0.0, 5.0])  # left edge midpoint
    quad, _ = _rect_quad_on_plane(
        K100, origin, np.array([1.0, 0.0, 0.0]), np.array([0.0, -1.0, 0.0]), 1.0, 0.4
    )
    pose = make_entity_pose(K100, plane, quad)
    np.testing.assert_allclose(pose.translation, origin, atol=1e-9)
    np.testing.assert_allclose(pose.rotation[:, 0], [1.0, 0.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(pose.rotation[:, 2], [0.0, 0.0, -1.0], atol=1e-9)
    assert np.linalg.det(pose.rotation) == pytest.approx(1.0)


def test_make_entity_pose_tilted_plane():
    # wall tilted 30 degrees about y, text along the wall's in-plane x direction
    tilt = np.pi / 6
    normal = np.array([np.sin(tilt), 0.0, -np.cos(tilt)])
    origin = np.array([-0.4, 0.1, 4.0])
    x_axis = np.array([np.cos(tilt), 0.0, np.sin(tilt)])
    y_axis = np.cross(normal, x_axis)
    plane = PlaneParams(normal, -float(normal @ origin))
    quad, _ = _rect_quad_on_plane(K100, origin, x_axis, y_axis, 0.8, 0.3)
    pose = make_entity_pose(K100, plane, quad)
    np.testing.assert_allclose(pose.translation, origin, atol=1e-9)
    np.testing.assert_allclose(pose.rotation[:, 0], x_axis, atol=1e-9)
    np.testing.assert_allclose(pose.rotation[:, 2], normal, atol=1e-9)
    rtr = pose.rotation.T @ pose.rotation
    np.testing.assert_allclose(rtr, np.eye(3), atol=1e-12)
    assert np.linalg.det(pose.rotation) == pytest.approx(1.0)


def test_make_entity_pose_degenerate_edge():
    plane = PlaneParams([0.0, 0.0, -1.0], 5.0)
    quad = np.array([[0.0, -1.0], [0.0, -1.0], [0.0, 1.0], [0.0, 1.0]])
    with pytest.raises(DegenerateEdge):
        make_entity_pose(K100, plane, quad)


def _anchor(pose_in_camera, rig, t_image, stamps, poses):
    """Anchor frame and entity pose in it, composed as extract_entities does."""
    frame, motion = pose_at_image_time(stamps, poses, t_image)
    return frame, motion @ rig.camera_in_lidar @ pose_in_camera


def test_anchor_entity_midpoint():
    rig = CalibratedRig(K100, Pose.identity())
    stamps = [0.0, 1.0]
    poses = [Pose.identity(), _translation(1.0)]
    frame, anchored = _anchor(Pose.identity(), rig, 0.5, stamps, poses)
    assert frame == 0
    np.testing.assert_allclose(anchored.translation, [0.5, 0.0, 0.0], atol=1e-12)


def test_anchor_entity_exact_stamp_uses_no_interpolation():
    rig = CalibratedRig(K100, Pose.identity())
    stamps = [0.0, 1.0]
    poses = [Pose.identity(), _translation(1.0)]
    text_pose = _translation(0.0, 0.0, 3.0)
    frame, anchored = _anchor(text_pose, rig, 1.0, stamps, poses)
    assert frame == 1
    assert poses_close(anchored, text_pose, tol=1e-12)


def test_anchor_entity_rotating_odometry():
    # frozen from the fractional matrix power of the relative motion
    rig = CalibratedRig(K100, Pose.identity())
    yaw90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    stamps = [0.0, 2.0]
    poses = [Pose.identity(), Pose(yaw90, [2.0, 0.0, 1.0])]
    _, anchored = _anchor(Pose.identity(), rig, 1.0, stamps, poses)
    np.testing.assert_allclose(
        anchored.translation, [1.0000000000000002, -0.4142135623730951, 0.5], atol=1e-12
    )


def test_anchor_entity_unbracketed():
    rig = CalibratedRig(K100, Pose.identity())
    stamps = [0.0, 1.0]
    poses = [Pose.identity(), _translation(1.0)]
    with pytest.raises(UnbracketedTimestamp):
        _anchor(Pose.identity(), rig, 1.5, stamps, poses)
    with pytest.raises(UnbracketedTimestamp):
        _anchor(Pose.identity(), rig, -0.5, stamps, poses)


def _wall_scene():
    """Camera rig 0.05 m ahead of frame 0, wall at z = 5 in frame 0."""
    rig = CalibratedRig(K100, Pose.identity())
    stamps = [0.0, 0.1]
    poses = [Pose.identity(), _translation(0.1)]
    xs, ys = np.meshgrid(np.arange(-0.6, 0.61, 0.05), np.arange(-0.3, 0.31, 0.05))
    wall = np.column_stack([xs.ravel(), ys.ravel(), np.full(xs.size, 5.0)])
    clouds = {0: wall, 1: np.empty((0, 3))}
    return rig, stamps, poses, clouds


def _quad_for_rect(center_x, width, height, cam_x, depth=5.0):
    """Pixel quad of a wall rectangle as seen from a camera at x = cam_x."""
    left = center_x - width / 2 - cam_x
    right = center_x + width / 2 - cam_x
    top = -height / 2
    bottom = height / 2
    corners = [[left, top, depth], [right, top, depth], [right, bottom, depth], [left, bottom, depth]]
    return project_array(K100, corners)[0]


def test_extract_entities_end_to_end():
    rig, stamps, poses, clouds = _wall_scene()
    quad = _quad_for_rect(center_x=-0.1, width=0.4, height=0.2, cam_x=0.05)
    det = TextDetection("D1-R02", confidence=0.95, quad=quad, timestamp=0.05)
    params = ExtractionParams(id_pattern=r"[A-Z]\d-R\d{2}")
    entities = extract_entities([det], 0.05, rig, stamps, poses, clouds, params)
    assert len(entities) == 1
    entity = entities[0]
    assert entity.anchor_frame == 0
    assert entity.category is TextCategory.ID
    assert entity.content == "D1-R02"
    # origin must recover the physical left-edge midpoint in frame 0
    np.testing.assert_allclose(entity.pose_in_anchor.translation, [-0.3, 0.0, 5.0], atol=1e-9)
    np.testing.assert_allclose(entity.pose_in_anchor.rotation[:, 0], [1.0, 0.0, 0.0], atol=1e-9)


def test_extract_entities_filters_low_confidence():
    rig, stamps, poses, clouds = _wall_scene()
    quad = _quad_for_rect(center_x=-0.1, width=0.4, height=0.2, cam_x=0.05)
    det = TextDetection("EXIT", confidence=0.5, quad=quad, timestamp=0.05)
    assert extract_entities([det], 0.05, rig, stamps, poses, clouds) == []


def test_extract_entities_skips_sparse_regions():
    rig, stamps, poses, clouds = _wall_scene()
    quad = _quad_for_rect(center_x=-0.1, width=0.06, height=0.05, cam_x=0.05)
    det = TextDetection("EXIT", confidence=0.95, quad=quad, timestamp=0.05)
    assert extract_entities([det], 0.05, rig, stamps, poses, clouds) == []


def test_extract_entities_unbracketed_timestamp():
    rig, stamps, poses, clouds = _wall_scene()
    quad = _quad_for_rect(center_x=-0.1, width=0.4, height=0.2, cam_x=0.05)
    det = TextDetection("EXIT", confidence=0.95, quad=quad, timestamp=0.35)
    with pytest.raises(UnbracketedTimestamp):
        extract_entities([det], 0.35, rig, stamps, poses, clouds)


def _ransac_oracle(points, seed, params=RansacParams()):
    """fit_plane_ransac scoring one hypothesis at a time: one rng.choice and one np.cross each."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(points)
    if n < params.min_points:
        raise TooFewPoints(f"{n} points, need {params.min_points}")
    rng = np.random.default_rng(seed)
    best_count = 0
    best_inliers = None
    for _ in range(params.iterations):
        a, b, c = points[rng.choice(n, size=3, replace=False)]
        normal = np.cross(b - a, c - a)
        scale = np.linalg.norm(normal)
        if scale < 1e-12:
            continue
        normal /= scale
        dist = np.abs((points - a) @ normal)
        inliers = dist <= params.inlier_threshold
        count = int(inliers.sum())
        if count > best_count:
            best_count = count
            best_inliers = inliers
    if best_inliers is None:
        raise DegenerateSample("all sampled triples were collinear")
    if best_count < params.min_points or best_count < params.min_inlier_ratio * n:
        raise LowInlierRatio(f"{best_count}/{n} inliers")
    support = points[best_inliers]
    centroid = support.mean(axis=0)
    _, _, vt = np.linalg.svd(support - centroid, full_matrices=False)
    normal = vt[2]
    if normal @ centroid > 0.0:
        normal = -normal
    return PlaneParams(normal, -float(normal @ centroid))


def _ransac_outcome(fit, points, seed, params):
    try:
        plane = fit(points, seed, params)
    except ExtractionError as exc:
        return type(exc)
    return plane.normal.tolist(), plane.offset


def _noisy_plane(rng, count, sigma):
    normal = rng.normal(size=3)
    normal /= np.linalg.norm(normal)
    basis = np.linalg.svd(normal[None, :])[2][1:]
    center = rng.uniform(-3.0, 3.0, size=3) + [0.0, 0.0, 6.0]
    coords = rng.uniform(-1.0, 1.0, size=(count, 2))
    return center + coords @ basis + rng.normal(scale=sigma, size=(count, 1)) * normal


@pytest.mark.parametrize("n", [3, 4, 20, 21, 333, 1499, 9000, 2**31 + 11])
def test_draw_triples_replays_rng_choice(n):
    # near 2**31 about half of the bounded draws reject their first word
    for seed in range(2000):
        count = seed % 9
        expected_rng = np.random.default_rng([seed, n % 1000])
        got_rng = np.random.default_rng([seed, n % 1000])
        expected = [expected_rng.choice(n, size=3, replace=False) for _ in range(count)]
        got = entities_module._draw_triples(got_rng, n, count)
        assert got.shape == (count, 3)
        assert got.tolist() == np.reshape(expected, (count, 3)).tolist(), seed
        # both read the same words from the stream
        assert got_rng.integers(2**32) == expected_rng.integers(2**32), seed


def _ransac_clouds(rng):
    clouds = []
    for _ in range(40):
        # noisy planes straddling the inlier threshold
        sigma = float(rng.uniform(0.0, 0.03))
        clouds.append(_noisy_plane(rng, int(rng.integers(20, 200)), sigma))
        # a plane plus scattered outliers, from mostly inliers to mostly outliers
        plane = _noisy_plane(rng, int(rng.integers(20, 120)), 0.005)
        scatter = rng.uniform(-3.0, 3.0, size=(int(rng.integers(0, 150)), 3)) + [0.0, 0.0, 6.0]
        clouds.append(np.vstack([plane, scatter]))
        # collinear runs make degenerate triples likely
        line = np.linspace(0.0, 1.0, int(rng.integers(15, 40)))[:, None] * rng.normal(size=3)
        clouds.append(np.vstack([line, _noisy_plane(rng, int(rng.integers(5, 30)), 0.0)]))
    for _ in range(10):
        # two planes of equal size tie; the first hypothesis with the most inliers wins
        size = int(rng.integers(30, 300))
        sigma = float(rng.choice([0.0, 0.01]))
        clouds.append(np.vstack([_noisy_plane(rng, size, sigma), _noisy_plane(rng, size, sigma)]))
        # repeated points make repeated hypotheses and zero normals
        base = _noisy_plane(rng, int(rng.integers(3, 12)), 0.0)
        clouds.append(base[rng.integers(0, len(base), size=int(rng.integers(20, 80)))])
    clouds.append(_noisy_plane(rng, 1500, 0.01))
    clouds.append(np.column_stack([np.linspace(0, 1, 30), np.zeros(30), np.full(30, 5.0)]))
    clouds.append(np.zeros((10, 3)))
    return clouds


def test_fit_plane_ransac_matches_per_hypothesis_oracle(monkeypatch):
    rng = np.random.default_rng(2024)
    param_sets = [RansacParams(), RansacParams(iterations=7), RansacParams(iterations=0)]
    # 1 scores one hypothesis per chunk, 300 a few per chunk
    chunk_sizes = [1, 300, entities_module.RANSAC_CHUNK_VALUES]
    outcomes = set()
    for index, cloud in enumerate(_ransac_clouds(rng)):
        for params in param_sets:
            seed = [int(rng.integers(0, 1000)), index]
            expected = _ransac_outcome(_ransac_oracle, cloud, seed, params)
            for chunk_values in chunk_sizes:
                monkeypatch.setattr(entities_module, "RANSAC_CHUNK_VALUES", chunk_values)
                got = _ransac_outcome(fit_plane_ransac, cloud, seed, params)
                # == on the floats: the same hypotheses must win with the same bits
                assert got == expected, (index, params, chunk_values)
            outcomes.add(expected if isinstance(expected, type) else PlaneParams)
    assert outcomes == {PlaneParams, TooFewPoints, DegenerateSample, LowInlierRatio}


def _hypothesis_distances(points, seed, iterations):
    """Each hypothesis's point distances as the oracle computes them, and as one GEMM does."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(iterations):
        a, b, c = points[rng.choice(len(points), size=3, replace=False)]
        normal = np.cross(b - a, c - a)
        normal = normal / np.linalg.norm(normal)
        gemm = entities_module._gemm_distances(points, a[None], normal[None])[0]
        rows.append((np.abs((points - a) @ normal), gemm))
    return rows


def _thresholds_at(exact, gemm, picks):
    """The exact distances of the picked points, one ulp either side, and their GEMM distances."""
    exact = exact[picks]
    return [*exact, *np.nextafter(exact, -np.inf), *np.nextafter(exact, np.inf), *gemm[picks]]


def test_fit_plane_ransac_rounds_like_one_hypothesis_at_a_time():
    # with the threshold equal to a distance of one hypothesis, a distance or
    # a normal that rounds one ulp off moves that point out of the support
    rng = np.random.default_rng(17)
    for trial in range(300):
        cloud = _noisy_plane(rng, int(rng.integers(20, 400)), 0.05)
        iterations = int(rng.integers(1, 6))
        seed = [trial, 5]
        rows = _hypothesis_distances(cloud, seed, iterations)
        exact, gemm = rows[int(rng.integers(0, iterations))]
        order = np.argsort(exact)
        for threshold in _thresholds_at(exact, gemm, order[[len(order) // 4, len(order) // 2, -1]]):
            params = RansacParams(
                iterations=iterations,
                inlier_threshold=float(threshold),
                min_points=3,
                min_inlier_ratio=0.0,
            )
            expected = _ransac_outcome(_ransac_oracle, cloud, seed, params)
            assert _ransac_outcome(fit_plane_ransac, cloud, seed, params) == expected, trial


def test_inlier_counts_at_gemm_and_exact_distances(monkeypatch):
    # the GEMM and the per-hypothesis arithmetic disagree in the last bits, so
    # a threshold at either distance is where a missing guard miscounts
    rng = np.random.default_rng(43)
    gemm_above = gemm_below = 0
    for trial in range(80):
        # past RANSAC_GEMM_MAX_COORD, or with a NaN point, every hypothesis
        # is scored one at a time
        scale = rng.choice([1.0, 20.0, 2.0**120])
        points = _noisy_plane(rng, int(rng.integers(20, 300)), 0.05) * scale
        if trial % 10 == 0:
            points[int(rng.integers(len(points))), int(rng.integers(3))] = np.nan
        count = int(rng.integers(1, 8))
        anchors = points[rng.integers(0, len(points), size=count)]
        normals = rng.normal(size=(count, 3))
        normals /= np.sqrt(np.sum(normals * normals, axis=1))[:, None]
        exact = np.array([np.abs((points - a) @ n) for a, n in zip(anchors, normals)])
        gemm = entities_module._gemm_distances(points, anchors, normals)
        gemm_above += int(np.count_nonzero(gemm > exact))
        gemm_below += int(np.count_nonzero(gemm < exact))
        row = int(rng.integers(count))
        picks = rng.choice(len(points), size=4, replace=False)
        for chunk_values in (1, 50, entities_module.RANSAC_CHUNK_VALUES):
            monkeypatch.setattr(entities_module, "RANSAC_CHUNK_VALUES", chunk_values)
            for threshold in _thresholds_at(exact[row], gemm[row], picks):
                got = entities_module._inlier_counts(points, anchors, normals, threshold)
                assert got.tolist() == np.count_nonzero(exact <= threshold, axis=1).tolist()
    assert gemm_above > 100 and gemm_below > 100


def test_fit_plane_ransac_memory_is_bounded_by_the_chunk():
    # 2e5 points score one hypothesis per chunk; the support, its centred
    # copy and the SVD factors take up to 4 copies of the points, a chunk
    # its float64 distances and two boolean masks over them
    rng = np.random.default_rng(9)
    n = 200_000
    points = np.column_stack(
        [rng.uniform(-2.0, 2.0, n), rng.uniform(-1.0, 1.0, n), rng.normal(5.0, 0.01, n)]
    )
    tracemalloc.start()
    try:
        plane = fit_plane_ransac(points, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(plane.offset - 5.0) < 1e-2
    chunk_bytes = 10 * max(entities_module.RANSAC_CHUNK_VALUES, n)
    assert peak <= 4 * points.nbytes + chunk_bytes


def test_fit_plane_ransac_at_min_points_matches_oracle():
    rng = np.random.default_rng(11)
    outcomes = set()
    for min_points in (3, 4, 5, 20):
        params = RansacParams(min_points=min_points, min_inlier_ratio=0.0)
        for trial in range(30):
            cloud = _noisy_plane(rng, min_points, float(rng.choice([0.0, 0.05])))
            if trial % 3 == 0:
                cloud[-1] = cloud[0]
            seed = [trial, min_points]
            expected = _ransac_outcome(_ransac_oracle, cloud, seed, params)
            assert _ransac_outcome(fit_plane_ransac, cloud, seed, params) == expected
            assert _ransac_outcome(fit_plane_ransac, cloud[:-1], seed, params) is TooFewPoints
            outcomes.add(expected if isinstance(expected, type) else PlaneParams)
    assert PlaneParams in outcomes


def test_fit_plane_ransac_needs_three_points():
    params = RansacParams(min_points=1)
    for n in (0, 1, 2):
        with pytest.raises(TooFewPoints, match="need 3"):
            fit_plane_ransac(np.ones((n, 3)), seed=0, params=params)


def _region_oracle(points_cam, intrinsics, quad):
    """points_in_region without the bounding-box crop: every valid point is tested."""
    points_cam = np.asarray(points_cam, dtype=float).reshape(-1, 3)
    uv, valid = project_array(intrinsics, points_cam)
    keep = valid.copy()
    keep[valid] = entities_module._points_in_polygon(uv[valid], np.asarray(quad, dtype=float))
    return points_cam[keep]


def _around_quad(rng, quad, depth):
    """Pixels on the quad's corners and edges, just off them, and scattered around it."""
    uv = [quad]
    for k in range(4):
        a, b = quad[k], quad[(k + 1) % 4]
        s = rng.uniform(0.0, 1.0, size=(20, 1))
        on_edge = a + s * (b - a)
        uv += [on_edge, on_edge + 1e-10, on_edge - 1e-10, on_edge + 1e-7, on_edge - 1e-7]
    lo, hi = quad.min(axis=0), quad.max(axis=0)
    uv += [lo - 1e-6, hi + 1e-6, lo - 2e-6, hi + 2e-6, [[lo[0], hi[1]], [hi[0], lo[1]]]]
    uv.append(rng.uniform(lo - 5.0, hi + 5.0, size=(300, 2)))
    uv = np.vstack(uv)
    return uv, np.full(len(uv), depth)


@pytest.mark.parametrize(
    "quad",
    [
        [[0.0, 0.0], [4.0, 0.0], [4.0, 2.0], [0.0, 2.0]],
        [[310.25, 200.5], [402.75, 207.125], [398.5, 260.0], [305.0, 251.75]],
        [[1.0, 1.0], [3.0, 0.5], [2.0, 3.0], [2.5, 1.2]],  # not convex
        [[320.0, 240.0]] * 4,  # zero area, one point
        [[300.0, 240.0], [340.0, 240.0], [340.0, 240.0], [300.0, 240.0]],  # zero area, a segment
        [[1.0, 1.0], [np.nan, 2.0], [3.0, 3.0], [0.0, 3.0]],
    ],
    ids=["square", "skewed", "concave", "point", "segment", "nan-corner"],
)
@pytest.mark.parametrize("fx, cx", [(1.0, 0.0), (350.0, 320.0)])
def test_points_in_region_equals_uncropped_test(quad, fx, cx):
    intrinsics = CameraIntrinsics(fx=fx, fy=fx, cx=cx, cy=0.75 * cx)
    quad = np.array(quad)
    rng = np.random.default_rng(31)
    uv, depth = _around_quad(rng, np.nan_to_num(quad, nan=2.0), 4.0)
    in_front = np.column_stack(
        [(uv[:, 0] - cx) * depth / fx, (uv[:, 1] - 0.75 * cx) * depth / fx, depth]
    )
    # the same rays behind the camera, and points on the image plane
    behind = in_front * [1.0, 1.0, -1.0]
    flat = in_front * [1.0, 1.0, 0.0]
    points = np.vstack([in_front, behind, flat])
    kept = points_in_region(points, intrinsics, quad)
    expected = _region_oracle(points, intrinsics, quad)
    assert kept.tobytes() == expected.tobytes()
    if np.ptp(quad, axis=0).min() > 0 and np.isfinite(quad).all():
        # the oracle keeps points on the boundary, so the test has some
        assert len(expected) > 20


def _broadcast_crop(points_cam, intrinsics, quad):
    """Indices of the points that reach the polygon test, cropped with (N, 2) broadcasts."""
    uv, valid = project_array(intrinsics, points_cam)
    lo = quad.min(axis=0) - entities_module.QUAD_BOX_MARGIN
    hi = quad.max(axis=0) + entities_module.QUAD_BOX_MARGIN
    outside = (uv < lo) | (uv > hi)
    (near,) = np.nonzero(valid & ~(outside[:, 0] | outside[:, 1]))
    return uv, near


@pytest.mark.parametrize(
    "quad",
    [
        [[-50.0, -40.0], [60.0, -35.0], [55.0, 45.0], [-45.0, 50.0]],
        [[-50.0, -40.0], [np.nan, -35.0], [55.0, 45.0], [-45.0, 50.0]],
        [[-50.0, -40.0], [60.0, -35.0], [55.0, np.nan], [-45.0, 50.0]],
        [[np.nan, np.nan], [60.0, -35.0], [55.0, 45.0], [-45.0, 50.0]],
        [[np.nan, np.nan]] * 4,
    ],
    ids=["finite", "nan-u", "nan-v", "nan-corner", "all-nan"],
)
def test_points_in_region_crop_equals_broadcast_crop(quad, monkeypatch):
    quad = np.array(quad)
    rng = np.random.default_rng(17)
    points = rng.uniform([-3.0, -3.0, -1.0], [3.0, 3.0, 5.0], size=(600, 3))
    for column, stride in ((0, 17), (1, 23), (2, 29)):
        points[column::stride, column] = np.nan
    points[11::31] = np.nan
    polygon_test = entities_module._points_in_polygon
    tested = []

    def recording_polygon_test(uv, polygon):
        tested.append(uv)
        return polygon_test(uv, polygon)

    monkeypatch.setattr(entities_module, "_points_in_polygon", recording_polygon_test)
    kept = points_in_region(points, K100, quad)
    uv, near = _broadcast_crop(points, K100, quad)
    (tested_uv,) = tested
    assert tested_uv.tobytes() == uv[near].tobytes()
    inside = polygon_test(uv[near], quad)
    assert kept.tobytes() == points[near[inside]].tobytes()
    # a NaN corner crops nothing on its axis
    for axis in (0, 1):
        if np.isnan(quad[:, axis]).any():
            finite = np.nan_to_num(quad, nan=0.0)
            assert len(near) > len(_broadcast_crop(points, K100, finite)[1])


def test_extract_entities_window_matches_full_scan(monkeypatch):
    wall = _wall_scene()[3][0]
    stamps = [0.25 * f for f in range(20)]
    poses = [_translation(0.01 * f) for f in range(20)]
    # frames 12 and 14 lie inside the window but have no cloud
    clouds = {f: _translation(-0.01 * f).apply(wall) for f in range(20) if f not in (12, 14)}
    accumulate = entities_module.accumulate_local_cloud
    seen = []

    def recording_accumulate(frames, *args, **kwargs):
        seen.append(frames)
        return accumulate(frames, *args, **kwargs)

    monkeypatch.setattr(entities_module, "accumulate_local_cloud", recording_accumulate)
    rig = CalibratedRig(K100, Pose.identity())
    # 4.0 - 1.0 lands exactly on stamp 12, the inclusive edge of the window
    for t_image in (4.0, 4.1, 0.3, 4.75):
        quad = _quad_for_rect(center_x=-0.1, width=0.4, height=0.2, cam_x=0.0)
        det = TextDetection("EXIT", confidence=0.95, quad=quad, timestamp=t_image)
        found = extract_entities([det], t_image, rig, stamps, poses, clouds)
        assert len(found) == 1
        anchor = found[0].anchor_frame
        full_scan = [
            (stamps[f], poses[f], clouds[f])
            for f in range(anchor + 1)
            if f in clouds and stamps[f] >= t_image - 1.0
        ]
        frames = seen.pop()
        assert [t for t, _, _ in frames] == [t for t, _, _ in full_scan]
        assert all(p is q and a is b for (_, p, a), (_, q, b) in zip(frames, full_scan))


def _bracket_searchsorted(stamps, t_image):
    """The earlier vectorised _bracket, kept as the oracle for the bisect version."""
    stamps = np.asarray(stamps, dtype=float)
    if len(stamps) == 0:
        raise UnbracketedTimestamp("empty odometry")
    i = int(np.searchsorted(stamps, t_image + entities_module.STAMP_EPSILON, side="right")) - 1
    if i < 0:
        raise UnbracketedTimestamp("before")
    if abs(stamps[i] - t_image) <= entities_module.STAMP_EPSILON:
        return i, 0.0
    if i + 1 >= len(stamps):
        raise UnbracketedTimestamp("after")
    return i, (t_image - stamps[i]) / (stamps[i + 1] - stamps[i])


def _outcome(fn, stamps, t_image):
    try:
        return fn(stamps, t_image)
    except UnbracketedTimestamp:
        return "unbracketed"


def test_bracket_matches_searchsorted_oracle():
    rng = np.random.default_rng(21)
    eps = entities_module.STAMP_EPSILON
    stamps = np.cumsum(rng.uniform(0.05, 0.15, size=200)).tolist()
    queries = list(rng.uniform(stamps[0], stamps[-1], size=300))
    queries += stamps[::7]  # exactly on a stamp
    queries += [s + 0.5 * eps for s in stamps[1::11]] + [s - 0.5 * eps for s in stamps[2::11]]
    queries += [stamps[0] - 1.0, stamps[0] - 2 * eps, stamps[-1] + 2 * eps, stamps[-1] + 1.0]
    for t_image in queries:
        assert _outcome(entities_module._bracket, stamps, t_image) == _outcome(
            _bracket_searchsorted, stamps, t_image
        )
    assert _outcome(entities_module._bracket, [], 0.0) == "unbracketed"
