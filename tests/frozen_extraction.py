"""Frozen extraction chain: the oracle for entities' window build, region crop and RANSAC.

These are copies of accumulate_local_cloud, points_in_region and
fit_plane_ransac as they were before RANSAC was scored with one matrix
product per chunk, the crop was staged, and the window was built into one
buffer.  The window is built with one Pose per frame and a vstack, every
point is projected before the crop, and each chunk of hypotheses is scored
with the (h, n, 3) point offsets.  They share only the polygon test and the
triple draw with src, each of which has an oracle of its own.  Do not edit
them to follow src.
"""

from __future__ import annotations

import numpy as np

from textloop.entities import (
    QUAD_BOX_MARGIN,
    STAMP_EPSILON,
    DegenerateSample,
    EmptyWindow,
    LowInlierRatio,
    RansacParams,
    TooFewPoints,
    _draw_triples,
    _points_in_polygon,
)
from textloop.geometry import PlaneParams, project_array

# float64 values in one chunk of RANSAC point offsets, about 1 MB
RANSAC_CHUNK_VALUES = 1 << 17


def accumulate_local_cloud(frames, t_now: float, window: float = 1.0) -> np.ndarray:
    in_window = [
        (t, pose, pts) for t, pose, pts in frames if t_now - window <= t <= t_now + STAMP_EPSILON
    ]
    if not in_window:
        raise EmptyWindow(f"no frames within {window} s of t = {t_now}")
    _, ref_pose, _ = in_window[-1]
    ref_inv = ref_pose.inverse()
    chunks = []
    for _, pose, pts in in_window:
        pts = np.asarray(pts, dtype=float).reshape(-1, 3)
        if len(pts):
            chunks.append((ref_inv @ pose).apply(pts))
    if not chunks:
        return np.empty((0, 3))
    return np.vstack(chunks)


def points_in_region(points_cam, intrinsics, quad) -> np.ndarray:
    points_cam = np.asarray(points_cam, dtype=float).reshape(-1, 3)
    if not len(points_cam):
        return points_cam
    quad = np.asarray(quad, dtype=float)
    uv, valid = project_array(intrinsics, points_cam)
    u_lo, v_lo = quad.min(axis=0) - QUAD_BOX_MARGIN
    u_hi, v_hi = quad.max(axis=0) + QUAD_BOX_MARGIN
    u, v = uv[:, 0], uv[:, 1]
    outside = (u < u_lo) | (u > u_hi) | (v < v_lo) | (v > v_hi)
    (near,) = np.nonzero(valid & ~outside)
    return points_cam[near[_points_in_polygon(uv[near], quad)]]


def fit_plane_ransac(points, seed, params: RansacParams = RansacParams()) -> PlaneParams:
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(points)
    if n < max(params.min_points, 3):
        raise TooFewPoints(f"{n} points, need {max(params.min_points, 3)}")
    rng = np.random.default_rng(seed)
    a, b, c = points[_draw_triples(rng, n, params.iterations)].transpose(1, 0, 2)
    normals = np.cross(b - a, c - a)
    scales = np.sqrt(np.matmul(normals[:, None, :], normals[:, :, None]))[:, 0, 0]
    (usable,) = np.nonzero(~(scales < 1e-12))
    normals = normals[usable] / scales[usable, None]
    best_count = 0
    best_inliers = None
    chunk = max(1, RANSAC_CHUNK_VALUES // (3 * n))
    for start in range(0, len(usable), chunk):
        rows = slice(start, start + chunk)
        anchors = a[usable[rows]]
        offsets = np.empty((len(anchors), n, 3))
        for k in range(3):
            np.subtract(points[None, :, k], anchors[:, k, None], out=offsets[:, :, k])
        dist = np.abs(np.matmul(offsets, normals[rows, :, None])[:, :, 0])
        inliers = dist <= params.inlier_threshold
        counts = inliers.sum(axis=1)
        top = int(np.argmax(counts))
        if counts[top] > best_count:
            best_count = int(counts[top])
            best_inliers = inliers[top]
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
