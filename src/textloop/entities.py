"""Text entity extraction: from detected quads to metric poses in a LiDAR anchor frame.

A detection is a text string plus a pixel quad from an external OCR stage.  The
surface holding the text is recovered from accumulated LiDAR returns, the quad
is back-projected onto that surface, and the resulting entity pose is anchored
to the odometry frame active when the image was taken.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .geometry import (
    DEPTH_EPSILON,
    CameraIntrinsics,
    GeometryError,
    PlaneParams,
    PixelPoint,
    Pose,
    backproject,
    interpolate,
    relative_stacked,
    stack_poses,
)

CONTENT_MIN_CONFIDENCE = 0.85
CLOUD_WINDOW_SECONDS = 1.0
STAMP_EPSILON = 1e-9
# widening of a quad's bounding box, in pixels, before the polygon test
QUAD_BOX_MARGIN = 1e-6
# float64 values in one chunk of RANSAC point distances, about 1 MB
RANSAC_CHUNK_VALUES = 1 << 17
# RANSAC's GEMM distances are trusted this far, times the largest coordinate
# magnitude, from the threshold (64 units of roundoff, see _inlier_counts)
RANSAC_GUARD = 2.0**-47
# a region with a coordinate beyond this is scored without the GEMM
RANSAC_GEMM_MAX_COORD = 2.0**100
_LOW_WORD = np.uint64(0xFFFFFFFF)
_NO_POINTS = np.empty((0, 3))


class ExtractionError(ValueError):
    """Base class for extraction failures; callers usually skip the detection."""


class EmptyWindow(ExtractionError):
    pass


class TooFewPoints(ExtractionError):
    pass


class DegenerateSample(ExtractionError):
    pass


class LowInlierRatio(ExtractionError):
    pass


class DegenerateEdge(ExtractionError):
    pass


class UnbracketedTimestamp(ExtractionError):
    pass


class InvalidPattern(ExtractionError):
    pass


class TextCategory(Enum):
    ID = "id"
    GENERIC = "generic"


@dataclass(frozen=True)
class TextDetection:
    """One OCR hit: content, confidence in [0, 1], pixel quad, image timestamp.

    The quad rows are ordered top-left, top-right, bottom-right, bottom-left.
    """

    content: str
    confidence: float
    quad: np.ndarray
    timestamp: float

    def __post_init__(self):
        quad = np.array(self.quad, dtype=float).reshape(4, 2)
        quad.flags.writeable = False
        object.__setattr__(self, "quad", quad)


@dataclass(frozen=True)
class TextEntity:
    """A text observation lifted to a metric pose in its anchor LiDAR frame."""

    content: str
    category: TextCategory
    pose_in_anchor: Pose
    anchor_frame: int
    confidence: float


@dataclass(frozen=True)
class CalibratedRig:
    """Camera intrinsics plus the camera pose expressed in the LiDAR frame."""

    intrinsics: CameraIntrinsics
    camera_in_lidar: Pose


@dataclass(frozen=True)
class RansacParams:
    iterations: int = 100
    inlier_threshold: float = 0.02
    min_points: int = 20
    min_inlier_ratio: float = 0.5


def normalize_content(content: str) -> str:
    return content.strip().upper()


def compile_id_pattern(pattern: str) -> re.Pattern:
    try:
        return re.compile(pattern)
    except re.error as exc:
        raise InvalidPattern(f"bad id pattern {pattern!r}: {exc}") from exc


def classify_text(content: str, id_pattern: str | re.Pattern) -> TextCategory:
    """ID when the whole normalized string matches the pattern, generic otherwise."""
    if isinstance(id_pattern, str):
        id_pattern = compile_id_pattern(id_pattern)
    if id_pattern.fullmatch(normalize_content(content)):
        return TextCategory.ID
    return TextCategory.GENERIC


def accumulate_local_cloud(
    frames, t_now: float, window: float = CLOUD_WINDOW_SECONDS
) -> np.ndarray:
    """Gather points from frames within [t_now - window, t_now].

    frames: sequence of (timestamp, Pose, (N, 3) points), points in their own
    LiDAR frame.  The result is expressed in the frame of the newest in-window
    entry, which may hold no points.  Raises EmptyWindow when no frame
    qualifies.

    Each entry's points get the bits of (ref.inverse() @ pose).apply(points):
    the relative poses come from one relative_stacked call, which has the
    bits of that inverse and compose, and each entry's whole array is
    multiplied and shifted as Pose.apply does it, straight into its rows of
    the one result buffer.
    """
    in_window = [
        (pose, np.asarray(pts, dtype=float).reshape(-1, 3))
        for t, pose, pts in frames
        if t_now - window <= t <= t_now + STAMP_EPSILON
    ]
    if not in_window:
        raise EmptyWindow(f"no frames within {window} s of t = {t_now}")
    count = len(in_window)
    rotations, translations = relative_stacked(
        *stack_poses([pose for pose, _ in in_window]), np.full(count, count - 1), np.arange(count)
    )
    out = np.empty((sum(len(pts) for _, pts in in_window), 3))
    start = 0
    for (_, pts), rotation, translation in zip(in_window, rotations, translations):
        if not len(pts):
            continue
        rows = out[start : start + len(pts)]
        np.matmul(pts, rotation.T, out=rows)
        for k in range(3):
            rows[:, k] += translation[k]
        start += len(pts)
    return out


def _points_in_polygon(uv: np.ndarray, polygon: np.ndarray) -> np.ndarray:
    """Even-odd rule, boundary inclusive.  uv (N, 2), polygon (M, 2)."""
    u, v = uv[:, 0], uv[:, 1]
    inside = np.zeros(len(uv), dtype=bool)
    on_edge = np.zeros(len(uv), dtype=bool)
    m = len(polygon)
    for k in range(m):
        a = polygon[k]
        b = polygon[(k + 1) % m]
        crosses = (a[1] > v) != (b[1] > v)
        with np.errstate(divide="ignore", invalid="ignore"):
            u_hit = a[0] + (v - a[1]) * (b[0] - a[0]) / (b[1] - a[1])
        inside ^= crosses & (u < u_hit)
        # distance to the segment, for inclusive boundaries
        ab = b - a
        length_sq = float(ab @ ab)
        if length_sq < 1e-18:
            continue
        s = np.clip(((u - a[0]) * ab[0] + (v - a[1]) * ab[1]) / length_sq, 0.0, 1.0)
        du = u - (a[0] + s * ab[0])
        dv = v - (a[1] + s * ab[1])
        on_edge |= du * du + dv * dv <= 1e-18
    return inside | on_edge


def points_in_region(
    points_cam: np.ndarray, intrinsics: CameraIntrinsics, quad: np.ndarray
) -> np.ndarray:
    """Subset of camera-frame points whose projection falls inside the quad.

    The crop runs in stages, each on the survivors of the one before: depth
    (z > DEPTH_EPSILON), then u, then v.  Each stage is elementwise, with
    project_array's arithmetic, so a survivor's pixel has the bits that
    projecting every point gives, and the polygon test sees the rows it sees
    after projecting every point, in the same order.  Only points inside the
    quad's bounding box, widened by QUAD_BOX_MARGIN, reach the polygon test:
    no point outside it is inside the quad or within the test's 1e-9 px
    boundary tolerance, as long as rounding at the quad's pixel coordinates
    stays far below the margin (below about 1e9 px).  A NaN corner crops
    nothing on its axis.  So the result is that of testing every point,
    unless a corner's v is NaN while every u is finite: the polygon test then
    counts only the edges away from that corner, and can keep points outside
    the u range, which the crop drops.  A quad read from a log never has a
    NaN corner, nor one beyond 1e6 px: parse_detections rejects both.
    """
    points_cam = np.asarray(points_cam, dtype=float).reshape(-1, 3)
    if not len(points_cam):
        return points_cam
    quad = np.asarray(quad, dtype=float)
    u_lo, v_lo = quad.min(axis=0) - QUAD_BOX_MARGIN
    u_hi, v_hi = quad.max(axis=0) + QUAD_BOX_MARGIN
    (near,) = np.nonzero(points_cam[:, 2] > DEPTH_EPSILON)
    z = points_cam[near, 2]
    u = intrinsics.fx * points_cam[near, 0] / z + intrinsics.cx
    # "not outside", so that a NaN pixel or bound crops nothing
    keep = ~((u < u_lo) | (u > u_hi))
    near, z, u = near[keep], z[keep], u[keep]
    v = intrinsics.fy * points_cam[near, 1] / z + intrinsics.cy
    keep = ~((v < v_lo) | (v > v_hi))
    near = near[keep]
    uv = np.column_stack([u[keep], v[keep]])
    return points_cam[near[_points_in_polygon(uv, quad)]]


def _draw_triples(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """(count, 3) indices, equal to count calls of rng.choice(n, size=3, replace=False).

    Replays numpy's choice of 3 from n (3 <= n < 2**32 - 1).  Floyd's
    algorithm draws bounded integers on [0, n - 3], [0, n - 2] and [0, n - 1]
    (a bound of 0 draws nothing), and the shuffle then draws on [0, 2] and
    [0, 1].  Each bounded draw is Lemire's method on one 32-bit word, taking
    the next word while the word is rejected, so all words come from one
    rng.integers call, topped up after a rejection.
    """
    bounds = ([n - 3] if n > 3 else []) + [n - 2, n - 1, 2, 1]
    spans = np.tile(np.array(bounds, dtype=np.uint64) + np.uint64(1), count)
    # Lemire rejects a word whose low product half is below 2**32 mod span
    thresholds = np.uint64(2**32) % spans
    draws = np.empty(len(spans), dtype=np.uint64)
    filled = 0
    while filled < len(spans):
        words = rng.integers(0, 2**32, size=len(spans) - filled, dtype=np.uint32)
        words = words.astype(np.uint64)
        while len(words):
            rows = slice(filled, filled + len(words))
            product = words * spans[rows]
            (rejected,) = np.nonzero((product & _LOW_WORD) < thresholds[rows])
            keep = rejected[0] if len(rejected) else len(words)
            draws[filled : filled + keep] = product[:keep] >> np.uint64(32)
            filled += keep
            words = words[keep + 1 :]
    draws = draws.astype(np.intp).reshape(count, len(bounds))
    first = draws[:, 0] if n > 3 else np.zeros(count, dtype=np.intp)
    second, third, swap_2, swap_1 = draws[:, -4:].T
    # Floyd: a value already taken is replaced by the bound itself
    second = np.where(second == first, n - 2, second)
    third = np.where((third == first) | (third == second), n - 1, third)
    triples = np.column_stack([first, second, third])
    rows = np.arange(count)
    for slot, swap in ((2, swap_2), (1, swap_1)):
        held = triples[rows, swap]
        triples[rows, swap] = triples[:, slot]
        triples[:, slot] = held
    return triples


def _exact_distances(points: np.ndarray, anchors: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """(h, n) distances |(p - a) . normal|, each with the bits of scoring one hypothesis alone."""
    # one coordinate at a time into the (h, n, 3) layout the matmul takes:
    # broadcasting over the trailing axis runs a 3-long inner loop
    offsets = np.empty((len(anchors), len(points), 3))
    for k in range(3):
        np.subtract(points[None, :, k], anchors[:, k, None], out=offsets[:, :, k])
    return np.abs(np.matmul(offsets, normals[:, :, None])[:, :, 0])


def _gemm_distances(points: np.ndarray, anchors: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """(h, n) distances |p . normal - a . normal|, from one matrix product."""
    dist = normals @ points.T
    dist -= np.einsum("ij,ij->i", anchors, normals)[:, None]
    return np.abs(dist, out=dist)


def _inlier_counts(
    points: np.ndarray, anchors: np.ndarray, normals: np.ndarray, threshold: float
) -> np.ndarray:
    """Per hypothesis, the points with _exact_distances <= threshold.

    Hypotheses are scored with _gemm_distances, RANSAC_CHUNK_VALUES distances
    at a time.  Take M, the largest coordinate magnitude, and u = 2**-53.  A
    point lies within sqrt(3) M of the origin and a normal is at most 1 + 4u
    long.  So the exact distance is within gamma_4 2 sqrt(3) M of the real
    (p - a) . n, about 8 sqrt(3) u M.  The GEMM distance is within gamma_3
    sqrt(3) M for each of its two dot products and u 2 sqrt(3) M for their
    difference, again about 8 sqrt(3) u M.  Together that is below 28 u M,
    plus at most 5 * 2**-1074 from products that underflow, and the guard,
    RANSAC_GUARD M + 8 * 2**-1074 = 64 u M + 8 * 2**-1074, is more than twice
    it.  A hypothesis with a GEMM distance in the guard band around the
    threshold (its bounds rounded outward) is scored again with
    _exact_distances; every other GEMM distance lies on the same side of the
    threshold as its exact distance, so every count is exact.  Points with a
    coordinate beyond RANSAC_GEMM_MAX_COORD, infinite or NaN, are scored with
    _exact_distances alone; below it nothing overflows.
    """
    n = len(points)
    counts = np.zeros(len(normals), dtype=np.intp)
    coord = max(points.max(), -points.min())
    if coord <= RANSAC_GEMM_MAX_COORD:
        guard = RANSAC_GUARD * coord + 8 * np.finfo(float).smallest_subnormal
        lo = np.nextafter(threshold - guard, -np.inf)
        hi = np.nextafter(threshold + guard, np.inf)
        unsure = []
        chunk = max(1, RANSAC_CHUNK_VALUES // n)
        for start in range(0, len(normals), chunk):
            rows = slice(start, start + chunk)
            dist = _gemm_distances(points, anchors[rows], normals[rows])
            counts[rows] = np.count_nonzero(dist <= lo, axis=1)
            (near,) = np.nonzero(np.count_nonzero(dist <= hi, axis=1) != counts[rows])
            unsure.extend(start + near)
    else:
        unsure = range(len(normals))
    for h in unsure:
        dist = _exact_distances(points, anchors[h : h + 1], normals[h : h + 1])
        counts[h] = np.count_nonzero(dist <= threshold)
    return counts


def fit_plane_ransac(
    points: np.ndarray, seed, params: RansacParams = RansacParams()
) -> PlaneParams:
    """Plane through the dominant support of `points`, normal facing the origin.

    Hypothesis h is the plane through the h-th of `iterations` triples drawn
    as by rng.choice; the first hypothesis with the most inliers wins.  The
    inlier counts are those of scoring one hypothesis at a time with
    |(points - a) @ normal| (_inlier_counts states the guard that keeps
    them), and the winner's support is taken with that arithmetic, so the
    plane has the bits of the one-at-a-time loop.
    Raises TooFewPoints, DegenerateSample, or LowInlierRatio.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(points)
    if n < max(params.min_points, 3):
        raise TooFewPoints(f"{n} points, need {max(params.min_points, 3)}")
    rng = np.random.default_rng(seed)
    a, b, c = points[_draw_triples(rng, n, params.iterations)].transpose(1, 0, 2)
    ab, ac = b - a, c - a
    # np.cross's products and differences, without its per-call overhead
    normals = np.column_stack(
        [
            ab[:, 1] * ac[:, 2] - ab[:, 2] * ac[:, 1],
            ab[:, 2] * ac[:, 0] - ab[:, 0] * ac[:, 2],
            ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0],
        ]
    )
    # a 1x3 by 3x1 matmul per row rounds like np.linalg.norm of that row
    scales = np.sqrt(np.matmul(normals[:, None, :], normals[:, :, None]))[:, 0, 0]
    (usable,) = np.nonzero(~(scales < 1e-12))
    anchors = a[usable]
    normals = normals[usable] / scales[usable, None]
    counts = _inlier_counts(points, anchors, normals, params.inlier_threshold)
    if not counts.any():
        raise DegenerateSample("all sampled triples were collinear")
    best = int(np.argmax(counts))
    best_count = int(counts[best])
    if best_count < params.min_points or best_count < params.min_inlier_ratio * n:
        raise LowInlierRatio(f"{best_count}/{n} inliers")
    rows = slice(best, best + 1)
    dist = _exact_distances(points, anchors[rows], normals[rows])[0]
    support = points[dist <= params.inlier_threshold]
    centroid = support.mean(axis=0)
    _, _, vt = np.linalg.svd(support - centroid, full_matrices=False)
    normal = vt[2]
    if normal @ centroid > 0.0:
        normal = -normal
    return PlaneParams(normal, -float(normal @ centroid))


def make_entity_pose(
    intrinsics: CameraIntrinsics, plane: PlaneParams, quad: np.ndarray
) -> Pose:
    """Camera-frame pose of a text quad lying on `plane`.

    Origin is the back-projected midpoint of the quad's left edge, x points
    along the text toward the right edge, z is the plane normal.
    """
    quad = np.asarray(quad, dtype=float).reshape(4, 2)
    corners = [backproject(intrinsics, plane, PixelPoint(*uv)) for uv in quad]
    # midpoints taken after back-projection: the pixel midpoint of an edge
    # does not land on the 3D midpoint unless the edge has constant depth
    p_left = 0.5 * (corners[0] + corners[3])
    p_right = 0.5 * (corners[1] + corners[2])
    edge = p_right - p_left
    length = float(np.linalg.norm(edge))
    if length < 1e-6:
        raise DegenerateEdge(f"edge midpoints {length} m apart")
    x_axis = edge / length
    normal = plane.normal
    x_axis = x_axis - (normal @ x_axis) * normal
    length = float(np.linalg.norm(x_axis))
    if length < 1e-6:
        raise DegenerateEdge("text direction parallel to the plane normal")
    x_axis = x_axis / length
    rotation = np.column_stack([x_axis, np.cross(normal, x_axis), normal])
    return Pose(rotation, p_left)


def _bracket(stamps, t_image: float) -> tuple[int, float]:
    """Index of the frame at or before t_image and the interpolation factor to the next."""
    if len(stamps) == 0:
        raise UnbracketedTimestamp("empty odometry")
    i = bisect_right(stamps, t_image + STAMP_EPSILON) - 1
    if i < 0:
        raise UnbracketedTimestamp(f"t = {t_image} precedes the first odometry stamp")
    if abs(stamps[i] - t_image) <= STAMP_EPSILON:
        return i, 0.0
    if i + 1 >= len(stamps):
        raise UnbracketedTimestamp(f"t = {t_image} is after the last odometry stamp")
    return i, (t_image - stamps[i]) / (stamps[i + 1] - stamps[i])


def pose_at_image_time(stamps, poses, t_image: float) -> tuple[int, Pose]:
    """Anchor frame index i and the motion from image time back into frame i.

    The returned Pose maps points at the (interpolated) image-time LiDAR frame
    into frame i; it is the geodesic between frames i and i+1 evaluated at the
    image timestamp.
    """
    i, factor = _bracket(stamps, t_image)
    if factor == 0.0:
        return i, Pose.identity()
    rel = poses[i].inverse() @ poses[i + 1]
    return i, interpolate(rel, factor)


@dataclass(frozen=True)
class ExtractionParams:
    min_confidence: float = CONTENT_MIN_CONFIDENCE
    window: float = CLOUD_WINDOW_SECONDS
    id_pattern: str = r"[A-Z]\d-R\d{2}"
    ransac: RansacParams = field(default_factory=RansacParams)
    ransac_seed: int = 0


def extract_entities(
    detections,
    t_image: float,
    rig: CalibratedRig,
    stamps,
    poses,
    clouds,
    params: ExtractionParams = ExtractionParams(),
) -> list[TextEntity]:
    """Run the full extraction chain for one image.

    stamps: ascending odometry timestamps, one per entry of poses.
    clouds: mapping frame index -> (N, 3) points in that LiDAR frame.  A
    frame may have no cloud; the window is still expressed in the anchor
    frame when the anchor is one of them.
    Detections that fail a geometric step are skipped rather than fatal;
    an out-of-span timestamp raises UnbracketedTimestamp.
    """
    pattern = compile_id_pattern(params.id_pattern)
    anchor, motion = pose_at_image_time(stamps, poses, t_image)
    first = bisect_left(stamps, t_image - params.window)
    frames = [(stamps[f], poses[f], clouds[f]) for f in range(first, anchor) if f in clouds]
    if first <= anchor:
        # the window is expressed in its newest entry, which must be the
        # anchor even when the log gave the anchor no cloud
        frames.append((stamps[anchor], poses[anchor], clouds.get(anchor, _NO_POINTS)))
    try:
        cloud_anchor = accumulate_local_cloud(frames, t_now=stamps[anchor], window=params.window)
    except EmptyWindow:
        return []
    cam_in_anchor = motion @ rig.camera_in_lidar
    cloud_cam = cam_in_anchor.inverse().apply(cloud_anchor) if len(cloud_anchor) else cloud_anchor
    entities = []
    for det_index, det in enumerate(detections):
        if det.confidence < params.min_confidence:
            continue
        content = normalize_content(det.content)
        if not content:
            continue
        region = points_in_region(cloud_cam, rig.intrinsics, det.quad)
        try:
            plane = fit_plane_ransac(
                region, seed=[params.ransac_seed, anchor, det_index], params=params.ransac
            )
            pose_cam = make_entity_pose(rig.intrinsics, plane, det.quad)
        except (ExtractionError, GeometryError):
            continue
        entities.append(
            TextEntity(
                content=content,
                category=classify_text(content, pattern),
                pose_in_anchor=cam_in_anchor @ pose_cam,
                anchor_frame=anchor,
                confidence=det.confidence,
            )
        )
    return entities
