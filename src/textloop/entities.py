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
    CameraIntrinsics,
    GeometryError,
    PlaneParams,
    PixelPoint,
    Pose,
    backproject,
    interpolate,
    project_array,
)

CONTENT_MIN_CONFIDENCE = 0.85
CLOUD_WINDOW_SECONDS = 1.0
STAMP_EPSILON = 1e-9
# widening of a quad's bounding box, in pixels, before the polygon test
QUAD_BOX_MARGIN = 1e-6
# float64 values in one chunk of RANSAC point offsets, about 1 MB
RANSAC_CHUNK_VALUES = 1 << 17
_LOW_WORD = np.uint64(0xFFFFFFFF)


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
    entry.  Raises EmptyWindow when no frame qualifies.
    """
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

    Only points inside the quad's bounding box, widened by QUAD_BOX_MARGIN,
    reach the polygon test: no point outside it is inside the quad or within
    the test's 1e-9 px boundary tolerance, as long as rounding at the quad's
    pixel coordinates stays far below the margin (below about 1e9 px).  A
    NaN corner crops nothing on its axis.  So the result is that of testing
    every point, unless a corner's v is NaN while every u is finite: the
    polygon test then counts only the edges away from that corner, and can
    keep points outside the u range, which the crop drops.  A quad read from
    a log never has a NaN corner, nor one beyond 1e6 px: parse_detections
    rejects both.
    """
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


def fit_plane_ransac(
    points: np.ndarray, seed, params: RansacParams = RansacParams()
) -> PlaneParams:
    """Plane through the dominant support of `points`, normal facing the origin.

    Hypothesis h is the plane through the h-th of `iterations` triples drawn
    as by rng.choice; the first hypothesis with the most inliers wins.  They
    are scored in chunks, with the rounding of scoring one at a time.
    Raises TooFewPoints, DegenerateSample, or LowInlierRatio.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(points)
    if n < max(params.min_points, 3):
        raise TooFewPoints(f"{n} points, need {max(params.min_points, 3)}")
    rng = np.random.default_rng(seed)
    a, b, c = points[_draw_triples(rng, n, params.iterations)].transpose(1, 0, 2)
    normals = np.cross(b - a, c - a)
    # a 1x3 by 3x1 matmul per row rounds like np.linalg.norm of that row
    scales = np.sqrt(np.matmul(normals[:, None, :], normals[:, :, None]))[:, 0, 0]
    (usable,) = np.nonzero(~(scales < 1e-12))
    normals = normals[usable] / scales[usable, None]
    best_count = 0
    best_inliers = None
    chunk = max(1, RANSAC_CHUNK_VALUES // (3 * n))
    for start in range(0, len(usable), chunk):
        rows = slice(start, start + chunk)
        anchors = a[usable[rows]]
        # one coordinate at a time into the (h, n, 3) layout the matmul takes:
        # broadcasting over the trailing axis runs a 3-long inner loop
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
    clouds: mapping frame index -> (N, 3) points in that LiDAR frame.
    Detections that fail a geometric step are skipped rather than fatal;
    an out-of-span timestamp raises UnbracketedTimestamp.
    """
    pattern = compile_id_pattern(params.id_pattern)
    anchor, motion = pose_at_image_time(stamps, poses, t_image)
    first = bisect_left(stamps, t_image - params.window)
    frames = [(stamps[f], poses[f], clouds[f]) for f in range(first, anchor + 1) if f in clouds]
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
