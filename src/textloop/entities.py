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
    """Subset of camera-frame points whose projection falls inside the quad."""
    points_cam = np.asarray(points_cam, dtype=float).reshape(-1, 3)
    if not len(points_cam):
        return points_cam
    uv, valid = project_array(intrinsics, points_cam)
    keep = valid.copy()
    keep[valid] = _points_in_polygon(uv[valid], np.asarray(quad, dtype=float))
    return points_cam[keep]


def fit_plane_ransac(
    points: np.ndarray, seed, params: RansacParams = RansacParams()
) -> PlaneParams:
    """Plane through the dominant support of `points`, normal facing the origin.

    Raises TooFewPoints, DegenerateSample, or LowInlierRatio.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(points)
    if n < params.min_points:
        raise TooFewPoints(f"{n} points, need {params.min_points}")
    rng = np.random.default_rng(seed)
    # one rng draw per hypothesis, in hypothesis order, keeps the seeded
    # results; the triples are drawn up front so one np.cross gives every normal
    triples = np.array(
        [rng.choice(n, size=3, replace=False) for _ in range(params.iterations)], dtype=np.intp
    ).reshape(-1, 3)
    a, b, c = points[triples].transpose(1, 0, 2)
    normals = np.cross(b - a, c - a)
    best_count = 0
    best_inliers = None
    for h, normal in enumerate(normals):
        scale = np.linalg.norm(normal)
        if scale < 1e-12:
            continue
        normal /= scale
        dist = np.abs((points - a[h]) @ normal)
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
