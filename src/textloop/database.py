"""Observation store indexed both by text content and by frame."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Pose
from .entities import TextCategory, TextEntity


@dataclass(frozen=True)
class Observation:
    """One anchored sighting of a text string."""

    frame: int
    content: str
    category: TextCategory
    pose: Pose
    confidence: float


class ObservationDatabase:
    """Bidirectional index: content -> observations and frame -> observations.

    Insertion order is preserved in both views.  Exact duplicates (same frame,
    content, and pose bit for bit) are rejected.
    """

    def __init__(self):
        self._by_content: dict[str, list[Observation]] = {}
        self._by_frame: dict[int, list[Observation]] = {}
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def insert(self, frame: int, entity: TextEntity) -> bool:
        """Add an observation; returns False for an exact duplicate."""
        obs = Observation(
            frame=frame,
            content=entity.content,
            category=entity.category,
            pose=entity.pose_in_anchor,
            confidence=entity.confidence,
        )
        for prior in self._by_content.get(obs.content, ()):
            if (
                prior.frame == frame
                and np.array_equal(prior.pose.rotation, obs.pose.rotation)
                and np.array_equal(prior.pose.translation, obs.pose.translation)
            ):
                return False
        self._by_content.setdefault(obs.content, []).append(obs)
        self._by_frame.setdefault(frame, []).append(obs)
        self._count += 1
        return True

    def frames_observing(self, content: str) -> list[Observation]:
        """All observations of a content string, oldest first; [] when unseen."""
        return list(self._by_content.get(content, ()))

    def entities_in_frame(self, frame: int) -> list[Observation]:
        """All observations anchored to a frame; [] when the frame saw no text."""
        return list(self._by_frame.get(frame, ()))

    def anchors(self, frame: int) -> bool:
        """Whether an observation is anchored to the frame."""
        return frame in self._by_frame
